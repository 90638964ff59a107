"""Run one workload of the petrovtypes benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it measures the checkout it lives in, importing
petrovtypes from that checkout's src/.  With ``--trace 0`` it prints the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a separate
traced run.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  The lines before it record the
environment and every metric with its unit.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("classify-catalog", "classify-synthetic", "verify-sweep", "cli")
SETUP_RUNS = 5  # set-ups timed per run; setup_s is their median
P90_MIN_SAMPLES = 100  # p90 needs ten samples beyond it
WORKER_GRACE_S = 150  # beyond --seconds, before a worker is killed
# one BLAS thread everywhere: the matrices are at most 8x8, and a thread pool
# sized to the machine would make results depend on the core count
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def start_worker(args, setup_only: bool):
    """Start a worker and wait for its ``ready`` line; return the process and
    the seconds from its start to that line."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"} | PINNED_ENV
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    watchdog = threading.Timer(args.seconds + WORKER_GRACE_S, proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - start
    return proc, watchdog, line.strip() == "ready", ready_s


def finish_worker(proc, watchdog) -> str:
    try:
        out = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if code != 0:
        sys.exit(f"perfbench: worker exited with status {code}")
    return out


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    done = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def end_to_end(raw: dict, setup_times: list[float]) -> tuple[dict, list[str]]:
    """The bounded metrics and the report lines, including the unbounded
    op_p90_ms and failed_ratio."""
    lat = raw["latencies"]
    ok = raw["attempted"] - raw["failed"]
    slowdown = raw["slowdown"]
    ops_per_s = ok / sum(lat)
    p50_ms = statistics.median(lat) * 1e3
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (ops_per_s * slowdown, "1/s"),
        "op_p50_ms": (p50_ms / slowdown, "ms"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
    }
    lines = [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(
        f"slowdown {slowdown:.4f} (reference kernel time over nominal); unscaled: "
        f"ops_per_s {ops_per_s:.6g} 1/s, op_p50_ms {p50_ms:.6g} ms"
    )
    if len(lat) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(lat, n=10)[8] * 1e3 / slowdown
        lines.append(f"op_p90_ms {p90:.6g} ms (of {len(lat)} operations)")
    else:
        lines.append(
            f"op_p90_ms not reported: {len(lat)} operations, p90 needs {P90_MIN_SAMPLES}"
        )
    lines.append(f"failed_ratio {raw['failed'] / raw['attempted']:.6g} ({raw['failed']}/{raw['attempted']})")
    lines.append(f"setup_s samples {', '.join(f'{t:.4f}' for t in setup_times)} s (scaled)")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def per_layer(raw: dict) -> tuple[dict, list[str]]:
    metrics = {}
    for name, value in raw["metrics"].items():
        if name.endswith("_ms") or name.endswith("_ms_per_op"):
            unit = "ms"
        elif name.endswith("_pct"):
            unit = "%"
        elif name.endswith("calls_per_op"):
            unit = "count"
        else:
            unit = "ratio"
        metrics[name] = {"value": value, "unit": unit}
    lines = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    return metrics, lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "petrovtypes", "__init__.py")):
        sys.exit(f"perfbench: no petrovtypes sources under {ROOT}/src")

    setup_times = []
    for k in range(1 if args.trace else SETUP_RUNS):
        last = k == SETUP_RUNS - 1 or args.trace
        proc, watchdog, ready, seconds = start_worker(args, setup_only=not last)
        out = finish_worker(proc, watchdog)
        if not ready:
            sys.exit("perfbench: set-up failed")
        raw = json.loads(out.strip().splitlines()[-1])
        setup_times.append(seconds / raw["setup_slowdown"])

    env = raw["env"] | {"git_sha": git_sha(), "seed": args.seed, "workload": args.workload,
                        "seconds": args.seconds, "trace": args.trace}
    print("env " + json.dumps(env, sort_keys=True))
    metrics, lines = per_layer(raw) if args.trace else end_to_end(raw, setup_times)
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()

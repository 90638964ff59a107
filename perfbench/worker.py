"""One benchmark process: set-up of a workload, then its timed or traced loop.

Started by run.py, which times the set-up from process start to the
``ready`` line this script prints.  With ``--setup-only`` it exits there.
Otherwise it prints one JSON line of raw results.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np
from layertrace import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, "perfbench", ".work")
MAX_REPORTED_FAILURES = 5
IMPORT_SAMPLES = 5
SETUP_PROBE_S = 0.2


def load_package() -> None:
    """Import petrovtypes from this checkout's src/ and from nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import petrovtypes
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import petrovtypes from {SRC}: {exc}")
    found = os.path.realpath(petrovtypes.__file__)
    if not found.startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"perfbench: petrovtypes resolves to {found}, not under {SRC}")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


class Reference:
    """A fixed numpy kernel run between operations to measure how fast the
    machine is during this run.

    The machine is shared, and its speed drifts by 20% or more over tens of
    seconds.  Every run spends SHARE of its measuring time on this kernel,
    spread evenly between the operations, and divides its timings by
    ``slowdown()``: the kernel's mean time over its nominal time.  The scaled
    timings read as on a machine where the kernel takes NOMINAL_S.  The kernel
    uses only numpy and Python, no petrovtypes code, so a change to the
    program cannot move it.
    """

    NOMINAL_S = 0.5e-3  # its mean on 2 shared cores, Python 3.11, numpy 2.4
    SHARE = 0.2

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._mats = [rng.standard_normal((6, 6)) for _ in range(8)]
        self.times: list[float] = []
        self._total = 0.0

    def _kernel(self) -> float:
        acc = 0.0
        for m in self._mats:
            acc += np.linalg.svd(m, compute_uv=False)[0]
            acc += float(np.abs(np.linalg.eigvals(m)).max())
            acc += float((m @ m.T).trace())
            for i in range(40):
                acc += i * 0.5
        return acc

    def keep_up(self, op_seconds: float) -> None:
        """Run the kernel until it has had SHARE of the time measured so far."""
        while self._total < self.SHARE / (1.0 - self.SHARE) * op_seconds:
            start = time.perf_counter()
            self._kernel()
            elapsed = time.perf_counter() - start
            self.times.append(elapsed)
            self._total += elapsed

    def probe(self, seconds: float) -> float:
        """Run the kernel alone for ``seconds``; return ``slowdown()``."""
        self.keep_up((1.0 - self.SHARE) / self.SHARE * (self._total + seconds))
        return self.slowdown()

    def slowdown(self) -> float:
        """Above 1 when the machine runs slower than nominal."""
        return statistics.mean(self.times) / self.NOMINAL_S


class Outcomes:
    """Attempted and failed operations; the first few failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, workload, op, out, error) -> None:
        self.attempted += 1
        if error is None:
            try:
                if workload.check(op, out):
                    return
                error = "wrong output"
            except Exception:
                error = traceback.format_exc()
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"perfbench: operation failed on {_describe(op)}: {error}", file=sys.stderr)


def _describe(op) -> str:
    """Catalog id and point, synthetic case, or CLI arguments."""
    head, rest = op[0], op[1]
    if isinstance(rest, list):
        return " ".join(rest)
    return f"{head} {rest}" if getattr(rest, "ndim", 0) == 1 else str(head)


def call(run, op):
    """Run one operation; return (output, error, seconds)."""
    start = time.perf_counter()
    try:
        out, error = run(op), None
    except Exception:
        out, error = None, traceback.format_exc()
    return out, error, time.perf_counter() - start


def timed_loop(workload, seconds: float) -> dict:
    outcomes = Outcomes()
    reference = Reference()
    latencies = []
    busy = 0.0
    ops = workload.ops
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        op = ops[len(latencies) % len(ops)]
        out, error, elapsed = call(workload.run, op)
        latencies.append(elapsed)
        busy += elapsed
        outcomes.record(workload, op, out, error)
        reference.keep_up(busy)
    return {
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "latencies": latencies,
        "slowdown": reference.slowdown(),
        "peak_rss_kb": getattr(workload, "peak_rss_kb", None) or _self_rss_kb(),
    }


def _self_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def traced_loop(workload, seconds: float, setup_tracer) -> dict:
    """Alternate untraced and traced passes over ``workload.trace_ops`` until
    the time is up, at least one of each.  Every pass runs the same
    operations, so call counts per operation repeat exactly."""
    import workloads

    is_cli = isinstance(workload, workloads.Cli)
    extra = _import_times() if is_cli else {}
    tracer = Tracer()
    outcomes = Outcomes()
    reference = Reference()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        for tracing in (False, True) if len(plain) % 2 == 0 else (True, False):
            if is_cli:
                run = functools.partial(workload.run, tracer=tracer if tracing else None)
                results = [(op, *call(run, op)) for op in workload.trace_ops]
            else:
                if tracing:
                    tracer.install()
                try:
                    results = [(op, *call(workload.run, op)) for op in workload.trace_ops]
                finally:
                    tracer.uninstall()
            # checks run untraced, so their calls are not counted
            for op, out, error, _elapsed in results:
                outcomes.record(workload, op, out, error)
            (traced if tracing else plain).append(sum(r[3] for r in results))
            reference.keep_up(sum(plain) + sum(traced))
    n_ops = len(traced) * len(workload.trace_ops)
    # times are scaled to the reference speed, like the end-to-end timings
    ms = 1e-6 / reference.slowdown()
    metrics = {}
    for name in tracer.calls:
        metrics[f"{name}.calls_per_op"] = tracer.calls[name] / n_ops
        metrics[f"{name}.self_ms_per_op"] = tracer.self_ns[name] * ms / n_ops
    for kind in ("classify", "catalog", "report", "verify"):
        runs = workload.traced_runs.get(kind, 0) if is_cli else 0
        metrics[f"cli.run.{kind}.self_ms_per_op"] = (
            workload.run_self_ns[kind] * ms / runs if runs else 0.0
        )
    for check, ratio in tracer.residual_ratio.items():
        metrics[f"verify.{check}.residual_over_threshold_max"] = ratio
    metrics["catalog.sample_domain.setup_ms"] = setup_tracer.self_ns["catalog.sample_domain"] * ms
    metrics["cli.import_ms"] = extra.get("petrovtypes", 0.0) * 1e6 * ms
    metrics["cli.numpy_import_ms"] = extra.get("numpy", 0.0) * 1e6 * ms
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    return {"attempted": outcomes.attempted, "failed": outcomes.failed, "metrics": metrics}


def _import_times() -> dict:
    """Median milliseconds to import numpy and petrovtypes in a fresh
    interpreter, timed inside it."""
    code = (
        "import sys, time; t = time.perf_counter(); __import__(sys.argv[1]); "
        "print((time.perf_counter() - t) * 1e3)"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = {}
    for module in ("numpy", "petrovtypes"):
        samples = [
            float(subprocess.run(
                [sys.executable, "-c", code, module], env=env, check=True,
                capture_output=True, text=True,
            ).stdout)
            for _ in range(IMPORT_SAMPLES)
        ]
        out[module] = statistics.median(samples)
    return out


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    load_package()
    import workloads

    setup_tracer = Tracer()
    if args.trace:
        setup_tracer.install()
    rng = np.random.default_rng(args.seed)
    factory = workloads.WORKLOADS[args.workload]
    if factory is workloads.Cli:
        workload = factory(args.seed, rng, ROOT, WORK_DIR)
    else:
        workload = factory(args.seed, rng)
    setup_tracer.uninstall()
    print("ready", flush=True)
    # the machine's speed right after set-up, to scale the set-up time
    setup_slowdown = Reference().probe(SETUP_PROBE_S)
    if args.setup_only:
        print(json.dumps({"setup_slowdown": setup_slowdown}), flush=True)
        return
    if args.trace:
        result = traced_loop(workload, args.seconds, setup_tracer)
    else:
        result = timed_loop(workload, args.seconds)
    result["env"] = environment()
    result["setup_slowdown"] = setup_slowdown
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()

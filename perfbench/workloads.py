"""The four benchmark workloads: inputs made from a seed, one operation, and
the check of its output.

Every workload builds all of its inputs in ``__init__`` (the set-up that
``setup_s`` measures) and exposes:

- ``ops``: the inputs of the timed loop, in a seeded order; the loop cycles
  through them;
- ``trace_ops``: a fixed subset that covers every kind of input once or a
  few times, run whole by each pass of the traced run so that call counts
  per operation repeat exactly;
- ``run(op)``: the operation, the only code inside the timed region;
- ``check(op, out)``: True when the output is correct.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

from petrovtypes import catalog, petrov, verify
from petrovtypes.linalg import matrix_from_json, matrix_to_json, signature

# ---------------------------------------------------------------------------
# classification workloads


def _classify_ok(result: dict, index: int, label: str, gram: np.ndarray) -> bool:
    geo = result["geometric"]
    return (
        geo["index"] == index
        and geo["label"] == label
        and result["algebraic"]["label"] == geo["label"]
        and result["negative_index"] == signature(gram)[1]
    )


def _catalog_points(seed: int, per_id: int) -> list[tuple[str, np.ndarray]]:
    """``per_id`` points of every entry; sample_domain cycles through the
    regions of the region-dependent entries 0-1 and 0-2."""
    return [
        (ex_id, p)
        for k, ex_id in enumerate(catalog.EXAMPLE_IDS)
        for p in catalog.sample_domain(ex_id, per_id, seed=seed * 100 + k)
    ]


def _interleave_by_id(points, per_id: int):
    """The first ``per_id`` points of each entry, one entry after another:
    the k-th point of every entry comes before any (k+1)-th point."""
    by_id: dict[str, list] = {}
    for ex_id, p in points:
        by_id.setdefault(ex_id, []).append((ex_id, p))
    return [op for k in range(per_id) for ops in by_id.values() for op in ops[k : k + 1]]


class ClassifyCatalog:
    """catalog.evaluate then petrov.classify_pair at a point of a catalog
    entry: the paper's own traffic, mostly 4x4 pairs that are diagonalizable
    or have 2-blocks."""

    def __init__(self, seed: int, rng: np.random.Generator):
        points = _catalog_points(seed, per_id=60)
        self.trace_ops = _interleave_by_id(points, 3)
        self.ops = [points[i] for i in rng.permutation(len(points))]

    def run(self, op):
        ex_id, p = op
        fd = catalog.evaluate(ex_id, p)
        return fd.gram, petrov.classify_pair(fd.shape, fd.gram)

    def check(self, op, out) -> bool:
        ex_id, p = op
        gram, result = out
        want = catalog.expected_type(ex_id, p)
        return _classify_ok(result, want.index, want.label, gram)


# Every (index, label, sign) case of the taxonomy: real blocks as
# (size, sign) and complex blocks as sizes.  Labels that record a sign get
# one case per sign.  The catalog never produces index-1 III and IV or
# index-2 I, III, IV, V and VIII.
SYNTHETIC_CASES = (
    (1, "I", ((1, -1),), ()),
    (1, "II", ((2, 1),), ()),
    (1, "II", ((2, -1),), ()),
    (1, "III", ((3, 1),), ()),
    (1, "IV", (), (1,)),
    (2, "I", (), (2,)),
    (2, "II", (), (1, 1)),
    (2, "III", ((1, -1),), (1,)),
    (2, "IV", ((2, 1),), (1,)),
    (2, "IV", ((2, -1),), (1,)),
    (2, "V", ((3, 1),), (1,)),
    (2, "VI", ((4, 1),), ()),
    (2, "VI", ((4, -1),), ()),
    (2, "VII-i", ((3, -1),), ()),
    (2, "VII-ii", ((3, 1), (1, -1)), ()),
    (2, "VIII", ((3, 1), (2, 1)), ()),
    (2, "VIII", ((3, 1), (2, -1)), ()),
    (2, "IX-i", ((2, 1), (2, 1)), ()),
    (2, "IX-i", ((2, -1), (2, -1)), ()),
    (2, "IX-ii", ((2, 1), (2, -1)), ()),
    (2, "X", ((2, 1), (1, -1)), ()),
    (2, "X", ((2, -1), (1, -1)), ()),
    (2, "XI", ((1, -1), (1, -1)), ()),
)
MAX_COND = 100.0


def synthetic_pair(case, rng: np.random.Generator):
    """A pair of the given case, padded with positive 1-blocks to a random
    dimension from 4 to 8, then moved by a random congruence T with
    cond(T) <= MAX_COND: A' = T A T^-1, G' = T^-T G T^-1."""
    _index, _label, reals, cplx = case
    base = sum(m for m, _ in reals) + 2 * sum(cplx)
    n = int(rng.integers(max(4, base), 9))
    blocks = list(reals) + [(1, 1)] * (n - base)
    # distinct eigenvalues on a unit grid with jitter: no two clusters come
    # near the clustering threshold, even at dimension 8
    grid = rng.permutation(np.arange(-4.0, 5.0))
    lams = grid[: len(blocks) + len(cplx)] + rng.uniform(-0.15, 0.15, len(blocks) + len(cplx))
    real_blocks = tuple((float(lam), (m,)) for lam, (m, _) in zip(lams, blocks))
    complex_blocks = tuple(
        (float(alpha), float(rng.uniform(0.8, 1.5)), (m,))
        for alpha, m in zip(lams[len(blocks) :], cplx)
    )
    structure = petrov.JordanStructure(
        tuple(sorted(real_blocks)), tuple(sorted(complex_blocks))
    )
    signs = [eps for _lam, (m, eps) in sorted(zip(lams, blocks), key=lambda t: t[0])]
    normal = petrov.assemble_normal_pair(structure, signs)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    t = q1 @ np.diag(np.sqrt(MAX_COND) ** rng.uniform(-1.0, 1.0, n)) @ q2
    t_inv = np.linalg.inv(t)
    a = t @ normal.a @ t_inv
    gram = t_inv.T @ normal.space.gram @ t_inv
    return a, (gram + gram.T) / 2.0


class ClassifySynthetic:
    """petrov.classify_pair on assembled pairs of every taxonomy case moved by
    a random congruence: longer Jordan chains, the complex chain path and
    dimensions up to 8.  No catalog code runs."""

    def __init__(self, seed: int, rng: np.random.Generator):
        cases = [SYNTHETIC_CASES[i % len(SYNTHETIC_CASES)] for i in range(20 * len(SYNTHETIC_CASES))]
        pairs = [(case, *synthetic_pair(case, rng)) for case in cases]
        self.trace_ops = pairs[: 2 * len(SYNTHETIC_CASES)]
        self.ops = [pairs[i] for i in rng.permutation(len(pairs))]

    def run(self, op):
        _case, a, gram = op
        return petrov.classify_pair(a, gram)

    def check(self, op, out) -> bool:
        (index, label, _r, _c), _a, gram = op
        return _classify_ok(out, index, label, gram)


class VerifySweep:
    """shape_fd_check, gauss_residual and codazzi_residual at one point of a
    catalog entry: the verify and catalog layers.  No petrov code runs."""

    def __init__(self, seed: int, rng: np.random.Generator):
        points = _catalog_points(seed, per_id=30)
        self.trace_ops = _interleave_by_id(points, 1)
        # entry by entry, so every run sees the same mix of cheap and costly
        # entries however many operations it completes
        self.ops = _interleave_by_id(points, 30)

    def run(self, op):
        ex_id, p = op
        return (
            verify.shape_fd_check(ex_id, p),
            verify.gauss_residual(ex_id, p),
            verify.codazzi_residual(ex_id, p),
        )

    def check(self, op, out) -> bool:
        return all(report.passed for report in out)


# ---------------------------------------------------------------------------
# command-line workload

CLI_CODE = "from petrovtypes.cli import main; main()"
TRACED_CLI_CODE = "import layertrace; layertrace.run_cli_traced()"


class Cli:
    """One ``petrovtypes`` command in a fresh interpreter, as a user runs it:
    the only workload that pays the cold import and exercises ``cli``."""

    def __init__(self, seed: int, rng: np.random.Generator, root: str, work_dir: str):
        self.work_dir = work_dir
        os.makedirs(work_dir, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.traced_env = dict(
            self.env,
            PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), os.path.dirname(__file__)]),
            PERFBENCH_TRACE_OUT=os.path.join(work_dir, "trace.json"),
        )
        self.stderr_path = os.path.join(work_dir, "stderr.txt")
        self.peak_rss_kb = 0
        # self time of cli.run in traced commands, and their number, per subcommand
        self.run_self_ns: dict[str, int] = {}
        self.traced_runs: dict[str, int] = {}

        synthetic = [synthetic_pair(c, rng) for c in SYNTHETIC_CASES]
        points = _catalog_points(seed, per_id=4)
        classify_synthetic, classify_catalog, evals, verifies = [], [], [], []
        for case, (a, gram) in zip(SYNTHETIC_CASES, synthetic):
            path = self._write_pair(f"synthetic-{len(classify_synthetic)}.json", a, gram)
            classify_synthetic.append(
                ("classify", ["classify", "--input", path, "--json"], (case[0], case[1], gram))
            )
        for k, (ex_id, p) in enumerate(points):
            fd = catalog.evaluate(ex_id, p)
            want = catalog.expected_type(ex_id, p)
            path = self._write_pair(f"catalog-{k}.json", fd.shape, fd.gram)
            classify_catalog.append(
                ("classify", ["classify", "--input", path, "--json"], (want.index, want.label, fd.gram))
            )
            point = ",".join(repr(float(x)) for x in p)
            evals.append(("catalog", ["catalog", "eval", ex_id, f"--point={point}", "--json"], fd))
        for ex_id in catalog.EXAMPLE_IDS:
            verifies.append((
                "verify",
                ["verify", "run", "--id", ex_id, "--samples", "1",
                 "--seed", str(int(rng.integers(1000))), "--json"],
                ex_id,
            ))
        reports = [
            ("report", ["report", "--table", str(t), "--samples", "2",
                        "--seed", str(int(rng.integers(1000))), "--json"], t)
            for t in (1, 2, 3)
        ]
        for pool in (classify_synthetic, classify_catalog, evals, verifies):
            rng.shuffle(pool)
        # a fixed pattern of command kinds, so that every run has the same mix
        # whatever the seed and however many commands it completes
        self.ops = [
            op
            for k in range(20)
            for op in (
                classify_synthetic[k % len(classify_synthetic)],
                evals[k % len(evals)],
                classify_catalog[k % len(classify_catalog)],
                reports[k % len(reports)],
                verifies[k % len(verifies)],
            )
        ]
        self.trace_ops = [
            classify_synthetic[0], classify_catalog[0], evals[0], *reports, verifies[0],
        ]

    def _write_pair(self, name: str, a: np.ndarray, gram: np.ndarray) -> str:
        path = os.path.join(self.work_dir, name)
        with open(path, "w") as fh:
            json.dump({"a": matrix_to_json(a), "gram": matrix_to_json(gram)}, fh)
        return path

    def run(self, op, tracer=None):
        """Run the command; with a tracer, run it traced and add the child's
        totals to the tracer."""
        kind, argv, _want = op
        code, env = (CLI_CODE, self.env) if tracer is None else (TRACED_CLI_CODE, self.traced_env)
        with open(self.stderr_path, "wb") as err, subprocess.Popen(
            [sys.executable, "-c", code, *argv], env=env,
            stdout=subprocess.PIPE, stderr=err,
        ) as proc:
            out = proc.stdout.read()
            # reap the child here to read its own resource usage
            _pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if tracer is not None:
            with open(env["PERFBENCH_TRACE_OUT"]) as fh:
                totals = json.load(fh)
            tracer.merge(totals)
            self.run_self_ns[kind] = self.run_self_ns.get(kind, 0) + totals["self_ns"]["cli.run"]
            self.traced_runs[kind] = self.traced_runs.get(kind, 0) + 1
        return proc.returncode, out

    def check(self, op, out) -> bool:
        kind, _argv, want = op
        returncode, stdout = out
        if returncode != 0:
            return False
        doc = json.loads(stdout)
        if doc.get("schema") != "1":
            return False
        if kind == "classify":
            index, label, gram = want
            return _classify_ok(doc, index, label, gram)
        if kind == "catalog":
            fd = want
            return (
                np.allclose(matrix_from_json(doc["shape"]), fd.shape, rtol=0, atol=1e-12)
                and np.allclose(matrix_from_json(doc["gram"]), fd.gram, rtol=0, atol=1e-12)
                and doc["nu"] == fd.nu
            )
        if kind == "report":
            return doc["table"] == want and not doc["mismatches"] and (
                want == 1 or all(row["match"] for row in doc["rows"])
            )
        # verify run: all three checks of the entry, all passed
        checks = {row["check"] for row in doc["checks"] if row["id"] == want}
        return doc["all_passed"] is True and checks == {"shape_fd", "gauss", "codazzi"}


WORKLOADS = {
    "classify-catalog": ClassifyCatalog,
    "classify-synthetic": ClassifySynthetic,
    "verify-sweep": VerifySweep,
    "cli": Cli,
}

"""Call counts and self time for the public functions of each petrovtypes layer.

The tracer wraps functions from outside the package: nothing under ``src/``
is changed.  A function is replaced in every petrovtypes module that holds
it, because callers look names up in their own module: ``petrov`` imports
``eigen_clusters`` by name, ``catalog`` imports ``quadric_gradient`` by name,
``cli`` imports ``classify_pair`` by name.  Wrappers are installed only for
the traced passes and removed afterwards, so untraced passes run the
original functions.

Self time of a call is its duration minus the time spent in traced calls it
made.  Spans are not kept: only the totals per function, which is all the
per-layer metrics need.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

LAYERS = {
    "linalg": (
        "eigen_clusters", "jordan_rank_profile", "generalized_eigenspace",
        "signature", "is_self_adjoint",
    ),
    "petrov": (
        "petrov_normal_form", "jordan_structure", "classify_algebraic",
        "classify_geometric", "classify_pair",
    ),
    "spaceform": ("quadric_gradient", "sphere_shape_operator"),
    "catalog": ("evaluate", "chart_jacobian", "chart", "quadric_of", "sample_domain"),
    "verify": (
        "shape_fd_check", "gauss_residual", "codazzi_residual", "curvature_data",
        "table_report",
    ),
    "cli": ("run",),
}
FUNCTIONS = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)
CHECKS = ("shape_fd", "gauss", "codazzi")


class Tracer:
    """Totals per traced function: calls, self nanoseconds, and for the verify
    checks the largest residual/threshold ratio returned."""

    def __init__(self):
        self.calls = dict.fromkeys(FUNCTIONS, 0)
        self.self_ns = dict.fromkeys(FUNCTIONS, 0)
        self.residual_ratio = dict.fromkeys(CHECKS, 0.0)
        self._child_ns = [0]
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "petrovtypes" or name.startswith("petrovtypes."))
        ]
        for name in FUNCTIONS:
            layer, attr = name.split(".")
            original = getattr(sys.modules[f"petrovtypes.{layer}"], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        child_ns = self._child_ns
        calls = self.calls
        self_ns = self.self_ns
        ratios = self.residual_ratio
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_ns.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child_ns.pop()
                child_ns[-1] += elapsed
                self_ns[name] += elapsed - inner
                calls[name] += 1
            check = getattr(result, "check", None)
            if check in ratios:
                ratios[check] = max(ratios[check], result.residual / result.threshold)
            return result

        return traced

    def merge(self, totals: dict) -> None:
        """Add totals written by ``dump`` in another process."""
        for name in FUNCTIONS:
            self.calls[name] += totals["calls"][name]
            self.self_ns[name] += totals["self_ns"][name]
        for check in CHECKS:
            self.residual_ratio[check] = max(
                self.residual_ratio[check], totals["residual_ratio"][check]
            )

    def dump(self) -> dict:
        return {
            "calls": self.calls,
            "self_ns": self.self_ns,
            "residual_ratio": self.residual_ratio,
        }


def run_cli_traced() -> None:
    """Entry point of a traced CLI child: run ``petrovtypes.cli.main`` on
    ``sys.argv[1:]`` under a tracer and write the totals as JSON to the file
    named by PERFBENCH_TRACE_OUT, whatever the exit status."""
    from petrovtypes.cli import main

    tracer = Tracer()
    tracer.install()
    try:
        main()
    finally:
        tracer.uninstall()
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as fh:
            json.dump(tracer.dump(), fh)

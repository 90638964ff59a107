"""Command-line front end.

Subcommands:
  classify  read an operator/Gram pair from JSON and print its types
  catalog   list the example catalog or evaluate one entry at a point
  verify    run the finite-difference checks over seeded samples
  report    regenerate one of the three classification tables

All JSON output carries a top-level "schema": "1" key and echoes the resolved
tolerance; classify and report also echo the cut of their Jordan rank
decisions as "rank_tolerance".  Exit status: 0 on success, 1 when a requested
check fails or a module reports a contract error, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from . import catalog, verify
from .linalg import (
    BadToleranceError,
    DegenerateGramError,
    DomainError,
    ShapeError,
    ToleranceError,
    checked_tol,
    default_tol,
    matrix_from_json,
    matrix_to_json,
    rank_cut,
)
from .petrov import ContractError, TaxonomyError, classify_pair

SCHEMA = "1"


class CliError(Exception):
    pass


# the errors a command reports as one "error:" line and exit status 1; the
# cluster and conditioning errors are ToleranceErrors
_REPORTED = (
    BadToleranceError,
    CliError,
    DegenerateGramError,
    ShapeError,
    ToleranceError,
    ContractError,
    DomainError,
    TaxonomyError,
    np.linalg.LinAlgError,
)


def _emit(payload: dict, as_json: bool, markdown_lines: list[str]) -> None:
    if as_json:
        try:
            text = json.dumps(payload, sort_keys=True, allow_nan=False)
        except ValueError as exc:
            raise CliError(f"result has a non-finite value, not valid JSON: {exc}") from exc
        print(text)
    else:
        for line in markdown_lines:
            print(line)


def _base_payload(tol: float) -> dict:
    return {"schema": SCHEMA, "tolerance": tol}


def _parse_point(text: str, expected: int) -> np.ndarray:
    try:
        vals = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise CliError(f"point must be comma-separated numbers: {exc}") from exc
    if len(vals) != expected:
        raise CliError(f"point needs {expected} coordinates, got {len(vals)}")
    if not np.isfinite(vals).all():
        raise CliError("point has a non-finite coordinate (NaN or infinity)")
    return np.array(vals)


def _cmd_classify(args) -> int:
    tol = checked_tol(args.tol, "--tol") if args.tol is not None else default_tol()
    try:
        with open(args.input) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {args.input}: {exc}") from exc
    except ValueError as exc:
        # a JSONDecodeError, a file that is not UTF-8, or an integer past the
        # interpreter's digit limit
        raise CliError(f"{args.input} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise CliError(
            f'input must be a JSON object with "a" and "gram" matrices, got {type(obj).__name__}'
        )
    try:
        a = matrix_from_json(obj["a"])
        gram = matrix_from_json(obj["gram"])
    except KeyError as exc:
        raise CliError(
            f'input needs "a" and "gram" matrices with "rows", "cols" and "data": '
            f"missing {exc}"
        ) from exc
    except (TypeError, ValueError) as exc:
        raise CliError(f"malformed matrix in input: {exc}") from exc
    for name, mat in (("a", a), ("gram", gram)):
        if not np.isfinite(mat).all():
            raise CliError(f'"{name}" has a non-finite entry (NaN or infinity)')
    result = classify_pair(a, gram, tol)
    payload = _base_payload(tol) | {"rank_tolerance": rank_cut(tol)} | result
    md = [
        f"tolerance: {tol}",
        f"algebraic type: {result['algebraic']['label']} (index {result['algebraic']['index']})",
        f"geometric type: {result['geometric']['label']} (index {result['geometric']['index']})",
        f"negative index: {result['negative_index']}",
    ]
    _emit(payload, args.json, md)
    return 0


def _cmd_catalog(args) -> int:
    tol = default_tol()
    if args.action == "list":
        rows = catalog.catalog_summary()
        payload = _base_payload(tol) | {"examples": rows}
        md = [f"tolerance: {tol}", "", "| id | ambient | expected type |", "|---|---|---|"]
        md += [f"| {r['id']} | {r['ambient']} | {r['expected_type']} |" for r in rows]
        _emit(payload, args.json, md)
        return 0
    # action == "eval"
    if args.id is None or args.point is None:
        raise CliError("catalog eval needs an example id and --point")
    p = _parse_point(args.point, catalog.param_dim(args.id))
    if not np.isfinite(args.a) or args.a == 0:
        raise CliError(f"--a must be finite and nonzero, got {args.a}")
    fd = catalog.evaluate(args.id, p, a=args.a, anchor_variant=args.anchor_variant)
    payload = _base_payload(tol) | {
        "id": args.id,
        "point": [float(x) for x in fd.point],
        "frame": matrix_to_json(fd.frame),
        "normal": [float(x) for x in fd.normal],
        "shape": matrix_to_json(fd.shape),
        "gram": matrix_to_json(fd.gram),
        "nu": fd.nu,
    }
    md = [
        f"tolerance: {tol}",
        f"point: {np.array2string(fd.point, precision=6)}",
        f"nu: {fd.nu}",
        f"shape:\n{np.array2string(fd.shape, precision=6)}",
        f"gram:\n{np.array2string(fd.gram, precision=6)}",
    ]
    _emit(payload, args.json, md)
    return 0


def _cmd_verify(args) -> int:
    tol = default_tol()
    if args.h is not None and not (np.isfinite(args.h) and args.h > 0):
        raise CliError(f"--h must be a positive finite step, got {args.h}")
    ids = [args.id] if args.id else list(catalog.EXAMPLE_IDS)
    reports = []
    for ex_id in ids:
        try:
            reports.extend(
                verify.run_checks(ex_id, samples=args.samples, seed=args.seed, h=args.h)
            )
        except _REPORTED as exc:
            if args.h is None:
                raise
            # a solver message does not say that the step caused it
            raise CliError(f"{exc} (entry {ex_id} at --h {args.h:g})") from exc
    all_pass = all(r.passed for r in reports)
    summary = {}
    for r in reports:
        key = (r.example_id, r.check)
        entry = summary.setdefault(
            key, {"max_residual": 0.0, "threshold": r.threshold, "h": r.h, "passed": True}
        )
        # np.maximum keeps a NaN residual, where the builtin max would drop it
        entry["max_residual"] = float(np.maximum(entry["max_residual"], r.residual))
        entry["passed"] = entry["passed"] and r.passed
        if args.timings:
            entry["time_ms"] = entry.get("time_ms", 0.0) + r.time_ms
    rows = [
        {"id": ex_id, "check": check} | entry
        for (ex_id, check), entry in sorted(summary.items())
    ]
    payload = _base_payload(tol) | {
        "samples": args.samples,
        "seed": args.seed,
        "checks": rows,
        "all_passed": all_pass,
    }
    header = "| id | check | max residual | threshold | pass |"
    rule = "|---|---|---|---|---|"
    if args.timings:
        header += " time ms |"
        rule += "---|"
    md = [f"tolerance: {tol}", "", header, rule]
    for r in rows:
        line = f"| {r['id']} | {r['check']} | {r['max_residual']:.3e} | {r['threshold']:.0e} | {'yes' if r['passed'] else 'NO'} |"
        if args.timings:
            line += f" {r['time_ms']:.1f} |"
        md.append(line)
    _emit(payload, args.json, md)
    return 0 if all_pass else 1


def _cmd_report(args) -> int:
    tol = default_tol()
    doc = verify.table_report(args.table, samples=args.samples, seed=args.seed)
    payload = _base_payload(tol) | {"rank_tolerance": rank_cut(tol)} | doc
    md = [f"tolerance: {tol}", ""]
    if args.table == 1:
        cols = doc["columns"]
        md.append("| ambient | " + " | ".join(cols) + " |")
        md.append("|" + "---|" * (len(cols) + 1))
        symbol = {"x": "x", "triangle": "(triangle)", "open": " "}
        for row_name, cells in doc["rows"].items():
            md.append(
                f"| {row_name} | "
                + " | ".join(symbol.get(cells[c], f"({cells[c]})") for c in cols)
                + " |"
            )
    else:
        md.append("| region | stated type | computed | match |")
        md.append("|---|---|---|---|")
        for row in doc["rows"]:
            md.append(
                f"| {row['region']} | {row['stated']} | {', '.join(row['computed'])} | "
                f"{'yes' if row['match'] else 'NO'} |"
            )
    if doc["mismatches"]:
        md.append("")
        md.append(f"mismatches: {doc['mismatches']}")
    _emit(payload, args.json, md)
    return 0 if not doc["mismatches"] else 1


class _ExampleIds:
    """The catalog's entry ids, read at the first use: argparse reads them
    only to check a verify --id or to print verify's usage, so no other
    command loads the catalog."""

    def __iter__(self):
        return iter(catalog.EXAMPLE_IDS)

    def __contains__(self, value) -> bool:
        return value in catalog.EXAMPLE_IDS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="petrovtypes",
        description="Classify self-adjoint operator/metric pairs on indefinite "
        "inner-product spaces and verify the example catalog.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cls = sub.add_parser("classify", help="classify an operator/Gram pair from JSON")
    p_cls.add_argument("--input", required=True, help='JSON file with "a" and "gram"')
    p_cls.add_argument("--tol", default=None, help="tolerance override, positive and finite")
    p_cls.add_argument("--json", action="store_true", help="JSON output")
    p_cls.set_defaults(func=_cmd_classify)

    p_cat = sub.add_parser("catalog", help="list examples or evaluate one")
    p_cat.add_argument("action", choices=["list", "eval"])
    p_cat.add_argument("id", nargs="?", default=None, help="example id for eval")
    p_cat.add_argument("--point", default=None, help="comma-separated chart coordinates")
    p_cat.add_argument("--a", type=float, default=1.0, help="curvature parameter for k/l")
    p_cat.add_argument(
        "--anchor-variant", action="store_true",
        help="use the special anchor-point basis (entries h and i)",
    )
    p_cat.add_argument("--json", action="store_true", help="JSON output")
    p_cat.set_defaults(func=_cmd_catalog)

    p_ver = sub.add_parser("verify", help="run finite-difference checks")
    p_ver.add_argument("action", choices=["run"])
    # set after add_argument, which would read the choices to check a metavar
    p_ver.add_argument("--id", default=None).choices = _ExampleIds()
    p_ver.add_argument(
        "--h", type=float, default=None,
        help="one step for every check: it sets both the shape check's step "
        "(default 1e-4) and the curvature step (default 1e-3), and each "
        "threshold stays as it is, so a step that suits one check may fail "
        "the other (at --h 5e-4 the shape check of entry g reads 1.0956e-5 "
        "against 1e-5 and the run exits 1)",
    )
    p_ver.add_argument("--samples", type=int, default=5)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--json", action="store_true", help="JSON output")
    p_ver.add_argument(
        "--timings", action="store_true",
        help="add each check's wall time, summed over samples (time_ms); "
        "the three checks share one chart solve and one coordinate-shape solve "
        "per sample at any --h, both counted toward shape_fd",
    )
    p_ver.set_defaults(func=_cmd_verify)

    p_rep = sub.add_parser("report", help="regenerate a classification table")
    p_rep.add_argument("--table", type=int, required=True, choices=[1, 2, 3])
    p_rep.add_argument("--samples", type=int, default=5)
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--json", action="store_true", help="JSON output")
    p_rep.set_defaults(func=_cmd_report)

    return parser


# options whose value is a number or a comma list of numbers
_NUMERIC_OPTIONS = ("--tol", "--point", "--a", "--h")
_NEGATIVE_VALUE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Write "--h -1e-3" as "--h=-1e-3".  argparse takes a word that starts
    with "-" for an option unless it is a plain negative number, so a value
    in exponent or comma-list form, or -inf, would never reach the option."""
    out: list[str] = []
    for word in argv:
        if out and out[-1] in _NUMERIC_OPTIONS and _NEGATIVE_VALUE.match(word):
            out[-1] = f"{out[-1]}={word}"
        else:
            out.append(word)
    return out


def run(argv=None) -> int:
    parser = build_parser()
    argv = _attach_negative_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except _REPORTED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())

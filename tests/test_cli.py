"""Command-line interface: subcommands, JSON schema, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import petrovtypes
from petrovtypes import catalog, verify
from petrovtypes.cli import run
from petrovtypes.linalg import matrix_to_json
from petrovtypes.petrov import JordanStructure, assemble_normal_pair


@pytest.fixture
def pair_file(tmp_path):
    st = JordanStructure(((0.0, (4,)),), ())
    pair = assemble_normal_pair(st, [1])
    rng = np.random.default_rng(5)
    while True:
        t = rng.normal(size=(4, 4))
        if np.linalg.cond(t) <= 30:
            break
    tinv = np.linalg.inv(t)
    a = t @ pair.a @ tinv
    g = tinv.T @ pair.space.gram @ tinv
    g = 0.5 * (g + g.T)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"a": matrix_to_json(a), "gram": matrix_to_json(g)}))
    return str(path)


def _json_out(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


def test_classify_json(pair_file, capsys):
    code = run(["classify", "--input", pair_file, "--json"])
    payload = _json_out(capsys)
    assert code == 0
    assert payload["schema"] == "1"
    assert payload["geometric"]["label"] == "VI"
    assert payload["algebraic"]["label"] == "VI"
    assert payload["negative_index"] == 2
    assert payload["tolerance"] == 1e-9


def test_classify_markdown(pair_file, capsys):
    code = run(["classify", "--input", pair_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "geometric type: VI" in out


def test_classify_tol_override_echoed(pair_file, capsys):
    run(["classify", "--input", pair_file, "--tol", "1e-7", "--json"])
    assert _json_out(capsys)["tolerance"] == 1e-7


def test_classify_env_tolerance(pair_file, capsys, monkeypatch):
    monkeypatch.setenv("PETROV_TOL", "1e-8")
    run(["classify", "--input", pair_file, "--json"])
    assert _json_out(capsys)["tolerance"] == 1e-8


@pytest.mark.parametrize(
    "argv, env, want",
    [([], None, 1e-6), (["--tol", "1e-3"], None, 1e-3), ([], "1e-8", 1e-6)],
    ids=["default", "tol-1e-3", "env-1e-8"],
)
def test_classify_echoes_rank_tolerance(pair_file, capsys, monkeypatch, argv, env, want):
    """The cut of the Jordan rank decisions, max(tol, RANK_TOL), is echoed
    next to the tolerance it was made from."""
    if env is not None:
        monkeypatch.setenv("PETROV_TOL", env)
    assert run(["classify", "--input", pair_file, "--json", *argv]) == 0
    assert _json_out(capsys)["rank_tolerance"] == want


def test_classify_missing_file_exit_one(tmp_path, capsys):
    code = run(["classify", "--input", str(tmp_path / "nope.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_classify_bad_json_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["classify", "--input", str(bad)]) == 1


def test_catalog_list(capsys):
    code = run(["catalog", "list", "--json"])
    payload = _json_out(capsys)
    assert code == 0
    assert len(payload["examples"]) == 15
    assert payload["schema"] == "1"


def test_catalog_eval(capsys):
    code = run(["catalog", "eval", "0-1", "--point", "0.2,1.5707963267948966", "--json"])
    payload = _json_out(capsys)
    assert code == 0
    shape = np.array(payload["shape"]["data"]).reshape(2, 2)
    assert abs(shape[0, 1] - 1.0) < 1e-12
    assert abs(shape).sum() == pytest.approx(1.0, abs=1e-12)


def test_catalog_eval_needs_point(capsys):
    assert run(["catalog", "eval", "b"]) == 1


def test_catalog_eval_wrong_point_length(capsys):
    assert run(["catalog", "eval", "b", "--point", "0.1"]) == 1


def test_verify_run_single_example(capsys):
    code = run(["verify", "run", "--id", "e", "--samples", "3", "--json"])
    payload = _json_out(capsys)
    assert code == 0
    assert payload["all_passed"] is True
    checks = {row["check"] for row in payload["checks"]}
    assert checks == {"shape_fd", "gauss", "codazzi"}


def test_report_table_two(capsys):
    code = run(["report", "--table", "2", "--samples", "2", "--json"])
    payload = _json_out(capsys)
    assert code == 0
    assert payload["mismatches"] == []
    assert (payload["tolerance"], payload["rank_tolerance"]) == (1e-9, 1e-6)


def test_report_table_one_markdown(capsys):
    code = run(["report", "--table", "1", "--samples", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "| ambient |" in out


def test_usage_error_exit_two(capsys):
    assert run(["frobnicate"]) == 2
    assert run([]) == 2


def test_json_output_deterministic(pair_file, capsys):
    run(["classify", "--input", pair_file, "--json"])
    first = capsys.readouterr().out
    run(["classify", "--input", pair_file, "--json"])
    second = capsys.readouterr().out
    assert first == second


def _write_pair(tmp_path, a, gram):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(
        {"a": matrix_to_json(np.asarray(a, dtype=float)),
         "gram": matrix_to_json(np.asarray(gram, dtype=float))}
    ))
    return str(path)


def test_classify_index_zero_pair_exit_one(tmp_path, capsys):
    # a definite metric lies outside the index-1/index-2 taxonomy
    path = _write_pair(tmp_path, np.diag([1.0, 2.0, 3.0]), np.eye(3))
    assert run(["classify", "--input", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "negative index 0" in err


def test_classify_not_self_adjoint_exit_one(tmp_path, capsys):
    path = _write_pair(tmp_path, [[0.0, 1.0], [0.0, 0.0]], np.diag([-1.0, 1.0]))
    assert run(["classify", "--input", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not self-adjoint" in err


@pytest.mark.parametrize("bad", ["a", "gram"])
def test_classify_non_finite_input_exit_one(tmp_path, capsys, bad):
    a = np.diag([1.0, 2.0])
    gram = np.diag([-1.0, 1.0])
    (a if bad == "a" else gram)[1, 1] = np.nan
    path = _write_pair(tmp_path, a, gram)
    assert run(["classify", "--input", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f'"{bad}" has a non-finite entry' in err


def test_classify_degenerate_gram_exit_one(tmp_path, capsys):
    path = _write_pair(tmp_path, np.diag([1.0, 2.0]), [[0.0, 0.0], [0.0, 1.0]])
    assert run(["classify", "--input", path]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: gram matrix is degenerate")
    assert captured.out == ""


_BAD_TOLERANCES = ["nan", "inf", "-inf", "-1", "0", "abc"]


@pytest.mark.parametrize("tol", _BAD_TOLERANCES)
def test_classify_rejects_bad_tol_option(pair_file, capsys, tol):
    # each value as a separate word, the negative ones included
    assert run(["classify", "--input", pair_file, "--tol", tol, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --tol must be a positive finite number")
    assert captured.out == ""


@pytest.mark.parametrize("tol", _BAD_TOLERANCES)
@pytest.mark.parametrize("argv", [
    ["classify", "--input", "{pair_file}", "--json"],
    ["catalog", "list", "--json"],
    ["verify", "run", "--id", "b", "--samples", "1", "--json"],
    ["report", "--table", "3", "--samples", "1", "--json"],
])
def test_bad_env_tolerance_exit_one(pair_file, capsys, monkeypatch, tol, argv):
    monkeypatch.setenv("PETROV_TOL", tol)
    assert run([word.format(pair_file=pair_file) for word in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: PETROV_TOL must be a positive finite number")
    assert captured.out == ""


def _python_dash_m(*args):
    src = str(Path(petrovtypes.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    # a RuntimeWarning is an error here, as in the in-process tests
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "petrovtypes", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_python_dash_m_entry_point():
    proc = _python_dash_m("catalog", "list", "--json")
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["examples"]) == 15


@pytest.mark.parametrize("args, message", [
    (["verify", "run", "--id", "e", "--samples", "1", "--seed", "-1"], "seed must be non-negative"),
    (["report", "--table", "3", "--samples", "1", "--seed", "-2"], "seed must be non-negative"),
    (["report", "--table", "2", "--samples", "0"], "need at least one sample"),
    # the frame data of the stencil points at this step overflows
    (["verify", "run", "--id", "k", "--samples", "1", "--h", "1e300"], "frame data is not finite"),
    (["catalog", "eval", "k", "--point", "0,0,1e200,0"], "frame data is not finite"),
    (["catalog", "eval", "m", "--point", "1e160,1e160,1e160,1e160"], "frame data is not finite"),
    # a step so large that a solve fails names the entry and the step
    (["verify", "run", "--id", "k", "--samples", "1", "--h", "1e20"],
     "Singular matrix (entry k at --h 1e+20)"),
    (["verify", "run", "--id", "m", "--samples", "1", "--h", "1e10"],
     "Singular matrix (entry m at --h 1e+10)"),
    (["verify", "run", "--id", "e", "--samples", "1", "--h", "1e10"],
     "chart solver did not converge; point too far out (entry e at --h 1e+10)"),
])
def test_bad_sampling_exits_one_without_a_traceback(args, message):
    proc = _python_dash_m(*args, "--json")
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {message}") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""


@pytest.mark.parametrize("matrix, message", [
    ({"rows": 2, "cols": 2, "data": ["1", "0", "0", "nan"]}, "malformed matrix"),
    ({"rows": 2, "cols": 2, "data": [1, 0, 0]}, "malformed matrix"),
    ({"cols": 2, "data": [1, 0, 0, 1]}, "missing 'rows'"),
    # four characters, but a string is not a list of entries
    ({"rows": 2, "cols": 2, "data": "2003"}, "malformed matrix"),
    ({"rows": 2, "cols": 2, "data": ["1/0", "0", "0", "1"]}, "malformed matrix"),
    ({"rows": 0, "cols": 0, "data": []}, "malformed matrix"),
    ({"rows": 2.5, "cols": 2, "data": [1, 0, 0, 1]}, "malformed matrix"),
    ({"rows": True, "cols": 1, "data": [1]}, "malformed matrix"),
])
def test_classify_malformed_matrix_exit_one(tmp_path, capsys, matrix, message):
    path = tmp_path / "pair.json"
    gram = {"rows": 2, "cols": 2, "data": [-1, 0, 0, 1]}
    path.write_text(json.dumps({"a": matrix, "gram": gram}))
    assert run(["classify", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_classify_refuses_a_top_level_non_object(tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_text("[1, 2]")
    assert run(["classify", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == 'error: input must be a JSON object with "a" and "gram" matrices, got list\n'


@pytest.mark.parametrize("key", ["a", "gram"])
def test_classify_refuses_a_matrix_that_is_not_an_object(tmp_path, capsys, key):
    path = tmp_path / "pair.json"
    pair = {"a": {"rows": 2, "cols": 2, "data": [1, 0, 0, 2]},
            "gram": {"rows": 2, "cols": 2, "data": [-1, 0, 0, 1]}}
    pair[key] = [1, 0, 0, 2]
    path.write_text(json.dumps(pair))
    assert run(["classify", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == ('error: malformed matrix in input: a matrix must be an object with '
                   '"rows", "cols" and "data", got list\n')


_GRAM_TEXT = '{"rows": 2, "cols": 2, "data": [-1, 0, 0, 1]}'


@pytest.mark.parametrize("entry, message", [
    ('"1e400"', "malformed matrix in input: entry beyond the float range"),
    ("1" + "0" * 400, "malformed matrix in input: entry beyond the float range"),
    ("true", "malformed matrix in input: entries must be numbers"),
    # past the interpreter's digit limit the JSON reader itself refuses
    ("1" * 5000, "is not valid JSON: Exceeds the limit"),
], ids=["string-1e400", "401-digit-integer", "true", "5000-digit-integer"])
def test_classify_unreadable_entry_exits_one_without_a_traceback(tmp_path, entry, message):
    path = tmp_path / "pair.json"
    path.write_text(
        f'{{"a": {{"rows": 2, "cols": 2, "data": [{entry}, 0, 0, 1]}}, "gram": {_GRAM_TEXT}}}'
    )
    proc = _python_dash_m("classify", "--input", str(path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert message in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_classify_non_utf8_input_exits_one(tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_bytes(b"\xff\xfe{}")
    assert run(["classify", "--input", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path} is not valid JSON: 'utf-8' codec")


@pytest.mark.parametrize("data", [
    ["1/3", "2", "-2", "-5/7"],
    ["1/3", 2, -2, "-5/7"],
], ids=["strings", "mixed"])
def test_classify_rational_strings_match_floats(tmp_path, capsys, data):
    """A "p/q" entry is read as the float nearest the fraction, so the output
    is byte for byte that of the pair written as floats."""
    outputs = []
    for name, a, gram in [
        ("rational.json", data, ["1", "0", "0", "-1"]),
        ("float.json", [1 / 3, 2.0, -2.0, -5 / 7], [1.0, 0.0, 0.0, -1.0]),
    ]:
        path = tmp_path / name
        path.write_text(json.dumps({
            "a": {"rows": 2, "cols": 2, "data": a},
            "gram": {"rows": 2, "cols": 2, "data": gram},
        }))
        assert run(["classify", "--input", str(path), "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["algebraic"]["label"] == "IV"


def test_catalog_eval_singular_chart_jacobian_exit_one(capsys):
    # the Newton Jacobian of the sphere chart of g is singular at the origin
    assert run(["catalog", "eval", "g", "--point", "0,0,0,0", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "singular Jacobian" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("args, message", [
    (["0-1", "--point", "nan,1"], "non-finite coordinate"),
    (["0-1", "--point", "0.2,inf"], "non-finite coordinate"),
    (["k", "--point", "0,0,0,0", "--a", "0"], "--a must be finite and nonzero"),
    (["k", "--point", "0,0,0,0", "--a", "nan"], "--a must be finite and nonzero"),
])
def test_catalog_eval_non_finite_input_exit_one(capsys, args, message):
    assert run(["catalog", "eval", *args, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("h", ["0", "-1e-3", "nan", "inf", "1e-300"])
def test_verify_run_rejects_bad_step(capsys, h):
    # the "--h=" form; the value as a separate word is tested below.  1e-300 is
    # positive and finite, but vanishes against the coordinates of the point
    assert run(["verify", "run", "--id", "b", "--samples", "1", f"--h={h}", "--json"]) == 1
    captured = capsys.readouterr()
    if h == "1e-300":
        message = "step 1e-300 vanishes at this point: p +- step equals p (entry b at --h 1e-300)"
    else:
        message = "--h must be a positive finite step"
    assert captured.err.startswith("error:") and message in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_verify_run_negative_step_as_separate_word(capsys):
    assert run(["verify", "run", "--id", "b", "--samples", "1", "--h", "-1e-3", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "--h must be a positive finite step" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("args, a", [
    (["m", "--point", "-0.1,0.2,0.3,0.1"], 1.0),
    (["k", "--point", "0.1,0.2,0.3,0.1", "--a", "-1e-2"], -1e-2),
])
def test_catalog_eval_negative_values_as_separate_words(capsys, args, a):
    assert run(["catalog", "eval", *args, "--json"]) == 0
    payload = _json_out(capsys)
    point = [float(x) for x in args[2].split(",")]
    want = catalog.evaluate(args[0], point, a=a)
    assert payload["id"] == args[0]
    assert np.allclose(payload["point"], want.point, rtol=0, atol=1e-12)


def _nan_reports(example_id, samples, seed, h):
    return [
        verify.ResidualReport(example_id, "gauss", (), 1e-9, 1e-3, 1e-3),
        verify.ResidualReport(example_id, "gauss", (), float("nan"), 1e-3, 1e-3),
        verify.ResidualReport(example_id, "gauss", (), 2e-9, 1e-3, 1e-3),
    ]


def test_verify_summary_keeps_nan_residual(capsys, monkeypatch):
    monkeypatch.setattr(verify, "run_checks", _nan_reports)
    assert run(["verify", "run", "--id", "b"]) == 1
    row = next(line for line in capsys.readouterr().out.splitlines() if "| gauss |" in line)
    assert "| nan |" in row and row.endswith("| NO |")


def test_json_output_refuses_non_finite_values(capsys, monkeypatch):
    monkeypatch.setattr(verify, "run_checks", _nan_reports)
    assert run(["verify", "run", "--id", "b", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "non-finite value" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("ex_id, point", [
    ("k", "0.1,0.2,0.3,0.1"),
    ("0-1", "0.2,1.0"),
    ("a", "0.1,0.1,0.1,0.1"),
])
def test_catalog_eval_anchor_variant_only_on_h_and_i(capsys, ex_id, point):
    assert run(["catalog", "eval", ex_id, "--point", point, "--anchor-variant", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "anchor_variant" in captured.err
    assert captured.out == ""


def test_verify_run_without_timings_has_no_time(capsys):
    assert run(["verify", "run", "--id", "b", "--samples", "1", "--json"]) == 0
    assert all("time_ms" not in row for row in _json_out(capsys)["checks"])
    assert run(["verify", "run", "--id", "b", "--samples", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "| id | check | max residual | threshold | pass |"
    assert all(line.endswith("| yes |") for line in lines[4:])


def test_verify_run_timings(capsys):
    assert run(["verify", "run", "--id", "b", "--samples", "2", "--json", "--timings"]) == 0
    rows = _json_out(capsys)["checks"]
    assert {row["check"] for row in rows} == {"shape_fd", "gauss", "codazzi"}
    assert all(isinstance(row["time_ms"], float) and row["time_ms"] > 0 for row in rows)
    assert run(["verify", "run", "--id", "b", "--samples", "2", "--timings"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "| id | check | max residual | threshold | pass | time ms |"
    for line in lines[4:]:
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        assert cells[4] == "yes" and float(cells[5]) > 0

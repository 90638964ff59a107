"""Load on use: the package registers its six modules without running them,
a command runs only the modules it reads, and each re-exported name is the
object its module defines."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import petrovtypes
from petrovtypes import catalog, cli, linalg, spaceform, verify
from petrovtypes.linalg import matrix_to_json

SRC = str(Path(petrovtypes.__file__).resolve().parent.parent)
MODULES = ("catalog", "cli", "linalg", "petrov", "spaceform", "verify")
EXPORTS = {
    "linalg": "BadToleranceError BilinearSpace ClusterAmbiguityError DegenerateGramError "
    "DomainError ShapeError ToleranceError default_tol eigen_clusters matrix_from_json "
    "matrix_to_json signature",
    "petrov": "AlgebraicType ConditioningError ContractError GeometricType JordanStructure "
    "PetrovNormalForm SelfAdjointPair TaxonomyError assemble_normal_pair classify_algebraic "
    "classify_geometric classify_pair negative_index petrov_normal_form",
    "spaceform": "CurvatureSpectrum QuadricFunction SpaceForm admissibility_check "
    "cartan_residual modulus_relation quadric_gradient sphere_shape_operator "
    "type3_forced_curvature",
    "catalog": "EXAMPLE_IDS FrameData evaluate expected_type sample_domain",
    "verify": "CurvatureData ResidualReport codazzi_residual gauss_residual run_checks "
    "shape_fd_check table_report",
}

# Runs the CLI on sys.argv[1:], then prints to stderr, as its last line, the
# package modules whose body ran: an audit hook sees each code object that
# exec runs, and importing a module execs its body.
_PROBE = """
import json, os, sys
ran = []
sys.addaudithook(
    lambda event, args: event == "exec" and ran.append(getattr(args[0], "co_filename", ""))
)
from petrovtypes.cli import run
status = run(sys.argv[1:])
package = os.path.dirname(sys.modules["petrovtypes"].__file__)
names = [os.path.basename(f)[:-3] for f in ran if os.path.dirname(f) == package]
print(json.dumps(sorted(names)), file=sys.stderr)
sys.exit(status)
"""


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def _modules_run(*argv):
    proc = _python("-c", _PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.splitlines()[-1])


def test_classify_runs_only_cli_linalg_and_petrov(tmp_path):
    a = np.array([[0.5, 2.0], [-2.0, -0.75]])
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"a": matrix_to_json(a), "gram": matrix_to_json(np.diag([1.0, -1.0]))}))
    ran = _modules_run("classify", "--input", str(path), "--json")
    assert ran == ["__init__", "cli", "linalg", "petrov"]


def test_catalog_eval_leaves_verify_unrun():
    ran = _modules_run("catalog", "eval", "k", "--point", "0,0,0,0", "--json")
    assert ran == ["__init__", "catalog", "cli", "linalg", "petrov", "spaceform"]


def test_import_registers_all_six_modules():
    # the benchmark tracer reads sys.modules["petrovtypes.<module>"] for each
    proc = _python("-c", (
        "import sys, petrovtypes; "
        "print(sorted(k for k in sys.modules if k.startswith('petrovtypes.')))"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str([f"petrovtypes.{m}" for m in MODULES])


def test_a_module_that_fails_to_load_raises_its_error_on_every_read():
    """Without numpy, import petrovtypes still registers all six modules, and
    every read of a name whose module cannot run raises the
    ModuleNotFoundError of the failed run, the first time and every time
    after, through the package, the module or a from-import."""
    proc = _python("-c", """
import sys
sys.modules["numpy"] = None
import petrovtypes
print(sorted(k for k in sys.modules if k.startswith("petrovtypes.")))
reads = [lambda: petrovtypes.classify_pair, lambda: petrovtypes.classify_pair,
         lambda: petrovtypes.petrov.classify_pair, lambda: petrovtypes.signature,
         lambda: petrovtypes.linalg.signature]
for read in reads:
    try:
        read()
    except Exception as exc:
        print(type(exc).__name__, exc)
try:
    from petrovtypes.petrov import petrov_normal_form
except Exception as exc:
    print(type(exc).__name__, exc)
""")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == str([f"petrovtypes.{m}" for m in MODULES])
    assert lines[1:] == ["ModuleNotFoundError import of numpy halted; None in sys.modules"] * 6


def test_matrix_from_json_imports_fractions_only_for_a_string_entry():
    """fractions, and the decimal module it loads, cost a command about 2 ms;
    a matrix of numbers reads without them, and "1/3" still reads exactly."""
    proc = _python("-c", (
        "import sys; from petrovtypes.linalg import matrix_from_json; "
        "m = matrix_from_json({'rows': 1, 'cols': 2, 'data': [0.5, 2]}); "
        "print('fractions' in sys.modules, 'decimal' in sys.modules); "
        "m = matrix_from_json({'rows': 1, 'cols': 2, 'data': ['1/3', 2]}); "
        "print('fractions' in sys.modules, m[0, 0] == 1 / 3)"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True", "True"]


def test_dir_lists_the_modules_and_the_exported_names():
    names = [name for names in EXPORTS.values() for name in names.split()]
    assert len(names) == 47
    assert sorted(dir(petrovtypes)) == sorted([*MODULES, *names])


@pytest.mark.parametrize("home, name", [
    (home, name) for home, names in EXPORTS.items() for name in names.split()
])
def test_exported_name_is_its_module_object(home, name):
    module = getattr(petrovtypes, home)
    obj = getattr(petrovtypes, name)
    assert obj is vars(module)[name]
    assert getattr(obj, "__module__", module.__name__) == module.__name__


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'petrovtypes' has no attribute 'nope'"):
        petrovtypes.nope


def test_domain_error_is_one_class_defined_in_linalg():
    assert spaceform.DomainError is linalg.DomainError is petrovtypes.DomainError
    assert linalg.DomainError.__module__ == "petrovtypes.linalg"
    # every module that raises or catches it holds the same class
    assert {m.DomainError for m in (catalog, cli, spaceform, verify)} == {linalg.DomainError}
    with pytest.raises(spaceform.DomainError, match="unknown example id 'zz'"):
        catalog.evaluate("zz", np.zeros(2))


def _reference_verify_parser():
    """A parser whose --id choices are a list built when the parser is."""
    ref = argparse.ArgumentParser(prog="petrovtypes verify")
    ref.add_argument("--id", choices=list(catalog.EXAMPLE_IDS))
    return ref


def test_verify_help_lists_the_ids_as_a_list_of_choices_would():
    want = _reference_verify_parser().format_usage().split(" [-h] ")[1].strip()
    assert want == "[--id {" + ",".join(catalog.EXAMPLE_IDS) + "}]"
    proc = _python("-m", "petrovtypes", "verify", "--help")
    assert proc.returncode == 0 and proc.stderr == ""
    assert want in proc.stdout


def test_verify_unknown_id_reads_as_a_list_of_choices_would():
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit):
        _reference_verify_parser().parse_args(["--id", "zz"])
    proc = _python("-m", "petrovtypes", "verify", "run", "--id", "zz")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == err.getvalue().splitlines()[-1]

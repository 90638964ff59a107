"""Classification of self-adjoint operator/metric pairs on indefinite
inner-product spaces, with a verified catalog of isoparametric hypersurface
examples in pseudo-Riemannian space forms.

The six modules load on use.  Importing the package puts each of them in
``sys.modules`` and on the package through ``importlib.util.LazyLoader``;
a module's code is compiled and run at the first read of one of its
attributes.  A command therefore runs only the modules it reads: the
``classify`` command runs ``cli``, ``linalg`` and ``petrov``, ``catalog``
adds the ``spaceform`` and ``catalog`` modules, and only ``verify`` and
``report`` run ``verify``.  The re-exported names are served by
``__getattr__`` from the module that defines them, which loads on that read.
"""

import importlib.util
import sys

# the re-exported names, by the module that defines them
_EXPORTS = {
    "linalg": """BadToleranceError BilinearSpace ClusterAmbiguityError DegenerateGramError
        DomainError ShapeError ToleranceError default_tol eigen_clusters matrix_from_json
        matrix_to_json signature""",
    "petrov": """AlgebraicType ConditioningError ContractError GeometricType JordanStructure
        PetrovNormalForm SelfAdjointPair TaxonomyError assemble_normal_pair classify_algebraic
        classify_geometric classify_pair negative_index petrov_normal_form""",
    "spaceform": """CurvatureSpectrum QuadricFunction SpaceForm admissibility_check
        cartan_residual modulus_relation quadric_gradient sphere_shape_operator
        type3_forced_curvature""",
    "catalog": "EXAMPLE_IDS FrameData evaluate expected_type sample_domain",
    "verify": """CurvatureData ResidualReport codazzi_residual gauss_residual run_checks
        shape_fd_check table_report""",
    "cli": "",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted([*_EXPORTS, *_HOME])


def _load_on_use(name: str):
    """The module petrovtypes.<name>, registered but not yet run."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


linalg, petrov, spaceform, catalog, verify, cli = map(_load_on_use, _EXPORTS)


# not cached on the package: a name replaced in its module, as a monkeypatch
# or a tracer does, reads replaced here too
def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return __all__


__version__ = "0.1.0"

"""Classification of self-adjoint operator/metric pairs on indefinite
inner-product spaces, with a verified catalog of isoparametric hypersurface
examples in pseudo-Riemannian space forms."""

from . import catalog, cli, linalg, petrov, spaceform, verify
from .linalg import (
    BadToleranceError,
    BilinearSpace,
    ClusterAmbiguityError,
    DegenerateGramError,
    ShapeError,
    ToleranceError,
    default_tol,
    eigen_clusters,
    matrix_from_json,
    matrix_to_json,
    minimal_poly,
    signature,
)
from .petrov import (
    AlgebraicType,
    ConditioningError,
    ContractError,
    GeometricType,
    JordanStructure,
    PetrovNormalForm,
    SelfAdjointPair,
    TaxonomyError,
    assemble_normal_pair,
    classify_algebraic,
    classify_geometric,
    classify_pair,
    negative_index,
    petrov_normal_form,
)
from .spaceform import (
    CurvatureSpectrum,
    DomainError,
    QuadricFunction,
    SpaceForm,
    admissibility_check,
    cartan_residual,
    modulus_relation,
    quadric_gradient,
    sphere_shape_operator,
    type3_forced_curvature,
)
from .catalog import EXAMPLE_IDS, FrameData, evaluate, expected_type, sample_domain
from .verify import (
    CurvatureData,
    ResidualReport,
    codazzi_residual,
    gauss_residual,
    isoparametric_function_check,
    run_checks,
    shape_fd_check,
    table_report,
)

__version__ = "0.1.0"

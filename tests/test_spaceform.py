"""Space forms, quadric level sets, shape operators, and curvature identities."""

import re

import numpy as np
import pytest

from petrovtypes.spaceform import (
    CurvatureSpectrum,
    DomainError,
    QuadricFunction,
    SpaceForm,
    admissibility_check,
    ambient_inner,
    cartan_residual,
    inner_matrix,
    modulus_relation,
    quadratic_minimal_data,
    quadric_gradient,
    sphere_shape_operator,
    type3_forced_curvature,
)
from petrovtypes.linalg import ShapeError


def _anti(n):
    return np.eye(n)[::-1].copy()


def test_inner_matrix_signature():
    g = inner_matrix(5, 2)
    assert np.array_equal(np.diag(g), [-1, -1, 1, 1, 1])


def test_ambient_inner_bilinear():
    u = np.array([1.0, 2.0, 3.0])
    v = np.array([-1.0, 0.0, 2.0])
    assert ambient_inner(u, v, 1) == pytest.approx(1.0 + 0.0 + 6.0)


def test_ambient_inner_on_stacks_matches_rows():
    rng = np.random.default_rng(1)
    u, v = rng.normal(size=(2, 7, 5))
    rows = ambient_inner(u, v, 2)
    assert rows.shape == (7,)
    assert all(rows[i] == ambient_inner(u[i], v[i], 2) for i in range(7))
    for bad in ((u, v[0]), (u[None], v[None])):
        with pytest.raises(ShapeError):
            ambient_inner(*bad, 2)


def test_space_form_embedding_data():
    s = SpaceForm(5, 3, 1)
    assert s.embedding_dim == 6 and s.embedding_index == 3
    h = SpaceForm(5, 2, -1)
    assert h.embedding_dim == 6 and h.embedding_index == 3


def test_space_form_contains():
    s = SpaceForm(5, 2, 1)
    x = np.zeros(6)
    x[5] = 1.0
    assert s.contains(x)
    assert not s.contains(2.0 * x)


def test_quadric_rejects_non_self_adjoint():
    p = np.zeros((4, 4))
    p[0, 1] = 1.0
    with pytest.raises(ShapeError):
        QuadricFunction("flat", 1, p, 0.0, np.zeros(4))


def test_flat_gradient():
    p_mat = -np.eye(3)
    f = QuadricFunction("flat", 1, p_mat, -1.0, np.zeros(3))
    x = np.array([1.0, 2.0, 3.0])
    assert np.allclose(quadric_gradient(f, x), -2.0 * x)


def test_sphere_gradient_is_tangential():
    p_mat = np.kron(np.eye(3), _anti(2))
    f = QuadricFunction("sphere", 2, p_mat, 0.0)
    x = np.zeros(6)
    x[5] = 1.0
    grad = quadric_gradient(f, x)
    assert abs(ambient_inner(grad, x, 2)) < 1e-12


def test_sphere_gradient_needs_unit_point():
    p_mat = np.kron(np.eye(3), _anti(2))
    f = QuadricFunction("sphere", 2, p_mat, 0.0)
    with pytest.raises(DomainError):
        quadric_gradient(f, np.full(6, 2.0))


def test_gradient_on_stacks_matches_rows():
    sphere = QuadricFunction("sphere", 2, np.kron(np.eye(3), _anti(2)), 0.0)
    flat = QuadricFunction("flat", 1, -np.eye(3), -1.0, np.array([0.5, 0.0, 1.0]))
    rng = np.random.default_rng(2)
    on_sphere = rng.normal(size=(6, 6))
    on_sphere /= np.sqrt(np.abs(ambient_inner(on_sphere, on_sphere, 2)))[:, None]
    on_sphere = on_sphere[ambient_inner(on_sphere, on_sphere, 2) > 0]
    assert len(on_sphere) >= 2
    for f, xs in ((sphere, on_sphere), (flat, rng.normal(size=(5, 3)))):
        grads = quadric_gradient(f, xs)
        assert grads.shape == xs.shape
        for x, grad in zip(xs, grads):
            assert np.abs(grad - quadric_gradient(f, x)).max() <= 1e-14
    with pytest.raises(DomainError):
        quadric_gradient(sphere, np.vstack([on_sphere, np.full(6, 2.0)]))
    with pytest.raises(ShapeError):
        quadric_gradient(flat, np.zeros((2, 2, 3)))


def test_quadric_value_refuses_wrong_dimension():
    """A point or stack of the wrong dimension gets the ShapeError of
    quadric_gradient, not numpy's matmul error."""
    sphere = QuadricFunction("sphere", 2, np.kron(np.eye(3), _anti(2)), 0.0)
    flat = QuadricFunction("flat", 1, -np.eye(3), -1.0, np.array([0.5, 0.0, 1.0]))
    for f in (sphere, flat):
        for bad in (np.zeros(f.dim - 1), np.zeros((3, f.dim + 1)), np.zeros((2, 2, f.dim))):
            with pytest.raises(ShapeError, match="point dimension mismatch"):
                f.value(bad)
            with pytest.raises(ShapeError, match="point dimension mismatch"):
                quadric_gradient(f, bad)


def test_admissibility_scalar_matrix():
    f = QuadricFunction("flat", 2, 3.0 * np.eye(5), 1.0, np.zeros(5))
    ok, diag = admissibility_check(f)
    assert ok and "rho" in diag


# self-adjoint for index 2, and N^2 = O
_NILPOTENT = np.array(
    [
        [-1, 0, 0, 0, 1],
        [0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0],
        [-1, 0, 0, 0, 1],
    ],
    dtype=float,
)


def test_admissibility_nilpotent_case():
    # self-adjoint nilpotent P with Pp = 0 and <p, p> = 1
    f = QuadricFunction("flat", 2, _NILPOTENT, 1.0, np.eye(5)[2])
    ok, diag = admissibility_check(f)
    assert ok and "P^2" in diag


def test_admissibility_rejects_bad_p():
    f = QuadricFunction("flat", 2, np.diag([2.0, 1.0, 0.0, 0.0, 0.0]), 1.0, np.zeros(5))
    ok, _diag = admissibility_check(f)
    assert not ok


@pytest.mark.parametrize("s, p_mat, want", [
    (2, 3.0 * np.eye(5), "deg mu_P = 1"),
    # (P - E/2)^2 = O: mu_P = (t - 1/2)^2 = t^2 - t + 1/4
    (2, 0.5 * np.eye(5) + _NILPOTENT, (1.0, -0.25)),
    (2, np.diag([1.0, 1.0, -2.0, -2.0, 1.0]), (-1.0, 2.0)),
    # the complex pair 1 +- i of entry j: mu_P = t^2 - 2t + 2
    (3, np.block([[np.eye(3), -_anti(3)], [_anti(3), np.eye(3)]]), (2.0, -2.0)),
    (2, np.diag([1.0, 2.0, 3.0, 1.0, 1.0]), "deg mu_P above 2"),
], ids=["scalar", "nilpotent-shift", "two-real", "complex-pair", "three-real"])
def test_sphere_minimal_degree_by_projection(s, p_mat, want):
    f = QuadricFunction("sphere", s, p_mat, 0.0)
    ok, diag = admissibility_check(f)
    if isinstance(want, str):
        assert not ok and diag.startswith(want)
        with pytest.raises(DomainError, match=want):
            quadratic_minimal_data(f)
    else:
        assert ok and diag == "deg mu_P = 2"
        assert quadratic_minimal_data(f) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("variant, p_mat, c, p_vec", [
    ("sphere", np.diag([1.0, np.nan, -1.0]), 0.0, None),
    ("sphere", np.diag([1.0, 1.0, -1.0]), np.inf, None),
    ("flat", np.diag([np.inf, 0.0, 0.0]), 1.0, np.zeros(3)),
    ("flat", np.zeros((3, 3)), 1.0, np.array([0.0, np.nan, 1.0])),
], ids=["sphere-P", "sphere-c", "flat-P", "flat-p"])
def test_quadric_refuses_non_finite_data(variant, p_mat, c, p_vec):
    with pytest.raises(ShapeError, match="must be finite"):
        QuadricFunction(variant, 1, p_mat, c, p_vec)


@pytest.mark.parametrize("p_mat", [1.0, np.zeros((0, 0))], ids=["0-d", "empty"])
def test_quadric_refuses_malformed_p(p_mat):
    shape = str(np.shape(p_mat))
    with pytest.raises(ShapeError, match=f"square matrix, got shape {re.escape(shape)}"):
        QuadricFunction("sphere", 0, p_mat, 0.0)


def test_quadratic_minimal_data():
    p_mat = np.kron(np.eye(3), _anti(2))
    f = QuadricFunction("sphere", 2, p_mat, 0.0)
    a, b = quadratic_minimal_data(f)
    # mu(t) = t^2 - 1, so P^2 = 0*P + 1*E
    assert a == pytest.approx(0.0, abs=1e-10)
    assert b == pytest.approx(1.0, abs=1e-10)


def test_sphere_shape_operator_eigenvalues():
    # anti-diagonal block quadric at level 0: curvatures -1, -1, 1, 1
    p_mat = np.zeros((6, 6))
    p_mat[:2, :2] = _anti(2)
    p_mat[2:, 2:] = _anti(4)
    f = QuadricFunction("sphere", 2, p_mat, 0.0)
    x = np.zeros(6)
    x[5] = 1.0
    grad = quadric_gradient(f, x)
    g = inner_matrix(6, 2)
    rows = np.vstack([(g @ x), (g @ grad)])
    _u, _s, vh = np.linalg.svd(rows)
    basis = vh[2:].T
    rep, delta = sphere_shape_operator(f, x, basis)
    assert delta == 1
    assert np.allclose(np.sort(np.linalg.eigvals(rep).real), [-1, -1, 1, 1], atol=1e-9)


def test_cartan_residual_zero_for_stated_spectra():
    spec_e = CurvatureSpectrum(real=((-1.0, 2), (1.0, 2)), complex=())
    for i in range(2):
        assert cartan_residual(spec_e, 1, i) == pytest.approx(0.0, abs=1e-12)
    spec_f = CurvatureSpectrum(real=((1 / np.sqrt(2), 3), (np.sqrt(2), 1)), complex=())
    for i in range(2):
        assert cartan_residual(spec_f, -1, i) == pytest.approx(0.0, abs=1e-12)


def test_cartan_residual_reindexing_invariant():
    a = CurvatureSpectrum(real=((1 / np.sqrt(2), 3), (np.sqrt(2), 1)), complex=())
    b = CurvatureSpectrum(real=((np.sqrt(2), 1), (1 / np.sqrt(2), 3)), complex=())
    assert cartan_residual(a, -1, 0) == pytest.approx(cartan_residual(b, -1, 1), abs=1e-12)


def test_modulus_relation_corollary_value():
    assert modulus_relation(1, -1, 0.0, 1.0) == 0.0


def test_modulus_relation_requires_positive_beta():
    with pytest.raises(DomainError):
        modulus_relation(1, -1, 0.0, -1.0)


def test_type3_forced_curvature():
    assert type3_forced_curvature(1.0, 1.0) == pytest.approx(2.0)
    with pytest.raises(DomainError):
        type3_forced_curvature(0.0, 1.0)

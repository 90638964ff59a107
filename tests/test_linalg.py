"""Core linear algebra: signatures, polynomials, clustering, JSON round trips."""

import numpy as np
import pytest
from test_petrov import _sample_pairs

from petrovtypes.linalg import (
    RANK_TOL,
    BadToleranceError,
    BilinearSpace,
    ClusterAmbiguityError,
    DegenerateGramError,
    ShapeError,
    ToleranceError,
    default_tol,
    eigen_clusters,
    generalized_eigenspace,
    is_self_adjoint,
    jordan_rank_profile,
    matrix_from_json,
    matrix_to_json,
    minimal_poly,
    resolve_tol,
    signature,
    simple_eigenvectors,
)
from petrovtypes.petrov import classify_pair
from petrovtypes.spaceform import SpaceForm


def test_signature_counts_positive_negative_null():
    g = np.diag([2.0, -3.0, 0.0, 1.0])
    assert signature(g) == (2, 1, 1)


def test_signature_congruence_invariant():
    rng = np.random.default_rng(0)
    g = np.diag([1.0, 1.0, -1.0, -1.0])
    for _ in range(20):
        t = rng.normal(size=(4, 4))
        if np.linalg.cond(t) > 1e3:
            continue
        assert signature(t.T @ g @ t) == (2, 2, 0)


def test_signature_rejects_nonsymmetric():
    with pytest.raises(ShapeError):
        signature(np.array([[0.0, 1.0], [0.0, 0.0]]))


_BAD_MATRICES = {
    "empty": (np.zeros((0, 0)), "is empty"),
    "nan": (np.array([[1.0, 0.0], [0.0, np.nan]]), "has a non-finite entry"),
    "inf": (np.array([[np.inf, 0.0], [0.0, 1.0]]), "has a non-finite entry"),
    "-inf": (np.array([[1.0, 0.0], [0.0, -np.inf]]), "has a non-finite entry"),
}


@pytest.mark.parametrize("case", sorted(_BAD_MATRICES))
def test_signature_refuses_empty_and_non_finite(case):
    mat, message = _BAD_MATRICES[case]
    with pytest.raises(ShapeError, match=f"gram {message}"):
        signature(mat)


@pytest.mark.parametrize("case", sorted(_BAD_MATRICES))
def test_minimal_poly_refuses_empty_and_non_finite(case):
    mat, message = _BAD_MATRICES[case]
    with pytest.raises(ShapeError, match=f"matrix {message}"):
        minimal_poly(mat)


@pytest.mark.parametrize("case", sorted(_BAD_MATRICES))
def test_classify_pair_refuses_empty_and_non_finite(case):
    mat, message = _BAD_MATRICES[case]
    good = np.eye(len(mat))
    with pytest.raises(ShapeError, match=f"gram {message}"):
        classify_pair(good, mat)
    if len(mat):  # an empty operator needs an empty Gram, which is refused first
        with pytest.raises(ShapeError, match=f"operator {message}"):
            classify_pair(mat, good)


# a type-II pair of index 1; each call gets both matrices through `as_matrix`
_GRAM = [[0.0, 1.0], [1.0, 0.0]]
_NILPOTENT = [[0.0, 1.0], [0.0, 0.0]]
_MATRIX_CALLS = {
    "signature": lambda as_matrix: signature(as_matrix(_GRAM)),
    "minimal_poly": lambda as_matrix: minimal_poly(as_matrix(_NILPOTENT)),
    "eigen_clusters": lambda as_matrix: eigen_clusters(as_matrix(_NILPOTENT)),
    "is_self_adjoint": lambda as_matrix: is_self_adjoint(
        as_matrix(_NILPOTENT), BilinearSpace.from_gram(as_matrix(_GRAM))
    ),
    "classify_pair": lambda as_matrix: classify_pair(as_matrix(_NILPOTENT), as_matrix(_GRAM)),
}


@pytest.mark.parametrize("name", sorted(_MATRIX_CALLS))
def test_nested_list_input_matches_array(name):
    call = _MATRIX_CALLS[name]
    np.testing.assert_equal(call(lambda rows: rows), call(np.array))


def test_minimal_poly_identity():
    # t - 1, although the characteristic polynomial is (t - 1)^2
    mp = minimal_poly(np.eye(2))
    assert np.allclose(mp, [-1.0, 1.0], atol=1e-12)


def test_minimal_poly_float_jordan_block():
    a = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]])
    mp = minimal_poly(a)
    # (t - 2)^3 ascending: -8, 12, -6, 1
    assert np.allclose(mp, [-8.0, 12.0, -6.0, 1.0], atol=1e-8)


def test_minimal_poly_detects_diagonalizable():
    a = np.diag([1.0, 1.0, 3.0])
    mp = minimal_poly(a)
    assert np.allclose(mp, [3.0, -4.0, 1.0], atol=1e-10)


def test_eigen_clusters_merges_defective_eigenvalue():
    rng = np.random.default_rng(1)
    j = np.array([[0.5, 1.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 0.5]])
    t = rng.normal(size=(3, 3))
    a = t @ j @ np.linalg.inv(t)
    clusters = eigen_clusters(a)
    assert len(clusters) == 1
    value, mult = clusters[0]
    assert mult == 3
    assert abs(value - 0.5) < 1e-4


def test_eigen_clusters_complex_pair():
    a = np.array([[1.0, 2.0], [-2.0, 1.0]])
    clusters = eigen_clusters(a)
    assert len(clusters) == 1
    value, mult = clusters[0]
    assert mult == 1
    alpha, beta = value
    assert abs(alpha - 1.0) < 1e-12 and abs(beta - 2.0) < 1e-12


def test_jordan_rank_profile_single_jordan_block():
    n = 6
    a = np.eye(n, k=1)
    profile = jordan_rank_profile(a, 0.0, n, default_tol())
    assert profile == [n - k for k in range(n)] + [0]


def test_jordan_rank_profile_conjugated_block():
    rng = np.random.default_rng(7)
    j = np.eye(4, k=1) + 1.5 * np.eye(4)
    while True:
        t = rng.normal(size=(4, 4))
        if np.linalg.cond(t) <= 50:
            break
    a = t @ j @ np.linalg.inv(t)
    assert jordan_rank_profile(a, 1.5, 4, default_tol()) == [4, 3, 2, 1, 0]


def test_matrix_json_round_trip_float():
    a = np.array([[0.25, -1.5], [3.0, 0.0]])
    b = matrix_from_json(matrix_to_json(a))
    assert np.array_equal(a, b)


def test_matrix_from_json_reads_rationals_as_float():
    # each "p/q" string is the float nearest the fraction; numbers may sit
    # among the strings
    data = ["1/3", "2", 0, "-5/7"]
    b = matrix_from_json({"rows": 2, "cols": 2, "data": data})
    assert b.dtype == np.float64
    assert b.tolist() == [[1 / 3, 2.0], [0.0, -5 / 7]]


def test_matrix_from_json_rejects_bad_length():
    with pytest.raises(ShapeError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [1.0]})


def test_default_tol_env_override(monkeypatch):
    monkeypatch.setenv("PETROV_TOL", "1e-5")
    assert default_tol() == 1e-5
    monkeypatch.delenv("PETROV_TOL")
    assert default_tol() == 1e-9


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "-1", "0"])
def test_default_tol_rejects_bad_env(monkeypatch, value):
    monkeypatch.setenv("PETROV_TOL", value)
    with pytest.raises(BadToleranceError, match="PETROV_TOL must be a positive finite number"):
        default_tol()


def test_degenerate_gram_is_a_named_value_error():
    with pytest.raises(DegenerateGramError, match="gram matrix is degenerate"):
        BilinearSpace.from_gram(np.diag([0.0, 1.0]))
    with pytest.raises(ValueError):
        BilinearSpace.from_gram(np.diag([0.0, 1.0]))


def test_eigen_clusters_ambiguous_gap_raises():
    # two eigenvalues separated by about the cluster threshold scale
    gap = 1.0e-6
    a = np.diag([1.0, 1.0 + gap])
    with pytest.raises(ClusterAmbiguityError):
        eigen_clusters(a)


def _oracle_generalized_eigenspace(a, lam, mult):
    """generalized_eigenspace without its fast paths: the mult smallest right
    singular directions of ((a - lam I) / |a - lam I|_2)^mult."""
    n = a.shape[0]
    shifted = a - lam * np.eye(n, dtype=a.dtype)
    norm = np.linalg.norm(shifted, 2)
    if norm == 0:
        return np.eye(n, dtype=a.dtype)[:, :mult]
    power = np.linalg.matrix_power(shifted / norm, mult)
    _u, _s, vh = np.linalg.svd(power)
    return vh.conj().T[:, n - mult :]


def _oracle_simple_rank_profile(a, lam, tol):
    """jordan_rank_profile(a, lam, 1, tol) by the SVD staircase on the oracle
    basis: the SVD of the 1x1 restriction N gives |N|; a nonzero N is
    normalized, and the staircase then finds no kernel unless 1 <= cut."""
    q = _oracle_generalized_eigenspace(a, lam, 1)
    nil = q.conj().T @ (a - lam * np.eye(a.shape[0], dtype=a.dtype)) @ q
    cut = max(tol, RANK_TOL)
    sv = np.linalg.svd(nil, compute_uv=False)
    if sv[0] <= cut or (sv / sv[0])[0] <= cut:
        return [1, 0]
    raise ToleranceError("restriction is not numerically nilpotent")


def _fast_path_inputs():
    """Operators of the congruent taxonomy pairs and of 4 sample points of
    every catalog entry."""
    return [a for a, _g in _sample_pairs()]


def _outcome(call):
    try:
        return call()
    except ToleranceError:
        return "ToleranceError"


def test_generalized_eigenspace_fast_paths_match_oracle():
    tol = default_tol()
    seen = {"simple": 0, "whole": 0, "partial": 0}
    for a in _fast_path_inputs():
        n = a.shape[0]
        for val, mult in eigen_clusters(a, tol):
            if isinstance(val, tuple):
                mat, lam = a.astype(complex), complex(*val)
            else:
                mat, lam = a, float(val)
            got = generalized_eigenspace(mat, lam, mult)
            if mult == n:
                seen["whole"] += 1
                assert np.array_equal(got, np.eye(n))
            elif mult > 1:
                seen["partial"] += 1
                assert np.array_equal(got, _oracle_generalized_eigenspace(mat, lam, mult))
            else:
                seen["simple"] += 1
                want = _oracle_generalized_eigenspace(mat, lam, 1)
                assert got.shape == (n, 1)
                assert abs(np.vdot(got[:, 0], want[:, 0])) >= 1.0 - 1e-10
                # a shift just inside the rank cut keeps the 1-block, 1e-3 does not
                for shift in (0.9 * RANK_TOL, -0.9 * RANK_TOL, 1e-3, -1e-3):
                    mu = lam + shift
                    fast = _outcome(lambda: jordan_rank_profile(mat, mu, 1, tol))
                    assert fast == _outcome(lambda: _oracle_simple_rank_profile(mat, mu, tol))
                    assert fast == ([1, 0] if abs(shift) < RANK_TOL else "ToleranceError")
    assert min(seen.values()) > 0, seen


def _stacked_profile(a, lam, tol):
    """The rank profile of a simple eigenvalue lam as simple_eigenvectors
    decides it: [1, 0] unless it raises."""
    simple_eigenvectors(a, [lam], tol)
    return [1, 0]


def test_simple_eigenvectors_match_rank_profile_oracle():
    """The stacked eigenvectors of the simple real clusters span the simple
    generalized eigenspaces, and the stacked 1x1 rank decision is the one of
    jordan_rank_profile, at eigenvalues shifted just inside the rank cut and
    well outside it."""
    tol = default_tol()
    seen = 0
    for a in _fast_path_inputs():
        clusters = eigen_clusters(a, tol)
        lams = [val for val, mult in clusters if mult == 1 and not isinstance(val, tuple)]
        if not lams:
            continue
        vecs = simple_eigenvectors(a, lams, tol)
        assert vecs.shape == (a.shape[0], len(lams))
        for lam, v in zip(lams, vecs.T):
            seen += 1
            want = generalized_eigenspace(a, lam, 1)[:, 0]
            assert abs(v @ want) >= 1.0 - 1e-10
            for shift in (0.9 * RANK_TOL, -0.9 * RANK_TOL, 1e-3, -1e-3):
                mu = lam + shift
                oracle = _outcome(lambda: jordan_rank_profile(a, mu, 1, tol))
                stacked = _outcome(lambda: _stacked_profile(a, mu, tol))
                assert stacked == oracle == ([1, 0] if abs(shift) < RANK_TOL else "ToleranceError")
        # the whole stack at once: inside the cut passes, one outlier raises
        for shift in (0.9 * RANK_TOL, -0.9 * RANK_TOL):
            simple_eigenvectors(a, [lam + shift for lam in lams], tol)
        with pytest.raises(ToleranceError, match="not numerically nilpotent"):
            simple_eigenvectors(a, lams[:-1] + [lams[-1] + 1e-3], tol)
    assert seen > 0


@pytest.mark.parametrize("value", [-1.0, 0.0, float("nan"), float("inf")])
def test_library_tolerance_is_checked(value):
    """A tolerance argument that is not a positive finite number is refused
    by name, in every layer, before it can decide anything."""
    message = "tol must be a positive finite number"
    with pytest.raises(BadToleranceError, match=message):
        resolve_tol(value)
    with pytest.raises(BadToleranceError, match=message):
        classify_pair(np.diag([1.0, 2.0]), np.diag([1.0, -1.0]), value)
    with pytest.raises(BadToleranceError, match=message):
        eigen_clusters(np.diag([1.0, 2.0]), value)
    with pytest.raises(BadToleranceError, match=message):
        SpaceForm(3, 1, 0).contains(np.zeros(3), value)


def test_resolve_tol_default_and_passthrough(monkeypatch):
    assert resolve_tol(None) == default_tol() == 1e-9
    assert resolve_tol(1e-7) == 1e-7
    monkeypatch.setenv("PETROV_TOL", "1e-5")
    assert resolve_tol(None) == 1e-5

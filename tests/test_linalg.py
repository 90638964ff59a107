"""Core linear algebra: signatures, polynomials, clustering, JSON round trips."""

from fractions import Fraction

import numpy as np
import pytest
from test_petrov import TAXONOMY_CASES, _congruences, _taxonomy_pair

from petrovtypes.catalog import EXAMPLE_IDS, evaluate, sample_domain
from petrovtypes.linalg import (
    RANK_TOL,
    ClusterAmbiguityError,
    ShapeError,
    ToleranceError,
    char_poly,
    default_tol,
    eigen_clusters,
    generalized_eigenspace,
    jordan_rank_profile,
    matrix_from_json,
    matrix_to_json,
    minimal_poly,
    poly_to_string,
    rank_sequence,
    signature,
)


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


def test_char_poly_exact_companion():
    a = np.array([[Fraction(0), Fraction(-2)], [Fraction(1), Fraction(3)]], dtype=object)
    # char poly of [[0,-2],[1,3]] is t^2 - 3t + 2
    cp = char_poly(a)
    assert list(cp) == [Fraction(2), Fraction(-3), Fraction(1)]


def test_minimal_poly_exact_divides_char():
    a = np.array(
        [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]], dtype=object
    )
    mp = minimal_poly(a)
    assert list(mp) == [Fraction(-1), Fraction(1)]


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


def test_rank_sequence_single_jordan_block():
    n = 6
    a = np.eye(n, k=1)
    seq = rank_sequence(a, 0.0)
    assert seq == [n - k for k in range(n)] + [0]


def test_rank_sequence_conjugated_block():
    rng = np.random.default_rng(7)
    j = np.eye(4, k=1) + 1.5 * np.eye(4)
    while True:
        t = rng.normal(size=(4, 4))
        if np.linalg.cond(t) <= 50:
            break
    a = t @ j @ np.linalg.inv(t)
    assert rank_sequence(a, 1.5) == [4, 3, 2, 1, 0]


def test_rank_sequence_non_eigenvalue_full_rank():
    a = np.diag([1.0, 2.0])
    assert rank_sequence(a, 5.0) == [2, 2, 2]


def test_matrix_json_round_trip_float():
    a = np.array([[0.25, -1.5], [3.0, 0.0]])
    b = matrix_from_json(matrix_to_json(a))
    assert np.array_equal(a, b)


def test_matrix_json_round_trip_exact():
    a = np.array([[Fraction(1, 3), Fraction(2)], [Fraction(0), Fraction(-5, 7)]], dtype=object)
    b = matrix_from_json(matrix_to_json(a))
    assert b.dtype == object
    assert all(x == y for x, y in zip(a.reshape(-1), b.reshape(-1)))


def test_matrix_from_json_rejects_bad_length():
    with pytest.raises(ShapeError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [1.0]})


def test_default_tol_env_override(monkeypatch):
    monkeypatch.setenv("PETROV_TOL", "1e-5")
    assert default_tol() == 1e-5
    monkeypatch.delenv("PETROV_TOL")
    assert default_tol() == 1e-9


def test_poly_to_string_readable():
    s = poly_to_string(np.array([2.0, 0.0, 1.0]))
    assert "t^2" in s and "2" in s


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
    mats = []
    for case in TAXONOMY_CASES:
        base = _taxonomy_pair(case[3], case[4])
        mats += [a for a, _g in _congruences(base, seed=TAXONOMY_CASES.index(case))]
    for ex_id in EXAMPLE_IDS:
        mats += [evaluate(ex_id, p).shape for p in sample_domain(ex_id, 4, seed=7)]
    return mats


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

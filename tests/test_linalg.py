"""Core linear algebra: signatures, clustering, Jordan profiles, JSON round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_petrov import _sample_pairs

from petrovtypes import linalg
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
    resolve_tol,
    signature,
)
from petrovtypes.petrov import ContractError, classify_pair, jordan_structure
from petrovtypes.spaceform import QuadricFunction, admissibility_check


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


@pytest.mark.parametrize(
    "gram",
    [np.diag([1e308, -1e308]), np.array([[0.0, 1.7e308], [1.7e308, 0.0]])],
    ids=["diagonal", "anti-diagonal"],
)
def test_signature_of_a_gram_near_the_float_limit(gram):
    # g + g.T overflows here; the suite turns its RuntimeWarning into an error
    assert signature(gram) == (1, 1, 0)


def test_self_adjoint_verdicts_where_the_scale_overflows():
    # max |gram| * max |a| is beyond the float range for both operators
    gram = np.diag([1e200, -1e200])
    space = BilinearSpace.from_gram(gram)
    # gram @ skew - skew.T @ gram = [[0, 1e350], [-1e350, 0]]
    skew = np.array([[0.0, 1e150], [0.0, 0.0]])
    assert not is_self_adjoint(skew, space)
    assert is_self_adjoint(np.diag([1e200, 2.0]), space)
    with pytest.raises(ContractError, match="not self-adjoint"):
        classify_pair(skew, gram)


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_self_adjoint_verdicts_do_not_depend_on_the_gram_scale(scale):
    # the nilpotent [[0, 1], [0, 0]] is not self-adjoint for diag(1, -1);
    # 1e-7 is the tol that petrov_normal_form passes at the default tol
    gram = scale * np.diag([1.0, -1.0])
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
    space = BilinearSpace.from_gram(gram)
    assert not is_self_adjoint(nilpotent, space, 1e-7)
    assert is_self_adjoint(np.diag([3.0, 2.0]), space, 1e-7)
    with pytest.raises(ContractError, match="not self-adjoint"):
        classify_pair(nilpotent, gram)


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


def _shift_stack(a, lams):
    """The shifts a - lam I of the eigenvalues lams and their scales
    max |a - lam I|, as jordan_structure forms them for generalized_eigenspace."""
    lams = np.asarray(lams, dtype=a.dtype)
    shifts = a - lams[:, None, None] * np.eye(a.shape[0])
    return shifts, np.abs(shifts).max(axis=(1, 2))


def _restriction(a, lam, mult):
    """N_r = q^H (a - lam I) q on the generalized eigenspace q of lam, as
    jordan_structure forms it."""
    q = generalized_eigenspace(*_shift_stack(a, [lam]), mult)[0]
    return q.conj().T @ (a - lam * np.eye(a.shape[0], dtype=a.dtype)) @ q


def test_jordan_rank_profile_single_jordan_block():
    n = 6
    a = np.eye(n, k=1)
    profile = jordan_rank_profile(_restriction(a, 0.0, n), 0.0, default_tol())
    assert profile == [n - k for k in range(n)] + [0]


def test_jordan_rank_profile_conjugated_block():
    rng = np.random.default_rng(7)
    j = np.eye(4, k=1) + 1.5 * np.eye(4)
    while True:
        t = rng.normal(size=(4, 4))
        if np.linalg.cond(t) <= 50:
            break
    a = t @ j @ np.linalg.inv(t)
    assert jordan_rank_profile(_restriction(a, 1.5, 4), 1.5, default_tol()) == [4, 3, 2, 1, 0]


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


@pytest.mark.parametrize("entry, message", [
    ("1e400", "beyond the float range"),
    ("-1e400", "beyond the float range"),
    (10**400, "beyond the float range"),
    (-(10**400), "beyond the float range"),
    (True, "not true or false"),
    (False, "not true or false"),
], ids=["string", "negative-string", "integer", "negative-integer", "true", "false"])
def test_matrix_from_json_refuses_bools_and_overflow(entry, message):
    """An entry past the float range, or a JSON true or false, is a
    ValueError, as a bool rows or cols is."""
    with pytest.raises(ValueError, match=message):
        matrix_from_json({"rows": 2, "cols": 2, "data": [entry, 0, 0, 1]})


@pytest.mark.parametrize("obj", [[1, 2], "2x2", 4, None], ids=["list", "str", "int", "null"])
def test_matrix_from_json_refuses_a_non_object(obj):
    """A matrix that is not a dict is a TypeError naming its type."""
    want = f'a matrix must be an object with "rows", "cols" and "data", got {type(obj).__name__}'
    with pytest.raises(TypeError) as raised:
        matrix_from_json(obj)
    assert str(raised.value) == want


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


def _rotation(y):
    """[[1, -y], [y, 1]], eigenvalues 1 +- iy: at the default tol its
    linkage radius is 3 (250 eps)^(1/2) = 7.07e-7."""
    return np.array([[1.0, -y], [y, 1.0]])


def test_eigen_clusters_near_real_pair_band():
    """A conjugate pair 2|beta| apart is one real cluster for |beta| up to
    half the linkage radius, ambiguous above that up to the radius, and one
    complex cluster, reported once, beyond it."""
    assert eigen_clusters(_rotation(3e-7)) == [(1.0, 2)]
    for y in (5e-7, 6.5e-7):
        with pytest.raises(ClusterAmbiguityError, match="within twice the clustering threshold"):
            eigen_clusters(_rotation(y))
    ((alpha, beta), mult), = eigen_clusters(_rotation(8e-7))
    assert mult == 1 and alpha == 1.0 and beta == pytest.approx(8e-7, rel=1e-12)


@pytest.mark.parametrize("y", [5e-7, 6.5e-7])
def test_classify_pair_refuses_a_near_real_pair(y):
    """Inside the band the pair is refused as ambiguous, not reported as two
    equal real curvatures that no chain basis can separate."""
    with pytest.raises(ClusterAmbiguityError):
        classify_pair(_rotation(y), np.diag([-1.0, 1.0]))


_BETA_FACTORS = (0.2, 0.5, 0.75, 1.0, 1.01, 2.0, 10.0)


@st.composite
def _real_matrices(draw):
    """A real matrix of size 2..8: either normal entries, or real values and
    companion cells [[alpha, -beta], [beta, alpha]] from a small grid, so
    eigenvalues repeat, moved by a similarity with cond(T) <= 100.  Each
    beta is a multiple of the linkage radius at the default tol, so that
    pairs fall on both sides of and inside the near-real band."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.normal(size=(n, n))
    grid = st.sampled_from((-2.0, -1.0, 0.0, 0.5, 1.0, 3.0))
    cells = []
    while sum(len(c) for c in cells) < n:
        if sum(len(c) for c in cells) + 2 <= n and draw(st.booleans()):
            cells.append((draw(grid), draw(st.sampled_from(_BETA_FACTORS))))
        else:
            cells.append((draw(grid),))
    # the radius of eigen_clusters: 3 (250 eps)^(1/n) times max(|lambda|, 1),
    # here up to the small beta's own share of |lambda|
    radius = 3.0 * (250.0 * np.finfo(float).eps) ** (1.0 / n) * max(
        max(abs(c[0]) for c in cells), 1.0
    )
    a = np.zeros((n, n))
    at = 0
    for cell in cells:
        if len(cell) == 1:
            a[at, at] = cell[0]
        else:
            alpha, beta = cell[0], cell[1] * radius
            a[at : at + 2, at : at + 2] = [[alpha, -beta], [beta, alpha]]
        at += len(cell)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    t = q1 @ np.diag(10.0 ** rng.uniform(-1.0, 1.0, n)) @ q2
    return t @ a @ np.linalg.inv(t)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_real_matrices())
def test_eigen_clusters_are_distinct_and_complete(a):
    """Every cluster eigen_clusters returns has its own value, complex ones
    with beta > 0, and the multiplicities sum to n with each complex cluster
    counted twice; the alternative is a ClusterAmbiguityError."""
    try:
        clusters = eigen_clusters(a)
    except ClusterAmbiguityError:
        return
    values = [val for val, _mult in clusters]
    assert len(set(values)) == len(values)
    assert all(val[1] > 0 for val in values if isinstance(val, tuple))
    assert sum(mult * (2 if isinstance(val, tuple) else 1) for val, mult in clusters) == a.shape[0]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_real_matrices())
def test_eigen_clusters_are_the_clusters_jordan_structure_reports(a):
    """eigen_clusters and jordan_structure link the eigenvalues of one eig
    call: the cluster values and multiplicities that jordan_structure
    reports are those of eigen_clusters, bit for bit, or both refuse the
    clusters as ambiguous.  A rank profile that refuses a cluster (a
    near-real pair merged at dimension 8, say) leaves nothing to compare."""
    try:
        clusters = eigen_clusters(a)
    except ClusterAmbiguityError:
        with pytest.raises(ClusterAmbiguityError):
            jordan_structure(a)
        return
    try:
        structure = jordan_structure(a)[0]
    except ToleranceError:
        return
    got = [(lam, sum(s)) for lam, s in structure.real_blocks]
    got += [((alpha, beta), sum(s)) for alpha, beta, s in structure.complex_blocks]
    assert len(got) == len(clusters)
    for (val, mult), (want, want_mult) in zip(got, clusters):
        assert mult == want_mult
        assert np.array(val).tobytes() == np.array(want).tobytes()


def test_cluster_centre_is_the_mean_bit_for_bit():
    """The centre of a cluster of 2 to 8 eigenvalues, the sum by
    np.add.reduce over the count, is np.mean of the members bit for bit."""
    rng = np.random.default_rng(28)
    for _ in range(20_000):
        ev = (rng.normal(size=8) + 1j * rng.normal(size=8)) * 10.0 ** rng.integers(-3, 4)
        members = sorted(rng.choice(8, size=rng.integers(2, 9), replace=False))
        centre = complex(np.add.reduce(ev[members]) / len(members))
        mean = complex(np.mean(ev[members]))
        assert (centre.real.hex(), centre.imag.hex()) == (mean.real.hex(), mean.imag.hex())


def _oracle_generalized_eigenspace(a, lam, mult):
    """generalized_eigenspace without its fast paths: the mult smallest right
    singular directions of ((a - lam I) / max |a - lam I|)^mult."""
    n = a.shape[0]
    shifted = a - lam * np.eye(n, dtype=a.dtype)
    norm = np.abs(shifted).max()
    if norm == 0:
        return np.eye(n, dtype=a.dtype)[:, :mult]
    power = np.linalg.matrix_power(shifted / norm, mult)
    _u, _s, vh = np.linalg.svd(power)
    return vh.conj().T[:, n - mult :]


def _oracle_simple_rank_profile(a, lam, tol):
    """jordan_rank_profile of a simple eigenvalue lam by the SVD staircase on
    the oracle basis: the SVD of the 1x1 restriction N gives |N|; a nonzero N
    is normalized, and the staircase then finds no kernel unless 1 <= cut."""
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


def _cluster_operator(a, val):
    """The operator and eigenvalue of a cluster value: complex ones act on
    the complexification."""
    if isinstance(val, tuple):
        return a.astype(complex), complex(*val)
    return a, float(val)


def test_generalized_eigenspace_fast_paths_match_oracle():
    tol = default_tol()
    seen = {"simple": 0, "whole": 0, "partial": 0}
    for a in _fast_path_inputs():
        n = a.shape[0]
        for val, mult in eigen_clusters(a, tol):
            mat, lam = _cluster_operator(a, val)
            got = generalized_eigenspace(*_shift_stack(mat, [lam]), mult)
            assert got.shape == (1, n, mult)
            got = got[0]
            if mult == n:
                seen["whole"] += 1
                assert np.array_equal(got, np.eye(n))
            elif mult > 1:
                seen["partial"] += 1
                assert np.array_equal(got, _oracle_generalized_eigenspace(mat, lam, mult))
            else:
                seen["simple"] += 1
                want = _oracle_generalized_eigenspace(mat, lam, 1)
                assert abs(np.vdot(got[:, 0], want[:, 0])) >= 1.0 - 1e-10
                # a shift just inside the rank cut keeps the 1-block, 1e-3 does not
                for shift in (0.9 * RANK_TOL, -0.9 * RANK_TOL, 1e-3, -1e-3):
                    mu = lam + shift
                    fast = _outcome(lambda: jordan_rank_profile(_restriction(mat, mu, 1), mu, tol))
                    assert fast == _outcome(lambda: _oracle_simple_rank_profile(mat, mu, tol))
                    assert fast == ([1, 0] if abs(shift) < RANK_TOL else "ToleranceError")
    assert min(seen.values()) > 0, seen


def _stacked_profiles(mat, lams, tol):
    """The rank profile of each simple eigenvalue of lams as jordan_structure
    decides it: one stacked eigenspace call, N_r per eigenvalue, one
    jordan_rank_profile each."""
    lams = np.asarray(lams, dtype=mat.dtype)
    shifts, scales = _shift_stack(mat, lams)
    q = generalized_eigenspace(shifts, scales, 1)
    nr = q.conj().transpose(0, 2, 1) @ shifts @ q
    return [_outcome(lambda: jordan_rank_profile(n_j, lam, tol)) for n_j, lam in zip(nr, lams)]


def test_simple_eigenspaces_match_rank_profile_oracle():
    """The stacked eigenspaces of the simple clusters of each kind, real and
    complex, span the simple generalized eigenspaces, and the rank decision
    on their stacked 1x1 restrictions is the oracle's, at eigenvalues shifted
    just inside the rank cut and well outside it."""
    tol = default_tol()
    seen = {False: 0, True: 0}
    for a in _fast_path_inputs():
        clusters = eigen_clusters(a, tol)
        for cplx in (False, True):
            vals = [val for val, mult in clusters if mult == 1 and isinstance(val, tuple) == cplx]
            if not vals:
                continue
            pairs = [_cluster_operator(a, val) for val in vals]
            mat, lams = pairs[0][0], [lam for _m, lam in pairs]
            vecs = generalized_eigenspace(*_shift_stack(mat, lams), 1)
            assert vecs.shape == (len(lams), a.shape[0], 1)
            for lam, v in zip(lams, vecs[:, :, 0]):
                seen[cplx] += 1
                want = _oracle_generalized_eigenspace(mat, lam, 1)[:, 0]
                assert abs(np.vdot(v, want)) >= 1.0 - 1e-10
            for shift in (0.9 * RANK_TOL, -0.9 * RANK_TOL, 1e-3, -1e-3):
                mus = [lam + shift for lam in lams]
                want = [_outcome(lambda: _oracle_simple_rank_profile(mat, mu, tol)) for mu in mus]
                expected = [1, 0] if abs(shift) < RANK_TOL else "ToleranceError"
                assert _stacked_profiles(mat, mus, tol) == want == [expected] * len(mus)
            # one outlier in the stack raises alone
            mus = lams[:-1] + [lams[-1] + 1e-3]
            assert _stacked_profiles(mat, mus, tol) == [[1, 0]] * (len(mus) - 1) + ["ToleranceError"]
    assert min(seen.values()) > 0, seen


def test_stacked_generalized_eigenspace_matches_single_calls():
    """A stacked generalized_eigenspace equals one call per eigenvalue bit for
    bit, for real and complex eigenvalues at multiplicity 1 and 2.  Each
    complex cluster is stacked with its conjugate, whose generalized
    eigenspace has the same dimension."""
    tol = default_tol()
    seen = dict.fromkeys([(False, 1), (False, 2), (True, 1), (True, 2)], 0)
    for a in _fast_path_inputs():
        clusters = eigen_clusters(a, tol)
        for cplx, mult in seen:
            pairs = [_cluster_operator(a, val) for val, m in clusters
                     if m == mult and isinstance(val, tuple) == cplx]
            lams = [lam for _m, lam in pairs] + [lam.conjugate() for _m, lam in pairs if cplx]
            if len(lams) < 2:
                continue
            mat = pairs[0][0]
            stacked = generalized_eigenspace(*_shift_stack(mat, lams), mult)
            for lam, q in zip(lams, stacked):
                assert np.array_equal(q, generalized_eigenspace(*_shift_stack(mat, [lam]), mult)[0])
            seen[cplx, mult] += 1
    assert min(seen.values()) > 0, seen


def _projector(q):
    return q @ q.conj().T


def test_eigenspace_scale_keeps_the_subspace():
    """On every partial cluster (1 < mult < n) of the sample operators, the
    eigenspace of the power scaled by max |a - lam I| is the one of the power
    scaled by the 2-norm |a - lam I|_2: their projectors agree within 1e-12."""
    seen = 0
    for a in _fast_path_inputs():
        n = a.shape[0]
        for val, mult in eigen_clusters(a, default_tol()):
            if not 1 < mult < n:
                continue
            mat, lam = _cluster_operator(a, val)
            shifted = mat - lam * np.eye(n, dtype=mat.dtype)
            power = np.linalg.matrix_power(shifted / np.linalg.norm(shifted, 2), mult)
            old = np.linalg.svd(power)[2].conj().T[:, n - mult :]
            got = generalized_eigenspace(*_shift_stack(mat, [lam]), mult)[0]
            assert np.linalg.norm(_projector(got) - _projector(old), 2) <= 1e-12
            seen += 1
    assert seen > 0


@pytest.mark.parametrize("size", [1e150, 1e300])
@pytest.mark.parametrize("mult", [2, 3, 4])
def test_eigenspace_power_of_a_huge_shift_stays_finite(size, mult):
    """A shift with entries near 1e150 or 1e300 gives a finite orthonormal
    basis of its generalized eigenspace, also where its unscaled mult-th power
    overflows: a nilpotent mult-block beside n - mult of the eigenvalues 1,
    -1.5, 1.25 and -0.75, turned by an orthogonal Q, whose first mult columns
    span that eigenspace."""
    n = 6
    m = np.zeros((n, n))
    m[np.arange(mult - 1), np.arange(1, mult)] = 1.0
    m[np.arange(mult, n), np.arange(mult, n)] = [1.0, -1.5, 1.25, -0.75][: n - mult]
    q_mat, _r = np.linalg.qr(np.random.default_rng(mult).normal(size=(n, n)))
    shift = size * (q_mat @ m @ q_mat.T)
    with np.errstate(over="ignore", invalid="ignore"):
        unscaled = np.linalg.matrix_power(shift, mult)
    assert np.isfinite(unscaled).all() == (mult * np.log10(size) < 308)
    got = generalized_eigenspace(*_shift_stack(shift, [0.0]), mult)[0]
    assert got.shape == (n, mult) and np.isfinite(got).all()
    assert np.abs(got.T @ got - np.eye(mult)).max() <= 1e-12
    want = _projector(q_mat[:, :mult])
    assert np.linalg.norm(_projector(got) - want, 2) <= 1e-10


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
        admissibility_check(QuadricFunction("sphere", 1, np.diag([1.0, -1.0, 1.0]), 0.0), value)


def test_resolve_tol_default_and_passthrough(monkeypatch):
    assert resolve_tol(None) == default_tol() == 1e-9
    assert resolve_tol(1e-7) == 1e-7
    monkeypatch.setenv("PETROV_TOL", "1e-5")
    assert resolve_tol(None) == 1e-5


def test_tolerance_table_values():
    """The tolerance table holds each cut once, at the values that decide
    every label, refusal and chart condition; a change of one is a change of
    behaviour."""
    eps = np.finfo(float).eps
    assert (linalg.DEFAULT_TOL, linalg.RANK_TOL, linalg.RESIDUAL_FLOOR) == (1e-9, 1e-6, 1e-7)
    assert (linalg.GRAD_NORM_FLOOR, linalg.GRAD_NORM_TOL) == (1e-9, 1e-12)
    assert (linalg.QUADRIC_SYMMETRY_TOL, linalg.DEFLATE_TOL, linalg.COND_FLOOR) == (
        1e-9, 1e-10, eps * 10)
    assert (linalg.CURVATURE_GAP_TOL, linalg.REGION_TOL) == (1e-12, 1e-12)
    assert (linalg.NEWTON_STOP, linalg.CHART_CLAUSE_TOL) == (1e-14, 1e-9)
    assert linalg.CHART_SINGULAR_TOL == 10.0 * np.sqrt(1e-14)
    for n in range(1, 9):
        assert linalg.cluster_radius(1e-9, n) == max(1e-9, 3.0 * (250.0 * eps) ** (1.0 / n))


@pytest.mark.parametrize("cut, floor", [
    (linalg.rank_cut, "RANK_TOL"),
    (linalg.residual_cut, "RESIDUAL_FLOOR"),
    (linalg.grad_norm_cut, "GRAD_NORM_FLOOR"),
    (lambda tol: 1.0 / linalg.cond_limit(tol), "COND_FLOOR"),
])
def test_cuts_read_their_floor_at_call_time(monkeypatch, cut, floor):
    """Each max(tol, floor) cut is tol above its floor and the floor below,
    read from the table when called, so a changed floor moves every reader."""
    assert cut(0.5) == 0.5
    assert cut(1e-300) == getattr(linalg, floor)
    monkeypatch.setattr(linalg, floor, 0.25)
    assert cut(1e-300) == 0.25


def test_cluster_radius_decides_the_linkage(monkeypatch):
    """eigen_clusters links eigenvalues within cluster_radius(tol, n) times
    max(max |ev|, 1), read at call time."""
    a = np.diag([1.0, 1.3])
    assert eigen_clusters(a) == [(1.0, 1), (1.3, 1)]
    monkeypatch.setattr(linalg, "cluster_radius", lambda tol, n: 0.25)
    assert eigen_clusters(a) == [(1.15, 2)]

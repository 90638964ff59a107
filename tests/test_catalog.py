"""Catalog of isoparametric hypersurface examples: frames, shapes, types."""

import copy
import pickle

import numpy as np
import pytest

from petrovtypes.catalog import (
    EXAMPLE_IDS,
    ambient_of,
    catalog_summary,
    chart,
    chart_jacobian,
    evaluate,
    expected_algebraic_epsilon,
    expected_type,
    param_dim,
    quadric_of,
    sample_domain,
)
from petrovtypes.linalg import BilinearSpace, ShapeError
from petrovtypes.petrov import SelfAdjointPair, classify_geometric
from petrovtypes.spaceform import (
    DomainError,
    QuadricFunction,
    admissibility_check,
    ambient_inner,
    quadratic_minimal_data,
)


def _anti(n):
    return np.eye(n)[::-1].copy()


def _classify(example_id, p, **kw):
    fd = evaluate(example_id, p, **kw)
    pair = SelfAdjointPair(fd.shape, BilinearSpace.from_gram(fd.gram))
    return classify_geometric(pair)


def test_catalog_lists_fifteen_entries():
    assert len(EXAMPLE_IDS) == 15
    assert EXAMPLE_IDS[0] == "0-1" and EXAMPLE_IDS[-1] == "m"
    assert len(catalog_summary()) == 15


@pytest.mark.parametrize("ex_id", EXAMPLE_IDS)
def test_classification_matches_expected(ex_id):
    for p in sample_domain(ex_id, 6, seed=11):
        got = _classify(ex_id, p)
        want = expected_type(ex_id, p)
        assert (got.index, got.label) == (want.index, want.label)


@pytest.mark.parametrize("ex_id", ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"])
def test_quadrics_are_admissible(ex_id):
    f = quadric_of(ex_id)
    ok, _diag = admissibility_check(f)
    assert ok


@pytest.mark.parametrize("ex_id", EXAMPLE_IDS)
def test_chart_point_lies_in_ambient(ex_id):
    amb = ambient_of(ex_id)
    for p in sample_domain(ex_id, 4, seed=3):
        x = chart(ex_id, p)
        assert x.shape == (amb.embedding_dim,)
        assert amb.contains(x)


@pytest.mark.parametrize("ex_id", ["a", "b", "e", "g", "j"])
def test_chart_stays_on_level_set(ex_id):
    f = quadric_of(ex_id)
    for p in sample_domain(ex_id, 4, seed=5):
        x = chart(ex_id, p)
        assert abs(f.value(x) - f.c) < 1e-9


@pytest.mark.parametrize("ex_id", EXAMPLE_IDS)
def test_chart_jacobian_matches_finite_differences(ex_id):
    h = 1e-6
    for p in sample_domain(ex_id, 3, seed=9):
        jac = chart_jacobian(ex_id, p)
        for j in range(param_dim(ex_id)):
            dp = np.zeros(param_dim(ex_id))
            dp[j] = h
            fd = (chart(ex_id, p + dp) - chart(ex_id, p - dp)) / (2 * h)
            assert np.allclose(jac[:, j], fd, atol=5e-8)


@pytest.mark.parametrize("ex_id", EXAMPLE_IDS)
def test_normal_is_unit_and_orthogonal_to_frame(ex_id):
    amb = ambient_of(ex_id)
    s = amb.embedding_index
    for p in sample_domain(ex_id, 4, seed=17):
        fd = evaluate(ex_id, p)
        nn = ambient_inner(fd.normal, fd.normal, s)
        assert abs(abs(nn) - 1.0) < 1e-9
        assert int(np.sign(nn)) == fd.nu
        g = np.diag([-1.0] * s + [1.0] * (amb.embedding_dim - s))
        assert np.max(np.abs(fd.frame.T @ g @ fd.normal)) < 1e-9


def test_shape_golden_b():
    p = sample_domain("b", 1, seed=0)[0]
    fd = evaluate("b", p)
    want = np.zeros((4, 4))
    want[0, 1] = 1.0
    assert np.max(np.abs(fd.shape - want)) < 1e-9


def test_gram_goldens_c_and_d():
    ea2 = _anti(2)
    for p in sample_domain("c", 3, seed=1):
        fd = evaluate("c", p)
        want = np.zeros((4, 4))
        want[:2, :2] = ea2
        want[2:, 2:] = -ea2
        assert np.max(np.abs(fd.gram - want)) < 1e-9
    for p in sample_domain("d", 3, seed=1):
        fd = evaluate("d", p)
        want = np.zeros((4, 4))
        want[:2, :2] = ea2
        want[2:, 2:] = ea2
        assert np.max(np.abs(fd.gram - want)) < 1e-9


def test_shape_golden_g():
    for p in sample_domain("g", 3, seed=2):
        fd = evaluate("g", p)
        want = np.eye(4)
        want[0, 1] = 1.0
        assert np.max(np.abs(fd.shape - want)) < 1e-9


def test_anchor_variant_grams_h_and_i():
    ea2 = _anti(2)
    for ex_id, lower_sign in (("h", -1.0), ("i", 1.0)):
        # chart coordinates of the anchor point itself
        q = np.zeros(4)
        fd = evaluate(ex_id, q, anchor_variant=True)
        want = np.zeros((4, 4))
        want[:2, :2] = ea2
        want[2:, 2:] = lower_sign * ea2
        assert np.max(np.abs(fd.gram - want)) < 1e-9
        want_shape = np.zeros((4, 4))
        want_shape[:2, :2] = -np.eye(2) + np.diag([1.0], 1)
        want_shape[2:, 2:] = -np.eye(2) + np.diag([1.0], 1)
        assert np.max(np.abs(fd.shape - want_shape)) < 1e-9


def test_anchor_variant_restricted_to_h_and_i():
    p = sample_domain("g", 1, seed=0)[0]
    with pytest.raises(DomainError):
        evaluate("g", p, anchor_variant=True)


@pytest.mark.parametrize("ex_id,aval", [("k", 1.3), ("l", 1.3)])
def test_shape_goldens_k_l(ex_id, aval):
    for p in sample_domain(ex_id, 3, seed=6, a=aval):
        fd = evaluate(ex_id, p, a=aval)
        want = np.zeros((4, 4))
        want[0, 1] = want[1, 2] = 1.0
        want[3, 3] = aval
        assert np.max(np.abs(fd.shape - want)) < 1e-9


def test_shape_golden_m():
    for p in sample_domain("m", 3, seed=7):
        fd = evaluate("m", p)
        want = np.diag([1.0, 1.0, 1.0], 1)
        assert np.max(np.abs(fd.shape - want)) < 1e-9


def test_region_types_first_parametrized_family():
    assert expected_type("0-1", [0.3, 0.0]).label == "I"
    assert expected_type("0-1", [0.3, np.pi / 2]).label == "II"
    assert expected_type("0-1", [0.3, 3 * np.pi / 2]).label == "II"
    assert expected_algebraic_epsilon("0-1", [0.3, np.pi / 2]) == -1
    assert expected_algebraic_epsilon("0-1", [0.3, 3 * np.pi / 2]) == 1
    assert expected_algebraic_epsilon("0-1", [0.3, 0.0]) is None


def test_region_types_second_parametrized_family():
    assert expected_type("0-2", [0, 0, 0, 0.0]).label == "X"
    assert expected_type("0-2", [0, 0, 0, np.pi / 2]).label == "IX-i"
    assert expected_type("0-2", [0, 0, 0, 3 * np.pi / 2]).label == "IX-ii"


def test_sample_domain_covers_all_regions():
    vs = [p[1] for p in sample_domain("0-1", 9, seed=0)]
    labels = {expected_type("0-1", [0.0, v]).label for v in vs}
    assert labels == {"I", "II"}
    ws = [p[3] for p in sample_domain("0-2", 9, seed=0)]
    labels = {expected_type("0-2", [0, 0, 0, w]).label for w in ws}
    assert labels == {"X", "IX-i", "IX-ii"}


def test_unknown_id_rejected():
    with pytest.raises(DomainError):
        evaluate("zz", [0.0])
    with pytest.raises(DomainError):
        expected_type("zz")
    with pytest.raises(DomainError):
        sample_domain("zz", 1)


def test_sample_domain_deterministic():
    a = sample_domain("e", 5, seed=42)
    b = sample_domain("e", 5, seed=42)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_sample_domain_refuses_a_negative_seed():
    with pytest.raises(DomainError, match="seed must be non-negative"):
        sample_domain("e", 1, seed=-1)


@pytest.mark.parametrize("ex_id", EXAMPLE_IDS)
def test_stacked_chart_jacobian_matches_rows(ex_id):
    rows = np.array(sample_domain(ex_id, 7, seed=13))
    stacked = chart_jacobian(ex_id, rows)
    assert stacked.shape == (7, ambient_of(ex_id).embedding_dim, param_dim(ex_id))
    for p, jac in zip(rows, stacked):
        assert np.abs(jac - chart_jacobian(ex_id, p)).max() <= 1e-12


def test_stacked_chart_jacobian_rejects_a_bad_row():
    rows = np.array(sample_domain("g", 3, seed=13) + [np.zeros(4)])
    with pytest.raises(DomainError):
        chart_jacobian("g", rows)


@pytest.mark.parametrize("ex_id", ["0-1", "e", "k"])
def test_stacked_chart_jacobian_rejects_wrong_width(ex_id):
    with pytest.raises(ShapeError):
        chart_jacobian(ex_id, np.zeros((3, param_dim(ex_id) + 1)))
    with pytest.raises(ShapeError):
        chart_jacobian(ex_id, np.zeros((2, 3, param_dim(ex_id))))


@pytest.mark.parametrize("ex_id", ["k", "l"])
@pytest.mark.parametrize("aval", [0.0, np.nan, np.inf])
def test_parameter_a_must_be_finite_and_nonzero(ex_id, aval):
    p = np.array([0.1, 0.2, 0.3, 0.1])
    for fun in (chart, evaluate, chart_jacobian):
        with pytest.raises(DomainError, match="a must be finite and nonzero"):
            fun(ex_id, p, a=aval)


def test_minimal_polynomial_memo_follows_tolerance(monkeypatch):
    # eigenvalues 1 and 1.05 are one cluster at tol 0.1, two at the default
    f = QuadricFunction("sphere", 2, np.diag([1.0, 1.05, -1.0, -1.0]), 0.0)
    monkeypatch.delenv("PETROV_TOL", raising=False)
    with pytest.raises(DomainError):
        quadratic_minimal_data(f)
    monkeypatch.setenv("PETROV_TOL", "0.1")
    a, b = quadratic_minimal_data(f)
    assert a == pytest.approx(0.025) and b == pytest.approx(1.025)
    monkeypatch.delenv("PETROV_TOL")
    with pytest.raises(DomainError):
        quadratic_minimal_data(f)


def test_minimal_polynomial_memo_never_stale():
    source = np.kron(np.eye(3), _anti(2))
    f = QuadricFunction("sphere", 2, source, 0.0)
    assert quadratic_minimal_data(f) == pytest.approx((0.0, 1.0), abs=1e-10)
    # the quadric keeps its own copy of the array it was built from
    source *= 2.0
    assert quadratic_minimal_data(f) == pytest.approx((0.0, 1.0), abs=1e-10)
    # its own P, edited in place, is never answered from the old entry:
    # (2P)^2 = 4E
    f.P[...] *= 2.0
    assert quadratic_minimal_data(f) == pytest.approx((0.0, 4.0), abs=1e-10)


_STACK_CASES = [(ex_id, 1.0, False) for ex_id in EXAMPLE_IDS] + [
    ("k", 1.3, False), ("l", 1.3, False), ("k", -0.7, False), ("l", -0.7, False),
    ("h", 1.0, True), ("i", 1.0, True),
]


@pytest.mark.parametrize("ex_id, aval, anchor_variant", _STACK_CASES)
def test_stacked_evaluate_matches_rows(ex_id, aval, anchor_variant):
    rows = np.array(sample_domain(ex_id, 7, seed=19, a=aval))
    stacked = evaluate(ex_id, rows, a=aval, anchor_variant=anchor_variant)
    n, m = ambient_of(ex_id).embedding_dim, param_dim(ex_id)
    assert stacked.frame.shape == stacked.jacobian.shape == (7, n, m)
    assert stacked.shape.shape == stacked.gram.shape == (7, m, m)
    assert stacked.point.shape == stacked.normal.shape == (7, n)
    assert stacked.nu.shape == (7,)
    for i, p in enumerate(rows):
        fd = evaluate(ex_id, p, a=aval, anchor_variant=anchor_variant)
        assert isinstance(fd.nu, int) and stacked.nu[i] == fd.nu
        for name in ("point", "frame", "normal", "shape", "gram", "jacobian"):
            assert np.abs(getattr(stacked, name)[i] - getattr(fd, name)).max() <= 1e-12, name
        assert np.abs(fd.jacobian - chart_jacobian(ex_id, p, a=aval)).max() <= 1e-12


@pytest.mark.parametrize("ex_id, bad", [
    # the level set of g is 2 (x1 + x4)(x6 - x3) = 1, so its chart breaks down
    # where x1 + x4 would have to vanish; at free coordinates 0 it has no point
    ("g", np.zeros(4)),
    # free coordinates of h whose level points all have x2 + x5 = 0
    ("h", np.array([0.0, 0.0, 1 / np.sqrt(2), 1 / np.sqrt(2)])),
    ("k", np.array([0.1, 0.2, -np.sqrt(2), 0.1])),
])
def test_stacked_evaluate_rejects_a_bad_row(ex_id, bad):
    rows = np.array(sample_domain(ex_id, 3, seed=13) + [bad])
    with pytest.raises(DomainError):
        evaluate(ex_id, rows)
    with pytest.raises(DomainError):
        evaluate(ex_id, bad)


@pytest.mark.parametrize("ex_id", [e for e in EXAMPLE_IDS if e not in ("h", "i")])
def test_anchor_variant_raises_off_h_and_i(ex_id):
    p = sample_domain(ex_id, 1, seed=0)[0]
    with pytest.raises(DomainError, match="anchor_variant"):
        evaluate(ex_id, p, anchor_variant=True)
    with pytest.raises(DomainError, match="anchor_variant"):
        evaluate(ex_id, np.array([p, p]), anchor_variant=True)


_H_SINGULAR = np.array([0.0, 0.0, 1 / np.sqrt(2), 1 / np.sqrt(2)])


@pytest.mark.parametrize("ex_id", ["h", "i"])
def test_chart_rejects_the_singular_set_of_h_and_i(ex_id):
    # the Newton solve of these charts is singular where x2 + x5 = 0 and
    # stops near it with a finite point; every chart-level call refuses it
    rows = np.array(sample_domain(ex_id, 3, seed=13) + [_H_SINGULAR])
    for fun in (chart, chart_jacobian, evaluate):
        with pytest.raises(DomainError, match="x2 \\+ x5"):
            fun(ex_id, _H_SINGULAR)
    for fun in (chart_jacobian, evaluate):
        with pytest.raises(DomainError, match="x2 \\+ x5"):
            fun(ex_id, rows)


@pytest.mark.parametrize("ex_id", ["a", "e", "h", "k"])
def test_frame_data_pickles_and_copies(ex_id):
    rows = np.array(sample_domain(ex_id, 3, seed=5))
    stacked = evaluate(ex_id, rows)
    for fd in (evaluate(ex_id, rows[0]), stacked):
        for other in (pickle.loads(pickle.dumps(fd)), copy.deepcopy(fd)):
            assert np.array_equal(other.frame, fd.frame)
            assert np.array_equal(other.jacobian, fd.jacobian)


def test_catalog_summary_golden():
    flat, sphere = "flat dim 5 index 2", "sphere dim 5 index 3"
    want = [
        ("0-1", "flat dim 3 index 1", "I or II by region (index 1)"),
        ("0-2", flat, "X, IX-i, or IX-ii by region (index 2)"),
        ("a", flat, "XI (index 2)"),
        ("b", flat, "X (index 2)"),
        ("c", flat, "IX-ii (index 2)"),
        ("d", flat, "IX-i (index 2)"),
        ("e", "sphere dim 5 index 2", "XI (index 2)"),
        ("f", sphere, "XI (index 2)"),
        ("g", sphere, "X (index 2)"),
        ("h", sphere, "IX-ii (index 2)"),
        ("i", sphere, "IX-i (index 2)"),
        ("j", sphere, "II (index 2)"),
        ("k", flat, "VII-ii (index 2)"),
        ("l", flat, "VII-i (index 2)"),
        ("m", flat, "VI (index 2)"),
    ]
    got = [(row["id"], row["ambient"], row["expected_type"]) for row in catalog_summary()]
    assert got == want


@pytest.mark.parametrize("ex_id", ["k", "l"])
@pytest.mark.parametrize("aval", [0.0, np.nan, np.inf, -np.inf])
def test_sample_domain_refuses_bad_a(ex_id, aval):
    # the l sampler used to retry forever at a NaN or infinite a
    with pytest.raises(DomainError, match="a must be finite and nonzero"):
        sample_domain(ex_id, 3, a=aval)


@pytest.mark.parametrize("fun, ex_id, p, error", [
    (expected_type, "0-1", [0.3, np.nan], DomainError),
    (expected_type, "0-2", [0, 0, 0, np.inf], DomainError),
    (expected_algebraic_epsilon, "0-1", [0.3, np.nan], DomainError),
    (expected_type, "0-1", [0.3], ShapeError),
    (expected_type, "a", [0.3], ShapeError),
    (evaluate, "0-1", [0.3, np.nan], DomainError),
    (chart, "k", [0.1, 0.2, -np.inf, 0.1], DomainError),
    (chart_jacobian, "e", [[0.1, 0.2, 0.3, 0.1], [0.1, np.nan, 0.3, 0.1]], DomainError),
])
def test_bad_chart_points_refused(fun, ex_id, p, error):
    with pytest.raises(error):
        fun(ex_id, p)

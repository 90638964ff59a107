"""Catalog of isoparametric hypersurface examples: frames, shapes, types."""

import copy
import pickle

import numpy as np
import pytest

from petrovtypes import catalog, linalg
from petrovtypes.catalog import (
    EXAMPLE_IDS,
    ambient_of,
    catalog_summary,
    chart,
    chart_jacobian,
    evaluate,
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
    quadric_gradient,
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


@pytest.mark.parametrize("ex_id", ["k", "zz"])
def test_quadric_of_refuses_an_entry_without_a_quadric(ex_id):
    with pytest.raises(DomainError, match=f"{ex_id} has no defining quadric"):
        quadric_of(ex_id)


def test_a_replaced_level_set_record_brings_its_own_data(monkeypatch):
    """A level-set record put in the registry under an id already used, here
    b at the level c = 2 in place of c = 1, is served from its own data:
    nothing built from the old record outlives it."""
    p = sample_domain("b", 1, seed=3)[0]
    old_x, old_fd = chart("b", p), evaluate("b", p)
    assert quadric_of("b").c == 1.0
    level = catalog._REGISTRY["b"].level
    variant, s, p_mat, _c, p_vec = level.quadric
    record = catalog._level_entry(
        "b", ambient_of("b"), "X", (variant, s, p_mat, 2.0, p_vec), level.anchor, level.pivots,
        level.frame, level.shape,
    )
    monkeypatch.setitem(catalog._REGISTRY, "b", record)
    f = quadric_of("b")
    assert f.c == 2.0
    x = chart("b", p)
    assert abs(f.value(x) - 2.0) < 1e-12
    # the pivot x3 enters f only through 2<p, x> = 2 x3: it moves by 1/2
    assert np.array_equal(np.delete(x, 2), np.delete(old_x, 2))
    assert abs(x[2] - old_x[2] - 0.5) < 1e-12
    fd = evaluate("b", p)
    grad = quadric_gradient(f, x)
    assert np.array_equal(fd.point, x)
    assert np.allclose(fd.normal, grad / np.sqrt(abs(ambient_inner(grad, grad, 2))), atol=1e-12)
    assert np.array_equal(fd.jacobian, chart_jacobian("b", p))
    assert np.array_equal(fd.shape, old_fd.shape) and np.array_equal(fd.gram, old_fd.gram)


@pytest.mark.parametrize("ex_id", EXAMPLE_IDS)
def test_chart_point_lies_in_ambient(ex_id):
    amb = ambient_of(ex_id)
    for p in sample_domain(ex_id, 4, seed=3):
        x = chart(ex_id, p)
        assert x.shape == (amb.embedding_dim,)
        if amb.curvature:
            inner = ambient_inner(x, x, amb.embedding_index)
            assert abs(inner - amb.curvature) <= 1e-9 * max(1.0, np.abs(x).max() ** 2)


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


@pytest.mark.parametrize("n", [2.5, 3.0, True, False, "3", None])
def test_sample_domain_refuses_a_non_integer_count(n):
    with pytest.raises(DomainError, match="number of samples must be an integer"):
        sample_domain("e", n)


@pytest.mark.parametrize("n", [np.int64(3), np.int32(3), np.uint8(3)])
def test_sample_domain_takes_numpy_integers(n):
    got = sample_domain("e", n, seed=4)
    assert len(got) == 3
    assert all(np.array_equal(x, y) for x, y in zip(got, sample_domain("e", 3, seed=4)))


@pytest.mark.parametrize("seed", [2.5, 3.0, True, False, "3", None])
def test_sample_domain_refuses_a_non_integer_seed(seed):
    with pytest.raises(DomainError, match="seed must be an integer"):
        sample_domain("e", 2, seed=seed)


@pytest.mark.parametrize("seed", [np.int64(4), np.int32(4), np.uint8(4)])
def test_sample_domain_takes_numpy_integer_seeds(seed):
    got = sample_domain("e", 3, seed=seed)
    assert all(np.array_equal(x, y) for x, y in zip(got, sample_domain("e", 3, seed=4)))


def _draw_alone(ex_id, rng, i, a):
    """Sample i as the sampler drew it one candidate at a time: a closed
    entry's draw, or a level-set candidate solved alone by the chart, None
    unless every chart condition holds by more than 5e-2."""
    if ex_id in ("0-1", "0-2"):
        box = rng.uniform(-1.0, 1.0, size=1 if ex_id == "0-1" else 3)
        if i % 3 == 0:
            angle = np.pi * rng.integers(-2, 3)
        elif i % 3 == 1:
            angle = rng.uniform(0.15, np.pi - 0.15)
        else:
            angle = rng.uniform(np.pi + 0.15, 2 * np.pi - 0.15)
        return np.array([*box, float(angle)])
    if ex_id in ("k", "l", "m"):
        p = rng.uniform(-0.8, 0.8, size=4)
        if ex_id == "l":
            p[3] = rng.uniform(-0.8, 0.8) / max(abs(a), 1.0)
        return p
    level = catalog._REGISTRY[ex_id].level
    q = level.anchor[level.free] + rng.uniform(-0.2, 0.2, size=len(level.free))
    try:
        x = level.chart(q)
    except DomainError:
        return None
    for _name, tol, coef in level.clauses:
        if abs(x @ coef) <= max(tol, 5e-2):
            return None
    return q


def _one_at_a_time(ex_id, n, rng, a=1.0):
    out = []
    while len(out) < n:
        p = _draw_alone(ex_id, rng, len(out), a)
        if p is not None:
            out.append(p)
    return out


@pytest.mark.parametrize("ex_id", EXAMPLE_IDS)
def test_sample_domain_equals_the_one_at_a_time_loop(ex_id):
    # the loop's first n samples are the first n of its 60, so one run of it
    # per seed serves every n
    for seed in range(10):
        want = _one_at_a_time(ex_id, 60, np.random.default_rng(seed))
        for n in (1, 3, 20, 60):
            got = sample_domain(ex_id, n, seed=seed)
            assert len(got) == n
            assert [p.tobytes() for p in got] == [p.tobytes() for p in want[:n]]
            assert all(p.shape == (param_dim(ex_id),) and p.dtype == float for p in got)


class _CandidateStub:
    """A stand-in generator whose uniform draws are the given candidate
    offsets, row by row, in whatever block shapes they are asked for."""

    def __init__(self, rows):
        self.values = list(np.ravel(rows))

    def uniform(self, low, high, size):
        count = int(np.prod(size))
        taken, self.values = self.values[:count], self.values[count:]
        return np.reshape(taken, size)


# offsets from the free coordinates (0, 0, 0, 0) of h's anchor: the chart
# fails on the singular set x2 + x5 = 0, holds x2 + x5 = 0.029 within the
# 5e-2 margin, and holds it by about 1 at the small offsets
_H_OUTSIDE = [0.0, 0.0, 1 / np.sqrt(2), 1 / np.sqrt(2)]
_H_IN_MARGIN = [0.0, 0.0, 0.7068, 0.7068]
_H_GOOD = [[0.1, -0.05, 0.02, 0.1], [-0.15, 0.1, 0.0, 0.05], [0.02, 0.03, -0.1, -0.18]]


def test_sample_domain_rejections_keep_draw_order(monkeypatch):
    rows = [_H_GOOD[0], _H_OUTSIDE, _H_IN_MARGIN, _H_GOOD[1], _H_IN_MARGIN, _H_GOOD[2]]
    solved = []
    level = catalog._REGISTRY["h"].level
    level_chart = catalog._LevelSet.chart

    def counted(self, q, a=1.0):
        solved.append(len(q))
        return level_chart(self, q, a)

    with pytest.raises(DomainError):
        level.chart(np.array([_H_OUTSIDE]))
    assert abs(np.sum(level.chart(np.array(_H_IN_MARGIN))[[1, 4]])) < 5e-2
    want = _one_at_a_time("h", 3, _CandidateStub(rows))
    monkeypatch.setattr(catalog._LevelSet, "chart", counted)
    got = catalog._REGISTRY["h"].sample(_CandidateStub(rows), 3, 1.0)
    assert [p.tolist() for p in got] == [p.tolist() for p in want] == _H_GOOD
    # the first block of three raises and is solved row by row; the second,
    # of two, drops its in-margin row by the clause mask; the third is one row
    assert solved == [3, 1, 1, 1, 2, 1]


def test_sample_domain_solves_one_block_per_draw(monkeypatch):
    solved = []
    level_chart = catalog._LevelSet.chart

    def counted(self, q, a=1.0):
        solved.append(q.shape)
        return level_chart(self, q, a)

    monkeypatch.setattr(catalog._LevelSet, "chart", counted)
    sample_domain("e", 60, seed=0)
    assert solved == [(60, 4)]


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
    # with eigenvalues 1, 1.05 and -1, P^2 leaves span{P, E} by far more than
    # the default tol, and by less than 0.1
    diag = np.array([1.0, 1.05, -1.0, -1.0])
    f = QuadricFunction("sphere", 2, np.diag(diag), 0.0)
    monkeypatch.delenv("PETROV_TOL", raising=False)
    with pytest.raises(DomainError, match="above 2"):
        quadratic_minimal_data(f)
    monkeypatch.setenv("PETROV_TOL", "0.1")
    # the projection of a diagonal P^2 onto span{P, E} is the least-squares
    # line through the points (d, d^2)
    assert quadratic_minimal_data(f) == pytest.approx(tuple(np.polyfit(diag, diag**2, 1)))
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
    (expected_type, "0-1", [[0.3, 0.1]], ShapeError),
    (expected_type, "0-1", [0.3], ShapeError),
    (expected_type, "a", [0.3], ShapeError),
    (evaluate, "0-1", [0.3, np.nan], DomainError),
    (chart, "k", [0.1, 0.2, -np.inf, 0.1], DomainError),
    (chart_jacobian, "e", [[0.1, 0.2, 0.3, 0.1], [0.1, np.nan, 0.3, 0.1]], DomainError),
])
def test_bad_chart_points_refused(fun, ex_id, p, error):
    with pytest.raises(error):
        fun(ex_id, p)


# Point, normal, Gram and chart Jacobian of the closed entries at fixed chart
# points, recorded from the hand-written curve formulas before each curve
# became a coefficient table: a wrong coefficient in a table shows here.
_CLOSED_GOLDENS = [
    ('k', 1.0, [0.3, -0.2, 0.5, 0.4], (
        [0.550708823861306, -0.40632228330824627, 0.5633533904777985, -0.46628350985413153, 0.34461233179358686],
        [0.671875556568827, 1.1957077784385206, -0.919540000308214, -0.23871233353155613, 1.406625914941902],
        [
            [-3.063421842343711e-16, -7.892703010272483e-17, 2.893633842818735, -9.438270449620914e-18],
            [-7.892703010272483e-17, 2.8936338428187343, 0.7944207959654556, 1.6399220401244144e-17],
            [2.893633842818735, 0.7944207959654556, -3.01352707026648, -2.227813796910862e-16],
            [-9.438270449620914e-18, 1.6399220401244144e-17, -2.227813796910862e-16, -0.8620689655172418],
        ],
        [
            [1.793801926706887, 0.5765700743565187, 0.15, 0.12025303342792903],
            [0.7071067811865476, 0.7071067811865476, 0.0, -1.3713906763541037],
            [0.37958836433379206, -0.8376434880165764, 0.15, 0.8630343861361364],
            [0.006322283308246246, -0.21213203435596426, -1.0, 0.1114172029062311],
            [1.7071067811865475, 0.2928932188134524, 0.0, -0.5252257314388902],
        ],
    )),
    ('k', 1.0, [-0.6, 0.7, -0.1, -0.5], (
        [-0.8607712254060085, 0.45267668936875993, -0.7661246041435281, 0.1988852342348345, -0.9861640832536065],
        [1.5437669579781388, 0.7031064625669391, -0.8624459671557394, 0.7218638775401635, 1.6163770025238395],
        [
            [-4.312422745047012e-16, 7.034214978531175e-18, 0.5966144591704067, -5.931050249123813e-17],
            [7.034214978531175e-18, 0.5966144591704062, -0.18692303093590976, 2.3244698514537883e-17],
            [0.5966144591704067, -0.18692303093590976, 0.11685503689692193, 7.320953784785023e-17],
            [-5.931050249123813e-17, 2.3244698514537883e-17, 7.320953784785023e-17, -0.8],
        ],
        [
            [1.4612175546624042, 0.6242997820866107, -0.3, 0.9874628190949541],
            [0.7071067811865476, 0.7071067811865476, 0.0, -0.5527864045000421],
            [0.047003992289309085, -0.7899137802864844, -0.3, 0.09303562809503829],
            [0.04732331063124012, 0.4242640687119285, -1.0, 0.2683281572999747],
            [1.7071067811865475, 0.2928932188134524, 0.0, 0.6324555320336759],
        ],
    )),
    ('k', 1.3, [0.3, -0.2, 0.5, 0.4], (
        [0.5294900812780666, -0.427074109795522, 0.5836383008691106, -0.4600579619079488, 0.3152648173312683],
        [0.652422003844265, 1.3527120541542905, -1.013002104464316, -0.24981361624628712, 1.4720408506706963],
        [
            [-3.063421842343711e-16, 2.4501460481728912e-17, 2.6421719597526234, -5.716501830073656e-17],
            [2.4501460481728912e-17, 2.642171959752623, 0.7589943768971732, 3.0341626445576294e-17],
            [2.6421719597526234, 0.7589943768971732, -2.476334800052069, 3.438803841817413e-16],
            [-5.716501830073656e-17, 3.0341626445576294e-17, 3.438803841817413e-16, -0.7871536523929467],
        ],
        [
            [1.7906891527337958, 0.5765700743565187, 0.15, 0.02826682678356579],
            [0.7071067811865476, 0.7071067811865476, 0.0, -1.4613527366419894],
            [0.37647559036070066, -0.8376434880165764, 0.15, 0.9509723000675447],
            [0.02707410979552198, -0.21213203435596426, -1.0, 0.13840582099259682],
            [1.7071067811865475, 0.2928932188134524, 0.0, -0.6524512971970443],
        ],
    )),
    ('k', 1.3, [-0.6, 0.7, -0.1, -0.5], (
        [-0.8936740147182733, 0.42249064412814996, -0.738655302974573, 0.18077360709046852, -1.0288535978272848],
        [1.7051528493216743, 0.633438877542534, -0.8617249057633938, 0.7700633265255205, 1.7243038337426762],
        [
            [-4.312422745047012e-16, 1.967186236601967e-17, 0.5242657813448213, -2.984585907508283e-16],
            [1.967186236601967e-17, 0.524265781344821, -0.14164416681080166, 4.083807751749362e-17],
            [0.5242657813448213, -0.14164416681080166, 0.08327962840157542, 2.234751852881433e-16],
            [-2.984585907508283e-16, 4.083807751749362e-17, 2.234751852881433e-16, -0.7029876977152902],
        ],
        [
            [1.4702733682345872, 0.6242997820866107, -0.3, 1.0940373021490015],
            [0.7071067811865476, 0.7071067811865476, 0.0, -0.45501164940458594],
            [0.056059805861492076, -0.7899137802864844, -0.3, 0.004060600958173177],
            [0.0775093558718501, 0.4242640687119285, -1.0, 0.3269930103572484],
            [1.7071067811865475, 0.2928932188134524, 0.0, 0.7707299167473779],
        ],
    )),
    ('l', 1.0, [0.3, -0.2, 0.5, 0.4], (
        [-0.33216356675303466, 0.5992916703272371, 0.5419129364511768, 0.037038251602105776, 0.07071067811865472],
        [-1.8365033870236518, 0.4253321739125352, 0.999044439059916, 1.817773913041784, -0.501258774050616],
        [
            [-4.266421588589642e-17, -4.9870249239826775e-18, -0.20789850277412872, 1.682074001105416e-16],
            [-4.9870249239826775e-18, -0.2078985027741287, 0.03297963476401454, 9.979959924229293e-18],
            [-0.20789850277412872, 0.03297963476401454, 0.06790284793718412, 5.06027229345756e-17],
            [1.682074001105416e-16, 9.979959924229293e-18, 5.06027229345756e-17, 1.1904761904761907],
        ],
        [
            [-0.7610143366162028, 1.044750269203124, 0.15, 0.07338402458863486],
            [0.4370382516021058, -0.21213203435596426, 1.0, 0.13093073414159542],
            [0.6531992257568923, -0.36946329316997106, 0.15, 0.9462555855326045],
            [0.7071067811865476, -0.7071067811865476, 0.0, -0.5635642195280153],
            [0.7071067811865476, 0.7071067811865476, 0.0, 0.0],
        ],
    )),
    ('l', 1.0, [-0.6, 0.7, -0.1, -0.5], (
        [0.9796656914814964, 0.24387931098259163, -0.5908627471724043, -0.28526421932695034, 0.07071067811865478],
        [-0.4574408718795912, -0.4852993930943874, 1.160223771768367, 0.308832321823979, 0.05719308196045956],
        [
            [1.2386923780787705e-16, 5.3478127653240816e-17, -1.752375901382657, -1.2041057701789894e-16],
            [5.3478127653240816e-17, -1.7523759013826572, -0.7821249809932105, -1.9733581034010197e-18],
            [-1.752375901382657, -0.7821249809932105, -0.7278934093214379, -2.4559337725082773e-16],
            [-1.2041057701789894e-16, -1.9733581034010197e-18, -2.4559337725082773e-16, 1.3333333333333328],
        ],
        [
            [-0.9387205162885256, 0.9970205614730321, -0.3, 1.0253887449625596],
            [-0.7852642193269503, 0.4242640687119285, 1.0, 0.3464101615137755],
            [0.47549304608456955, -0.41719300090006306, -0.3, -0.1293117934166922],
            [0.7071067811865476, -0.7071067811865476, 0.0, -1.5773502691896257],
            [0.7071067811865476, 0.7071067811865476, 0.0, 0.0],
        ],
    )),
    ('l', 1.3, [0.3, -0.2, 0.5, 0.4], (
        [-0.3602128694947102, 0.6079001519870864, 0.5712535114418298, 0.06573319046827003, 0.07071067811865472],
        [-1.7851750007925786, 0.39639759002514335, 0.8574755993750438, 1.8413253000838112, -0.4671590399213064],
        [
            [-4.266421588589642e-17, 1.111029708533524e-17, -0.23935682885179302, 1.784433357714608e-16],
            [1.111029708533524e-17, -0.23935682885179296, 0.04593960966034613, -6.528394345101538e-18],
            [-0.23935682885179302, 0.04593960966034613, 0.08812469324786772, 8.645375454505999e-17],
            [1.784433357714608e-16, -6.528394345101538e-18, 8.645375454505999e-17, 1.370614035087719],
        ],
        [
            [-0.7567100957862781, 1.044750269203124, 0.15, -0.09508321003371889],
            [0.46573319046827005, -0.21213203435596426, 1.0, 0.18263423325843034],
            [0.6575034665868169, -0.36946329316997106, 0.15, 1.1224783450224833],
            [0.7071067811865476, -0.7071067811865476, 0.0, -0.3912192224718989],
            [0.7071067811865476, 0.7071067811865476, 0.0, 0.0],
        ],
    )),
    ('l', 1.3, [-0.6, 0.7, -0.1, -0.5], (
        [0.9335365194126304, 0.21346447225586684, -0.5356091234855209, -0.2345728214490757, 0.07071067811865478],
        [-0.2957768456929045, -0.425848489162626, 1.1237181181825155, 0.059747481937709956, 0.05018672574082315],
        [
            [1.2386923780787705e-16, 4.178608747938157e-18, -2.2758128589385156, 9.309744650488212e-17],
            [4.178608747938157e-18, -2.275812858938515, -0.9950083201314561, -5.031761738146153e-17],
            [-2.2758128589385156, -0.9950083201314561, -1.0739437545785986, 1.1248034633537703e-16],
            [9.309744650488212e-17, -5.031761738146153e-17, 1.1248034633537703e-16, 1.7316017316017314],
        ],
        [
            [-0.9539279356518879, 0.9970205614730321, -0.3, 1.2783568551374067],
            [-0.7345728214490757, 0.4242640687119285, 1.0, 0.5132023220686198],
            [0.46028562672120715, -0.41719300090006306, -0.3, -0.4323175517579927],
            [0.7071067811865476, -0.7071067811865476, 0.0, -1.8553372034476996],
            [0.7071067811865476, 0.7071067811865476, 0.0, 0.0],
        ],
    )),
    ('m', 1.0, [0.3, -0.2, 0.5, 0.4], (
        [0.514, -0.825, 0.714, 0.445, 0.425],
        [-0.6900000000000001, 0.7375, -0.19000000000000003, -1.2, -0.7375],
        [
            [0.0, 0.0, 0.0, -1.0],
            [0.0, -9.658940314238862e-17, -1.0, -0.5000000000000001],
            [0.0, -1.0, -0.4999999999999999, -0.8343750000000001],
            [-1.0, -0.5000000000000001, -0.8343750000000001, -1.04046875],
        ],
        [
            [0.0, 0.5800000000000001, 1.2, 0.445],
            [-1.0, 0.0, -0.5, -1.0],
            [0.0, -0.42, 1.2, 0.445],
            [0.0, 0.4, 0.5, 0.8],
            [1.0, 0.0, 0.5, 0.0],
        ],
    )),
    ('m', 1.0, [-0.6, 0.7, -0.1, -0.5], (
        [0.46, 1.095, -0.23999999999999994, -0.845, -0.595],
        [0.5625, 1.7005, 0.4625, -1.05, -1.7005],
        [
            [0.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, -1.0, -0.020000000000000018],
            [0.0, -1.0, -0.019999999999999706, 0.029624999999999943],
            [-1.0, -0.020000000000000018, 0.029624999999999943, 1.89189325],
        ],
        [
            [0.0, 0.625, 1.05, -0.845],
            [-1.0, 0.0, 0.1, -1.0],
            [0.0, -0.375, 1.05, -0.845],
            [0.0, -0.5, -0.1, 1.7],
            [1.0, 0.0, -0.1, 0.0],
        ],
    )),
]


@pytest.mark.parametrize("ex_id, aval, p, golden", _CLOSED_GOLDENS)
def test_closed_entry_goldens(ex_id, aval, p, golden):
    fd = evaluate(ex_id, p, a=aval)
    for got, want in zip((fd.point, fd.normal, fd.gram, fd.jacobian), golden):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14)


def test_overflowing_point_refused():
    # the frame of k at z = 1e200 overflows; RuntimeWarnings are errors in
    # this suite, so this also shows that none escapes
    with pytest.raises(DomainError, match="not finite"):
        evaluate("k", [0, 0, 1e200, 0])
    with pytest.raises(DomainError, match="not finite"):
        chart_jacobian("m", [1e160, 1e160, 1e160, 1e160])
    with pytest.raises(DomainError, match="not finite"):
        chart("m", [1e160] * 4)


@pytest.mark.parametrize("ex_id", ["k", "l", "m"])
def test_curves_in_one_pass_equal_each_table(ex_id):
    # the side-by-side Horner pass against each table alone at the curve
    # parameter, as the formulas read it, at single points and on a stack
    curves = getattr(catalog, f"_CURVES_{ex_id.upper()}")
    pts = np.array(sample_domain(ex_id, 5, seed=137))
    for p in (*pts, pts):
        got = curves(p)
        s = catalog._coords(p)[curves.coord]
        for name, table in zip(curves.tables._fields, curves.tables):
            value = getattr(got, name)
            assert value.shape == p.shape[:-1] + (table.shape[1],)
            want = np.broadcast_to(catalog._at(table, s), value.shape)
            assert value.tobytes() == want.tobytes(), name


def _same_bits(got, want):
    return (
        got.dtype == want.dtype
        and got.shape == want.shape
        and np.array_equal(got, want)
        and np.array_equal(np.signbit(got), np.signbit(want))
    )


def test_derived_curve_tables_match_numpy_polynomial():
    """The derivative and integral tables of entries k, l and m, and those of
    random tables of 2 to 5 rows holding zeros of both signs, equal
    numpy.polynomial's polyder and polyint along axis 0 bit for bit, signed
    zeros included."""
    from numpy.polynomial import polynomial as P

    pairs = []
    for curves in (catalog._CURVES_K, catalog._CURVES_L):
        t = curves.tables
        pairs += [(t.Yp, t.Y, P.polyder), (t.Zp, t.Z, P.polyder), (t.Cp, t.C, P.polyder),
                  (t.xint, t.X, P.polyint)]
    t = catalog._CURVES_M.tables
    pairs += [(t.Wp, t.W, P.polyder), (t.Cp, t.C, P.polyder), (t.yint, t.Y, P.polyint)]
    for got, table, fn in pairs:
        assert _same_bits(got, fn(table, axis=0))
    rng = np.random.default_rng(5)
    for _ in range(500):
        table = rng.normal(size=rng.integers(2, 6, size=2)) * 10.0 ** rng.integers(-3, 4)
        mask = rng.random(table.shape)
        table[mask < 0.2] = 0.0
        table[mask > 0.8] = -0.0
        assert _same_bits(catalog._der(table), P.polyder(table, axis=0))
        assert _same_bits(catalog._int(table), P.polyint(table, axis=0))


def test_catalog_cuts_come_from_the_tolerance_table(monkeypatch):
    """The chart conditions of g and of h and i hold the table's
    CHART_CLAUSE_TOL and CHART_SINGULAR_TOL; the region of 0-1 and 0-2 and
    the chart condition of k read REGION_TOL and CHART_CLAUSE_TOL at call
    time."""
    tols = {ex_id: [tol for _name, tol, _coef in catalog._REGISTRY[ex_id].level.clauses]
            for ex_id in ("g", "h", "i")}
    assert tols == {"g": [linalg.CHART_CLAUSE_TOL] * 2, "h": [linalg.CHART_SINGULAR_TOL],
                    "i": [linalg.CHART_SINGULAR_TOL]}
    angle = np.array([0.0, 1e-13])
    assert expected_type("0-1", angle).label == "I"
    edge = np.array([0.0, 0.0, 1e-8 - np.sqrt(2.0), 0.0])  # z + sqrt(2) = 1e-8
    evaluate("k", edge)
    monkeypatch.setattr(linalg, "REGION_TOL", 1e-14)
    assert expected_type("0-1", angle).label == "II"
    monkeypatch.setattr(linalg, "CHART_CLAUSE_TOL", 1e-7)
    with pytest.raises(DomainError, match="chart condition z [+] sqrt[(]2[)] != 0"):
        evaluate("k", edge)

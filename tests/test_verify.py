"""Finite-difference verification of frames, curvature identities, tables."""

import re

import numpy as np
import pytest

from petrovtypes import catalog, verify
from petrovtypes.verify import (
    CONFIG,
    _Stencil,
    _codazzi,
    _shape_in_coordinates,
    codazzi_residual,
    convergence_ratio,
    curvature_data,
    gauss_residual,
    run_checks,
    shape_fd_check,
    table_report,
)
from petrovtypes.catalog import chart, quadric_of, sample_domain
from petrovtypes.linalg import ShapeError
from petrovtypes.spaceform import (
    DomainError, QuadricFunction, admissibility_check, ambient_inner, inner_matrix,
    quadratic_minimal_data, quadric_gradient,
)


SPOT_IDS = ["0-1", "0-2", "b", "e", "g", "j", "k", "m"]


@pytest.mark.parametrize("ex_id", SPOT_IDS)
def test_shape_fd_passes(ex_id):
    for p in sample_domain(ex_id, 3, seed=23):
        rep = shape_fd_check(ex_id, p)
        assert rep.passed, (ex_id, rep.residual)


@pytest.mark.parametrize("ex_id", SPOT_IDS)
def test_gauss_and_codazzi_pass(ex_id):
    for p in sample_domain(ex_id, 2, seed=29):
        assert gauss_residual(ex_id, p).passed
        assert codazzi_residual(ex_id, p).passed


def test_run_checks_all_pass_small_sweep():
    reports = run_checks("c", samples=4, seed=31)
    assert len(reports) == 12
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("aval", [np.nan, np.inf])
def test_run_checks_refuses_non_finite_a(aval):
    with pytest.raises(DomainError, match="a must be finite and nonzero"):
        run_checks("l", samples=2, a=aval)


def test_gauss_residual_converges_or_hits_noise_floor():
    p = sample_domain("g", 1, seed=37)[0]
    h = CONFIG["curvature_h"]
    r1 = gauss_residual("g", p, h=h)
    r2 = gauss_residual("g", p, h=h / 2)
    ratio = convergence_ratio(r1, r2)
    assert ratio >= CONFIG["convergence_ratio"] or (
        r1.residual < 1e-9 and r2.residual < 1e-9
    )


def test_curvature_tensor_symmetries():
    p = sample_domain("j", 1, seed=41)[0]
    data = curvature_data("j", p)
    r = data.curvature
    assert np.allclose(r, -np.transpose(r, (1, 0, 2, 3)), atol=1e-6)
    # the second antisymmetry is exact only in the limit h -> 0
    assert np.allclose(r, -np.transpose(r, (0, 1, 3, 2)), atol=1e-4)
    gamma = data.christoffel
    assert np.allclose(gamma, np.transpose(gamma, (0, 2, 1)), atol=1e-9)
    assert np.allclose(data.metric, data.metric.T, atol=1e-12)


def test_gauss_negative_control_shape_override():
    p = sample_domain("m", 1, seed=43)[0]
    fd = catalog.evaluate("m", p)
    bad = fd.shape.copy()
    bad[0, 0] += 1e-2
    rep = gauss_residual("m", p, shape_override=bad)
    assert not rep.passed


def _squared_gradient_norm(f, pts):
    grad = quadric_gradient(f, pts)
    return ambient_inner(grad, grad, f.s)


@pytest.mark.parametrize("ex_id", list("abcdefghij"))
def test_isoparametric_level_invariants(ex_id):
    """Admissibility makes the squared gradient norm a function of f, the
    identity that quadric_of's admissibility refusal stands for:
    4(af + b - f^2) for a sphere quadric with P^2 = aP + bE, 4(rho f + <p, p>)
    for a flat one with P = rho E, and 4<p, p> for P^2 = O, Pp = 0."""
    f = quadric_of(ex_id)
    pts = np.array([chart(ex_id, p) for p in sample_domain(ex_id, 8, seed=47)])
    values = f.value(pts)
    _ok, reason = admissibility_check(f)
    if f.variant == "sphere":
        a, b = quadratic_minimal_data(f)
        want = 4.0 * (a * values + b - values**2)
    elif reason == "P = rho*E":
        want = 4.0 * (f.P[0, 0] * values + ambient_inner(f.p, f.p, f.s))
    else:
        want = np.full(len(pts), 4.0 * ambient_inner(f.p, f.p, f.s))
    assert np.abs(_squared_gradient_norm(f, pts) - want).max() <= 1e-12, ex_id


@pytest.mark.parametrize("ex_id", list("abcdefghij"))
def test_quadric_value_on_stacks_matches_points(ex_id):
    """f.value of a stack of 50 chart points equals the value at each point
    bit for bit."""
    f = quadric_of(ex_id)
    pts = np.array([chart(ex_id, p) for p in sample_domain(ex_id, 50, seed=59)])
    values = f.value(pts)
    assert values.shape == (50,)
    assert [float(v) for v in values] == [f.value(x) for x in pts]


def test_isoparametric_negative_control():
    # P fails every admissibility clause, and the gradient norm varies along
    # the level f = -2 x1^2 - x2^2 = -1, so its level sets are not isoparametric
    p_mat = np.diag([2.0, 1.0, 0.0, 0.0, 0.0])
    f = QuadricFunction("flat", 2, p_mat, 1.0, np.zeros(5))
    ok, reason = admissibility_check(f)
    assert not ok and reason.startswith("P^2 = O fails")
    pts = np.random.default_rng(53).uniform(-1.0, 1.0, size=(8, 5))
    pts /= np.sqrt(-f.value(pts))[:, None]
    assert np.abs(f.value(pts) + 1.0).max() <= 1e-12
    assert np.ptp(_squared_gradient_norm(f, pts)) > 1.0


def test_isoparametric_sphere_negative_control():
    # deg mu_P = 3, so admissibility refuses P, and the level c = 0.5 of the
    # unit pseudo-sphere in R^6_3 is not isoparametric:
    # 4 (<Px, Px> - f^2), the squared gradient norm, varies
    p_mat = np.diag([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
    f = QuadricFunction("sphere", 3, p_mat, 0.5)
    ok, reason = admissibility_check(f)
    assert not ok and reason.startswith("deg mu_P above 2")
    rng = np.random.default_rng(71)
    pts = []
    while len(pts) < 8:
        x = rng.uniform(-1.0, 1.0, size=6)
        # <x, x> = 1 and f(x) = 0.5 are linear in x1^2 and x5^2
        sphere = 1.0 + x[1] ** 2 + x[2] ** 2 - x[3] ** 2 - x[5] ** 2  # = x5^2 - x1^2
        level = 0.5 + 2 * x[1] ** 2 + 3 * x[2] ** 2 - x[3] ** 2 - 3 * x[5] ** 2  # = 2 x5^2 - x1^2
        x5sq, x1sq = level - sphere, level - 2 * sphere
        if x5sq < 0 or x1sq < 0:
            continue
        x[0], x[4] = np.sqrt(x1sq), np.sqrt(x5sq)
        pts.append(x)
    pts = np.array(pts)
    assert np.abs(f.value(pts) - 0.5).max() <= 1e-12
    assert np.ptp(_squared_gradient_norm(f, pts)) > 1e-3


def test_quadric_of_refuses_a_non_admissible_quadric(monkeypatch):
    """A registry record whose quadric admissibility_check refuses never
    becomes a level set: quadric_of raises, and so does the chart built on
    it."""
    p_mat = np.diag([2.0, 1.0, 0.0, 0.0, 0.0])
    b = catalog._REGISTRY["b"].level
    record = catalog._level_entry(
        "bad", catalog.ambient_of("b"), "X", ("flat", 2, p_mat, 1.0, np.zeros(5)), b.anchor,
        b.pivots, b.frame, b.shape,
    )
    monkeypatch.setitem(catalog._REGISTRY, "bad", record)
    with pytest.raises(DomainError, match="the quadric of bad is not admissible: P\\^2 = O fails"):
        quadric_of("bad")
    with pytest.raises(DomainError, match="the quadric of bad is not admissible"):
        chart("bad", np.zeros(4))


@pytest.mark.parametrize("h", [0.0, -1e-3, np.nan, np.inf, 1e-20])
def test_checks_refuse_bad_step(h):
    p = sample_domain("b", 1, seed=79)[0]
    # 1e-20 is positive and finite, but p +- h rounds to p, so every
    # difference would be 0 and every check would pass
    message = "step 1e-20 vanishes at this point" if h == 1e-20 else "step h must be positive and finite"
    for check in (shape_fd_check, gauss_residual, codazzi_residual, curvature_data):
        with pytest.raises(DomainError, match=message):
            check("b", p, h=h)


@pytest.mark.parametrize("shape", [(1, 4), (5,), (4, 1)])
@pytest.mark.parametrize("check", ["shape_fd_check", "gauss_residual", "codazzi_residual", "curvature_data"])
def test_checks_refuse_a_point_of_another_shape(check, shape):
    """A check takes one chart point (m,); a (1, m) row would make a stencil
    in one coordinate that steps along the diagonal."""
    p = np.resize(sample_domain("e", 1, seed=79)[0], shape)
    with pytest.raises(ShapeError, match="e takes one chart point of 4 coordinates"):
        getattr(verify, check)("e", p)


_THRESHOLD_CHECKS = {
    "shape_fd": lambda t: shape_fd_check("b", sample_domain("b", 1, seed=79)[0], threshold=t),
    "gauss": lambda t: gauss_residual("b", sample_domain("b", 1, seed=79)[0], threshold=t),
    "codazzi": lambda t: codazzi_residual("b", sample_domain("b", 1, seed=79)[0], threshold=t),
}


@pytest.mark.parametrize("threshold", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("check", sorted(_THRESHOLD_CHECKS))
def test_checks_refuse_bad_threshold(check, threshold):
    """An infinite threshold would pass any residual, and a NaN or
    non-positive one fail every residual, so each check refuses them."""
    with pytest.raises(DomainError, match="threshold must be positive and finite"):
        _THRESHOLD_CHECKS[check](threshold)
    assert _THRESHOLD_CHECKS[check](None).threshold > 0


@pytest.mark.parametrize("value", [True, False, np.bool_(True), "1e-3", 1e-3 + 0j])
@pytest.mark.parametrize("argument", ["h", "threshold"])
@pytest.mark.parametrize("check", [shape_fd_check, gauss_residual, codazzi_residual])
def test_checks_refuse_a_step_or_threshold_that_is_not_a_real_number(check, argument, value):
    """True would run as a step or a threshold of 1 and be echoed as True, and
    a string would raise a bare TypeError; each is refused by name."""
    p = sample_domain("c", 1, seed=79)[0]
    name = {"h": "step h", "threshold": "threshold"}[argument]
    with pytest.raises(DomainError, match=f"^{name} must be a real number, got {re.escape(repr(value))}$"):
        check("c", p, **{argument: value})


@pytest.mark.parametrize("value", [True, "1e-3"])
def test_curvature_data_refuses_a_step_that_is_not_a_real_number(value):
    p = sample_domain("c", 1, seed=79)[0]
    with pytest.raises(DomainError, match="^step h must be a real number"):
        curvature_data("c", p, h=value)


@pytest.mark.parametrize("h", [np.float64(1e-3), np.float32(1e-3)])
def test_checks_take_numpy_real_steps(h):
    p = sample_domain("b", 1, seed=79)[0]
    assert gauss_residual("b", p, h=h).h == h
    assert np.array_equal(curvature_data("b", p, h=h).curvature, curvature_data("b", p, h=float(h)).curvature)


def test_table_reports_have_no_mismatches():
    for which in (1, 2, 3):
        out = table_report(which, samples=3, seed=59)
        assert out["mismatches"] == []


def test_table_one_covers_all_columns():
    out = table_report(1, samples=2, seed=61)
    assert len(out["columns"]) == 11


def test_residual_report_passed_property():
    rep = shape_fd_check("b", sample_domain("b", 1, seed=67)[0])
    assert rep.passed == (rep.residual <= rep.threshold)
    assert rep.check == "shape_fd"


# ---------------------------------------------------------------------------
# loop-based reference implementation of the nested central-difference scheme,
# one chart evaluation per (possibly repeated) stencil point


def _oracle_metric_at(example_id, p, a):
    jac = catalog.chart_jacobian(example_id, p, a=a)
    amb = catalog.ambient_of(example_id)
    g = inner_matrix(amb.embedding_dim, amb.embedding_index)
    return jac.T @ g @ jac


def _oracle_christoffel_at(example_id, p, a, h):
    m = p.shape[0]
    g0 = _oracle_metric_at(example_id, p, a)
    dg = np.zeros((m, m, m))
    for l in range(m):
        pp = p.copy()
        pm = p.copy()
        pp[l] += h
        pm[l] -= h
        dg[l] = (_oracle_metric_at(example_id, pp, a) - _oracle_metric_at(example_id, pm, a)) / (2 * h)
    ginv = np.linalg.inv(g0)
    gamma = np.zeros((m, m, m))
    for k in range(m):
        for i in range(m):
            for j in range(m):
                gamma[k, i, j] = 0.5 * np.sum(
                    ginv[k] * (dg[i, j] + dg[j, i] - dg[:, i, j])
                )
    return gamma


def _oracle_curvature_data(example_id, p, a, h):
    m = p.shape[0]
    g0 = _oracle_metric_at(example_id, p, a)
    gamma = _oracle_christoffel_at(example_id, p, a, h)
    dgamma = np.zeros((m, m, m, m))
    for l in range(m):
        pp = p.copy()
        pm = p.copy()
        pp[l] += h
        pm[l] -= h
        dgamma[l] = (
            _oracle_christoffel_at(example_id, pp, a, h)
            - _oracle_christoffel_at(example_id, pm, a, h)
        ) / (2 * h)
    riem_up = np.zeros((m, m, m, m))
    for mm in range(m):
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    riem_up[mm, i, j, k] = (
                        dgamma[i, mm, j, k]
                        - dgamma[j, mm, i, k]
                        + np.sum(gamma[mm, i] * gamma[:, j, k])
                        - np.sum(gamma[mm, j] * gamma[:, i, k])
                    )
    riem = np.einsum("mijk,ml->ijkl", riem_up, g0)
    return g0, gamma, riem


def _oracle_shape_in_coordinates(example_id, p, a, anchor_variant=False):
    fd = catalog.evaluate(example_id, p, a=a, anchor_variant=anchor_variant)
    jac = catalog.chart_jacobian(example_id, p, a=a)
    coef, *_ = np.linalg.lstsq(fd.frame, jac, rcond=None)
    return np.linalg.solve(coef, fd.shape @ coef), fd


def _oracle_gauss(example_id, p, a, h):
    g, _gamma, riem = _oracle_curvature_data(example_id, p, a, h)
    a_coord, fd = _oracle_shape_in_coordinates(example_id, p, a)
    ag = g @ a_coord
    kappa = catalog.ambient_of(example_id).curvature
    m = p.shape[0]
    resid = 0.0
    for i in range(m):
        for j in range(m):
            for k in range(m):
                for l in range(m):
                    rhs = kappa * (g[j, k] * g[i, l] - g[i, k] * g[j, l]) + fd.nu * (
                        ag[j, k] * ag[i, l] - ag[i, k] * ag[j, l]
                    )
                    resid = max(resid, abs(riem[i, j, k, l] - rhs))
    return resid


def _oracle_codazzi(example_id, p, a, h):
    m = p.shape[0]
    g0 = _oracle_metric_at(example_id, p, a)
    gamma = _oracle_christoffel_at(example_id, p, a, h)
    a0, _fd = _oracle_shape_in_coordinates(example_id, p, a)
    da = np.zeros((m, m, m))
    for l in range(m):
        pp = p.copy()
        pm = p.copy()
        pp[l] += h
        pm[l] -= h
        da[l] = (
            _oracle_shape_in_coordinates(example_id, pp, a)[0]
            - _oracle_shape_in_coordinates(example_id, pm, a)[0]
        ) / (2 * h)
    ga = g0 @ a0

    def term(i, j, k):
        t = np.sum(da[i][:, j] * g0[:, k])
        t += np.sum(a0[:, j] * (gamma[:, i, :].T @ g0[:, k]))
        t -= np.sum(gamma[:, i, j] * ga[:, k])
        return t

    resid = 0.0
    for i in range(m):
        for j in range(m):
            for k in range(m):
                resid = max(resid, abs(term(i, j, k) - term(j, i, k)))
    return resid


@pytest.mark.parametrize("h", [1e-3, 5e-4])
@pytest.mark.parametrize("ex_id", catalog.EXAMPLE_IDS)
def test_deduplicated_stencil_matches_loop_oracle(ex_id, h):
    p = sample_domain(ex_id, 1, seed=71)[0]
    g0, gamma, riem = _oracle_curvature_data(ex_id, p, 1.0, h)
    data = curvature_data(ex_id, p, h=h)
    assert np.abs(data.metric - g0).max() <= 1e-8
    assert np.abs(data.christoffel - gamma).max() <= 1e-8
    assert np.abs(data.curvature - riem).max() <= 1e-8
    assert abs(gauss_residual(ex_id, p, h=h).residual - _oracle_gauss(ex_id, p, 1.0, h)) <= 1e-8
    assert abs(codazzi_residual(ex_id, p, h=h).residual - _oracle_codazzi(ex_id, p, 1.0, h)) <= 1e-8


# The contractions of the kernels as einsum calls, with an explicit inverse
# metric: an independent reference for their matrix products and solves.


def _einsum_christoffel(st):
    dg = st.diff(st.metric)
    ginv = np.linalg.inv(st.metric[: len(st.up)])
    lowered = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)
    return 0.5 * np.einsum("ckn,cijn->ckij", ginv, lowered)


def _einsum_curvature(st, christoffel):
    g0, gamma = st.metric[0], christoffel[0]
    dgamma = st.diff(christoffel, 0)
    half = dgamma.transpose(1, 0, 2, 3) + np.einsum("min,njk->mijk", gamma, gamma)
    riem_up = half - half.transpose(0, 2, 1, 3)
    return np.einsum("mijk,ml->ijkl", riem_up, g0)


def _einsum_gauss(st, riem):
    g = st.metric[0]
    ag = g @ st.shapes[0]
    gg = np.einsum("jk,il->ijkl", g, g)
    aa = np.einsum("jk,il->ijkl", ag, ag)
    rhs = st.kappa * (gg - gg.swapaxes(0, 1)) + st.frames.nu[0] * (aa - aa.swapaxes(0, 1))
    return float(np.abs(riem - rhs).max())


def _einsum_codazzi(st, christoffel):
    g0, gamma, a0 = st.metric[0], christoffel[0], st.shapes[0]
    da = st.diff(st.shapes, 0)
    term = (
        np.einsum("inj,nk->ijk", da, g0)
        + np.einsum("nj,qin,qk->ijk", a0, gamma, g0)
        - np.einsum("nij,nk->ijk", gamma, g0 @ a0)
    )
    return float(np.abs(term - term.swapaxes(0, 1)).max())


@pytest.mark.parametrize("h", [CONFIG["curvature_h"], 5e-4])
@pytest.mark.parametrize("ex_id", catalog.EXAMPLE_IDS)
def test_kernels_match_the_einsum_reference(ex_id, h):
    for p in sample_domain(ex_id, 4, seed=97):
        st = _Stencil(ex_id, p, 1.0, h, reach=2)
        gamma = _einsum_christoffel(st)
        riem = _einsum_curvature(st, gamma)
        assert np.abs(st.christoffel - gamma).max() <= 1e-10
        assert np.abs(verify._curvature(st).curvature - riem).max() <= 1e-10
        assert abs(verify._gauss(st) - _einsum_gauss(st, riem)) <= 1e-10
        assert abs(_codazzi(st) - _einsum_codazzi(st, gamma)) <= 1e-10
        # the shape residual projected onto the frame's span, against the
        # projector of a QR factorization of the frame
        fd = st.frames
        resid = st.shape_diff(fd.normal).T + fd.jacobian[0] @ st.shapes[0]
        q, _ = np.linalg.qr(fd.frame[0])
        want = q @ (q.T @ resid)
        got = verify._tangential(fd.frame[0], resid)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_quadric_of_is_shared_and_read_only():
    f = quadric_of("h")
    assert quadric_of("h") is f
    with pytest.raises(ValueError):
        f.P[0, 0] = 5.0
    with pytest.raises(ValueError):
        quadric_of("b").p[0] = 5.0
    assert f.P[0, 0] == 0.0


def _oracle_shape_fd(example_id, p, a, h):
    """The shape check with one evaluate call per neighbour p +- h e_i."""
    a_coord, fd = _oracle_shape_in_coordinates(example_id, p, a)
    jac = catalog.chart_jacobian(example_id, p, a=a)
    m = p.shape[0]
    dxi = np.zeros((fd.point.shape[0], m))
    for i in range(m):
        pp = p.copy()
        pm = p.copy()
        pp[i] += h
        pm[i] -= h
        dxi[:, i] = (
            catalog.evaluate(example_id, pp, a=a).normal
            - catalog.evaluate(example_id, pm, a=a).normal
        ) / (2 * h)
    resid = dxi + jac @ a_coord
    if catalog.ambient_of(example_id).curvature != 0:
        q, _ = np.linalg.qr(fd.frame)
        resid = q @ (q.T @ resid)
    return float(np.abs(resid).max())


@pytest.mark.parametrize("ex_id", catalog.EXAMPLE_IDS)
def test_stacked_shape_fd_matches_loop_oracle(ex_id):
    h = CONFIG["shape_h"]
    for p in sample_domain(ex_id, 2, seed=73):
        assert abs(shape_fd_check(ex_id, p).residual - _oracle_shape_fd(ex_id, p, 1.0, h)) <= 1e-10


@pytest.mark.parametrize("ex_id", catalog.EXAMPLE_IDS)
def test_curvature_data_needs_only_the_chart_jacobian(ex_id, monkeypatch):
    p = sample_domain(ex_id, 1, seed=29)[0]
    expected = curvature_data(ex_id, p)

    def no_frames(*args, **kwargs):
        raise AssertionError("curvature_data evaluated frame data")

    monkeypatch.setattr(catalog, "evaluate", no_frames)
    data = curvature_data(ex_id, p)
    for name in ("metric", "christoffel", "curvature"):
        assert np.array_equal(getattr(data, name), getattr(expected, name))


_SHAPE_CASES = [(ex_id, 1.0, False) for ex_id in catalog.EXAMPLE_IDS] + [
    ("h", 1.0, True), ("i", 1.0, True),
    ("k", 1.3, False), ("k", -0.7, False), ("l", 1.3, False), ("l", -0.7, False),
]


@pytest.mark.parametrize("ex_id, a, anchor_variant", _SHAPE_CASES)
def test_shape_in_coordinates_matches_lstsq_oracle(ex_id, a, anchor_variant):
    # the Gram solve on a stack against a least-squares change of basis per point
    pts = sample_domain(ex_id, 4, seed=79, a=a)
    fd = catalog.evaluate(ex_id, pts, a=a, anchor_variant=anchor_variant)
    amb = catalog.ambient_of(ex_id)
    got = _shape_in_coordinates(fd, inner_matrix(amb.embedding_dim, amb.embedding_index))
    for p, shape in zip(pts, got):
        want, _fd = _oracle_shape_in_coordinates(ex_id, p, a, anchor_variant)
        assert np.abs(shape - want).max() <= 1e-10


@pytest.mark.parametrize("ex_id", catalog.EXAMPLE_IDS)
def test_run_checks_matches_public_checks(ex_id):
    # one shared reach-2 stencil per point gives the residuals of the
    # separate public calls
    reports = run_checks(ex_id, samples=2, seed=83)
    for rep in reports:
        p = np.array(rep.points[0])
        public = {
            "shape_fd": shape_fd_check, "gauss": gauss_residual, "codazzi": codazzi_residual,
        }[rep.check](ex_id, p)
        assert rep.h == public.h and rep.threshold == public.threshold
        assert abs(rep.residual - public.residual) <= 1e-12


@pytest.fixture
def evaluate_rows(monkeypatch):
    """The number of points of each catalog.evaluate call, in call order,
    from an empty stack memo."""
    rows = []
    evaluate = catalog.evaluate

    def counted(example_id, p, *args, **kwargs):
        rows.append(len(np.atleast_2d(p)))
        return evaluate(example_id, p, *args, **kwargs)

    monkeypatch.setattr(catalog, "evaluate", counted)
    verify._stack.cache_clear()
    return rows


@pytest.mark.parametrize("ex_id", ["0-1", "b", "e", "h", "k"])
def test_gauss_hands_its_stencil_to_codazzi(ex_id, evaluate_rows):
    p = sample_domain(ex_id, 1, seed=89)[0]
    gauss_residual(ex_id, p, h=5e-4)
    codazzi_residual(ex_id, p, h=5e-4)
    assert evaluate_rows == [41 if p.shape[0] == 4 else 13]


@pytest.mark.parametrize("check", [shape_fd_check, gauss_residual, codazzi_residual])
def test_a_replaced_record_gets_its_own_stack(check, evaluate_rows, monkeypatch):
    """A catalog record put in the registry under an id already used, here b
    at the level c = 2 in place of c = 1, is checked on a stack of its own
    points, not on the memo's stack of the old record."""
    monkeypatch.delenv("PETROV_TOL", raising=False)
    p = sample_domain("b", 1, seed=3)[0]
    check("b", p)
    level = catalog._REGISTRY["b"].level
    variant, s, p_mat, _c, p_vec = level.quadric
    record = catalog._level_entry(
        "b", catalog.ambient_of("b"), "X", (variant, s, p_mat, 2.0, p_vec), level.anchor,
        level.pivots, level.frame, level.shape,
    )
    monkeypatch.setitem(catalog._REGISTRY, "b", record)
    assert check("b", p).passed
    assert evaluate_rows == [41 + 8, 41 + 8]
    st = verify._point_stack("b", p, 1.0, None)
    assert np.array_equal(st.frames.point[0], chart("b", p))


_MISSES = {
    "alone": lambda p: None,
    "other p": lambda p: gauss_residual("k", p + 0.01),
    "other a": lambda p: gauss_residual("k", p, a=1.3),
    "other h": lambda p: gauss_residual("k", p, h=5e-4),
    "other PETROV_TOL": lambda p: gauss_residual("k", p),
}


def _l_edge_point():
    # only the reach-2 stencil at the curvature step leaves the chart domain
    p = sample_domain("l", 1, seed=103)[0]
    p[3] = 1.0 - 1.5 * CONFIG["curvature_h"]
    return p


@pytest.mark.parametrize("miss", sorted(_MISSES))
def test_codazzi_without_its_gauss_evaluates_reach_1(miss, evaluate_rows, monkeypatch):
    # whichever stack the memo holds, a Codazzi check whose Gauss check
    # leaves the chart domain evaluates its own reach-1 points
    monkeypatch.delenv("PETROV_TOL", raising=False)
    p = sample_domain("k", 1, seed=97)[0]
    _MISSES[miss](p)
    if miss == "other PETROV_TOL":
        monkeypatch.setenv("PETROV_TOL", "1e-8")
    edge = _l_edge_point()
    with pytest.raises(DomainError):
        gauss_residual("l", edge)
    del evaluate_rows[:]
    assert np.isfinite(codazzi_residual("l", edge).residual)
    assert evaluate_rows == [41 + 8, 1 + 2 * 4]


@pytest.mark.parametrize("h", [1e-3, 5e-4])
@pytest.mark.parametrize("ex_id", catalog.EXAMPLE_IDS)
def test_handed_off_codazzi_equals_reach_1(ex_id, h):
    p = sample_domain(ex_id, 1, seed=101)[0]
    want = _codazzi(_Stencil(ex_id, p, 1.0, h, reach=1))
    gauss_residual(ex_id, p, h=h)
    assert codazzi_residual(ex_id, p, h=h).residual == want


def test_failed_gauss_leaves_no_stencil(evaluate_rows):
    p = sample_domain("l", 1, seed=103)[0]
    gauss_residual("l", p)
    outside = p.copy()
    outside[3] = 1.5  # |a v| < 1 fails at the centre
    with pytest.raises(DomainError):
        gauss_residual("l", outside)
    with pytest.raises(DomainError):
        codazzi_residual("l", outside)
    # the memo still holds the stack of p
    del evaluate_rows[:]
    for check in (shape_fd_check, gauss_residual, codazzi_residual):
        check("l", p)
    assert evaluate_rows == []


def _chain(ex_id, p, h=None):
    return [
        check(ex_id, p, h=h).residual
        for check in (shape_fd_check, gauss_residual, codazzi_residual)
    ]


@pytest.mark.parametrize("ex_id", ["0-1", "0-2", "b", "e", "h", "k"])
def test_shape_gauss_codazzi_evaluate_once(ex_id, evaluate_rows):
    p = sample_domain(ex_id, 1, seed=107)[0]
    _chain(ex_id, p)
    m = p.shape[0]
    assert evaluate_rows == [(41 if m == 4 else 13) + 2 * m]


def test_run_checks_at_a_given_h_evaluates_once_per_point(evaluate_rows):
    # given h, the stencil is built at h and the shape check's points are its
    # rows 1..2m, so no rows are appended
    verify.run_checks("k", samples=2, seed=1, h=5e-4)
    assert evaluate_rows == [41, 41]


@pytest.mark.parametrize("miss", sorted(set(_MISSES) - {"alone"}))
def test_gauss_after_shape_on_another_key_evaluates_reach_2(miss, evaluate_rows, monkeypatch):
    monkeypatch.delenv("PETROV_TOL", raising=False)
    p = sample_domain("k", 1, seed=109)[0]
    shape_fd_check("k", p)
    if miss == "other PETROV_TOL":
        monkeypatch.setenv("PETROV_TOL", "1e-8")
    _MISSES[miss](p)  # a Gauss check on another key
    assert evaluate_rows == [41 + 8, 41 if miss == "other h" else 41 + 8]


def test_failed_shape_check_leaves_no_stencil(evaluate_rows):
    p = sample_domain("l", 1, seed=113)[0]
    shape_fd_check("l", p)
    outside = p.copy()
    outside[3] = 1.5  # |a v| < 1 fails at the centre
    with pytest.raises(DomainError):
        shape_fd_check("l", outside)
    del evaluate_rows[:]
    gauss_residual("l", p)
    assert evaluate_rows == []


def test_shape_check_near_the_edge_evaluates_reach_1(evaluate_rows):
    edge = _l_edge_point()
    rep = shape_fd_check("l", edge)
    assert evaluate_rows == [41 + 8, 1 + 2 * 4]
    assert abs(rep.residual - _oracle_shape_fd("l", edge, 1.0, CONFIG["shape_h"])) <= 1e-10


@pytest.mark.parametrize("h", [None, 5e-4])
@pytest.mark.parametrize("ex_id", catalog.EXAMPLE_IDS)
def test_shared_stack_gives_the_standalone_residuals(ex_id, h):
    p = sample_domain(ex_id, 1, seed=127)[0]
    alone = []
    for check in (shape_fd_check, gauss_residual, codazzi_residual):
        verify._stack.cache_clear()
        alone.append(check(ex_id, p, h=h).residual)
    verify._stack.cache_clear()
    assert _chain(ex_id, p, h) == alone


@pytest.fixture
def shape_solves(monkeypatch):
    """The _shape_in_coordinates calls, from an empty stack memo."""
    calls = []
    solve = verify._shape_in_coordinates

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(verify, "_shape_in_coordinates", counted)
    verify._stack.cache_clear()
    return calls


@pytest.mark.parametrize("h", [None, 5e-4])
@pytest.mark.parametrize("ex_id", ["0-1", "0-2", "b", "e", "h", "k"])
def test_shape_gauss_codazzi_solve_coordinate_shapes_once(ex_id, h, shape_solves):
    p = sample_domain(ex_id, 1, seed=131)[0]
    _chain(ex_id, p, h)
    assert len(shape_solves) == 1
    # an override is solved on its own, on the same stack
    gauss_residual(ex_id, p, h=h, shape_override=catalog.evaluate(ex_id, p).shape + 1e-2)
    assert len(shape_solves) == 2


def test_reach_1_fallback_solves_coordinate_shapes_once(shape_solves):
    edge = _l_edge_point()
    shape_fd_check("l", edge)
    assert len(shape_solves) == 1
    codazzi_residual("l", edge)
    assert len(shape_solves) == 2


def test_reach_1_shape_fallback_solves_the_centre_row_alone(shape_solves):
    # the fallback stencil is the shape check's own, and it reads row 0 only
    edge = _l_edge_point()
    shape_fd_check("l", edge)
    (fd, _g, rows), = shape_solves
    assert len(fd.point) == 1 + 2 * 4
    assert np.size(np.arange(len(fd.point))[rows]) == 1

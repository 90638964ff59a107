"""Numerical verification harness.

Finite-difference checks that the catalog entries really are what they claim:
the shape matrix matches the derivative of the unit normal, the induced
metric satisfies the Gauss and Codazzi equations, the defining functions of
the level-set entries are isoparametric, and the classification tables are
reproduced cell by cell.

All derivatives are second-order central differences.  First derivatives of
the charts are exact (catalog.chart_jacobian), so the finite differencing is
only ever applied to smooth scalar- or matrix-valued functions of the chart
coordinates.

The curvature checks use nested central differences with the step h: the
Christoffel symbols come from differences of the metric, and the curvature
from differences of the Christoffel symbols.  The nested stencil reaches the
points p + h*o for integer offset vectors o, many of them more than once (81
reaches but 41 distinct offsets in four coordinates, 13 in two).  Each check
makes one stacked catalog.evaluate call on all of its distinct points, which
solves the chart once and returns the Jacobians, frames, normals and shapes
together: the Gauss check on the 41 (or 13) offsets of two nested
differences, taking its shape operator at p from the same call; the Codazzi
check on the 1 + 2m offsets of one, turning all 1 + 2m shapes into chart
coordinates at once; the shape check on p and its 2m neighbours p +- h e_i,
of which it reads only the normals.  Every point of a check therefore has to
pass the domain and consistency checks of catalog.evaluate.  curvature_data
reads no frame data and fetches its 41 (or 13) Jacobians with one
catalog.chart_jacobian call instead.  The tensor contractions are einsum
calls.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import catalog
from .linalg import BilinearSpace
from .petrov import SelfAdjointPair, classify_geometric
from .spaceform import QuadricFunction, ambient_inner, inner_matrix, quadric_gradient

# per-check defaults, overridable from the CLI
CONFIG = {
    "shape_h": 1e-4,
    "shape_threshold": 1e-5,
    "curvature_h": 1e-3,
    "curvature_threshold": 1e-3,
    "isoparametric_threshold": 1e-8,
    "convergence_ratio": 3.0,
}


@dataclass(frozen=True)
class ResidualReport:
    example_id: str
    check: str
    points: tuple
    residual: float
    h: float
    threshold: float
    time_ms: float | None = field(default=None, compare=False)  # wall time, set by run_checks

    @property
    def passed(self) -> bool:
        return self.residual <= self.threshold


@dataclass(frozen=True)
class CurvatureData:
    """Finite-difference metric data on a parametrized patch."""

    metric: np.ndarray
    christoffel: np.ndarray  # gamma[k, i, j] for nabla_i d_j = gamma^k_ij d_k
    curvature: np.ndarray  # riem[i, j, k, l] = <R(d_i, d_j) d_k, d_l>


@functools.cache
def _offsets(m: int, reach: int) -> tuple[tuple, ...]:
    """Integer offset vectors reached by `reach` nested central differences
    in m coordinates: sums of `reach` steps, each 0 or +-e_l."""
    origin = (0,) * m
    steps = [origin] + [
        tuple(sign * (i == l) for i in range(m)) for l in range(m) for sign in (1, -1)
    ]
    reached = {origin}
    for _ in range(reach):
        reached = {tuple(map(sum, zip(o, step))) for o in reached for step in steps}
    return tuple(sorted(reached))


class _Stencil:
    """Chart data at the points p + h*o around p, keyed by the integer offset
    vector o.  Every offset that `reach` nested differences need is fetched
    up front, in one call on the (k, m) stack of points that solves the chart
    once.  With frames, that call is catalog.evaluate, which gives the
    Jacobians, and with them the metrics, and the frame data at every offset,
    so every point of the stencil must pass its checks.  Without, it is
    catalog.chart_jacobian, and the stencil has metrics only."""

    def __init__(
        self, example_id: str, p: np.ndarray, a: float, h: float, reach: int,
        frames: bool = True,
    ):
        self.h = h
        self.origin = (0,) * p.shape[0]
        offsets = _offsets(p.shape[0], reach)
        points = p + h * np.array(offsets, dtype=float)
        if frames:
            self.frames = catalog.evaluate(example_id, points, a=a)
            jacs = self.frames.jacobian
        else:
            jacs = catalog.chart_jacobian(example_id, points, a=a)
        self._row = {o: i for i, o in enumerate(offsets)}
        amb = catalog.ambient_of(example_id)
        g = inner_matrix(amb.embedding_dim, amb.embedding_index)
        self._metric = jacs.transpose(0, 2, 1) @ g @ jacs

    def at(self, o: tuple) -> catalog.FrameData:
        return self.frames.row(self._row[o])

    def metric(self, o: tuple) -> np.ndarray:
        return self._metric[self._row[o]]

    @functools.cached_property
    def _shapes(self) -> np.ndarray:
        fd = self.frames
        return _shape_in_coordinates(fd.frame, fd.shape, fd.jacobian)

    def shape(self, o: tuple) -> np.ndarray:
        """Shape operator in the chart-coordinate frame at offset o; the first
        call computes it at every offset of the stencil at once."""
        return self._shapes[self._row[o]]

    def derivative(self, fun, o: tuple) -> np.ndarray:
        """Central differences of fun at offset o, stacked along a new first
        axis: out[l] = d_l fun."""
        steps = []
        for l in range(len(o)):
            up = list(o)
            down = list(o)
            up[l] += 1
            down[l] -= 1
            steps.append(fun(tuple(up)) - fun(tuple(down)))
        return np.array(steps) / (2 * self.h)

    def christoffel(self, o: tuple) -> np.ndarray:
        """gamma[k, i, j] for nabla_i d_j = gamma^k_ij d_k at offset o."""
        dg = self.derivative(self.metric, o)  # dg[l, i, j] = d_l g_ij
        ginv = np.linalg.inv(self.metric(o))
        lowered = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
        return 0.5 * np.einsum("kn,ijn->kij", ginv, lowered)


def _curvature(st: _Stencil) -> CurvatureData:
    """Metric, Christoffel symbols, and curvature components at the centre of
    a reach-2 stencil."""
    g0 = st.metric(st.origin)
    gamma = st.christoffel(st.origin)
    dgamma = st.derivative(st.christoffel, st.origin)  # dgamma[l, k, i, j] = d_l gamma^k_ij
    # R(d_i, d_j) d_k = riem_up[m, i, j, k] d_m with
    # riem_up[m, i, j, k] = half[m, i, j, k] - half[m, j, i, k] and
    # half[m, i, j, k] = d_i gamma^m_jk + gamma^m_in gamma^n_jk
    half = dgamma.transpose(1, 0, 2, 3) + np.einsum("min,njk->mijk", gamma, gamma)
    riem_up = half - half.transpose(0, 2, 1, 3)
    riem = np.einsum("mijk,ml->ijkl", riem_up, g0)
    return CurvatureData(metric=g0, christoffel=gamma, curvature=riem)


def curvature_data(example_id: str, p, a: float = 1.0, h: float | None = None) -> CurvatureData:
    """Metric, Christoffel symbols, and curvature components at p, from the
    chart Jacobians alone."""
    p = np.asarray(p, dtype=float)
    if h is None:
        h = CONFIG["curvature_h"]
    return _curvature(_Stencil(example_id, p, a, h, reach=2, frames=False))


def _shape_in_coordinates(frame: np.ndarray, shape: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """The shape matrix `shape`, given in the tangent frame `frame`, as a
    matrix in the chart-coordinate frame whose columns are `jac`.  Each
    argument may carry a leading stack axis."""
    coef = np.linalg.pinv(frame) @ jac  # jac = frame @ coef
    return np.linalg.solve(coef, shape @ coef)


def shape_fd_check(
    example_id: str, p, a: float = 1.0, h: float | None = None,
    threshold: float | None = None,
) -> ResidualReport:
    """Compare the central difference of the unit normal along each chart
    direction against minus the shape operator applied to that direction."""
    p = np.asarray(p, dtype=float)
    if h is None:
        h = CONFIG["shape_h"]
    if threshold is None:
        threshold = CONFIG["shape_threshold"]
    m = p.shape[0]
    steps = h * np.eye(m)
    # p, then its neighbours p + h e_i, then p - h e_i, in one call
    frames = catalog.evaluate(example_id, np.vstack([p, p + steps, p - steps]), a=a)
    fd = frames.row(0)
    dxi = (frames.normal[1 : m + 1] - frames.normal[m + 1 :]).T / (2 * h)
    predicted = -fd.jacobian @ _shape_in_coordinates(fd.frame, fd.shape, fd.jacobian)
    resid = dxi - predicted
    if catalog.ambient_of(example_id).curvature != 0:
        # compare tangentially: the radial component of d(xi) is curvature of
        # the ambient sphere, not shape information
        q, _ = np.linalg.qr(fd.frame)
        resid = q @ (q.T @ resid)
    return ResidualReport(
        example_id, "shape_fd", (tuple(p),), float(np.abs(resid).max()), h, threshold
    )


def gauss_residual(
    example_id: str, p, a: float = 1.0, h: float | None = None,
    threshold: float | None = None, shape_override: np.ndarray | None = None,
) -> ResidualReport:
    """Gauss equation in chart coordinates: curvature of the induced metric
    against the constant-curvature term plus the shape-operator term."""
    p = np.asarray(p, dtype=float)
    if h is None:
        h = CONFIG["curvature_h"]
    if threshold is None:
        threshold = CONFIG["curvature_threshold"]
    st = _Stencil(example_id, p, a, h, reach=2)
    data = _curvature(st)
    fd = st.at(st.origin)
    shape = fd.shape if shape_override is None else shape_override
    a_coord = _shape_in_coordinates(fd.frame, shape, fd.jacobian)
    g = data.metric
    ag = g @ a_coord  # ag[i, j] = <d_i, A d_j>, symmetric by self-adjointness
    kappa = catalog.ambient_of(example_id).curvature
    # rhs[i, j, k, l] = kappa (g_jk g_il - g_ik g_jl) + nu (ag_jk ag_il - ag_ik ag_jl)
    gg = np.einsum("jk,il->ijkl", g, g)
    aa = np.einsum("jk,il->ijkl", ag, ag)
    rhs = kappa * (gg - gg.swapaxes(0, 1)) + fd.nu * (aa - aa.swapaxes(0, 1))
    resid = np.abs(data.curvature - rhs).max()
    return ResidualReport(
        example_id, "gauss", (tuple(p),), float(resid), h, threshold
    )


def codazzi_residual(
    example_id: str, p, a: float = 1.0, h: float | None = None,
    threshold: float | None = None,
) -> ResidualReport:
    """Codazzi equation in chart coordinates: the covariant derivative
    expression is symmetric in its first two slots."""
    p = np.asarray(p, dtype=float)
    if h is None:
        h = CONFIG["curvature_h"]
    if threshold is None:
        threshold = CONFIG["curvature_threshold"]
    st = _Stencil(example_id, p, a, h, reach=1)
    g0 = st.metric(st.origin)
    gamma = st.christoffel(st.origin)
    a0 = st.shape(st.origin)
    da = st.derivative(st.shape, st.origin)  # da[l] = d_l of the coordinate shape matrix
    # term[i, j, k] = <nabla_i (A d_j), d_k> - <nabla_i d_j, A d_k>
    term = (
        np.einsum("inj,nk->ijk", da, g0)
        + np.einsum("nj,qin,qk->ijk", a0, gamma, g0)
        - np.einsum("nij,nk->ijk", gamma, g0 @ a0)
    )
    resid = np.abs(term - term.swapaxes(0, 1)).max()
    return ResidualReport(
        example_id, "codazzi", (tuple(p),), float(resid), h, threshold
    )


def _pseudo_orthonormal_tangent(x: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-orthonormal basis of the tangent space of the unit pseudo-sphere
    at x; returns (basis columns, signs)."""
    n = x.shape[0]
    g = inner_matrix(n, s)
    row = (g @ x)[None, :]
    _u, _sv, vh = np.linalg.svd(row)
    cand = [vh[i] for i in range(1, n)]
    basis = []
    signs = []
    while cand:
        norms = [ambient_inner(v, v, s) for v in cand]
        idx = int(np.argmax(np.abs(norms)))
        v = cand.pop(idx)
        nv = norms[idx]
        if abs(nv) < 1e-10:
            raise np.linalg.LinAlgError("degenerate tangent direction")
        sgn = 1 if nv > 0 else -1
        v = v / np.sqrt(abs(nv))
        basis.append(v)
        signs.append(sgn)
        cand = [
            w - sgn * ambient_inner(w, v, s) * v for w in cand
        ]
    return np.array(basis).T, np.array(signs)


def _second_derivative(fun, h: float) -> float:
    """Fourth-order five-point second difference of a scalar function of one
    variable at 0."""
    return (
        -fun(2 * h) + 16 * fun(h) - 30 * fun(0.0) + 16 * fun(-h) - fun(-2 * h)
    ) / (12 * h * h)


def _sphere_laplacian(f: QuadricFunction, x: np.ndarray, h: float) -> float:
    """Laplace-Beltrami of f on the unit pseudo-sphere via second derivatives
    along geodesics in a pseudo-orthonormal tangent frame."""
    basis, signs = _pseudo_orthonormal_tangent(x, f.s)
    total = 0.0
    for v, sgn in zip(basis.T, signs):
        if sgn > 0:
            geo = lambda t: np.cos(t) * x + np.sin(t) * v
        else:
            geo = lambda t: np.cosh(t) * x + np.sinh(t) * v
        total += sgn * _second_derivative(lambda t: f.value(geo(t)), h)
    return total


def _flat_laplacian(f: QuadricFunction, x: np.ndarray, h: float) -> float:
    n = x.shape[0]
    total = 0.0
    for i in range(n):
        eps = -1.0 if i < f.s else 1.0
        e = np.zeros(n)
        e[i] = 1.0
        total += eps * _second_derivative(lambda t: f.value(x + t * e), h)
    return total


def isoparametric_function_check(
    f: QuadricFunction, samples, h: float = 5e-3, threshold: float | None = None
) -> ResidualReport:
    """Within each level group of sample points, the squared gradient norm and
    the finite-difference Laplacian must be constant."""
    if threshold is None:
        threshold = CONFIG["isoparametric_threshold"]
    levels: dict[float, list[np.ndarray]] = {}
    for x in samples:
        x = np.asarray(x, dtype=float)
        levels.setdefault(round(f.value(x), 9), []).append(x)
    spread = 0.0
    for pts in levels.values():
        grads = []
        laps = []
        for x in pts:
            grad = quadric_gradient(f, x)
            grads.append(ambient_inner(grad, grad, f.s))
            if f.variant == "flat":
                laps.append(_flat_laplacian(f, x, h))
            else:
                laps.append(_sphere_laplacian(f, x, h))
        spread = max(spread, max(grads) - min(grads), max(laps) - min(laps))
    return ResidualReport(
        "-", "isoparametric", tuple(tuple(x) for x in samples[:1]), float(spread),
        h, threshold,
    )


def run_checks(
    example_id: str, samples: int = 20, seed: int = 0, a: float = 1.0,
    h: float | None = None,
) -> list[ResidualReport]:
    """All finite-difference checks for one entry over seeded sample points;
    each report carries the wall time of its check."""
    reports = []
    pts = catalog.sample_domain(example_id, samples, seed=seed, a=a)
    for p in pts:
        for check in (shape_fd_check, gauss_residual, codazzi_residual):
            start = time.perf_counter()
            report = check(example_id, p, a=a, h=h)
            elapsed_ms = (time.perf_counter() - start) * 1e3
            reports.append(replace(report, time_ms=elapsed_ms))
    return reports


def convergence_ratio(report_h: ResidualReport, report_h2: ResidualReport) -> float:
    """Residual ratio between paired runs at h and h/2."""
    if report_h2.residual == 0.0:
        return np.inf
    return report_h.residual / report_h2.residual


def _classify_sample(example_id: str, p, a: float = 1.0):
    fd = catalog.evaluate(example_id, p, a=a)
    pair = SelfAdjointPair(fd.shape, BilinearSpace.from_gram(fd.gram))
    return classify_geometric(pair)


def table_report(which: int, samples: int = 5, seed: int = 0) -> dict:
    """Regenerate one of the three classification tables and compare against
    the stated cells."""
    if which == 3:
        return _region_table("0-1", samples, seed)
    if which == 2:
        return _region_table("0-2", samples, seed)
    if which == 1:
        return _case_table(samples, seed)
    raise ValueError("table number must be 1, 2, or 3")


_REGION_ROWS = {
    "0-1": [
        ("v = n pi", "type I of index 1"),
        ("v in (2n pi, (2n+1) pi)", "type II of index 1"),
        ("v in ((2n+1) pi, (2n+2) pi)", "type II of index 1"),
    ],
    "0-2": [
        ("w = n pi", "type X of index 2"),
        ("w in (2n pi, (2n+1) pi)", "type IX-i of index 2"),
        ("w in ((2n+1) pi, (2n+2) pi)", "type IX-ii of index 2"),
    ],
}


def _region_table(example_id: str, samples: int, seed: int) -> dict:
    pts = catalog.sample_domain(example_id, 3 * max(samples, 1), seed=seed)
    rows = []
    mismatches = []
    for region in range(3):
        stated_label, stated_text = (
            _REGION_ROWS[example_id][region][0],
            _REGION_ROWS[example_id][region][1],
        )
        computed = set()
        for p in pts[region::3]:
            got = _classify_sample(example_id, p)
            want = catalog.expected_type(example_id, p)
            computed.add(f"type {got.label} of index {got.index}")
            if got.label != want.label or got.index != want.index:
                mismatches.append({"region": stated_label, "point": list(p)})
        rows.append(
            {
                "region": stated_label,
                "stated": stated_text,
                "computed": sorted(computed),
                "match": computed == {stated_text},
            }
        )
    return {
        "table": 3 if example_id == "0-1" else 2,
        "rows": rows,
        "mismatches": mismatches,
    }


_TABLE1_COLUMNS = (
    "I", "II", "III", "IV", "VI", "VII-i", "VII-ii", "IX-i", "IX-ii", "X", "XI",
)
# stated cells: x = non-existence, triangle = conditional non-existence,
# open = open question, letter = catalog entry realizing the type
_TABLE1_CELLS = {
    "R5_2 (delta=0)": {
        "I": "x", "II": "triangle", "III": "x", "IV": "x",
        "VI": "m", "VII-i": "l", "VII-ii": "k", "IX-i": "d", "IX-ii": "c",
        "X": "b", "XI": "a",
    },
    "S5_2 (delta=1)": {
        "I": "x", "II": "triangle", "III": "open", "IV": "x",
        "VI": "open", "VII-i": "open", "VII-ii": "open", "IX-i": "open",
        "IX-ii": "open", "X": "open", "XI": "e",
    },
    "S5_3 (delta=-1)": {
        "I": "open", "II": "j", "III": "open", "IV": "open",
        "VI": "open", "VII-i": "open", "VII-ii": "open", "IX-i": "i",
        "IX-ii": "h", "X": "g", "XI": "f",
    },
}
_TABLE1_ROW_OF = {
    "a": "R5_2 (delta=0)", "b": "R5_2 (delta=0)", "c": "R5_2 (delta=0)",
    "d": "R5_2 (delta=0)", "k": "R5_2 (delta=0)", "l": "R5_2 (delta=0)",
    "m": "R5_2 (delta=0)",
    "e": "S5_2 (delta=1)",
    "f": "S5_3 (delta=-1)", "g": "S5_3 (delta=-1)", "h": "S5_3 (delta=-1)",
    "i": "S5_3 (delta=-1)", "j": "S5_3 (delta=-1)",
}


def _case_table(samples: int, seed: int) -> dict:
    mismatches = []
    computed_cells = {row: dict(cells) for row, cells in _TABLE1_CELLS.items()}
    for ex_id, row in _TABLE1_ROW_OF.items():
        want = catalog.expected_type(ex_id)
        for p in catalog.sample_domain(ex_id, samples, seed=seed):
            got = _classify_sample(ex_id, p)
            if got.label != want.label or got.index != want.index:
                mismatches.append({"example": ex_id, "point": list(map(float, p))})
        # the letter sits in the column of its computed type
        if want.label not in _TABLE1_COLUMNS or _TABLE1_CELLS[row][want.label] != ex_id:
            mismatches.append({"example": ex_id, "cell": want.label})
    return {
        "table": 1,
        "columns": list(_TABLE1_COLUMNS),
        "rows": computed_cells,
        "mismatches": mismatches,
    }

"""Numerical verification harness.

Finite-difference checks that the catalog entries really are what they claim:
the shape matrix matches the derivative of the unit normal, the induced
metric satisfies the Gauss and Codazzi equations, and the classification
tables are reproduced cell by cell.  Isoparametry needs no check of its own:
a catalog level set refuses any quadric that admissibility_check refuses.

Every check takes one chart point of shape (m,), and refuses a step h or a
threshold that is not a positive finite real number, and a step that
vanishes against the point, p +- h = p in some coordinate, where every
difference would be 0.

All derivatives are second-order central differences.  First derivatives of
the charts are exact (catalog.chart_jacobian), so the finite differencing is
only ever applied to smooth scalar- or matrix-valued functions of the chart
coordinates.

The curvature checks use nested central differences with the step h: the
Christoffel symbols come from differences of the metric, and the curvature
from differences of the Christoffel symbols.  A check runs on the stencil of
points p + h*o, o an integer offset: the 41 (13 in two coordinates) of two
nested differences for Gauss, and the first 1 + 2m of them, one difference,
for Codazzi.  The shape check differences the normal with its own smaller
step over 2m more points, unless a step h is given, which sets both steps.
The three checks at one entry record, p, a and h read one memoized stack of
these points, _point_stack: one catalog.evaluate call, which solves the
chart once and returns the Jacobians, frames, normals and shapes together,
so every point of it has to pass the domain and consistency checks of
catalog.evaluate.  The shape matrices in chart coordinates at its first
1 + 2m rows are one solve of the stack, kept with it: the shape and Gauss
checks read row 0, Codazzi all of them.  Where the stack leaves the chart
domain, the shape and Codazzi checks evaluate their own reach-1 points
alone; Codazzi solves the coordinate shapes of all of them, the shape check
of its centre alone.  curvature_data reads no frame data and
calls catalog.chart_jacobian instead.  The rest is one array program over
the stack: one batched solve of the metrics gives the Christoffel symbols
at every centre, every derivative is a difference of a whole stack over
index arrays, and every contraction is a matrix product over reshaped axes
or a broadcast product, with any leading batch axes kept.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import catalog
from .linalg import BilinearSpace, ShapeError
from .petrov import SelfAdjointPair, classify_geometric
from .spaceform import DomainError, SpaceForm, inner_matrix

# per-check defaults, for a check called without h or threshold; the CLI
# passes only --h, as the h of every check
CONFIG = {
    "shape_h": 1e-4,
    "shape_threshold": 1e-5,
    "curvature_h": 1e-3,
    "curvature_threshold": 1e-3,
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
def _stencil_layout(m: int, reach: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Offsets of `reach` nested central differences in m coordinates, with
    their difference rows.  The offsets o of the points p + h*o, a (k, m)
    array, are the sums of `reach` steps 0 or +-e_l in the order the steps
    first reach them: the first C are the centres, which `reach` - 1 steps
    reach, and the first 1 + 2m are 0, e_1..e_m, -e_1..-e_m at every reach.
    up[c, l] and down[c, l], (C, m), are the rows of c + e_l and c - e_l."""
    steps = [(0,) * m] + [
        tuple(sign * (i == l) for i in range(m)) for sign in (1, -1) for l in range(m)
    ]
    offsets = steps[:1]
    for _ in range(reach):
        centres = len(offsets)
        offsets = list(dict.fromkeys(
            tuple(map(sum, zip(o, step))) for o in offsets for step in steps
        ))
    row = {o: i for i, o in enumerate(offsets)}
    near = np.array(
        [[row[tuple(map(sum, zip(c, step)))] for step in steps[1:]] for c in offsets[:centres]]
    )
    return np.array(offsets, dtype=float), near[:, :m], near[:, m:]


class _Stencil:
    """Chart data on the (k, m) stack of points of a `reach` stencil, from one
    call that solves the chart once: catalog.evaluate with frames, so every
    point must pass its checks, and catalog.chart_jacobian, for the metrics
    alone, without.  Derivatives are differences of whole stacks over the
    index arrays of _stencil_layout.

    The shape check differences the normal over a reach-1 stencil with its
    own step shape_h.  Its points p +- shape_h*e_l are the rows shape_up and
    shape_down, (m,), of the stack: rows 1..2m when shape_h is h, and else 2m
    rows appended after the stencil, which share its centre, row 0."""

    def __init__(
        self, example_id: str, p: np.ndarray, a: float, h: float, reach: int,
        frames: bool = True, shape_h: float | None = None,
    ):
        self.h = h
        self.shape_h = h if shape_h is None else shape_h
        # where p +- step rounds to p, every difference would be 0 and every
        # check would pass; the smaller step is the first to vanish
        step = min(h, self.shape_h)
        if ((p + step == p) | (p - step == p)).any():
            raise DomainError(f"step {step:g} vanishes at this point: p +- step equals p")
        m = p.shape[0]
        offsets, self.up, self.down = _stencil_layout(m, reach)
        points = p + h * offsets
        self.shape_up, self.shape_down = self.up[0], self.down[0]
        if self.shape_h != h:
            k = len(offsets)
            points = np.concatenate([points, p + self.shape_h * offsets[1 : 1 + 2 * m]])
            self.shape_up, self.shape_down = np.arange(k, k + m), np.arange(k + m, k + 2 * m)
        amb = catalog.ambient_of(example_id)
        self.kappa = amb.curvature
        self.g = inner_matrix(amb.embedding_dim, amb.embedding_index)
        if frames:
            self.frames = catalog.evaluate(example_id, points, a=a)
            jacs = self.frames.jacobian
        else:
            jacs = catalog.chart_jacobian(example_id, points, a=a)
        self.metric = jacs.transpose(0, 2, 1) @ self.g @ jacs

    def diff(self, values: np.ndarray, c=slice(None)) -> np.ndarray:
        """Central differences of values stacked over the rows, at the centres
        c: out[c, l] = d_l values at centre c, or out[l] at one centre c."""
        return (values[self.up[c]] - values[self.down[c]]) / (2 * self.h)

    def shape_diff(self, values: np.ndarray) -> np.ndarray:
        """Central differences of values at p with the step shape_h:
        out[l] = d_l values."""
        return (values[self.shape_up] - values[self.shape_down]) / (2 * self.shape_h)

    @functools.cached_property
    def shapes(self) -> np.ndarray:
        """Shape matrices in chart coordinates (_shape_in_coordinates) at the
        first 1 + 2m rows, the reach-1 stencil: one solve of the stack for
        all three checks."""
        return _shape_in_coordinates(self.frames, self.g, slice(1 + 2 * self.up.shape[1]))

    @functools.cached_property
    def christoffel(self) -> np.ndarray:
        """gamma[c, k, i, j] for nabla_i d_j = gamma^k_ij d_k at every centre c:
        one batched solve of the centres' metrics g_kn gamma^n_ij = lowered_ijk
        / 2, with lowered_ijk = d_i g_jk + d_j g_ik - d_k g_ij, all m*m pairs
        ij as the columns of one right-hand side."""
        dg = self.diff(self.metric)  # dg[c, l, i, j] = d_l g_ij
        c, m = dg.shape[:2]
        lowered = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)
        rhs = lowered.reshape(c, m * m, m).transpose(0, 2, 1)  # rhs[c, k, ij] = lowered_ijk
        return 0.5 * np.linalg.solve(self.metric[:c], rhs).reshape(c, m, m, m)


def _curvature(st: _Stencil) -> CurvatureData:
    """Metric, Christoffel symbols, and curvature components at the centre of
    a reach-2 stencil."""
    g0 = st.metric[0]
    gamma = st.christoffel[0]
    dgamma = st.diff(st.christoffel, 0)  # dgamma[l, k, i, j] = d_l gamma^k_ij
    m, lead = g0.shape[-1], g0.shape[:-2]
    # R(d_i, d_j) d_k = riem_up[m, i, j, k] d_m with
    # riem_up[m, i, j, k] = half[m, i, j, k] - half[m, j, i, k] and
    # half[m, i, j, k] = d_i gamma^m_jk + gamma^m_in gamma^n_jk
    half = dgamma.swapaxes(-4, -3) + (
        gamma.reshape(*lead, m * m, m) @ gamma.reshape(*lead, m, m * m)
    ).reshape(dgamma.shape)
    riem_up = half - half.swapaxes(-3, -2)
    # riem[i, j, k, l] = riem_up[n, i, j, k] g_nl
    riem = (riem_up.reshape(*lead, m, m**3).swapaxes(-1, -2) @ g0).reshape(dgamma.shape)
    return CurvatureData(metric=g0, christoffel=gamma, curvature=riem)


def _point(example_id: str, p) -> np.ndarray:
    """p as a float array of shape (m,), the one chart point a check takes."""
    p = np.asarray(p, dtype=float)
    m = catalog.param_dim(example_id)
    if p.shape != (m,):
        raise ShapeError(f"{example_id} takes one chart point of {m} coordinates, got shape {p.shape}")
    return p


def curvature_data(example_id: str, p, a: float = 1.0, h: float | None = None) -> CurvatureData:
    """Metric, Christoffel symbols, and curvature components at p, from the
    chart Jacobians alone."""
    p = _point(example_id, p)
    h = CONFIG["curvature_h"] if h is None else _step(h)
    return _curvature(_Stencil(example_id, p, a, h, reach=2, frames=False))


def _shape_in_coordinates(fd: catalog.FrameData, g: np.ndarray, rows=slice(None), shape=None):
    """Shape matrices of the stack fd at `rows`, or `shape` in their place, in
    the chart-coordinate frame, the Jacobian columns.  These lie in the span
    of the frame, so their coefficients in it solve the frame Gram system
    with the ambient inner product g exactly."""
    frame, jac = fd.frame[rows], fd.jacobian[rows]
    coef = np.linalg.solve(fd.gram[rows], frame.swapaxes(-1, -2) @ g @ jac)  # jac = frame @ coef
    return np.linalg.solve(coef, (fd.shape[rows] if shape is None else shape) @ coef)


@functools.lru_cache(maxsize=1)
def _stack(entry, p: bytes, a: float, step: float, shape_step: float, tol) -> _Stencil:
    # keyed by the registry record itself, which the memo keeps alive, so a
    # record replaced under the same id gets its own stack; tol is the
    # PETROV_TOL setting, which the chart checks of catalog.evaluate read; a
    # call that raised is not kept
    return _Stencil(entry.id, np.frombuffer(p), a, step, reach=2, shape_h=shape_step)


def _point_stack(example_id: str, p: np.ndarray, a: float, h: float | None) -> _Stencil:
    """The stack that the three checks at (example_id, p, a, h) read: the
    reach-2 stencil at step h, or at CONFIG["curvature_h"] with the shape
    check's 2m points at CONFIG["shape_h"] appended if h is None."""
    step, shape_step = (CONFIG["curvature_h"], CONFIG["shape_h"]) if h is None else (h, h)
    entry = catalog._entry(example_id)
    return _stack(entry, p.tobytes(), a, step, shape_step, os.environ.get("PETROV_TOL"))


def _positive(value, name: str):
    """value, if it is a real number, positive and finite; otherwise
    DomainError naming it.  A bool is refused, not read as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    if not (math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be positive and finite, got {value}")
    return value


def _step(h: float | None) -> float | None:
    """h, refused unless it is None (each check's default) or a positive
    finite real number: a step that is 0, NaN or infinite makes every
    difference meaningless."""
    return None if h is None else _positive(h, "step h")


def _threshold(threshold: float | None, key: str) -> float:
    """threshold, or CONFIG[key] for None, if it is a positive finite real
    number; otherwise DomainError, since an infinite threshold passes any
    residual and a NaN or non-positive one fails every residual."""
    return _positive(CONFIG[key] if threshold is None else threshold, "threshold")


def shape_fd_check(
    example_id: str, p, a: float = 1.0, h: float | None = None,
    threshold: float | None = None,
) -> ResidualReport:
    """Compare the central difference of the unit normal along each chart
    direction against minus the shape operator applied to that direction,
    on the point's stack, or on its own reach-1 points if the stack leaves
    the chart domain.  Where the ambient curvature is not 0, the residual is
    compared after the Euclidean orthogonal projector F (F^T F)^-1 F^T onto
    the span of the frame F (_tangential)."""
    p = _point(example_id, p)
    h = _step(h)
    threshold = _threshold(threshold, "shape_threshold")
    try:
        st = _point_stack(example_id, p, a, h)
    except DomainError:
        st = _Stencil(example_id, p, a, CONFIG["shape_h"] if h is None else h, reach=1)
        # no other check reads this stencil: solve the centre row alone
        shape = _shape_in_coordinates(st.frames, st.g, 0)
    else:
        shape = st.shapes[0]
    resid = _shape_fd(st, shape)
    return ResidualReport(example_id, "shape_fd", (tuple(p),), resid, st.shape_h, threshold)


def _tangential(frame: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The Euclidean orthogonal projection of the columns of v onto the span
    of the columns of F = frame, F (F^T F)^-1 F^T v, from one solve of the
    Euclidean Gram matrix F^T F."""
    frame_t = frame.swapaxes(-1, -2)
    return frame @ np.linalg.solve(frame_t @ frame, frame_t @ v)


def _shape_fd(st: _Stencil, shape: np.ndarray) -> float:
    """Largest shape-check residual at the centre of a stencil, whose shape
    matrix in chart coordinates is `shape`."""
    fd = st.frames
    dxi = st.shape_diff(fd.normal).swapaxes(-1, -2)  # dxi[:, l] = d_l xi
    resid = dxi + fd.jacobian[0] @ shape
    if st.kappa != 0:
        # compare tangentially: the radial component of d(xi) is curvature of
        # the ambient sphere, not shape information
        resid = _tangential(fd.frame[0], resid)
    return float(np.abs(resid).max())


def _outer(x: np.ndarray) -> np.ndarray:
    """out[i, j, k, l] = x[j, k] x[i, l], as one broadcast product."""
    return x[..., :, None, None, :] * x[..., None, :, :, None]


def _gauss(st: _Stencil, shape_override: np.ndarray | None = None) -> float:
    """Largest Gauss-equation residual at the centre of a reach-2 stencil."""
    data = _curvature(st)
    if shape_override is None:
        a_coord = st.shapes[0]
    else:
        a_coord = _shape_in_coordinates(st.frames, st.g, 0, shape_override)
    g = data.metric
    ag = g @ a_coord  # ag[i, j] = <d_i, A d_j>, symmetric by self-adjointness
    # rhs[i, j, k, l] = kappa (g_jk g_il - g_ik g_jl) + nu (ag_jk ag_il - ag_ik ag_jl)
    gg = _outer(g)
    aa = _outer(ag)
    rhs = st.kappa * (gg - gg.swapaxes(-4, -3)) + st.frames.nu[0] * (aa - aa.swapaxes(-4, -3))
    return float(np.abs(data.curvature - rhs).max())


def gauss_residual(
    example_id: str, p, a: float = 1.0, h: float | None = None,
    threshold: float | None = None, shape_override: np.ndarray | None = None,
) -> ResidualReport:
    """Gauss equation in chart coordinates: curvature of the induced metric
    against the constant-curvature term plus the shape-operator term, on the
    point's stack."""
    p = _point(example_id, p)
    h = _step(h)
    threshold = _threshold(threshold, "curvature_threshold")
    st = _point_stack(example_id, p, a, h)
    resid = _gauss(st, shape_override)
    return ResidualReport(example_id, "gauss", (tuple(p),), resid, st.h, threshold)


def _codazzi(st: _Stencil) -> float:
    """Largest Codazzi-equation residual at the centre of a stencil, from its
    first 1 + 2m rows, the reach-1 stencil."""
    g0 = st.metric[0]
    gamma = st.christoffel[0]
    a0 = st.shapes[0]
    da = st.diff(st.shapes, 0)  # da[l] = d_l of the coordinate shape matrix
    m, lead = g0.shape[-1], g0.shape[:-2]
    # term[i, j, k] = <nabla_i (A d_j), d_k> - <nabla_i d_j, A d_k>
    #   = da[i, n, j] g_nk + a[n, j] gl[i, n, k] - gamma^n_ij (g a)_nk
    # with gl[i, n, k] = gamma^q_in g_qk, gamma lowered by g
    pairs = gamma.reshape(*lead, m, m * m).swapaxes(-1, -2)  # pairs[ij, q] = gamma^q_ij
    gl = (pairs @ g0).reshape(gamma.shape)
    term = (
        da.swapaxes(-1, -2) @ g0[..., None, :, :]
        + a0.swapaxes(-1, -2)[..., None, :, :] @ gl
        - (pairs @ (g0 @ a0)).reshape(gamma.shape)
    )
    return float(np.abs(term - term.swapaxes(-3, -2)).max())


def codazzi_residual(
    example_id: str, p, a: float = 1.0, h: float | None = None,
    threshold: float | None = None,
) -> ResidualReport:
    """Codazzi equation in chart coordinates: the covariant derivative
    expression is symmetric in its first two slots, on the first 1 + 2m
    rows of the point's stack, or on those points alone if the stack leaves
    the chart domain."""
    p = _point(example_id, p)
    h = _step(h)
    threshold = _threshold(threshold, "curvature_threshold")
    try:
        st = _point_stack(example_id, p, a, h)
    except DomainError:
        st = _Stencil(example_id, p, a, CONFIG["curvature_h"] if h is None else h, reach=1)
    return ResidualReport(example_id, "codazzi", (tuple(p),), _codazzi(st), st.h, threshold)


def run_checks(
    example_id: str, samples: int = 20, seed: int = 0, a: float = 1.0,
    h: float | None = None,
) -> list[ResidualReport]:
    """All finite-difference checks for one entry over seeded sample points;
    each report carries the wall time of its check.  The three checks at a
    point read the stack the shape check evaluates, so the shared chart solve
    and coordinate-shape solve count toward the shape_fd time."""
    reports = []
    for p in catalog.sample_domain(example_id, samples, seed=seed, a=a):
        for check in (shape_fd_check, gauss_residual, codazzi_residual):
            start = time.perf_counter()
            report = check(example_id, p, a=a, h=h)
            reports.append(replace(report, time_ms=(time.perf_counter() - start) * 1e3))
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
    pts = catalog.sample_domain(example_id, 3 * samples, seed=seed)
    rows = []
    mismatches = []
    for region in range(3):
        stated_label, stated_text = _REGION_ROWS[example_id][region]
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
# an entry of fixed type sits in the row of its ambient space form
_TABLE1_ROW_OF_AMBIENT = {
    SpaceForm(5, 2, 0): "R5_2 (delta=0)",
    SpaceForm(5, 2, 1): "S5_2 (delta=1)",
    SpaceForm(5, 3, 1): "S5_3 (delta=-1)",
}


def _case_table(samples: int, seed: int) -> dict:
    mismatches = []
    fixed = [ex_id for ex_id in catalog.EXAMPLE_IDS if ex_id not in _REGION_ROWS]
    for ambient, row in _TABLE1_ROW_OF_AMBIENT.items():
        for ex_id in [ex_id for ex_id in fixed if catalog.ambient_of(ex_id) == ambient]:
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
        # the stated cells: a computed type that disagrees with its entry's
        # expected type, or a letter outside its computed column, is a mismatch
        "rows": _TABLE1_CELLS,
        "mismatches": mismatches,
    }

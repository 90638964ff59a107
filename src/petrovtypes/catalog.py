"""Catalog of isoparametric hypersurface examples in pseudo-Riemannian space forms.

Fifteen entries behind one interface: two low-index surfaces whose type varies
over the surface ("0-1", "0-2"), ten quadric level sets ("a"-"j"), and three
explicitly parametrized index-2 hypersurfaces ("k", "l", "m").  Each entry
exposes a smooth chart p -> ambient point and a frame evaluator returning the
tangent frame, unit normal, shape matrix in the frame, frame Gram and exact
chart Jacobian.

evaluate and chart_jacobian take one chart point of shape (m,) or a stack of
k points of shape (k, m).  A stack is solved once: one vectorized chart solve
on the level sets (a Newton solve on the sphere entries), broadcast closed
forms on the others, and the frames, normals and shapes of all k points from
the same ambient points.  A single point goes through the same code with
numbers in place of columns, so its results do not depend on being stacked.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .linalg import ShapeError, default_tol
from .petrov import GeometricType
from .spaceform import (
    DomainError,
    QuadricFunction,
    SpaceForm,
    ambient_inner,
    check_invariant,
    inner_matrix,
    quadric_gradient,
    sphere_level_operator,
)

SQ2 = np.sqrt(2.0)

EXAMPLE_IDS = (
    "0-1", "0-2", "a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m",
)


@dataclass(frozen=True)
class FrameData:
    """Everything measured at one point: frame columns are tangent vectors.

    At a stack of k points every field has a leading axis of length k, and
    nu is an integer array.  The chart Jacobian is optional: a FrameData
    built without one raises ValueError when its jacobian is read."""

    point: np.ndarray
    frame: np.ndarray
    normal: np.ndarray
    shape: np.ndarray
    gram: np.ndarray
    nu: int | np.ndarray
    # the chart Jacobian, or a function that computes it on first use: on the
    # entries with an explicit frame it costs a solve that classification
    # never needs
    _jacobian: np.ndarray | Callable[[], np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    @functools.cached_property
    def jacobian(self) -> np.ndarray:
        """Exact partial derivatives of the chart at the point(s), one column
        per chart coordinate, from the same chart solve as the frame."""
        jac = self._jacobian
        if jac is None:
            raise ValueError("this FrameData was built without a chart Jacobian")
        return jac() if callable(jac) else jac

    def row(self, i: int) -> "FrameData":
        """The data at point i of a stack.  Its jacobian is row i of the
        stack's, which is computed once, on first use by either."""
        return FrameData(
            point=self.point[i], frame=self.frame[i], normal=self.normal[i],
            shape=self.shape[i], gram=self.gram[i], nu=int(self.nu[i]),
            _jacobian=functools.partial(_jacobian_row, self, i),
        )


def _jacobian_row(fd: FrameData, i: int) -> np.ndarray:
    return fd.jacobian[i]


def _e(i: int, n: int = 5) -> np.ndarray:
    v = np.zeros(n)
    v[i - 1] = 1.0
    return v


def _anti(n: int) -> np.ndarray:
    return np.eye(n)[::-1].copy()


def _dsum(*blocks: np.ndarray) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    i = 0
    for b in blocks:
        m = b.shape[0]
        out[i : i + m, i : i + m] = b
        i += m
    return out


def _j(lam: float, m: int) -> np.ndarray:
    return lam * np.eye(m) + np.eye(m, k=1)


def _coords(p: np.ndarray) -> list:
    """The coordinates of p: numbers for a point (m,), (k, 1) columns for a
    (k, m) stack.  A formula in them then gives an ambient vector (n,) at a
    point, and a (k, n) stack, scaled row by row, at a stack of points."""
    if p.ndim == 1:
        return list(p)
    return [p[:, i : i + 1] for i in range(p.shape[1])]


def _vec(s, *comps) -> np.ndarray:
    """The ambient vector with the given components, each a number or an
    array shaped like the coordinate s: shape (5,) for a number s, (k, 5)
    for a (k, 1) column."""
    if not isinstance(s, np.ndarray):
        return np.array(comps)
    out = np.empty((s.shape[0], len(comps)))
    for i, c in enumerate(comps):
        out[:, i : i + 1] = c
    return out


def _frame_gram(frame: np.ndarray, s: int) -> np.ndarray:
    g = inner_matrix(frame.shape[-2], s)
    return frame.swapaxes(-1, -2) @ g @ frame


def _columns(*cols) -> np.ndarray:
    """The frame with the given columns: (n, m) for vectors of shape (n,),
    (k, n, m) when a column is a (k, n) stack."""
    if all(col.ndim == 1 for col in cols):
        return np.array(cols).T
    out = np.empty(np.broadcast(*cols).shape + (len(cols),))
    for i, col in enumerate(cols):
        out[..., i] = col
    return out


def _batch(mat: np.ndarray, p: np.ndarray) -> np.ndarray:
    """A constant matrix, repeated along the stack axis of p if it has one."""
    return mat if p.ndim == 1 else np.repeat(mat[None], p.shape[0], axis=0)


def _nu_plus(p: np.ndarray):
    """nu = +1 at a point, or at every row of a stack."""
    return 1 if p.ndim == 1 else np.ones(p.shape[0], dtype=int)


# ---------------------------------------------------------------------------
# quadric data shared between the chart solvers and the admissibility tests

def _p_flat_b() -> np.ndarray:
    p = np.zeros((5, 5))
    p[0, 0] = -1.0
    p[0, 4] = 1.0
    p[4, 0] = -1.0
    p[4, 4] = 1.0
    return p


def _p_flat_c() -> np.ndarray:
    return np.array(
        [
            [0, 1, 0, 0, 1],
            [1, 0, -1, 0, 0],
            [0, 1, 0, 0, 1],
            [0, 0, 0, 0, 0],
            [-1, 0, 1, 0, 0],
        ],
        dtype=float,
    )


def _p_flat_d() -> np.ndarray:
    return np.array(
        [
            [1, 0, 0, 0, 1],
            [0, 1, -1, 0, 0],
            [0, 1, -1, 0, 0],
            [0, 0, 0, 0, 0],
            [-1, 0, 0, 0, -1],
        ],
        dtype=float,
    )


def _p_sphere_g() -> np.ndarray:
    return np.array(
        [
            [0, 0, 1, 0, 0, -1],
            [0, 0, 0, 0, 0, 0],
            [1, 0, 0, 1, 0, 0],
            [0, 0, -1, 0, 0, 1],
            [0, 0, 0, 0, 0, 0],
            [1, 0, 0, 1, 0, 0],
        ],
        dtype=float,
    )


@functools.cache
def quadric_of(example_id: str) -> QuadricFunction:
    """The defining quadric for the level-set entries ("a"-"j").

    Each quadric is built and validated once, on first use, and the same
    instance is returned afterwards; its P and p are read-only.
    """
    e3 = _anti(3)
    i3 = np.eye(3)
    table = {
        "a": ("flat", 2, -np.eye(5), -1.0, np.zeros(5)),
        "b": ("flat", 2, _p_flat_b(), 1.0, _e(3)),
        "c": ("flat", 2, _p_flat_c(), 1.0, _e(4)),
        "d": ("flat", 2, _p_flat_d(), 1.0, _e(4)),
        "e": ("sphere", 2, _dsum(_anti(2), _anti(4)), 0.0, None),
        "f": ("sphere", 3, _dsum(e3, e3), 3.0, None),
        "g": ("sphere", 3, _p_sphere_g(), 1.0, None),
        "h": ("sphere", 3, np.block([[e3, i3], [-i3, -e3]]), -1.0, None),
        "i": ("sphere", 3, np.block([[i3, i3], [-i3, -i3]]), -1.0, None),
        "j": ("sphere", 3, np.block([[i3, -e3], [e3, i3]]), 1.0, None),
    }
    if example_id not in table:
        raise DomainError(f"{example_id} has no defining quadric")
    variant, s, p_mat, c, p_vec = table[example_id]
    f = QuadricFunction(variant, s, p_mat, c, p_vec)
    f.P.flags.writeable = False
    if f.p is not None:
        f.p.flags.writeable = False
    return f


# anchors and pivot coordinates (0-based) for the level-set charts
_ANCHOR = {
    "a": (_e(3), (2,)),
    "b": (_e(1), (2,)),
    "c": (_e(4) / 2.0, (3,)),
    "d": (_e(4) / 2.0, (3,)),
    "e": (_e(6, 6), (2, 5)),
    "f": (np.array([-1 / SQ2, 0, 1 / SQ2, 0, SQ2, 0]), (0, 4)),
    "g": (np.array([0, 0, 0, 1 / SQ2, 0, 1 / SQ2]), (0, 3)),
    "h": (_e(5, 6), (1, 4)),
    "i": (_e(5, 6), (1, 4)),
    "j": (_e(4, 6), (2, 3)),
}

# a row of the sphere-variant chart solve stops once its residual is below this
_NEWTON_STOP = 1e-14

# The chart of h and i solves for x2 and x5, and its Newton Jacobian is
# singular where x2 + x5 = 0.  Near there the constraint residual is
# quadratic in x2 + x5, so a solve stopped at _NEWTON_STOP leaves x2 + x5 up
# to about sqrt(_NEWTON_STOP) = 1e-7 from 0: within ten times that, the
# clause cannot be told from 0.
_SINGULAR_TOL = 10.0 * np.sqrt(_NEWTON_STOP)

# the chart conditions (name, tolerance, coefficients of the linear clause),
# which every chart solve checks: the explicit frames of g, h and i divide by
# their clauses, and the level set of g, 2 (x1 + x4)(x6 - x3) = 1, has no
# point where either fails
_DOMAIN_CLAUSES = {
    "g": (("x1 + x4 != 0", 1e-9, _e(1, 6) + _e(4, 6)),
          ("-x3 + x6 != 0", 1e-9, -_e(3, 6) + _e(6, 6))),
    "h": (("x2 + x5 != 0", _SINGULAR_TOL, _e(2, 6) + _e(5, 6)),),
    "i": (("x2 + x5 != 0", _SINGULAR_TOL, _e(2, 6) + _e(5, 6)),),
}


def _check_domain(example_id: str, x: np.ndarray, margin: float = 0.0) -> None:
    """Every point of x, shape (n,) or (k, n), satisfies the chart conditions,
    each clause by more than its tolerance or the margin, whichever is
    larger."""
    for name, tol, coef in _DOMAIN_CLAUSES.get(example_id, ()):
        if (np.abs(x @ coef) <= max(tol, margin)).any():
            raise DomainError(f"point violates the chart condition {name}")


@dataclass(frozen=True)
class _LevelSet:
    """Per-entry constants of a level-set chart, built once."""

    f: QuadricFunction
    anchor: np.ndarray
    pivots: list[int]
    free: list[int]
    sign: np.ndarray  # diagonal of the ambient Gram G
    gpt: np.ndarray  # (G P)^T, so that x @ gpt stacks G P x
    gpv: np.ndarray | None  # G p (flat variant)
    newton: np.ndarray  # [G | (G P)^T], so that x @ newton stacks G x and G P x


@functools.cache
def _level_set(example_id: str) -> _LevelSet:
    f = quadric_of(example_id)
    anchor, pivots = _ANCHOR[example_id]
    n = anchor.shape[0]
    g = inner_matrix(n, f.s)
    gpt = (g @ f.P).T.copy()
    return _LevelSet(
        f=f,
        anchor=anchor,
        pivots=list(pivots),
        free=[i for i in range(n) if i not in pivots],
        sign=np.diag(g).copy(),
        gpt=gpt,
        gpv=None if f.p is None else g @ f.p,
        newton=np.hstack([g, gpt]),
    )


def _level_chart(example_id: str, q: np.ndarray) -> np.ndarray:
    """Chart for the level-set entries at a stack of points, (k, m) -> (k, n):
    q fills the free coordinates, the pivot coordinates are solved from the
    defining constraints."""
    ls = _level_set(example_id)
    f = ls.f
    k, n = q.shape[0], ls.anchor.shape[0]
    x = np.tile(ls.anchor, (k, 1))
    x[:, ls.free] = q
    if f.variant == "flat":
        if example_id == "a":
            # <x, x>_2 = 1 solved for the pivot (positive branch)
            rest = (ls.sign * x * x).sum(axis=1) - x[:, 2] * x[:, 2]
            if not (1.0 - rest > 0).all():
                raise DomainError("point leaves the chart of the unit sphere")
            x[:, 2] = np.sqrt(1.0 - rest)
        else:
            # the pivot coordinate enters only through the linear term
            i = ls.pivots[0]
            x[:, i] = 0.0
            value = ((x @ ls.gpt) * x).sum(axis=1) + 2.0 * (x @ ls.gpv)
            x[:, i] = (f.c - value) / 2.0
        return x
    # sphere variant: one Newton solve in the two pivot coordinates for
    # <x, x> = 1 and <Px, x> = c over the whole stack; a row stops moving
    # once its residual is below _NEWTON_STOP
    level = np.array([1.0, f.c])
    pivots = ls.pivots
    for _ in range(60):
        d = (x @ ls.newton).reshape(k, 2, n)  # d[:, 0] = G x, d[:, 1] = G P x
        r = np.einsum("kcn,kn->kc", d, x) - level
        rows = np.flatnonzero(~(np.abs(r).max(axis=1) < _NEWTON_STOP))
        if rows.size == 0:
            break
        # the Jacobian of the constraints in the pivots is 2 d[:, :, pivots]
        try:
            step = np.linalg.solve(d[rows][:, :, pivots], r[rows, :, None] / 2.0)
        except np.linalg.LinAlgError as exc:
            raise DomainError("chart solver met a singular Jacobian at this point") from exc
        x[rows[:, None], pivots] -= step[:, :, 0]
    else:
        raise DomainError("chart solver did not converge; point too far out")
    # on h and i the solve is singular where the chart condition fails, and
    # a row there stops short of it with a finite but meaningless point
    _check_domain(example_id, x)
    return x


def _coordinate_tangent_frame(example_id: str, x: np.ndarray) -> np.ndarray:
    """Smooth tangent frames at a stack of level-set points, (k, n) ->
    (k, n, m): one column per free coordinate, corrected in the pivot
    coordinates so every constraint differential vanishes.  One solve with
    m right-hand sides per point."""
    ls = _level_set(example_id)
    gpx = x @ ls.gpt
    if ls.f.variant == "flat":
        d = (gpx + ls.gpv)[:, None, :]  # G(Px + p)
    else:
        gx = ls.sign * x
        d = np.stack([gx, gpx - (gpx * x).sum(axis=1)[:, None] * gx], axis=1)
    # one differential per constraint: d[k, c, :]
    try:
        corr = np.linalg.solve(d[:, :, ls.pivots], -d[:, :, ls.free])
    except np.linalg.LinAlgError as exc:
        raise DomainError("constraint differentials are singular at this point") from exc
    m = len(ls.free)
    frame = np.zeros((x.shape[0], x.shape[1], m))
    frame[:, ls.free, np.arange(m)] = 1.0
    frame[:, ls.pivots, :] = corr
    return frame


# ---------------------------------------------------------------------------
# explicit moving frames for the quadric entries
#
# Each takes a level-set point (n,) or a stack (k, n) and returns the frame,
# (n, 4) or (k, n, 4), with the constant shape matrix in that frame.

def _frame_b(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = _coords(x)
    frame = _columns(
        _e(1) + _e(5),
        _e(1) + (-x[0] + x[4]) * _e(3),
        _e(2),
        _e(4),
    )
    return frame, _dsum(_j(0.0, 2), np.zeros((2, 2)))


def _frame_c(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = _coords(x)
    th1 = -_e(1) - _e(3)
    th2 = _e(2) + (x[0] - x[2]) * _e(4)
    et1 = -_e(2) + _e(5)
    et2 = _e(1) + (x[1] + x[4]) * _e(4)
    th1p, th2p = th1 + et1, th2 + et2
    et1p, et2p = th1 - et1, th2 - et2
    s_val = x[0] + x[1] - x[2] + x[4]
    t_val = x[0] - x[1] - x[2] - x[4]
    th2pp = th2p + 0.5 * s_val * t_val * et1p
    b1 = th1p / SQ2
    # corrector coefficients chosen so the frame Gram is the constant signed
    # anti-diagonal; the first chain vectors are in the kernel, so the chain
    # relations are unaffected
    b2 = th2pp / SQ2 - (s_val * s_val - 2.0) / (4.0 * SQ2) * th1p
    b3 = et1p / SQ2
    b4 = et2p / SQ2 + (t_val * t_val - 2.0) / (4.0 * SQ2) * et1p
    return _columns(b1, b2, b3, b4), _dsum(_j(0.0, 2), _j(0.0, 2))


def _frame_d(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = _coords(x)
    th1 = -_e(1) + _e(5)
    th2 = _e(1) + (x[0] + x[4]) * _e(4)
    et1 = -_e(2) - _e(3)
    et2 = _e(2) + (x[1] - x[2]) * _e(4)
    th2p = th2 - (x[0] + x[4]) * (x[1] - x[2]) * et1
    b1 = th1
    b2 = th2p - 0.5 * ((x[0] + x[4]) ** 2 - 1.0) * th1
    b3 = et1
    b4 = et2 - 0.5 * ((x[1] - x[2]) ** 2 - 1.0) * et1
    return _columns(b1, b2, b3, b4), _dsum(_j(0.0, 2), _j(0.0, 2))


def _tangent_quads_g(x: list) -> list[np.ndarray]:
    d1 = x[0] + x[3]
    d2 = -x[2] + x[5]
    e = lambda i: _e(i, 6)
    a1 = -x[1] / d1 * e(1) + e(2) + x[1] / d1 * e(4)
    a2 = (-x[2] / d1 + x[3] / d2) * e(1) + e(3) + (x[2] / d1 + x[0] / d2) * e(4)
    a3 = x[4] / d1 * e(1) - x[4] / d1 * e(4) + e(5)
    a4 = (x[5] / d1 - x[3] / d2) * e(1) + (-x[5] / d1 - x[0] / d2) * e(4) + e(6)
    return [a1, a2, a3, a4]


def _frame_g(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = _coords(x)
    a1, a2, a3, a4 = _tangent_quads_g(x)
    d1 = x[0] + x[3]
    d2 = -x[2] + x[5]
    return _columns(a2 + a4, -(d2 / d1) * a2, a1, a3), _dsum(_j(1.0, 2), np.eye(2))


def _tangent_quads_hi(x: list, variant: str) -> list[np.ndarray]:
    d = x[1] + x[4]
    e = lambda i: _e(i, 6)
    if variant == "h":
        s1, s2 = x[2] + x[3], x[0] + x[5]
    else:
        s1, s2 = x[0] + x[3], x[2] + x[5]
    # a3 and a4 take s1 and s2 in order for "i", swapped for "h"
    s3, s4 = (s2, s1) if variant == "h" else (s1, s2)
    a1 = e(1) + (-x[0] / d - x[4] * s1 / d**2) * e(2) + (x[0] / d - x[1] * s1 / d**2) * e(5)
    a2 = (-x[2] / d - x[4] * s2 / d**2) * e(2) + e(3) + (x[2] / d - x[1] * s2 / d**2) * e(5)
    a3 = (x[3] / d - x[4] * s3 / d**2) * e(2) + e(4) + (-x[3] / d - x[1] * s3 / d**2) * e(5)
    a4 = (x[5] / d - x[4] * s4 / d**2) * e(2) + (-x[5] / d - x[1] * s4 / d**2) * e(5) + e(6)
    return [a1, a2, a3, a4]


def _frame_h(x: np.ndarray, anchor_variant: bool) -> tuple[np.ndarray, np.ndarray]:
    a1, a2, a3, a4 = _tangent_quads_hi(_coords(x), "h")
    if anchor_variant:
        b1 = (-a1 - a2 + a3 + a4) / SQ2
        b2 = (a1 + a2 + a3 + a4) / (2.0 * SQ2)
        b3 = (-a1 + a2 - a3 + a4) / SQ2
        b4 = (-a1 + a2 + a3 - a4) / (2.0 * SQ2)
        frame = _columns(b1, b2, b3, b4)
    else:
        frame = _columns(-a1 + a4, a2, -a2 + a3, a1)
    return frame, _dsum(_j(-1.0, 2), _j(-1.0, 2))


def _frame_i(x: np.ndarray, anchor_variant: bool) -> tuple[np.ndarray, np.ndarray]:
    a1, a2, a3, a4 = _tangent_quads_hi(_coords(x), "i")
    if anchor_variant:
        frame = _columns(-a1 + a3, (a1 + a3) / 2.0, -a2 + a4, (a2 + a4) / 2.0)
    else:
        frame = _columns(-a1 + a3, a1, -a2 + a4, a2)
    return frame, _dsum(_j(-1.0, 2), _j(-1.0, 2))


_EXPLICIT_FRAMES = {
    "b": lambda x, anchor_variant: _frame_b(x),
    "c": lambda x, anchor_variant: _frame_c(x),
    "d": lambda x, anchor_variant: _frame_d(x),
    "g": lambda x, anchor_variant: _frame_g(x),
    "h": _frame_h,
    "i": _frame_i,
}


def _sphere_shapes(ls: _LevelSet, x: np.ndarray, phi, jac: np.ndarray) -> np.ndarray:
    """Shape matrices of a sphere-variant level set in the coordinate frames
    jac, at a point or a stack, with each check of
    spaceform.sphere_shape_operator once per point; phi is <grad, grad>.  The
    free rows of a coordinate frame are the identity, so a tangent vector's
    coordinates in it are its free rows, where sphere_shape_operator takes
    an lstsq."""
    tol = default_tol()
    op, _delta = sphere_level_operator(ls.f, x, phi, tol)
    image = op @ jac
    shape = image[..., ls.free, :]
    check_invariant(jac, shape, image, tol)
    return shape


def _level_jacobian(example_id: str, stack: np.ndarray, shape: tuple) -> np.ndarray:
    return _coordinate_tangent_frame(example_id, stack).reshape(shape)


def _evaluate_level(example_id: str, p: np.ndarray, anchor_variant: bool) -> FrameData:
    """Frame data of a level-set entry at a chart point (m,) or a stack of
    them (k, m): one chart solve, one gradient per point, each check once per
    point.  The formulas take the ambient point (n,) or the stack (k, n)."""
    ls = _level_set(example_id)
    f = ls.f
    stack = _level_chart(example_id, np.atleast_2d(p))
    x = stack if p.ndim == 2 else stack[0]
    grad = quadric_gradient(f, x)
    phi = ambient_inner(grad, grad, f.s)
    if (np.abs(phi) < 1e-12).any():
        raise DomainError("level value is not regular at this point")
    norm = np.sqrt(np.abs(phi))
    xi = grad / (norm if x.ndim == 1 else norm[:, None])
    nu = (phi > 0) * 2 - 1  # the sign of <xi, xi> = phi / |phi|
    jac = functools.partial(_level_jacobian, example_id, stack, x.shape + (-1,))
    if example_id in _EXPLICIT_FRAMES:
        frame, shape = _EXPLICIT_FRAMES[example_id](x, anchor_variant)
        shape = _batch(shape, x)
    else:
        jac = frame = jac()
        if example_id == "a":
            shape = _batch(np.eye(4), x)
        else:  # e, f, j: diagonalizable, no displayed frame
            shape = _sphere_shapes(ls, x, phi, frame)
    return FrameData(
        point=x,
        frame=frame,
        normal=xi,
        shape=shape,
        gram=_frame_gram(frame, f.s),
        nu=nu if x.ndim == 2 else int(nu),
        _jacobian=jac,
    )


# ---------------------------------------------------------------------------
# parametrized entries


def _check_a(a: float) -> None:
    if not (np.isfinite(a) and a != 0):
        raise DomainError(f"a must be finite and nonzero, got {a}")


_A01 = (np.array([1.0, 1.0, 0.0]) / SQ2, np.array([1.0, -1.0, 0.0]) / SQ2)


def _chart_01(p: np.ndarray) -> np.ndarray:
    u, v = _coords(p)
    a1, a2 = _A01
    return u * a1 + v * a2 - np.sin(v) * np.array([0.0, 0.0, 1.0])


def _jacobian_01(p: np.ndarray) -> np.ndarray:
    jac = np.empty(p.shape[:-1] + (3, 2))
    jac[..., 0], jac[..., 1] = _A01
    jac[..., 2, 1] -= np.cos(p[..., 1])
    return jac


def _evaluate_01(p: np.ndarray) -> FrameData:
    u, v = _coords(p)
    frame = _jacobian_01(p)
    xi = _vec(v, np.cos(v) / SQ2, np.cos(v) / SQ2, -1.0)
    shape = np.zeros(p.shape[:-1] + (2, 2))
    shape[..., 0, 1] = np.sin(p[..., 1])
    return FrameData(
        point=_chart_01(p), frame=frame, normal=xi, shape=shape,
        gram=_frame_gram(frame, 1), nu=_nu_plus(p), _jacobian=frame,
    )


_A02 = np.array(
    [(_e(1) + _e(3)) / SQ2, (_e(1) - _e(3)) / SQ2, (_e(2) + _e(4)) / SQ2, (_e(2) - _e(4)) / SQ2]
).T


def _chart_02(p: np.ndarray) -> np.ndarray:
    x, y, z, w = _coords(p)
    a1, a2, a3, a4 = _A02.T
    return x * a1 + y * a2 + z * a3 + w * a4 + (y * y / 2.0 - np.sin(w)) * _e(5)


def _jacobian_02(p: np.ndarray) -> np.ndarray:
    jac = np.empty(p.shape[:-1] + (5, 4))
    jac[...] = _A02
    jac[..., 4, 1] += p[..., 1]
    jac[..., 4, 3] -= np.cos(p[..., 3])
    return jac


def _evaluate_02(p: np.ndarray) -> FrameData:
    x, y, z, w = _coords(p)
    frame = _jacobian_02(p)
    xi = _vec(y, -y / SQ2, np.cos(w) / SQ2, -y / SQ2, np.cos(w) / SQ2, -1.0)
    shape = np.zeros(p.shape[:-1] + (4, 4))
    shape[..., 0, 1] = 1.0
    shape[..., 2, 3] = np.sin(p[..., 3])
    return FrameData(
        point=_chart_02(p), frame=frame, normal=xi, shape=shape,
        gram=_frame_gram(frame, 2), nu=_nu_plus(p), _jacobian=frame,
    )


def _data_k():
    def X(s):
        q = SQ2 * (s * s + 6) / 8
        return _vec(s, q + 0.5, SQ2 / 2, q - SQ2 + 0.5, -SQ2 / 2 * s, 1 + SQ2 / 2)

    def Y(s):
        q = SQ2 * (s * s + 6) / 8
        return _vec(s, q - 0.5, SQ2 / 2, q - SQ2 - 0.5, -SQ2 / 2 * s, 1 - SQ2 / 2)

    def Yp(s):
        return _vec(s, SQ2 * s / 4, 0.0, SQ2 * s / 4, -SQ2 / 2, 0.0)

    def Z(s):
        return _vec(s, s / 2, 0.0, s / 2, -1.0, 0.0)

    Zp = np.array([0.5, 0.0, 0.5, 0.0, 0.0])
    V = np.array([0.5, -1.0, 0.5, 0.0, 0.0])

    def C(s):
        return _vec(s, s * s / 4 + 1, 1.0, s * s / 4 - 1, -s, SQ2)

    def Cp(s):
        return _vec(s, s / 2, 0.0, s / 2, -1.0, 0.0)

    def xint(s):
        cubic = SQ2 * (s**3 / 3 + 6 * s) / 8
        return _vec(
            s, cubic + s / 2, SQ2 / 2 * s, cubic - SQ2 * s + s / 2, -SQ2 / 4 * s * s,
            (1 + SQ2 / 2) * s,
        )

    return X, Y, Yp, Z, Zp, V, C, Cp, xint


def _chart_k(p: np.ndarray, a: float) -> np.ndarray:
    _check_a(a)
    s, u, z, v = _coords(p)
    X, Y, _Yp, Z, _Zp, V, C, _Cp, xint = _data_k()
    root = np.sqrt(1 + a * a * v * v)
    return xint(s) + u * Y(s) + z * Z(s) + v * V + (1 - root) / a * C(s)


def _jacobian_k(p: np.ndarray, a: float) -> np.ndarray:
    _check_a(a)
    s, u, z, v = _coords(p)
    X, Y, Yp, Z, Zp, V, C, Cp, _xint = _data_k()
    root = np.sqrt(1 + a * a * v * v)
    df_s = X(s) + u * Yp(s) + z * Zp + (1 - root) / a * Cp(s)
    df_v = V - (a * v / root) * C(s)
    return np.stack([df_s, Y(s), Z(s), df_v], axis=-1)


def _evaluate_k(p: np.ndarray, a: float) -> FrameData:
    s, u, z, v = _coords(p)
    if (abs(z + SQ2) <= 1e-9).any():
        raise DomainError("point violates the chart condition z + sqrt(2) != 0")
    jac = _jacobian_k(p, a)
    df_s, df_u, df_z, df_v = jac.transpose(-1, *range(jac.ndim - 1))
    _X, Y, _Yp, _Z, _Zp, V, C, _Cp, _xint = _data_k()
    root = np.sqrt(1 + a * a * v * v)
    b1 = df_u
    b2 = (z + SQ2) ** 2 / (2 * root) * df_z
    b3 = -((z + SQ2) ** 3) / (2 * SQ2 * root * root) * df_s
    b4 = SQ2 * a * z * v / ((z + SQ2) * root) * df_u + df_v
    frame = _columns(b1, b2, b3, b4)
    xi = -SQ2 * z / (z + SQ2) * root * Y(s) - a * v * V + root * C(s)
    shape = _batch(_dsum(_j(0.0, 3), np.array([[a]])), p)
    return FrameData(
        point=_chart_k(p, a), frame=frame, normal=xi, shape=shape,
        gram=_frame_gram(frame, 2), nu=_nu_plus(p), _jacobian=jac,
    )


def _data_l():
    def X(s):
        q = SQ2 * (s * s + 2) / 8
        return _vec(s, q - SQ2, SQ2 / 2 * s, q, SQ2 / 2, SQ2 / 2)

    def Y(s):
        q = SQ2 * (s * s + 2) / 8
        return _vec(s, -q + SQ2, -SQ2 / 2 * s, -q, -SQ2 / 2, SQ2 / 2)

    def Yp(s):
        return _vec(s, -SQ2 * s / 4, -SQ2 / 2, -SQ2 * s / 4, 0.0, 0.0)

    def Z(s):
        return _vec(s, s / 2, 1.0, s / 2, 0.0, 0.0)

    Zp = np.array([0.5, 0.0, 0.5, 0.0, 0.0])
    V = np.array([0.5, 0.0, 0.5, -1.0, 0.0])

    def C(s):
        return _vec(s, s * s / 4 - 1, s, s * s / 4 + 1, 1.0, 0.0)

    def Cp(s):
        return _vec(s, s / 2, 1.0, s / 2, 0.0, 0.0)

    def xint(s):
        cubic = SQ2 * (s**3 / 3 + 2 * s) / 8
        return _vec(s, cubic - SQ2 * s, SQ2 / 4 * s * s, cubic, SQ2 / 2 * s, SQ2 / 2 * s)

    return X, Y, Yp, Z, Zp, V, C, Cp, xint


def _root_l(v: np.ndarray, a: float) -> np.ndarray:
    """sqrt(1 - a^2 v^2), defined on the chart |a v| < 1 of entry l."""
    _check_a(a)
    if not (np.abs(a * v) < 1.0).all():
        raise DomainError("point violates the chart condition |v| < 1/|a|")
    return np.sqrt(1 - a * a * v * v)


def _chart_l(p: np.ndarray, a: float) -> np.ndarray:
    s, u, z, v = _coords(p)
    X, Y, _Yp, Z, _Zp, V, C, _Cp, xint = _data_l()
    root = _root_l(v, a)
    return xint(s) + u * Y(s) + z * Z(s) + v * V + (1 - root) / a * C(s)


def _jacobian_l(p: np.ndarray, a: float) -> np.ndarray:
    s, u, z, v = _coords(p)
    X, Y, Yp, Z, Zp, V, C, Cp, _xint = _data_l()
    root = _root_l(v, a)
    df_s = X(s) + u * Yp(s) + z * Zp + (1 - root) / a * Cp(s)
    df_v = V + (a * v / root) * C(s)
    return np.stack([df_s, Y(s), Z(s), df_v], axis=-1)


def _evaluate_l(p: np.ndarray, a: float) -> FrameData:
    s, u, z, v = _coords(p)
    if (abs(z - SQ2) <= 1e-9).any():
        raise DomainError("point violates the chart condition z - sqrt(2) != 0")
    jac = _jacobian_l(p, a)
    df_s, df_u, df_z, df_v = jac.transpose(-1, *range(jac.ndim - 1))
    _X, Y, _Yp, _Z, _Zp, V, C, _Cp, _xint = _data_l()
    root = _root_l(v, a)
    b1 = df_u
    b2 = (z - SQ2) ** 2 / (2 * root) * df_z
    b3 = (z - SQ2) ** 3 / (2 * SQ2 * root * root) * df_s
    b4 = SQ2 * a * z * v / ((z - SQ2) * root) * df_u + df_v
    frame = _columns(b1, b2, b3, b4)
    xi = SQ2 * z / (z - SQ2) * root * Y(s) - a * v * V + root * C(s)
    shape = _batch(_dsum(_j(0.0, 3), np.array([[a]])), p)
    return FrameData(
        point=_chart_l(p, a), frame=frame, normal=xi, shape=shape,
        gram=_frame_gram(frame, 2), nu=_nu_plus(p), _jacobian=jac,
    )


def _data_m():
    X = np.array([0.0, -1.0, 0.0, 0.0, 1.0])
    Z = np.array([1.0, 0.0, 1.0, 0.0, 0.0])

    def Y(u):
        return _vec(u, u, -1.0, u, 1.0, 0.0)

    def W(u):
        return 0.5 * _vec(u, u * u + 1, 0.0, u * u - 1, 2 * u, 0.0)

    def Wp(u):
        return _vec(u, u, 0.0, u, 1.0, 0.0)

    def C(u):
        return _vec(u, -u, 1.0, -u, -1.0, -1.0)

    Cp = np.array([-1.0, 0.0, -1.0, 0.0, 0.0])

    def yint(u):
        return _vec(u, u * u / 2, -u, u * u / 2, u, 0.0)

    return X, Y, Z, W, Wp, C, Cp, yint


def _chart_m(p: np.ndarray) -> np.ndarray:
    s, w, z, u = _coords(p)
    X, Y, Z, W, _Wp, C, _Cp, yint = _data_m()
    return s * X + w * W(u) + z * Z - z * z / 2.0 * C(u) + yint(u)


def _jacobian_m(p: np.ndarray) -> np.ndarray:
    s, w, z, u = _coords(p)
    X, Y, Z, W, Wp, C, Cp, _yint = _data_m()
    df_w = W(u)
    df_z = Z - z * C(u)
    df_u = w * Wp(u) - z * z / 2.0 * Cp + Y(u)
    return np.stack([np.broadcast_to(X, df_w.shape), df_w, df_z, df_u], axis=-1)


def _evaluate_m(p: np.ndarray) -> FrameData:
    s, w, z, u = _coords(p)
    X, _Y, _Z, W, _Wp, C, _Cp, _yint = _data_m()
    jac = _jacobian_m(p)
    df_s, df_w, df_z, df_u = jac.transpose(-1, *range(jac.ndim - 1))
    b1 = df_s
    b2 = df_w
    b3 = 1.5 * z * z * df_w + df_z
    b4 = (2.25 * z**4 + z) * df_w + 1.5 * z * z * df_z + df_u
    frame = _columns(b1, b2, b3, b4)
    xi = (-w + z**3 / 2.0) * X - z * W(u) + C(u)
    shape = _batch(_j(0.0, 4), p)
    return FrameData(
        point=_chart_m(p), frame=frame, normal=xi, shape=shape,
        gram=_frame_gram(frame, 2), nu=_nu_plus(p), _jacobian=jac,
    )


# ---------------------------------------------------------------------------
# the uniform interface

_AMBIENT = {
    "0-1": SpaceForm(3, 1, 0),
    "0-2": SpaceForm(5, 2, 0),
    "a": SpaceForm(5, 2, 0),
    "b": SpaceForm(5, 2, 0),
    "c": SpaceForm(5, 2, 0),
    "d": SpaceForm(5, 2, 0),
    "e": SpaceForm(5, 2, 1),
    "f": SpaceForm(5, 3, 1),
    "g": SpaceForm(5, 3, 1),
    "h": SpaceForm(5, 3, 1),
    "i": SpaceForm(5, 3, 1),
    "j": SpaceForm(5, 3, 1),
    "k": SpaceForm(5, 2, 0),
    "l": SpaceForm(5, 2, 0),
    "m": SpaceForm(5, 2, 0),
}

_PARAM_DIM = {
    "0-1": 2, "0-2": 4,
    "a": 4, "b": 4, "c": 4, "d": 4,
    "e": 4, "f": 4, "g": 4, "h": 4, "i": 4, "j": 4,
    "k": 4, "l": 4, "m": 4,
}

# fixed geometric type per entry (index 2 unless noted); the two surfaces with
# region-dependent type are handled in expected_type
_FIXED_TYPE = {
    "a": "XI", "b": "X", "c": "IX-ii", "d": "IX-i",
    "e": "XI", "f": "XI", "g": "X", "h": "IX-ii", "i": "IX-i",
    "j": "II", "k": "VII-ii", "l": "VII-i", "m": "VI",
}


def ambient_of(example_id: str) -> SpaceForm:
    if example_id not in _AMBIENT:
        raise DomainError(f"unknown example id {example_id!r}")
    return _AMBIENT[example_id]


def param_dim(example_id: str) -> int:
    if example_id not in _PARAM_DIM:
        raise DomainError(f"unknown example id {example_id!r}")
    return _PARAM_DIM[example_id]


def _chart_point(example_id: str, p, stack: bool = False) -> np.ndarray:
    """p as a float array of shape (m,), or (k, m) when stack is allowed."""
    p = np.asarray(p, dtype=float)
    m = param_dim(example_id)
    if p.shape != (m,) and not (stack and p.ndim == 2 and p.shape[1] == m):
        raise ShapeError(f"{example_id} takes {m} chart coordinates")
    return p


def chart(example_id: str, p, a: float = 1.0) -> np.ndarray:
    """Smooth map from chart coordinates to the ambient point."""
    p = _chart_point(example_id, p)
    if example_id == "0-1":
        return _chart_01(p)
    if example_id == "0-2":
        return _chart_02(p)
    if example_id == "k":
        return _chart_k(p, a)
    if example_id == "l":
        return _chart_l(p, a)
    if example_id == "m":
        return _chart_m(p)
    return _level_chart(example_id, p[None])[0]


def evaluate(
    example_id: str, p, a: float = 1.0, anchor_variant: bool = False
) -> FrameData:
    """Frame, normal, shape, Gram and chart Jacobian at the chart point p of
    shape (m,), or at each row of a stack of shape (k, m), where every field
    gains a leading axis of length k.  A stack is solved in one pass: one
    chart solve, and on entries e, f and j one shape computation.

    For entries "h" and "i", anchor_variant=True selects the special basis
    displayed at the anchor point, whose Gram is a signed anti-diagonal; the
    other entries have no such basis and raise DomainError.
    """
    p = _chart_point(example_id, p, stack=True)
    if anchor_variant and example_id not in ("h", "i"):
        raise DomainError("anchor_variant exists only for entries h and i")
    if example_id == "0-1":
        return _evaluate_01(p)
    if example_id == "0-2":
        return _evaluate_02(p)
    if example_id == "k":
        return _evaluate_k(p, a)
    if example_id == "l":
        return _evaluate_l(p, a)
    if example_id == "m":
        return _evaluate_m(p)
    return _evaluate_level(example_id, p, anchor_variant)


def chart_jacobian(example_id: str, p, a: float = 1.0) -> np.ndarray:
    """Exact ambient partial derivatives of the chart, one column per chart
    coordinate: shape (n, m) at a point p of shape (m,), and (k, n, m) at a
    stack of k points of shape (k, m)."""
    p = _chart_point(example_id, p, stack=True)
    if example_id == "0-1":
        return _jacobian_01(p)
    if example_id == "0-2":
        return _jacobian_02(p)
    if example_id == "k":
        return _jacobian_k(p, a)
    if example_id == "l":
        return _jacobian_l(p, a)
    if example_id == "m":
        return _jacobian_m(p)
    jac = _coordinate_tangent_frame(example_id, _level_chart(example_id, np.atleast_2d(p)))
    return jac if p.ndim == 2 else jac[0]


def expected_type(example_id: str, p=None) -> GeometricType:
    """The stated geometric type; for "0-1"/"0-2" it depends on the point."""
    if example_id in _FIXED_TYPE:
        return GeometricType(2, _FIXED_TYPE[example_id])
    if example_id == "0-1":
        if p is None:
            raise DomainError("entry 0-1 has a point-dependent type")
        v = float(np.asarray(p, dtype=float)[1])
        if abs(np.sin(v)) < 1e-12:
            return GeometricType(1, "I")
        return GeometricType(1, "II")
    if example_id == "0-2":
        if p is None:
            raise DomainError("entry 0-2 has a point-dependent type")
        w = float(np.asarray(p, dtype=float)[3])
        if abs(np.sin(w)) < 1e-12:
            return GeometricType(2, "X")
        if np.sin(w) > 0:
            return GeometricType(2, "IX-i")
        return GeometricType(2, "IX-ii")
    raise DomainError(f"unknown example id {example_id!r}")


def expected_algebraic_epsilon(example_id: str, p) -> int | None:
    """The stated sign for the region-dependent entries, where defined."""
    if example_id == "0-1":
        v = float(np.asarray(p, dtype=float)[1])
        sv = np.sin(v)
        if abs(sv) < 1e-12:
            return None
        return -1 if sv > 0 else 1
    raise DomainError(f"{example_id} has no stated region-dependent sign")


def sample_domain(example_id: str, n: int, seed: int = 0, a: float = 1.0):
    """Deterministic chart points; the region-partitioned entries cycle
    through all their regions."""
    if n < 1:
        raise DomainError("need at least one sample")
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        k = len(out)
        if example_id == "0-1":
            u = rng.uniform(-1.0, 1.0)
            region = k % 3
            if region == 0:
                v = np.pi * rng.integers(-2, 3)
            elif region == 1:
                v = rng.uniform(0.15, np.pi - 0.15)
            else:
                v = rng.uniform(np.pi + 0.15, 2 * np.pi - 0.15)
            out.append(np.array([u, float(v)]))
            continue
        if example_id == "0-2":
            xyz = rng.uniform(-1.0, 1.0, size=3)
            region = k % 3
            if region == 0:
                w = np.pi * rng.integers(-2, 3)
            elif region == 1:
                w = rng.uniform(0.15, np.pi - 0.15)
            else:
                w = rng.uniform(np.pi + 0.15, 2 * np.pi - 0.15)
            out.append(np.array([*xyz, float(w)]))
            continue
        if example_id in ("k", "l", "m"):
            p = rng.uniform(-0.8, 0.8, size=4)
            if example_id == "l":
                p[3] = rng.uniform(-0.8, 0.8) / max(abs(a), 1.0)
                if not abs(a * p[3]) < 1.0:
                    continue
            out.append(p)
            continue
        if example_id in _ANCHOR:
            anchor, pivots = _ANCHOR[example_id]
            free = [i for i in range(anchor.shape[0]) if i not in pivots]
            q = anchor[free] + rng.uniform(-0.2, 0.2, size=len(free))
            try:
                x = _level_chart(example_id, q[None])[0]
                _check_domain(example_id, x, margin=5e-2)
            except DomainError:
                continue
            out.append(q)
            continue
        raise DomainError(f"unknown example id {example_id!r}")
    return out


def catalog_summary() -> list[dict]:
    """One row per entry for the CLI listing."""
    rows = []
    for ex_id in EXAMPLE_IDS:
        amb = _AMBIENT[ex_id]
        kind = {0: "flat", 1: "sphere"}[amb.curvature]
        if ex_id in _FIXED_TYPE:
            expected = f"{_FIXED_TYPE[ex_id]} (index 2)"
        elif ex_id == "0-1":
            expected = "I or II by region (index 1)"
        else:
            expected = "X, IX-i, or IX-ii by region (index 2)"
        rows.append(
            {
                "id": ex_id,
                "ambient": f"{kind} dim {amb.dim} index {amb.index}",
                "expected_type": expected,
            }
        )
    return rows

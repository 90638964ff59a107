"""Catalog of isoparametric hypersurface examples in pseudo-Riemannian space forms.

Fifteen entries behind one interface: two low-index surfaces whose type varies
over the surface ("0-1", "0-2"), ten quadric level sets ("a"-"j"), and three
explicitly parametrized index-2 hypersurfaces ("k", "l", "m").  Each entry
has a smooth chart p -> ambient point, its exact Jacobian, and frame data:
tangent frame, unit normal, shape matrix in the frame and frame Gram.
evaluate and chart_jacobian take one chart point (m,) or a stack (k, m),
solved at once by the same code, and a row of a stack equals its point's
result bit for bit: every operation on a row rounds as it would alone
(integer powers are written as products, since numpy rounds an array's
x ** 3 and a number's differently).  They refuse results that are not
finite.  sample_domain asks an
entry's sampler for all n points at once: a level set draws its candidates
as one block and solves them in one chart call, keeping those that hold
every chart condition by a margin, in draw order.

Everything known about an entry is one _Entry record in _REGISTRY, and the
public functions only look the id up there.  To add an entry, add one record
(its place there is its place in EXAMPLE_IDS), built by _level_entry for a
quadric level set (the quadric's arguments, an anchor point, the pivot
coordinates the chart solves for, and optionally a displayed moving frame)
or by _closed_entry for closed formulas (chart, Jacobian, frame data and a
sampler).  A level set is one _LevelSet record, kept in its entry: its
chart, Jacobian, frame data and sampler are its methods, and it builds its
quadric, gated by admissibility_check, and its chart constants on first use
and caches them on itself, so no cache outlives the record.  A sphere level
set (e-j) solves its chart by a Newton in its two pivot coordinates, on
coefficients formed once per call from the blocks of the quadric's G P, each
step elementwise with the closed-form inverse of the 2x2 Jacobian; one point
is solved on Python floats, its stop and singularity tests included, and a
NaN residual keeps a row moving, in a stack as at one point.  The quadric's
geometry (G, f, the constraint differentials with their unit-sphere check,
and the one regularity rule) lives in spaceform; a record keeps only what
belongs to its chart.  evaluate forms the differentials once at the solved
points, reads the gradient, <grad, grad> and the coordinate frame from them,
and checks its fields finite in one pass.  The curves in
the formulas of k, l and m are coefficient tables, each written once, with
their derivatives and integrals derived; one evaluate, chart or
chart_jacobian call evaluates all tables of the entry once, side by side.
"""

from __future__ import annotations

import collections
import functools
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg
from .linalg import DomainError, ShapeError, default_tol
from .petrov import GeometricType
from .spaceform import (
    QuadricFunction,
    SpaceForm,
    admissibility_check,
    ambient_inner,
    causal_sign,
    check_invariant,
    inner_matrix,
    level_operator,
)

SQ2 = np.sqrt(2.0)
_ADJ_SIGNS = np.array([[-1.0, 1.0], [1.0, -1.0]])


@dataclass(frozen=True)
class FrameData:
    """Everything measured at one point: frame columns are tangent vectors.

    At a stack of k points every field has a leading axis of length k, and
    nu is an integer array."""

    point: np.ndarray
    frame: np.ndarray
    normal: np.ndarray
    shape: np.ndarray
    gram: np.ndarray
    nu: int | np.ndarray
    # the chart Jacobian, or a function that computes it on first use: on the
    # entries with an explicit frame it costs a solve that classification
    # never needs
    _jacobian: np.ndarray | Callable[[], np.ndarray] = field(repr=False, compare=False)

    @functools.cached_property
    def jacobian(self) -> np.ndarray:
        """Exact partial derivatives of the chart at the point(s), one column
        per chart coordinate, from the same chart solve as the frame."""
        jac = self._jacobian
        return jac() if callable(jac) else jac


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
    return frame.swapaxes(-1, -2) @ inner_matrix(frame.shape[-2], s) @ frame


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
    """A copy of a constant matrix, repeated along the stack axis of p if it
    has one."""
    return mat.copy() if p.ndim == 1 else np.repeat(mat[None], p.shape[0], axis=0)


class _Entry(NamedTuple):
    """One catalog entry.  chart(p, a), jacobian(p, a) and evaluate(p, a,
    anchor_variant) take chart points checked by _chart_point;
    sample(rng, n, a) returns the first n chart points the entry accepts
    from rng.  expected is the GeometricType or a function of the chart
    point, summary its text in the listing.  level is the record of a
    quadric level set, whose bound methods are chart, jacobian, evaluate and
    sample."""

    id: str
    ambient: SpaceForm
    param_dim: int
    chart: Callable
    jacobian: Callable
    evaluate: Callable
    sample: Callable
    expected: GeometricType | Callable[[np.ndarray], GeometricType]
    summary: str
    anchor_variant: bool = False
    level: _LevelSet | None = None


# ---------------------------------------------------------------------------
# quadric level sets


@dataclass(frozen=True, eq=False)
class _LevelSet:
    """A level set of the quadric QuadricFunction(*quadric): all of its data,
    and its chart, frame data and sampler as methods.

    The chart fixes the free coordinates of anchor, solves for the pivot
    coordinates and checks clauses, (name, the name of its tolerance in
    linalg's table, linear form in the ambient point).  frame(x,
    anchor_variant) is a displayed moving frame in the coordinates x of the
    ambient point(s), else the frame is the coordinate frame; shape is the
    constant shape matrix in the frame, or None to compute it from a sphere
    quadric.  The quadric and the chart constants are built on first use and
    cached on the record itself."""

    id: str
    quadric: tuple
    anchor: np.ndarray
    pivots: tuple[int, ...]
    frame: Callable | None = None
    shape: np.ndarray | None = None
    clauses: tuple = ()

    @functools.cached_property
    def f(self) -> QuadricFunction:
        """The defining quadric; its P and p are read-only.  A quadric that
        admissibility_check refuses raises DomainError, since admissibility
        makes |grad f|^2 a function of f: 4(af + b - f^2) on the sphere with
        P^2 = aP + bE, 4(rho f + <p, p>) for P = rho E, 4<p, p> for P^2 = O,
        Pp = 0."""
        f = QuadricFunction(*self.quadric)
        ok, reason = admissibility_check(f)
        if not ok:
            raise DomainError(f"the quadric of {self.id} is not admissible: {reason}")
        return f

    @functools.cached_property
    def free(self) -> list[int]:
        return [i for i in range(self.anchor.shape[0]) if i not in self.pivots]

    @functools.cached_property
    def pivot_form(self) -> tuple:
        """The two constraints of a sphere-variant chart in its pivot
        coordinates y = (y0, y1), the free coordinates u held fixed.  With s
        the diagonal of G and M = G P, which is symmetric,
            <x, x> - 1  = s0 y0^2 + s1 y1^2 + (<u, u> - 1),
            <Px, x> - c = y^T M_pp y + 2 l.y + (u^T M_ff u - c),  l = M_pf u.
        Returns the terms of <u, u> as (column of u, sign), the nonzero terms
        of u^T M_ff u over its upper triangle as (column, column,
        coefficient), the nonzero terms of l0 and of l1 as (column,
        coefficient), then (s0, s1) and (M_00, M_01, M_11)."""
        f = self.f
        m = f.gpt.T
        free, (i, j) = self.free, self.pivots
        cols = range(len(free))
        quad = tuple(
            (a, b, float(m[free[a], free[b]]) * (1 if a == b else 2))
            for a in cols for b in cols[a:] if m[free[a], free[b]] != 0
        )
        lin = tuple(
            tuple((a, float(m[row, free[a]])) for a in cols if m[row, free[a]] != 0)
            for row in (i, j)
        )
        signs = tuple((a, float(f.sign[free[a]])) for a in cols)
        pivots = (float(f.sign[i]), float(f.sign[j]))
        return signs, quad, lin, pivots, (float(m[i, i]), float(m[i, j]), float(m[j, j]))

    @functools.cached_property
    def free_rows(self) -> np.ndarray:
        """(n, m): the identity in the free rows, zero in the pivot rows."""
        rows = np.zeros((self.anchor.shape[0], len(self.free)))
        rows[self.free, range(len(self.free))] = 1.0
        return rows

    def failures(self, x: np.ndarray, margin: float = 0.0) -> np.ndarray:
        """Which points of the stack x, (k, n), fail which chart condition, one
        row per clause, (clauses, k): a point fails a clause unless it holds by
        more than the clause's tolerance, the linalg table entry it names read
        when called, or the margin, whichever is larger."""
        return np.array(
            [np.abs(x @ coef) <= max(getattr(linalg, tol), margin)
             for _name, tol, coef in self.clauses],
            dtype=bool,
        ).reshape(len(self.clauses), len(x))

    def chart(self, q: np.ndarray, a: float = 1.0) -> np.ndarray:
        """The ambient point at a chart point, (m,) -> (n,), or at each row of
        a stack, (k, m) -> (k, n): q fills the free coordinates, the pivot
        coordinates are solved from the defining constraints, and every point
        must hold each chart condition by more than its tolerance."""
        f = self.f
        x = np.tile(self.anchor, (np.atleast_2d(q).shape[0], 1))
        x[:, self.free] = q
        if f.variant == "flat":
            i = self.pivots[0]
            if f.gpv[i] == 0:
                # no linear term in the pivot: the level set is the unit sphere
                # <x, x>_2 = 1 of entry a, solved for the pivot (positive branch)
                rest = (f.sign * x * x).sum(axis=1) - x[:, i] * x[:, i]
                if not (1.0 - rest > 0).all():
                    raise DomainError("point leaves the chart of the unit sphere")
                x[:, i] = np.sqrt(1.0 - rest)
            else:
                # the pivot coordinate enters only through the linear term
                x[:, i] = 0.0
                x[:, i] = (f.c - f.value_rows(x)) / 2.0
            return x if q.ndim == 2 else x[0]
        # sphere variant: the two pivot coordinates from one Newton solve
        x[:, self.pivots[0]], x[:, self.pivots[1]] = self.solve_pivots(np.atleast_2d(q))
        # on h and i the solve is singular where the chart condition fails, and
        # a row there stops short of it with a finite but meaningless point
        for (name, _tol, _coef), failed in zip(self.clauses, self.failures(x)):
            if failed.any():
                raise DomainError(f"point violates the chart condition {name}")
        return x if q.ndim == 2 else x[0]

    def solve_pivots(self, u: np.ndarray) -> tuple:
        """The pivot coordinates (y0, y1) of the sphere-variant points with
        free coordinates u, (k, m): a Newton solve of <x, x> = 1 and
        <Px, x> = c from the anchor's pivots, in the coefficients of
        pivot_form, with the 2x2 Jacobian inverted in closed form.  A stack
        is solved on (k,) vectors, elementwise, and one point on Python
        floats, which round each operation alike, so a row's result does not
        depend on the stack.  A row stops moving once both residuals are
        below linalg.NEWTON_STOP, and a NaN residual keeps it moving.  One
        point takes its stop and singularity tests on Python floats too:
        abs(r0) < stop and abs(r1) < stop is False for a NaN in either
        place, as the stacked test on np.maximum is."""
        signs, quad, (lin0, lin1), (s0, s1), (m00, m01, m11) = self.pivot_form
        one = len(u) == 1
        col = u[0].tolist() if one else u.T
        # each constant term last, where large terms that cancel lose least
        a0 = sum(s * col[i] * col[i] for i, s in signs) - 1.0
        a1 = sum(q * col[i] * col[j] for i, j, q in quad) - self.f.c
        l0, l1 = (sum((q * col[i] for i, q in lin), 0.0) for lin in (lin0, lin1))
        y0, y1 = (float(self.anchor[i]) if one else np.full(len(u), self.anchor[i])
                  for i in self.pivots)
        stop = linalg.NEWTON_STOP
        for _ in range(60):
            # half the Jacobian, [[j0, j1], [g0, g1]]: g is G P x at the pivots
            j0, j1 = s0 * y0, s1 * y1
            g0 = l0 + m00 * y0 + m01 * y1
            g1 = l1 + m01 * y0 + m11 * y1
            r0 = a0 + y0 * j0 + y1 * j1
            r1 = a1 + y0 * (l0 + g0) + y1 * (l1 + g1)
            det = j0 * g1 - j1 * g0
            if one:
                # not max(abs(r0), abs(r1)) < stop: max drops a NaN in second place
                if abs(r0) < stop and abs(r1) < stop:
                    return y0, y1
                singular = det == 0
            else:
                moving = ~(np.maximum(abs(r0), abs(r1)) < stop)
                if not moving.any():
                    return y0, y1
                singular = (moving & (det == 0)).any()
            if singular:
                raise DomainError("chart solver met a singular Jacobian at this point")
            # a row that has stopped takes a step of zero
            half = 0.5 / det if one else np.divide(0.5, det, np.zeros_like(det), where=moving)
            y0 -= (g1 * r0 - j1 * r1) * half
            y1 -= (j0 * r1 - g0 * r0) * half
        raise DomainError("chart solver did not converge; point too far out")

    def coordinate_frame(self, d: np.ndarray, stacked: bool = True) -> np.ndarray:
        """The smooth tangent frame, (k, n, m), from the constraint
        differentials d, (k, c, n), or its one matrix (n, m) where stacked is
        false: one column per free coordinate, corrected in the pivot
        coordinates so that every differential vanishes on it, by the
        closed-form inverse of the 1x1 or 2x2 pivot block.  It is the chart
        Jacobian."""
        piv, rest = d[:, :, self.pivots], d[:, :, self.free]
        if len(self.pivots) == 1:
            det = piv[:, 0]
            # times the reciprocal, which rounds as LAPACK's 1x1 solve does
            corr = -rest * (1.0 / det[:, :, None])
        else:
            det = piv[:, 0, 0] * piv[:, 1, 1] - piv[:, 0, 1] * piv[:, 1, 0]
            # minus the adjugate, [[-a11, a01], [a10, -a00]], times the rest
            corr = (piv.transpose(0, 2, 1)[:, ::-1, ::-1] * _ADJ_SIGNS) @ rest / det[:, None, None]
        if (det == 0).any():
            raise DomainError("constraint differentials are singular at this point")
        frame = np.empty((d.shape[0],) + self.free_rows.shape)
        frame[:] = self.free_rows
        frame[:, self.pivots] = corr
        return frame if stacked else frame[0]

    def jacobian(self, p: np.ndarray, a: float = 1.0) -> np.ndarray:
        """The chart Jacobian at a chart point (m,) or a stack (k, m): the
        coordinate frame at its level-set point(s)."""
        x = self.chart(p)
        return self.coordinate_frame(self.f.differentials(np.atleast_2d(x)), x.ndim == 2)

    def evaluate(self, p: np.ndarray, a: float, anchor_variant: bool) -> FrameData:
        """Frame data at a chart point (m,) or a stack of them (k, m): one chart
        solve, then one pass of the quadric's differentials, from which the
        gradient, <grad, grad> and the coordinate frame are read; each check
        once per point, the regularity of the level by causal_sign.  The
        formulas take the ambient point (n,) or the stack (k, n).  On e, f and
        j the shape is sphere_shape_operator's, with its checks, in the
        coordinate frame, whose free rows are the identity: a tangent vector's
        coordinates are its free rows, where sphere_shape_operator takes an
        lstsq."""
        f, tol = self.f, default_tol()
        x = self.chart(p)
        d = f.differentials(np.atleast_2d(x), tol)
        grad = 2.0 * f.sign * d[:, -1]
        phi = ambient_inner(grad, grad, f.s)
        if x.ndim == 1:
            grad, phi = grad[0], phi[0]
        nu = causal_sign(phi, tol)  # the sign of <xi, xi> = phi / |phi|
        norm = np.sqrt(np.abs(phi))
        xi = grad / (norm if x.ndim == 1 else norm[:, None])
        jac = functools.partial(self.coordinate_frame, d, x.ndim == 2)
        if self.frame is None:
            jac = frame = jac()
        else:
            frame = self.frame(_coords(x), anchor_variant)
        if self.shape is None:  # e, f, j: diagonalizable, no displayed frame
            image = level_operator(f, f.value_rows(np.atleast_2d(x)), nu, tol) @ frame
            shape = image[..., self.free, :]
            check_invariant(frame, shape, image, tol)
        else:
            shape = _batch(self.shape, x)
        return FrameData(point=x, frame=frame, normal=xi, shape=shape,
                         gram=_frame_gram(frame, f.s), nu=nu, _jacobian=jac)

    def sample(self, rng, n: int, a: float = 1.0) -> list[np.ndarray]:
        """The first n accepted candidates, in draw order: free coordinates
        within 0.2 of the anchor's, accepted where the chart solves them with
        every chart condition held by more than 5e-2.  The missing candidates
        are drawn as one block, which takes the same doubles as one draw each,
        and solved in one chart call."""
        out: list[np.ndarray] = []
        while len(out) < n:
            q = self.anchor[self.free] + rng.uniform(-0.2, 0.2, size=(n - len(out), len(self.free)))
            out += list(q[self.accepted(q)])
        return out

    def accepted(self, q: np.ndarray) -> np.ndarray:
        """Which candidates of the stack q, (k, m), are samples.  Where the
        chart solve of the stack raises, each row is solved alone, so a row's
        fate does not depend on its neighbours."""
        try:
            x = self.chart(q)
        except DomainError:
            if len(q) == 1:
                return np.zeros(1, dtype=bool)
            return np.concatenate([self.accepted(row) for row in q[:, None]])
        return ~self.failures(x, margin=5e-2).any(axis=0)


def _level_entry(
    example_id: str, ambient: SpaceForm, label: str, quadric: tuple, anchor: np.ndarray,
    pivots: tuple, frame=None, shape=None, clauses=(), anchor_variant=False,
) -> _Entry:
    """A level set of fixed index-2 type label; see _LevelSet."""
    level = _LevelSet(example_id, quadric, anchor, pivots, frame, shape, clauses)
    return _Entry(
        example_id, ambient, anchor.shape[0] - len(pivots), level.chart, level.jacobian,
        level.evaluate, level.sample, GeometricType(2, label), f"{label} (index 2)",
        anchor_variant, level=level,
    )


# ---------------------------------------------------------------------------
# explicit moving frames for the quadric entries
#
# Each takes the coordinates (see _coords) of a level-set point (n,) or a
# stack (k, n) and returns the frame, (n, 4) or (k, n, 4), in which the
# entry's shape matrix is constant.

def _frame_b(x: list, anchor_variant: bool) -> np.ndarray:
    return _columns(
        _e(1) + _e(5),
        _e(1) + (-x[0] + x[4]) * _e(3),
        _e(2),
        _e(4),
    )


def _frame_c(x: list, anchor_variant: bool) -> np.ndarray:
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
    return _columns(b1, b2, b3, b4)


def _frame_d(x: list, anchor_variant: bool) -> np.ndarray:
    th1 = -_e(1) + _e(5)
    d1, d2 = x[0] + x[4], x[1] - x[2]
    th2 = _e(1) + d1 * _e(4)
    et1 = -_e(2) - _e(3)
    et2 = _e(2) + d2 * _e(4)
    th2p = th2 - d1 * d2 * et1
    b1 = th1
    b2 = th2p - 0.5 * (d1 * d1 - 1.0) * th1
    b3 = et1
    b4 = et2 - 0.5 * (d2 * d2 - 1.0) * et1
    return _columns(b1, b2, b3, b4)


def _frame_g(x: list, anchor_variant: bool) -> np.ndarray:
    d1 = x[0] + x[3]
    d2 = -x[2] + x[5]
    e = lambda i: _e(i, 6)
    a1 = -x[1] / d1 * e(1) + e(2) + x[1] / d1 * e(4)
    a2 = (-x[2] / d1 + x[3] / d2) * e(1) + e(3) + (x[2] / d1 + x[0] / d2) * e(4)
    a3 = x[4] / d1 * e(1) - x[4] / d1 * e(4) + e(5)
    a4 = (x[5] / d1 - x[3] / d2) * e(1) + (-x[5] / d1 - x[0] / d2) * e(4) + e(6)
    return _columns(a2 + a4, -(d2 / d1) * a2, a1, a3)


def _tangent_quads_hi(x: list, s1, s2, s3, s4) -> list[np.ndarray]:
    """The tangent vectors of h and i, which differ only in the sums s1-s4."""
    d = x[1] + x[4]
    d2 = d * d
    e = lambda i: _e(i, 6)
    a1 = e(1) + (-x[0] / d - x[4] * s1 / d2) * e(2) + (x[0] / d - x[1] * s1 / d2) * e(5)
    a2 = (-x[2] / d - x[4] * s2 / d2) * e(2) + e(3) + (x[2] / d - x[1] * s2 / d2) * e(5)
    a3 = (x[3] / d - x[4] * s3 / d2) * e(2) + e(4) + (-x[3] / d - x[1] * s3 / d2) * e(5)
    a4 = (x[5] / d - x[4] * s4 / d2) * e(2) + (-x[5] / d - x[1] * s4 / d2) * e(5) + e(6)
    return [a1, a2, a3, a4]


def _frame_h(x: list, anchor_variant: bool) -> np.ndarray:
    s1, s2 = x[2] + x[3], x[0] + x[5]
    a1, a2, a3, a4 = _tangent_quads_hi(x, s1, s2, s2, s1)
    if anchor_variant:
        b1 = (-a1 - a2 + a3 + a4) / SQ2
        b2 = (a1 + a2 + a3 + a4) / (2.0 * SQ2)
        b3 = (-a1 + a2 - a3 + a4) / SQ2
        b4 = (-a1 + a2 + a3 - a4) / (2.0 * SQ2)
        return _columns(b1, b2, b3, b4)
    return _columns(-a1 + a4, a2, -a2 + a3, a1)


def _frame_i(x: list, anchor_variant: bool) -> np.ndarray:
    s1, s2 = x[0] + x[3], x[2] + x[5]
    a1, a2, a3, a4 = _tangent_quads_hi(x, s1, s2, s1, s2)
    if anchor_variant:
        return _columns(-a1 + a3, (a1 + a3) / 2.0, -a2 + a4, (a2 + a4) / 2.0)
    return _columns(-a1 + a3, a1, -a2 + a4, a2)


# ---------------------------------------------------------------------------
# parametrized entries
#
# Chart, Jacobian and frame functions take the chart point (m,) or a stack
# (k, m) and the parameter a, which only entries k and l read.  A frame
# function returns the point, frame, normal, shape and Jacobian;
# _closed_frame_data adds the rest.  Entries k, l and m write each curve once,
# as a coefficient table: row i holds the coefficients of s**i, one column per
# ambient coordinate.  The derivatives and integrals in their formulas are
# derived from the tables by _der and _int, two numpy expressions.  Their
# formulas read the curves at the point, c, which _Curves evaluates once per
# call for all of them.


def _check_a(a: float) -> None:
    if not (np.isfinite(a) and a != 0):
        raise DomainError(f"a must be finite and nonzero, got {a}")


def _region(i: int, values: tuple, p: np.ndarray):
    """values[r] for the region r of the angle p[i] on entries 0-1 and 0-2:
    r = 0 where |sin p[i]| < REGION_TOL, 1 where it is positive, 2 where it
    is negative."""
    s = np.sin(float(p[i]))
    if abs(s) < linalg.REGION_TOL:
        return values[0]
    return values[1] if s > 0 else values[2]


def _sample_region(width: int, rng, i: int, a: float) -> np.ndarray:
    """Sample i of entries 0-1 and 0-2: width coordinates in (-1, 1), then an
    angle in region i % 3 (see _region), drawn 0.15 inside the open ones."""
    box = rng.uniform(-1.0, 1.0, size=width)
    region = i % 3
    if region == 0:
        angle = np.pi * rng.integers(-2, 3)
    elif region == 1:
        angle = rng.uniform(0.15, np.pi - 0.15)
    else:
        angle = rng.uniform(np.pi + 0.15, 2 * np.pi - 0.15)
    return np.array([*box, float(angle)])


_A01 = (np.array([1.0, 1.0, 0.0]) / SQ2, np.array([1.0, -1.0, 0.0]) / SQ2)


def _chart_01(p: np.ndarray, a: float) -> np.ndarray:
    u, v = _coords(p)
    a1, a2 = _A01
    return u * a1 + v * a2 - np.sin(v) * np.array([0.0, 0.0, 1.0])


def _jacobian_01(p: np.ndarray, a: float) -> np.ndarray:
    jac = np.empty(p.shape[:-1] + (3, 2))
    jac[..., 0], jac[..., 1] = _A01
    jac[..., 2, 1] -= np.cos(p[..., 1])
    return jac


def _frame_01(p: np.ndarray, a: float) -> tuple:
    _u, v = _coords(p)
    frame = _jacobian_01(p, a)
    xi = _vec(v, np.cos(v) / SQ2, np.cos(v) / SQ2, -1.0)
    shape = np.zeros(p.shape[:-1] + (2, 2))
    shape[..., 0, 1] = np.sin(p[..., 1])
    return _chart_01(p, a), frame, xi, shape, frame


_A02 = np.array(
    [(_e(1) + _e(3)) / SQ2, (_e(1) - _e(3)) / SQ2, (_e(2) + _e(4)) / SQ2, (_e(2) - _e(4)) / SQ2]
).T


def _chart_02(p: np.ndarray, a: float) -> np.ndarray:
    x, y, z, w = _coords(p)
    a1, a2, a3, a4 = _A02.T
    return x * a1 + y * a2 + z * a3 + w * a4 + (y * y / 2.0 - np.sin(w)) * _e(5)


def _jacobian_02(p: np.ndarray, a: float) -> np.ndarray:
    jac = np.empty(p.shape[:-1] + (5, 4))
    jac[...] = _A02
    jac[..., 4, 1] += p[..., 1]
    jac[..., 4, 3] -= np.cos(p[..., 3])
    return jac


def _frame_02(p: np.ndarray, a: float) -> tuple:
    _x, y, _z, w = _coords(p)
    frame = _jacobian_02(p, a)
    xi = _vec(y, -y / SQ2, np.cos(w) / SQ2, -y / SQ2, np.cos(w) / SQ2, -1.0)
    shape = np.zeros(p.shape[:-1] + (4, 4))
    shape[..., 0, 1] = 1.0
    shape[..., 2, 3] = np.sin(p[..., 3])
    return _chart_02(p, a), frame, xi, shape, frame


def _at(table: np.ndarray, s) -> np.ndarray:
    """The curve of a coefficient table at a number s, or an array s of
    shape (1,), (n,), or at a (k, 1) column s, (k, n); Horner's rule keeps
    integer tables exact."""
    out = table[-1]
    for row in table[-2::-1]:
        out = out * s + row
    return out


class _Curves:
    """The curves of an entry: tables, a namedtuple of coefficient tables in
    the chart coordinate `coord`, all with the same columns.  They are kept
    side by side in one array, each padded with zero rows to the longest, so
    that one Horner pass evaluates them all.  A padded row gives
    +-0 * s + 0 = 0 until the rows of its table begin, so each curve equals
    _at(table, s) bit for bit."""

    def __init__(self, tables: tuple, coord: int):
        self.tables, self.coord = tables, coord
        rows = max(len(t) for t in tables)
        self.side_by_side = np.hstack([np.pad(t, ((0, rows - len(t)), (0, 0))) for t in tables])

    def __call__(self, p: np.ndarray) -> tuple:
        """Every curve at the chart point p, (n,), or at each row of a stack,
        (k, n): a namedtuple like tables."""
        values = _at(self.side_by_side, p[..., self.coord : self.coord + 1])
        # one block of columns per table, moved to the front; the width is
        # spelled out, since an empty stack leaves nothing to infer it from
        width = self.side_by_side.shape[1] // len(self.tables)
        blocks = values.reshape(*p.shape[:-1], len(self.tables), width).swapaxes(0, -2)
        return self.tables._make(blocks)

    def bind(self, *formulas) -> tuple:
        """Each formula f(c, p, a) as a function of (p, a) that reads the
        curves c at p."""
        return tuple(functools.partial(_on_curves, self, f) for f in formulas)


def _on_curves(curves: _Curves, formula, p: np.ndarray, a: float):
    return formula(curves(p), p, a)


# Entries k (eps = 1) and l (eps = -1) are one family: root = sqrt(1 + eps a^2
# v^2), and the chart condition is w = z + eps sqrt(2) != 0, with |a v| < 1 on
# l as well.  Curves of s: X, Y, Z, C, V (one row), Y', Z', C', xint =
# int_0^s X.
_CurvesKL = collections.namedtuple("_CurvesKL", "X Y Z C V Yp Zp Cp xint")


def _der(c: np.ndarray) -> np.ndarray:
    """The derivative of the curve whose row k is its coefficient of s^k, in
    the same layout: row k + 1 times k + 1."""
    return np.arange(1, len(c))[:, None] * c[1:]


def _int(c: np.ndarray) -> np.ndarray:
    """The integral from 0 of the curve whose row k is its coefficient of
    s^k, in the same layout: a zero row, then row k over k + 1."""
    return np.concatenate([np.zeros_like(c[:1]), c / np.arange(1, len(c) + 1)[:, None]])


def _root_kl(eps: float, v, a: float):
    _check_a(a)
    if eps < 0 and not (np.abs(a * v) < 1.0).all():
        raise DomainError("point violates the chart condition |v| < 1/|a|")
    return np.sqrt(1 + eps * a * a * v * v)


def _chart_kl(eps: float, c: _CurvesKL, p: np.ndarray, a: float) -> np.ndarray:
    _s, u, z, v = _coords(p)
    root = _root_kl(eps, v, a)
    return c.xint + u * c.Y + z * c.Z + v * c.V + (1 - root) / a * c.C


def _jacobian_kl(eps: float, c: _CurvesKL, p: np.ndarray, a: float) -> np.ndarray:
    _s, u, z, v = _coords(p)
    root = _root_kl(eps, v, a)
    df_s = c.X + u * c.Yp + z * c.Zp + (1 - root) / a * c.Cp
    df_v = c.V - eps * (a * v / root) * c.C
    return np.stack([df_s, c.Y, c.Z, df_v], axis=-1)


def _frame_kl(eps: float, c: _CurvesKL, p: np.ndarray, a: float) -> tuple:
    _s, _u, z, v = _coords(p)
    w = z + eps * SQ2
    if (abs(w) <= linalg.CHART_CLAUSE_TOL).any():
        sign = "+" if eps > 0 else "-"
        raise DomainError(f"point violates the chart condition z {sign} sqrt(2) != 0")
    jac = _jacobian_kl(eps, c, p, a)
    df_s, df_u, df_z, df_v = jac.transpose(-1, *range(jac.ndim - 1))
    root = _root_kl(eps, v, a)
    b1 = df_u
    b2 = w * w / (2 * root) * df_z
    b3 = -eps * (w * w * w) / (2 * SQ2 * root * root) * df_s
    b4 = SQ2 * a * z * v / (w * root) * df_u + df_v
    xi = -eps * SQ2 * z / w * root * df_u - a * v * c.V + root * c.C
    shape = _batch(_dsum(_j(0.0, 3), np.array([[a]])), p)
    return _chart_kl(eps, c, p, a), _columns(b1, b2, b3, b4), xi, shape, jac


def _sample_kl(eps: float, rng, i: int, a: float) -> np.ndarray:
    """A point of the box |coordinate| < 0.8; on l, v is drawn again so that
    |a v| <= 0.8 stays inside the chart."""
    _check_a(a)
    p = rng.uniform(-0.8, 0.8, size=4)
    if eps < 0:
        p[3] = rng.uniform(-0.8, 0.8) / max(abs(a), 1.0)
    return p


def _kl_curves(X, Y, Z, C, V) -> _Curves:
    X, Y, Z, C, V = (np.array(t, float) for t in (X, Y, Z, C, V))
    return _Curves(_CurvesKL(X, Y, Z, C, V, _der(Y), _der(Z), _der(C), _int(X)), 0)


def _kl_family(curves: _Curves, eps: float) -> tuple:
    """chart, jacobian, frame and sample of entry k (eps = 1) or l (-1)."""
    formulas = (functools.partial(fn, eps) for fn in (_chart_kl, _jacobian_kl, _frame_kl))
    return (*curves.bind(*formulas), functools.partial(_sample_kl, eps))


_S8 = SQ2 / 8  # the k and l tables hold multiples of sqrt(2)/8
_CURVES_K = _kl_curves(
    X=[[0.5 + 6 * _S8, 4 * _S8, 0.5 - 2 * _S8, 0, 1 + 4 * _S8], [0, 0, 0, -4 * _S8, 0],
       [_S8, 0, _S8, 0, 0]],
    Y=[[-0.5 + 6 * _S8, 4 * _S8, -0.5 - 2 * _S8, 0, 1 - 4 * _S8], [0, 0, 0, -4 * _S8, 0],
       [_S8, 0, _S8, 0, 0]],
    Z=[[0, 0, 0, -1, 0], [0.5, 0, 0.5, 0, 0]],
    C=[[1, 1, -1, 0, SQ2], [0, 0, 0, -1, 0], [0.25, 0, 0.25, 0, 0]],
    V=[[0.5, -1, 0.5, 0, 0]],
)
_CURVES_L = _kl_curves(
    X=[[-6 * _S8, 0, 2 * _S8, 4 * _S8, 4 * _S8], [0, 4 * _S8, 0, 0, 0], [_S8, 0, _S8, 0, 0]],
    Y=[[6 * _S8, 0, -2 * _S8, -4 * _S8, 4 * _S8], [0, -4 * _S8, 0, 0, 0], [-_S8, 0, -_S8, 0, 0]],
    Z=[[0, 1, 0, 0, 0], [0.5, 0, 0.5, 0, 0]],
    C=[[-1, 0, 1, 1, 0], [0, 1, 0, 0, 0], [0.25, 0, 0.25, 0, 0]],
    V=[[0.5, 0, 0.5, -1, 0]],
)

# entry m: the curves Y, W and C of u = p[3], with W', C' and the integral of
# Y from 0, and the constant vectors X and Z
_CurvesM = collections.namedtuple("_CurvesM", "Y W C Wp Cp yint")
_M_X, _M_Z = np.array([0.0, -1.0, 0.0, 0.0, 1.0]), np.array([1.0, 0.0, 1.0, 0.0, 0.0])
_M_Y = np.array([[0, -1, 0, 1, 0], [1, 0, 1, 0, 0]], float)
_M_W = np.array([[0.5, 0, -0.5, 0, 0], [0, 0, 0, 1, 0], [0.5, 0, 0.5, 0, 0]])
_M_C = np.array([[0, 1, 0, -1, -1], [-1, 0, -1, 0, 0]], float)
_CURVES_M = _Curves(_CurvesM(_M_Y, _M_W, _M_C, _der(_M_W), _der(_M_C), _int(_M_Y)), 3)


def _chart_m(c: _CurvesM, p: np.ndarray, a: float) -> np.ndarray:
    s, w, z, _u = _coords(p)
    return s * _M_X + w * c.W + z * _M_Z - z * z / 2.0 * c.C + c.yint


def _jacobian_m(c: _CurvesM, p: np.ndarray, a: float) -> np.ndarray:
    _s, w, z, _u = _coords(p)
    df_z = _M_Z - z * c.C
    df_u = w * c.Wp - z * z / 2.0 * c.Cp + c.Y
    return np.stack([np.broadcast_to(_M_X, c.W.shape), c.W, df_z, df_u], axis=-1)


def _frame_m(c: _CurvesM, p: np.ndarray, a: float) -> tuple:
    _s, w, z, _u = _coords(p)
    jac = _jacobian_m(c, p, a)
    df_s, df_w, df_z, df_u = jac.transpose(-1, *range(jac.ndim - 1))
    b1 = df_s
    b2 = df_w
    b3 = 1.5 * z * z * df_w + df_z
    b4 = (2.25 * (z * z * z * z) + z) * df_w + 1.5 * z * z * df_z + df_u
    xi = (-w + z * z * z / 2.0) * _M_X - z * df_w + c.C
    return _chart_m(c, p, a), _columns(b1, b2, b3, b4), xi, _batch(_j(0.0, 4), p), jac


def _draw_each(draw, rng, n: int, a: float) -> list[np.ndarray]:
    """The sampler of a closed entry, which takes every draw: draw(rng, i, a)
    is sample i."""
    return [draw(rng, i, a) for i in range(n)]


def _closed_frame_data(frame_fn, s: int, p: np.ndarray, a: float, anchor_variant: bool):
    point, frame, xi, shape, jac = frame_fn(p, a)
    return FrameData(
        point=point, frame=frame, normal=xi, shape=shape, gram=_frame_gram(frame, s),
        nu=1 if p.ndim == 1 else np.ones(p.shape[0], dtype=int), _jacobian=jac,
    )


def _closed_entry(
    example_id: str, ambient: SpaceForm, param_dim: int, chart, jacobian, frame, draw,
    expected, summary: str | None = None,
) -> _Entry:
    """An entry given by closed formulas, sampled by draw(rng, i, a).
    expected is the label of a fixed index-2 type, or a function of the chart
    point described by summary."""
    if isinstance(expected, str):
        expected, summary = GeometricType(2, expected), f"{expected} (index 2)"
    evaluate = functools.partial(_closed_frame_data, frame, ambient.embedding_index)
    return _Entry(
        example_id, ambient, param_dim, chart, jacobian, evaluate,
        functools.partial(_draw_each, draw), expected, summary,
    )


# ---------------------------------------------------------------------------
# the registry

_R3_1, _R5_2 = SpaceForm(3, 1, 0), SpaceForm(5, 2, 0)
_S5_2, _S5_3 = SpaceForm(5, 2, 1), SpaceForm(5, 3, 1)
_E3, _I3 = _anti(3), np.eye(3)

# The explicit frames of g, h and i divide by their chart conditions, and
# every chart solve checks them; the level set of g, 2 (x1 + x4)(x6 - x3) = 1,
# has no point where either fails.
_CLAUSES_G = (
    ("x1 + x4 != 0", "CHART_CLAUSE_TOL", _e(1, 6) + _e(4, 6)),
    ("-x3 + x6 != 0", "CHART_CLAUSE_TOL", -_e(3, 6) + _e(6, 6)),
)
_CLAUSES_HI = (("x2 + x5 != 0", "CHART_SINGULAR_TOL", _e(2, 6) + _e(5, 6)),)

_REGISTRY = {entry.id: entry for entry in (
    _closed_entry(
        "0-1", _R3_1, 2, _chart_01, _jacobian_01, _frame_01, functools.partial(_sample_region, 1),
        functools.partial(_region, 1, tuple(GeometricType(1, t) for t in ("I", "II", "II"))),
        "I or II by region (index 1)",
    ),
    _closed_entry(
        "0-2", _R5_2, 4, _chart_02, _jacobian_02, _frame_02, functools.partial(_sample_region, 3),
        functools.partial(_region, 3, tuple(GeometricType(2, t) for t in ("X", "IX-i", "IX-ii"))),
        "X, IX-i, or IX-ii by region (index 2)",
    ),
    _level_entry("a", _R5_2, "XI", ("flat", 2, -np.eye(5), -1.0, np.zeros(5)),
                 _e(3), (2,), shape=np.eye(4)),
    _level_entry("b", _R5_2, "X",
                 ("flat", 2, np.array([[-1, 0, 0, 0, 1], [0] * 5, [0] * 5, [0] * 5, [-1, 0, 0, 0, 1]],
                                      float), 1.0, _e(3)),
                 _e(1), (2,), _frame_b, _dsum(_j(0.0, 2), np.zeros((2, 2)))),
    _level_entry("c", _R5_2, "IX-ii",
                 ("flat", 2, np.array([[0, 1, 0, 0, 1], [1, 0, -1, 0, 0], [0, 1, 0, 0, 1], [0] * 5,
                                       [-1, 0, 1, 0, 0]], float), 1.0, _e(4)),
                 _e(4) / 2.0, (3,), _frame_c, _dsum(_j(0.0, 2), _j(0.0, 2))),
    _level_entry("d", _R5_2, "IX-i",
                 ("flat", 2, np.array([[1, 0, 0, 0, 1], [0, 1, -1, 0, 0], [0, 1, -1, 0, 0], [0] * 5,
                                       [-1, 0, 0, 0, -1]], float), 1.0, _e(4)),
                 _e(4) / 2.0, (3,), _frame_d, _dsum(_j(0.0, 2), _j(0.0, 2))),
    _level_entry("e", _S5_2, "XI", ("sphere", 2, _dsum(_anti(2), _anti(4)), 0.0),
                 _e(6, 6), (2, 5)),
    _level_entry("f", _S5_3, "XI", ("sphere", 3, _dsum(_E3, _E3), 3.0),
                 np.array([-1 / SQ2, 0, 1 / SQ2, 0, SQ2, 0]), (0, 4)),
    _level_entry("g", _S5_3, "X",
                 ("sphere", 3, np.array([[0, 0, 1, 0, 0, -1], [0] * 6, [1, 0, 0, 1, 0, 0],
                                         [0, 0, -1, 0, 0, 1], [0] * 6, [1, 0, 0, 1, 0, 0]], float),
                  1.0),
                 np.array([0, 0, 0, 1 / SQ2, 0, 1 / SQ2]), (0, 3),
                 _frame_g, _dsum(_j(1.0, 2), np.eye(2)), _CLAUSES_G),
    _level_entry("h", _S5_3, "IX-ii", ("sphere", 3, np.block([[_E3, _I3], [-_I3, -_E3]]), -1.0),
                 _e(5, 6), (1, 4), _frame_h, _dsum(_j(-1.0, 2), _j(-1.0, 2)), _CLAUSES_HI, True),
    _level_entry("i", _S5_3, "IX-i", ("sphere", 3, np.block([[_I3, _I3], [-_I3, -_I3]]), -1.0),
                 _e(5, 6), (1, 4), _frame_i, _dsum(_j(-1.0, 2), _j(-1.0, 2)), _CLAUSES_HI, True),
    _level_entry("j", _S5_3, "II", ("sphere", 3, np.block([[_I3, -_E3], [_E3, _I3]]), 1.0),
                 _e(4, 6), (2, 3)),
    _closed_entry("k", _R5_2, 4, *_kl_family(_CURVES_K, 1.0), "VII-ii"),
    _closed_entry("l", _R5_2, 4, *_kl_family(_CURVES_L, -1.0), "VII-i"),
    _closed_entry(
        "m", _R5_2, 4, *_CURVES_M.bind(_chart_m, _jacobian_m, _frame_m),
        lambda rng, i, a: rng.uniform(-0.8, 0.8, size=4), "VI",
    ),
)}

EXAMPLE_IDS = tuple(_REGISTRY)


# ---------------------------------------------------------------------------
# the uniform interface


def _entry(example_id: str) -> _Entry:
    entry = _REGISTRY.get(example_id)
    if entry is None:
        raise DomainError(f"unknown example id {example_id!r}")
    return entry


def ambient_of(example_id: str) -> SpaceForm:
    return _entry(example_id).ambient


def param_dim(example_id: str) -> int:
    return _entry(example_id).param_dim


def quadric_of(example_id: str) -> QuadricFunction:
    """The defining quadric of a level-set entry ("a"-"j"), built and gated by
    admissibility_check on first use and cached on the entry's record; the
    same instance is returned afterwards, and its P and p are read-only."""
    entry = _REGISTRY.get(example_id)
    if entry is None or entry.level is None:
        raise DomainError(f"{example_id} has no defining quadric")
    return entry.level.f


def _chart_point(entry: _Entry, p, stack: bool = False) -> np.ndarray:
    """p as a float array of shape (m,), or (k, m) when stack is allowed,
    with finite coordinates."""
    p = np.asarray(p, dtype=float)
    m = entry.param_dim
    if p.shape != (m,) and not (stack and p.ndim == 2 and p.shape[1] == m):
        raise ShapeError(f"{entry.id} takes {m} chart coordinates")
    if not np.isfinite(p).all():
        raise DomainError("chart point has a non-finite coordinate (NaN or infinity)")
    return p


def _finite(*arrays: np.ndarray) -> None:
    # far enough out, the formulas of an entry overflow
    if not np.isfinite(np.concatenate(arrays, axis=None)).all():
        raise DomainError("frame data is not finite at this point (overflow)")


def chart(example_id: str, p, a: float = 1.0) -> np.ndarray:
    """Smooth map from chart coordinates to the ambient point."""
    entry = _entry(example_id)
    with np.errstate(all="ignore"):
        x = entry.chart(_chart_point(entry, p), a)
    _finite(x)
    return x


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
    entry = _entry(example_id)
    p = _chart_point(entry, p, stack=True)
    if anchor_variant and not entry.anchor_variant:
        ids = " and ".join(e.id for e in _REGISTRY.values() if e.anchor_variant)
        raise DomainError(f"anchor_variant exists only for entries {ids}")
    with np.errstate(all="ignore"):
        fd = entry.evaluate(p, a, anchor_variant)
    # a frame column that is not finite shows on the diagonal of the Gram
    _finite(fd.point, fd.normal, fd.shape, fd.gram)
    return fd


def chart_jacobian(example_id: str, p, a: float = 1.0) -> np.ndarray:
    """Exact ambient partial derivatives of the chart, one column per chart
    coordinate: shape (n, m) at a point p of shape (m,), and (k, n, m) at a
    stack of k points of shape (k, m)."""
    entry = _entry(example_id)
    with np.errstate(all="ignore"):
        jac = entry.jacobian(_chart_point(entry, p, stack=True), a)
    _finite(jac)
    return jac


def expected_type(example_id: str, p=None) -> GeometricType:
    """The stated geometric type; for "0-1"/"0-2" it depends on the point."""
    entry = _entry(example_id)
    if p is not None:
        p = _chart_point(entry, p)
    if not callable(entry.expected):
        return entry.expected
    if p is None:
        raise DomainError(f"entry {example_id} has a point-dependent type")
    return entry.expected(p)


def sample_domain(example_id: str, n: int, seed: int = 0, a: float = 1.0) -> list[np.ndarray]:
    """n deterministic chart points, the first n that the entry's sampler
    accepts from a generator seeded with seed; the region-partitioned entries
    cycle through all their regions."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise DomainError(f"the number of samples must be an integer, got {n!r}")
    if n < 1:
        raise DomainError("need at least one sample")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise DomainError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise DomainError("seed must be non-negative")
    return _entry(example_id).sample(np.random.default_rng(seed), int(n), a)


def catalog_summary() -> list[dict]:
    """One row per entry for the CLI listing."""
    kind = {0: "flat", 1: "sphere"}
    return [
        {
            "id": e.id,
            "ambient": f"{kind[e.ambient.curvature]} dim {e.ambient.dim} index {e.ambient.index}",
            "expected_type": e.summary,
        }
        for e in _REGISTRY.values()
    ]

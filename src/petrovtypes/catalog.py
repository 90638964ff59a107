"""Catalog of isoparametric hypersurface examples in pseudo-Riemannian space forms.

Fifteen entries behind one interface: two low-index surfaces whose type varies
over the surface ("0-1", "0-2"), ten quadric level sets ("a"-"j"), and three
explicitly parametrized index-2 hypersurfaces ("k", "l", "m").  Each entry
exposes a smooth chart p -> ambient point and a frame evaluator returning the
tangent frame, unit normal, shape matrix in the frame, and frame Gram.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import ShapeError
from .petrov import GeometricType
from .spaceform import (
    DomainError,
    QuadricFunction,
    SpaceForm,
    ambient_inner,
    inner_matrix,
    quadric_gradient,
    sphere_shape_operator,
)

SQ2 = np.sqrt(2.0)

EXAMPLE_IDS = (
    "0-1", "0-2", "a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m",
)


@dataclass(frozen=True)
class FrameData:
    """Everything measured at one point: frame columns are tangent vectors."""

    point: np.ndarray
    frame: np.ndarray
    normal: np.ndarray
    shape: np.ndarray
    gram: np.ndarray
    nu: int


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


def _frame_gram(frame: np.ndarray, s: int) -> np.ndarray:
    g = inner_matrix(frame.shape[0], s)
    return frame.T @ g @ frame


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

_DOMAIN_CLAUSES = {
    "g": ((lambda x: x[0] + x[3], "x1 + x4 != 0"),
          (lambda x: -x[2] + x[5], "-x3 + x6 != 0")),
    "h": ((lambda x: x[1] + x[4], "x2 + x5 != 0"),),
    "i": ((lambda x: x[1] + x[4], "x2 + x5 != 0"),),
}


def _check_domain(example_id: str, x: np.ndarray, tol: float = 1e-9) -> None:
    for func, name in _DOMAIN_CLAUSES.get(example_id, ()):
        if abs(func(x)) <= tol:
            raise DomainError(f"point violates the chart condition {name}")


def _level_chart(example_id: str, q: np.ndarray) -> np.ndarray:
    """Chart for the level-set entries: q fills the free coordinates, the
    pivot coordinates are solved from the defining constraints."""
    f = quadric_of(example_id)
    anchor, pivots = _ANCHOR[example_id]
    n = anchor.shape[0]
    free = [i for i in range(n) if i not in pivots]
    if q.shape != (len(free),):
        raise ShapeError(f"chart for {example_id} takes {len(free)} coordinates")
    x = anchor.copy()
    x[free] = q
    if f.variant == "flat":
        if example_id == "a":
            # <x, x>_2 = 1 solved for the pivot (positive branch)
            rest = ambient_inner(x, x, 2) - x[2] * x[2]
            if 1.0 - rest <= 0:
                raise DomainError("point leaves the chart of the unit sphere")
            x[2] = np.sqrt(1.0 - rest)
        else:
            # the pivot coordinate enters only through the linear term
            i = pivots[0]
            x[i] = 0.0
            x[i] = (f.c - f.value(x)) / 2.0
        return x
    # sphere variant: Newton in the two pivot coordinates for
    # <x, x> = 1 and <Px, x> = c
    g = inner_matrix(n, f.s)
    i1, i2 = pivots
    for _ in range(60):
        r = np.array(
            [ambient_inner(x, x, f.s) - 1.0, f.value(x) - f.c]
        )
        if np.abs(r).max() < 1e-14:
            break
        jac = np.array(
            [
                [2 * (g @ x)[i1], 2 * (g @ x)[i2]],
                [2 * (g @ f.P @ x)[i1], 2 * (g @ f.P @ x)[i2]],
            ]
        )
        try:
            step = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError as exc:
            raise DomainError("chart solver met a singular Jacobian at this point") from exc
        x[i1] -= step[0]
        x[i2] -= step[1]
    else:
        raise DomainError("chart solver did not converge; point too far out")
    return x


def _coordinate_tangent_frame(f: QuadricFunction, x: np.ndarray, pivots) -> np.ndarray:
    """Smooth tangent frame: one column per free coordinate, corrected in the
    pivot coordinates so both constraint differentials vanish."""
    n = x.shape[0]
    g = inner_matrix(n, f.s)
    if f.variant == "flat":
        rows = [g @ (f.P @ x + f.p)]
    else:
        rows = [g @ x, g @ f.P @ x - ambient_inner(f.P @ x, x, f.s) * (g @ x)]
    d = np.vstack(rows)  # one differential per constraint
    free = [i for i in range(n) if i not in pivots]
    sub = d[:, list(pivots)]
    cols = []
    for i in free:
        b = np.zeros(n)
        b[i] = 1.0
        corr = np.linalg.solve(sub, -d[:, i])
        b[list(pivots)] = corr
        cols.append(b)
    return np.array(cols).T


# ---------------------------------------------------------------------------
# explicit moving frames for the quadric entries

def _frame_b(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    cols = [
        _e(1) + _e(5),
        _e(1) + (-x[0] + x[4]) * _e(3),
        _e(2),
        _e(4),
    ]
    shape = _dsum(_j(0.0, 2), np.zeros((2, 2)))
    return np.array(cols).T, shape


def _frame_c(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    return np.array([b1, b2, b3, b4]).T, _dsum(_j(0.0, 2), _j(0.0, 2))


def _frame_d(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    th1 = -_e(1) + _e(5)
    th2 = _e(1) + (x[0] + x[4]) * _e(4)
    et1 = -_e(2) - _e(3)
    et2 = _e(2) + (x[1] - x[2]) * _e(4)
    th2p = th2 - (x[0] + x[4]) * (x[1] - x[2]) * et1
    b1 = th1
    b2 = th2p - 0.5 * ((x[0] + x[4]) ** 2 - 1.0) * th1
    b3 = et1
    b4 = et2 - 0.5 * ((x[1] - x[2]) ** 2 - 1.0) * et1
    return np.array([b1, b2, b3, b4]).T, _dsum(_j(0.0, 2), _j(0.0, 2))


def _tangent_quads_g(x: np.ndarray) -> list[np.ndarray]:
    d1 = x[0] + x[3]
    d2 = -x[2] + x[5]
    e = lambda i: _e(i, 6)
    a1 = -x[1] / d1 * e(1) + e(2) + x[1] / d1 * e(4)
    a2 = (-x[2] / d1 + x[3] / d2) * e(1) + e(3) + (x[2] / d1 + x[0] / d2) * e(4)
    a3 = x[4] / d1 * e(1) - x[4] / d1 * e(4) + e(5)
    a4 = (x[5] / d1 - x[3] / d2) * e(1) + (-x[5] / d1 - x[0] / d2) * e(4) + e(6)
    return [a1, a2, a3, a4]


def _frame_g(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a1, a2, a3, a4 = _tangent_quads_g(x)
    d1 = x[0] + x[3]
    d2 = -x[2] + x[5]
    cols = [a2 + a4, -(d2 / d1) * a2, a1, a3]
    return np.array(cols).T, _dsum(_j(1.0, 2), np.eye(2))


def _tangent_quads_hi(x: np.ndarray, variant: str) -> list[np.ndarray]:
    d = x[1] + x[4]
    e = lambda i: _e(i, 6)
    if variant == "h":
        s1, s2 = x[2] + x[3], x[0] + x[5]
    else:
        s1, s2 = x[0] + x[3], x[2] + x[5]
    if variant == "h":
        a1 = e(1) + (-x[0] / d - x[4] * s1 / d**2) * e(2) + (x[0] / d - x[1] * s1 / d**2) * e(5)
        a2 = (-x[2] / d - x[4] * s2 / d**2) * e(2) + e(3) + (x[2] / d - x[1] * s2 / d**2) * e(5)
        a3 = (x[3] / d - x[4] * s2 / d**2) * e(2) + e(4) + (-x[3] / d - x[1] * s2 / d**2) * e(5)
        a4 = (x[5] / d - x[4] * s1 / d**2) * e(2) + (-x[5] / d - x[1] * s1 / d**2) * e(5) + e(6)
    else:
        a1 = e(1) + (-x[0] / d - x[4] * s1 / d**2) * e(2) + (x[0] / d - x[1] * s1 / d**2) * e(5)
        a2 = (-x[2] / d - x[4] * s2 / d**2) * e(2) + e(3) + (x[2] / d - x[1] * s2 / d**2) * e(5)
        a3 = (x[3] / d - x[4] * s1 / d**2) * e(2) + e(4) + (-x[3] / d - x[1] * s1 / d**2) * e(5)
        a4 = (x[5] / d - x[4] * s2 / d**2) * e(2) + (-x[5] / d - x[1] * s2 / d**2) * e(5) + e(6)
    return [a1, a2, a3, a4]


def _frame_h(x: np.ndarray, anchor_variant: bool) -> tuple[np.ndarray, np.ndarray]:
    a1, a2, a3, a4 = _tangent_quads_hi(x, "h")
    if anchor_variant:
        b1 = (-a1 - a2 + a3 + a4) / SQ2
        b2 = (a1 + a2 + a3 + a4) / (2.0 * SQ2)
        b3 = (-a1 + a2 - a3 + a4) / SQ2
        b4 = (-a1 + a2 + a3 - a4) / (2.0 * SQ2)
        cols = [b1, b2, b3, b4]
    else:
        cols = [-a1 + a4, a2, -a2 + a3, a1]
    return np.array(cols).T, _dsum(_j(-1.0, 2), _j(-1.0, 2))


def _frame_i(x: np.ndarray, anchor_variant: bool) -> tuple[np.ndarray, np.ndarray]:
    a1, a2, a3, a4 = _tangent_quads_hi(x, "i")
    if anchor_variant:
        cols = [-a1 + a3, (a1 + a3) / 2.0, -a2 + a4, (a2 + a4) / 2.0]
    else:
        cols = [-a1 + a3, a1, -a2 + a4, a2]
    return np.array(cols).T, _dsum(_j(-1.0, 2), _j(-1.0, 2))


def _evaluate_level(example_id: str, q: np.ndarray, anchor_variant: bool) -> FrameData:
    f = quadric_of(example_id)
    x = _level_chart(example_id, np.asarray(q, dtype=float))
    _check_domain(example_id, x)
    grad = quadric_gradient(f, x)
    phi = ambient_inner(grad, grad, f.s)
    if abs(phi) < 1e-12:
        raise DomainError("level value is not regular at this point")
    xi = grad / np.sqrt(abs(phi))
    nu = 1 if ambient_inner(xi, xi, f.s) > 0 else -1
    if example_id == "a":
        frame = _coordinate_tangent_frame(f, x, _ANCHOR["a"][1])[:, :4]
        shape = np.eye(4)
    elif example_id == "b":
        frame, shape = _frame_b(x)
    elif example_id == "c":
        frame, shape = _frame_c(x)
    elif example_id == "d":
        frame, shape = _frame_d(x)
    elif example_id == "g":
        frame, shape = _frame_g(x)
    elif example_id == "h":
        frame, shape = _frame_h(x, anchor_variant)
    elif example_id == "i":
        frame, shape = _frame_i(x, anchor_variant)
    else:  # e, f, j: diagonalizable, no displayed frame
        frame = _coordinate_tangent_frame(f, x, _ANCHOR[example_id][1])
        shape, delta = sphere_shape_operator(f, x, frame)
    return FrameData(
        point=x,
        frame=frame,
        normal=xi,
        shape=shape,
        gram=_frame_gram(frame, f.s),
        nu=nu,
    )


# ---------------------------------------------------------------------------
# parametrized entries

def _chart_01(p: np.ndarray) -> np.ndarray:
    u, v = p
    a1 = np.array([1.0, 1.0, 0.0]) / SQ2
    a2 = np.array([1.0, -1.0, 0.0]) / SQ2
    return u * a1 + v * a2 - np.sin(v) * np.array([0.0, 0.0, 1.0])


def _evaluate_01(p: np.ndarray) -> FrameData:
    u, v = p
    a1 = np.array([1.0, 1.0, 0.0]) / SQ2
    a2 = np.array([1.0, -1.0, 0.0]) / SQ2
    frame = np.array([a1, a2 - np.cos(v) * np.array([0.0, 0.0, 1.0])]).T
    xi = np.array([np.cos(v) / SQ2, np.cos(v) / SQ2, -1.0])
    shape = np.array([[0.0, np.sin(v)], [0.0, 0.0]])
    return FrameData(
        point=_chart_01(p), frame=frame, normal=xi, shape=shape,
        gram=_frame_gram(frame, 1), nu=1,
    )


def _chart_02(p: np.ndarray) -> np.ndarray:
    x, y, z, w = p
    a1 = (_e(1) + _e(3)) / SQ2
    a2 = (_e(1) - _e(3)) / SQ2
    a3 = (_e(2) + _e(4)) / SQ2
    a4 = (_e(2) - _e(4)) / SQ2
    return x * a1 + y * a2 + z * a3 + w * a4 + (y * y / 2.0 - np.sin(w)) * _e(5)


def _evaluate_02(p: np.ndarray) -> FrameData:
    x, y, z, w = p
    a1 = (_e(1) + _e(3)) / SQ2
    a2 = (_e(1) - _e(3)) / SQ2
    a3 = (_e(2) + _e(4)) / SQ2
    a4 = (_e(2) - _e(4)) / SQ2
    frame = np.array(
        [a1, a2 + y * _e(5), a3, a4 - np.cos(w) * _e(5)]
    ).T
    xi = np.array(
        [-y / SQ2, np.cos(w) / SQ2, -y / SQ2, np.cos(w) / SQ2, -1.0]
    )
    shape = np.zeros((4, 4))
    shape[0, 1] = 1.0
    shape[2, 3] = np.sin(w)
    return FrameData(
        point=_chart_02(p), frame=frame, normal=xi, shape=shape,
        gram=_frame_gram(frame, 2), nu=1,
    )


def _data_k():
    def X(s):
        return np.array([
            SQ2 * (s * s + 6) / 8 + 0.5,
            SQ2 / 2,
            SQ2 * (s * s + 6) / 8 - SQ2 + 0.5,
            -SQ2 / 2 * s,
            1 + SQ2 / 2,
        ])

    def Y(s):
        return np.array([
            SQ2 * (s * s + 6) / 8 - 0.5,
            SQ2 / 2,
            SQ2 * (s * s + 6) / 8 - SQ2 - 0.5,
            -SQ2 / 2 * s,
            1 - SQ2 / 2,
        ])

    def Yp(s):
        return np.array([SQ2 * s / 4, 0.0, SQ2 * s / 4, -SQ2 / 2, 0.0])

    def Z(s):
        return np.array([s / 2, 0.0, s / 2, -1.0, 0.0])

    Zp = np.array([0.5, 0.0, 0.5, 0.0, 0.0])
    V = np.array([0.5, -1.0, 0.5, 0.0, 0.0])

    def C(s):
        return np.array([s * s / 4 + 1, 1.0, s * s / 4 - 1, -s, SQ2])

    def Cp(s):
        return np.array([s / 2, 0.0, s / 2, -1.0, 0.0])

    def xint(s):
        cubic = SQ2 * (s**3 / 3 + 6 * s) / 8
        return np.array([
            cubic + s / 2,
            SQ2 / 2 * s,
            cubic - SQ2 * s + s / 2,
            -SQ2 / 4 * s * s,
            (1 + SQ2 / 2) * s,
        ])

    return X, Y, Yp, Z, Zp, V, C, Cp, xint


def _chart_k(p: np.ndarray, a: float) -> np.ndarray:
    s, u, z, v = p
    X, Y, _Yp, Z, _Zp, V, C, _Cp, xint = _data_k()
    root = np.sqrt(1 + a * a * v * v)
    return xint(s) + u * Y(s) + z * Z(s) + v * V + (1 - root) / a * C(s)


def _evaluate_k(p: np.ndarray, a: float) -> FrameData:
    s, u, z, v = p
    if abs(z + SQ2) <= 1e-9:
        raise DomainError("point violates the chart condition z + sqrt(2) != 0")
    X, Y, Yp, Z, Zp, V, C, Cp, xint = _data_k()
    root = np.sqrt(1 + a * a * v * v)
    df_s = X(s) + u * Yp(s) + z * Zp + (1 - root) / a * Cp(s)
    df_u = Y(s)
    df_z = Z(s)
    df_v = V - (a * v / root) * C(s)
    b1 = df_u
    b2 = (z + SQ2) ** 2 / (2 * root) * df_z
    b3 = -((z + SQ2) ** 3) / (2 * SQ2 * root * root) * df_s
    b4 = SQ2 * a * z * v / ((z + SQ2) * root) * df_u + df_v
    frame = np.array([b1, b2, b3, b4]).T
    xi = -SQ2 * z / (z + SQ2) * root * Y(s) - a * v * V + root * C(s)
    shape = _dsum(_j(0.0, 3), np.array([[a]]))
    return FrameData(
        point=_chart_k(p, a), frame=frame, normal=xi, shape=shape,
        gram=_frame_gram(frame, 2), nu=1,
    )


def _data_l():
    def X(s):
        return np.array([
            SQ2 * (s * s + 2) / 8 - SQ2,
            SQ2 / 2 * s,
            SQ2 * (s * s + 2) / 8,
            SQ2 / 2,
            SQ2 / 2,
        ])

    def Y(s):
        return np.array([
            -SQ2 * (s * s + 2) / 8 + SQ2,
            -SQ2 / 2 * s,
            -SQ2 * (s * s + 2) / 8,
            -SQ2 / 2,
            SQ2 / 2,
        ])

    def Yp(s):
        return np.array([-SQ2 * s / 4, -SQ2 / 2, -SQ2 * s / 4, 0.0, 0.0])

    def Z(s):
        return np.array([s / 2, 1.0, s / 2, 0.0, 0.0])

    Zp = np.array([0.5, 0.0, 0.5, 0.0, 0.0])
    V = np.array([0.5, 0.0, 0.5, -1.0, 0.0])

    def C(s):
        return np.array([s * s / 4 - 1, s, s * s / 4 + 1, 1.0, 0.0])

    def Cp(s):
        return np.array([s / 2, 1.0, s / 2, 0.0, 0.0])

    def xint(s):
        cubic = SQ2 * (s**3 / 3 + 2 * s) / 8
        return np.array([
            cubic - SQ2 * s,
            SQ2 / 4 * s * s,
            cubic,
            SQ2 / 2 * s,
            SQ2 / 2 * s,
        ])

    return X, Y, Yp, Z, Zp, V, C, Cp, xint


def _chart_l(p: np.ndarray, a: float) -> np.ndarray:
    s, u, z, v = p
    X, Y, _Yp, Z, _Zp, V, C, _Cp, xint = _data_l()
    root = np.sqrt(1 - a * a * v * v)
    return xint(s) + u * Y(s) + z * Z(s) + v * V + (1 - root) / a * C(s)


def _evaluate_l(p: np.ndarray, a: float) -> FrameData:
    s, u, z, v = p
    if abs(z - SQ2) <= 1e-9:
        raise DomainError("point violates the chart condition z - sqrt(2) != 0")
    if not abs(v) < 1.0 / a:
        raise DomainError("point violates the chart condition |v| < 1/a")
    X, Y, Yp, Z, Zp, V, C, Cp, xint = _data_l()
    root = np.sqrt(1 - a * a * v * v)
    df_s = X(s) + u * Yp(s) + z * Zp + (1 - root) / a * Cp(s)
    df_u = Y(s)
    df_z = Z(s)
    df_v = V + (a * v / root) * C(s)
    b1 = df_u
    b2 = (z - SQ2) ** 2 / (2 * root) * df_z
    b3 = (z - SQ2) ** 3 / (2 * SQ2 * root * root) * df_s
    b4 = SQ2 * a * z * v / ((z - SQ2) * root) * df_u + df_v
    frame = np.array([b1, b2, b3, b4]).T
    xi = SQ2 * z / (z - SQ2) * root * Y(s) - a * v * V + root * C(s)
    shape = _dsum(_j(0.0, 3), np.array([[a]]))
    return FrameData(
        point=_chart_l(p, a), frame=frame, normal=xi, shape=shape,
        gram=_frame_gram(frame, 2), nu=1,
    )


def _data_m():
    X = np.array([0.0, -1.0, 0.0, 0.0, 1.0])
    Z = np.array([1.0, 0.0, 1.0, 0.0, 0.0])

    def Y(u):
        return np.array([u, -1.0, u, 1.0, 0.0])

    def W(u):
        return 0.5 * np.array([u * u + 1, 0.0, u * u - 1, 2 * u, 0.0])

    def Wp(u):
        return np.array([u, 0.0, u, 1.0, 0.0])

    def C(u):
        return np.array([-u, 1.0, -u, -1.0, -1.0])

    Cp = np.array([-1.0, 0.0, -1.0, 0.0, 0.0])

    def yint(u):
        return np.array([u * u / 2, -u, u * u / 2, u, 0.0])

    return X, Y, Z, W, Wp, C, Cp, yint


def _chart_m(p: np.ndarray) -> np.ndarray:
    s, w, z, u = p
    X, Y, Z, W, _Wp, C, _Cp, yint = _data_m()
    return s * X + w * W(u) + z * Z - z * z / 2.0 * C(u) + yint(u)


def _evaluate_m(p: np.ndarray) -> FrameData:
    s, w, z, u = p
    X, Y, Z, W, Wp, C, Cp, yint = _data_m()
    df_s = X
    df_w = W(u)
    df_z = Z - z * C(u)
    df_u = w * Wp(u) - z * z / 2.0 * Cp + Y(u)
    b1 = df_s
    b2 = df_w
    b3 = 1.5 * z * z * df_w + df_z
    b4 = (2.25 * z**4 + z) * df_w + 1.5 * z * z * df_z + df_u
    frame = np.array([b1, b2, b3, b4]).T
    xi = (-w + z**3 / 2.0) * X - z * W(u) + C(u)
    shape = _j(0.0, 4)
    return FrameData(
        point=_chart_m(p), frame=frame, normal=xi, shape=shape,
        gram=_frame_gram(frame, 2), nu=1,
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


def chart(example_id: str, p, a: float = 1.0) -> np.ndarray:
    """Smooth map from chart coordinates to the ambient point."""
    p = np.asarray(p, dtype=float)
    if p.shape != (param_dim(example_id),):
        raise ShapeError(
            f"{example_id} takes {param_dim(example_id)} chart coordinates"
        )
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
    return _level_chart(example_id, p)


def evaluate(
    example_id: str, p, a: float = 1.0, anchor_variant: bool = False
) -> FrameData:
    """Frame, normal, shape, and Gram at the chart point p.

    For entries "h" and "i", anchor_variant=True selects the special basis
    displayed at the anchor point, whose Gram is a signed anti-diagonal.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (param_dim(example_id),):
        raise ShapeError(
            f"{example_id} takes {param_dim(example_id)} chart coordinates"
        )
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
    if example_id in _AMBIENT:
        if anchor_variant and example_id not in ("h", "i"):
            raise DomainError("anchor_variant exists only for entries h and i")
        return _evaluate_level(example_id, p, anchor_variant)
    raise DomainError(f"unknown example id {example_id!r}")


def chart_jacobian(example_id: str, p, a: float = 1.0) -> np.ndarray:
    """Exact ambient partial derivatives of the chart, one column per
    chart coordinate."""
    p = np.asarray(p, dtype=float)
    if p.shape != (param_dim(example_id),):
        raise ShapeError(
            f"{example_id} takes {param_dim(example_id)} chart coordinates"
        )
    if example_id in ("0-1", "0-2"):
        return evaluate(example_id, p).frame
    if example_id == "k":
        s, u, z, v = p
        X, Y, Yp, Z, Zp, V, C, Cp, _xint = _data_k()
        root = np.sqrt(1 + a * a * v * v)
        return np.array(
            [
                X(s) + u * Yp(s) + z * Zp + (1 - root) / a * Cp(s),
                Y(s),
                Z(s),
                V - (a * v / root) * C(s),
            ]
        ).T
    if example_id == "l":
        s, u, z, v = p
        X, Y, Yp, Z, Zp, V, C, Cp, _xint = _data_l()
        root = np.sqrt(1 - a * a * v * v)
        return np.array(
            [
                X(s) + u * Yp(s) + z * Zp + (1 - root) / a * Cp(s),
                Y(s),
                Z(s),
                V + (a * v / root) * C(s),
            ]
        ).T
    if example_id == "m":
        s, w, z, u = p
        X, Y, Z, W, Wp, C, Cp, _yint = _data_m()
        return np.array(
            [X, W(u), Z - z * C(u), w * Wp(u) - z * z / 2.0 * Cp + Y(u)]
        ).T
    if example_id in _ANCHOR:
        f = quadric_of(example_id)
        x = _level_chart(example_id, p)
        return _coordinate_tangent_frame(f, x, _ANCHOR[example_id][1])
    raise DomainError(f"unknown example id {example_id!r}")


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
                p[3] = rng.uniform(-0.8, 0.8) / max(a, 1.0)
                if not abs(p[3]) < 1.0 / a:
                    continue
            out.append(p)
            continue
        if example_id in _ANCHOR:
            anchor, pivots = _ANCHOR[example_id]
            free = [i for i in range(anchor.shape[0]) if i not in pivots]
            q = anchor[free] + rng.uniform(-0.2, 0.2, size=len(free))
            try:
                x = _level_chart(example_id, q)
                _check_domain(example_id, x, tol=5e-2)
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

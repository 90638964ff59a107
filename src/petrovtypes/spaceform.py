"""Ambient space forms, quadric level-set machinery, and scalar constraint checks.

The flat variant works with f(x) = <Px, x> + 2<p, x> on a pseudo-Euclidean
space; the sphere variant with f(x) = <Px, x> restricted to the unit pseudo-
sphere.  Both produce isoparametric level sets under the admissibility
conditions checked here, and the sphere variant has a closed-form shape
operator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    ShapeError,
    ToleranceError,
    matrix_from_json,
    matrix_to_json,
    minimal_poly,
    resolve_tol,
    to_float,
)


class DomainError(ValueError):
    """A point lies outside the region where the formulas are valid."""


def inner_matrix(n: int, s: int) -> np.ndarray:
    """Gram matrix of the pseudo-inner product of index s on dimension n."""
    if not 0 <= s <= n:
        raise ShapeError(f"index {s} out of range for dimension {n}")
    d = np.ones(n)
    d[:s] = -1.0
    return np.diag(d)


def ambient_inner(u, v, s: int):
    """Pseudo-inner product <u, v>_s: the first s coordinates count negative.

    Two vectors (n,) give a float.  Two stacks (k, n) give the k row products
    as an array; each row product is a (1, n) @ (n, 1) matmul, which numpy
    hands to the same BLAS dot as the vector product, so a row agrees with
    the vector call bit for bit."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim not in (1, 2):
        raise ShapeError("ambient_inner needs two vectors, or two stacks of vectors, of equal shape")
    if not 0 <= s <= u.shape[-1]:
        raise ShapeError(f"index {s} out of range for dimension {u.shape[-1]}")
    if u.ndim == 1:
        return float(-u[:s] @ v[:s] + u[s:] @ v[s:])
    neg = u[:, None, :s] @ v[:, :s, None]
    pos = u[:, None, s:] @ v[:, s:, None]
    return (-neg + pos)[:, 0, 0]


def _matvec(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """mat @ x for a vector x (n,), and for each row of a stack (k, n)."""
    return mat @ x if x.ndim == 1 else (mat @ x[..., None])[..., 0]


@dataclass(frozen=True)
class SpaceForm:
    """Pseudo-Riemannian space form: dim and index of the manifold itself,
    curvature kappa in {-1, 0, 1}.

    For kappa = 0 the space is the pseudo-Euclidean space of the given
    dimension; kappa = 1 is the unit sphere <x,x> = 1 inside a flat space of
    one more dimension and the same index; kappa = -1 is the hyperbolic sheet
    <x,x> = -1 with the embedding index raised by one.
    """

    dim: int
    index: int
    curvature: int

    def __post_init__(self):
        if self.curvature not in (-1, 0, 1):
            raise ShapeError("curvature must be -1, 0, or 1")
        if not 0 <= self.index <= self.dim:
            raise ShapeError("index out of range")

    @property
    def embedding_dim(self) -> int:
        return self.dim if self.curvature == 0 else self.dim + 1

    @property
    def embedding_index(self) -> int:
        if self.curvature == -1:
            return self.index + 1
        return self.index

    def inner(self, u, v) -> float:
        return ambient_inner(u, v, self.embedding_index)

    def contains(self, x, tol: float | None = None) -> bool:
        tol = resolve_tol(tol)
        x = np.asarray(x, dtype=float)
        if x.shape != (self.embedding_dim,):
            return False
        if self.curvature == 0:
            return True
        return abs(self.inner(x, x) - self.curvature) <= tol * max(
            1.0, float(np.abs(x).max()) ** 2
        )


@dataclass(frozen=True)
class QuadricFunction:
    """Quadric isoparametric candidate; variant 'flat' or 'sphere'.

    flat:   f(x) = <Px, x>_s + 2<p, x>_s on the pseudo-Euclidean space.
    sphere: f(x) = <Px, x>_s on the unit pseudo-sphere.
    """

    variant: str
    s: int
    P: np.ndarray
    c: float
    p: np.ndarray | None = None

    def __post_init__(self):
        if self.variant not in ("flat", "sphere"):
            raise ShapeError("variant must be 'flat' or 'sphere'")
        pmat = np.array(self.P, dtype=float)  # a copy: later edits of the input do not reach it
        n = pmat.shape[0]
        if pmat.shape != (n, n):
            raise ShapeError("P must be square")
        g = inner_matrix(n, self.s)
        if np.abs(g @ pmat - pmat.T @ g).max() > 1e-9 * max(np.abs(pmat).max(), 1.0):
            raise ShapeError("P is not self-adjoint for the ambient form")
        object.__setattr__(self, "P", pmat)
        if self.variant == "flat":
            pv = np.zeros(n) if self.p is None else np.array(self.p, dtype=float)
            if pv.shape != (n,):
                raise ShapeError("p must match the dimension of P")
            object.__setattr__(self, "p", pv)
        elif self.p is not None:
            raise ShapeError("sphere variant takes no linear term")

    @property
    def dim(self) -> int:
        return self.P.shape[0]

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        out = ambient_inner(self.P @ x, x, self.s)
        if self.variant == "flat":
            out += 2.0 * ambient_inner(self.p, x, self.s)
        return out

    def to_json(self) -> dict:
        out = {
            "variant": self.variant,
            "s": self.s,
            "P": matrix_to_json(self.P),
            "c": self.c,
        }
        if self.variant == "flat":
            out["p"] = list(map(float, self.p))
        return out

    @classmethod
    def from_json(cls, data: dict) -> "QuadricFunction":
        p = data.get("p")
        return cls(
            variant=data["variant"],
            s=int(data["s"]),
            P=matrix_from_json(data["P"]),
            c=float(data["c"]),
            p=None if p is None else np.asarray(p, dtype=float),
        )


def quadric_gradient(f: QuadricFunction, x, tol: float | None = None) -> np.ndarray:
    """Ambient (flat) or tangential (sphere) gradient of the quadric at a
    point x (n,), or at each row of a stack (k, n)."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != f.dim:
        raise ShapeError("point dimension mismatch")
    px = _matvec(f.P, x)
    if f.variant == "flat":
        return 2.0 * px + 2.0 * f.p
    tol = resolve_tol(tol)
    norm2 = ambient_inner(x, x, f.s)
    radius = np.maximum(1.0, np.abs(x).max(axis=-1) ** 2)
    if (np.abs(norm2 - 1.0) > max(tol, 1e-7) * radius).any():
        raise DomainError("sphere-variant gradient needs a point on the unit sphere")
    pxx = ambient_inner(px, x, f.s)
    return 2.0 * px - 2.0 * (pxx if x.ndim == 1 else pxx[:, None]) * x


def admissibility_check(
    f: QuadricFunction, tol: float | None = None
) -> tuple[bool, str]:
    """Checks the conditions that make the quadric level sets isoparametric.

    flat:   P = rho*E with rho != 0, or P^2 = O, Pp = 0, <p,p> != 0.
    sphere: the minimal polynomial of P has degree 2.
    """
    tol = resolve_tol(tol)
    n = f.dim
    scale = max(np.abs(f.P).max(), 1.0)
    if f.variant == "sphere":
        try:
            mu = minimal_poly(f.P, tol)
        except ToleranceError as exc:
            return False, f"minimal polynomial undecidable: {exc}"
        deg = len(mu) - 1
        if deg == 2:
            return True, "deg mu_P = 2"
        return False, f"deg mu_P = {deg}, need 2"
    diag = f.P[0, 0]
    if (
        abs(diag) > tol * scale
        and np.abs(f.P - diag * np.eye(n)).max() <= tol * scale
    ):
        return True, "P = rho*E"
    if np.abs(f.P @ f.P).max() > tol * scale * scale:
        return False, "P^2 = O fails (and P is not a nonzero multiple of E)"
    if np.abs(f.P @ f.p).max() > tol * scale * max(np.abs(f.p).max(), 1.0):
        return False, "Pp = 0 fails"
    if abs(ambient_inner(f.p, f.p, f.s)) <= tol * max(np.abs(f.p).max(), 1.0) ** 2:
        return False, "<p, p> = 0"
    return True, "P^2 = O, Pp = 0, <p, p> != 0"


def quadratic_minimal_data(f: QuadricFunction, tol: float | None = None):
    """Coefficients (a, b) with P^2 = a*P + b*E, for sphere-variant quadrics.

    Computed once per distinct P and tolerance: the memo is keyed by the
    bytes of P, so a changed P is never answered from an old entry.
    """
    tol = resolve_tol(tol)
    return _quadratic_minimal_data(f.P.tobytes(), f.dim, tol)


@functools.lru_cache(maxsize=64)
def _quadratic_minimal_data(p_bytes: bytes, n: int, tol: float) -> tuple[float, float]:
    mu = minimal_poly(np.frombuffer(p_bytes).reshape(n, n), tol)
    if len(mu) - 1 != 2:
        raise DomainError("minimal polynomial of P must have degree 2")
    # monic t^2 - a t - b stored ascending as [-b, -a, 1]
    return -float(mu[1]), -float(mu[0])


def regular_level_value(f: QuadricFunction, tol: float | None = None) -> float:
    """Phi(c) = <grad f, grad f> as a function of the level value alone."""
    tol = resolve_tol(tol)
    c = f.c
    if f.variant == "flat":
        ok, diag = admissibility_check(f, tol)
        if not ok:
            raise DomainError(f"inadmissible quadric: {diag}")
        if "rho" in diag:
            rho = float(f.P[0, 0])
            # <2Px+2p, 2Px+2p> = 4 rho (<Px,x> + 2<p,x>) + 4<p,p> = 4 rho c + 4<p,p>
            return 4.0 * rho * c + 4.0 * ambient_inner(f.p, f.p, f.s)
        return 4.0 * ambient_inner(f.p, f.p, f.s)
    a, b = quadratic_minimal_data(f, tol)
    # <grad, grad> = 4(<P^2 x, x> - c^2) = 4(a c + b - c^2) on the sphere
    return 4.0 * (a * c + b - c * c)


def sphere_level_operator(f: QuadricFunction, x, phi, tol: float | None = None):
    """The operator (cE - P)/sqrt(-delta*mu_P(c)) of a sphere-variant level
    set and delta, the causal sign of the gradient, at a point x (n,) with
    phi = <grad, grad>, or at a stack (k, n) with phi (k,), where the
    operators are (k, n, n) and delta is an integer array.  Checks at every
    point that it lies on the level set c and that phi and -delta*mu_P(c)
    are nonzero."""
    tol = resolve_tol(tol)
    if f.variant != "sphere":
        raise DomainError("shape-operator formula applies to the sphere variant")
    x = np.asarray(x, dtype=float)
    level = ambient_inner(_matvec(f.P, x), x, f.s)  # f(x) = <Px, x>
    if (np.abs(level - f.c) > max(tol, 1e-7) * max(1.0, abs(f.c))).any():
        raise DomainError("point is not on the requested level set")
    if (np.abs(phi) <= max(tol, 1e-9)).any():
        raise DomainError("level value outside the regular range: <grad, grad> = 0")
    delta = (np.asarray(phi) > 0) * 2 - 1
    a, b = quadratic_minimal_data(f, tol)
    mu_c = f.c * f.c - a * f.c - b
    if (-delta * mu_c <= 0).any():
        raise DomainError("degenerate level: -delta * mu_P(c) must be positive")
    op = (f.c * np.eye(f.dim) - f.P) / np.sqrt(-delta * mu_c)[..., None, None]
    return op, delta if delta.ndim else int(delta)


def check_invariant(basis: np.ndarray, rep: np.ndarray, image: np.ndarray, tol: float) -> None:
    """basis @ rep reproduces image, the operator applied to the basis: the
    tangent basis is invariant under it.  Each argument may carry a leading
    stack axis, and every matrix of the stack is checked."""
    misfit = np.abs(basis @ rep - image).max(axis=(-2, -1))
    scale = np.maximum(np.abs(image).max(axis=(-2, -1)), 1.0)
    if (misfit > max(tol, 1e-7) * scale).any():
        raise ToleranceError("tangent basis is not invariant under the operator")


def sphere_shape_operator(
    f: QuadricFunction,
    x,
    tangent_basis: np.ndarray,
    tol: float | None = None,
) -> tuple[np.ndarray, int]:
    """Shape operator of the level hypersurface of a sphere-variant quadric.

    Returns the matrix of (cE - P)/sqrt(-delta*mu_P(c)) in the supplied
    tangent basis, together with delta, the causal sign of the gradient.
    """
    tol = resolve_tol(tol)
    x = np.asarray(x, dtype=float)
    basis = to_float(tangent_basis)
    if basis.shape[0] != f.dim:
        raise ShapeError("tangent basis rows must match the ambient dimension")
    grad = quadric_gradient(f, x, tol)
    op, delta = sphere_level_operator(f, x, ambient_inner(grad, grad, f.s), tol)
    image = op @ basis
    rep, residual, *_ = np.linalg.lstsq(basis, image, rcond=None)
    check_invariant(basis, rep, image, tol)
    return rep, delta


@dataclass(frozen=True)
class CurvatureSpectrum:
    """Principal curvatures with multiplicities; complex ones as (alpha, beta)."""

    real: tuple[tuple[float, int], ...]
    complex: tuple[tuple[float, float, int], ...] = field(default_factory=tuple)

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _k, m in self.real) + 2 * sum(
            m for _a, _b, m in self.complex
        )


def cartan_residual(spec: CurvatureSpectrum, delta: int, i: int) -> float:
    """Sum over the other curvatures of m_j (delta + k_i k_j)/(k_j - k_i).

    Vanishes for genuine isoparametric spectra when the i-th real curvature
    has full geometric multiplicity.  Complex curvatures enter as conjugate
    pairs, so the total stays real.
    """
    if not 0 <= i < len(spec.real):
        raise DomainError(f"no real curvature with position {i}")
    if len(spec.real) + len(spec.complex) < 2:
        raise DomainError("need at least two distinct curvatures")
    k_i = spec.real[i][0]
    total = 0.0 + 0.0j
    for j, (k_j, m_j) in enumerate(spec.real):
        if j == i:
            continue
        if abs(k_j - k_i) < 1e-12:
            raise DomainError("repeated real curvature in a denominator")
        total += m_j * (delta + k_i * k_j) / (k_j - k_i)
    for alpha, beta, m_j in spec.complex:
        for lam in (complex(alpha, beta), complex(alpha, -beta)):
            total += m_j * (delta + k_i * lam) / (lam - k_i)
    return float(total.real)


def modulus_relation(kappa: float, nu: int, alpha: float, beta: float) -> float:
    """kappa + nu*(alpha^2 + beta^2): zero is necessary for a complex curvature
    alpha + i*beta to occur on an isoparametric hypersurface of normal sign nu."""
    if beta <= 0:
        raise DomainError("beta must be positive")
    return kappa + nu * (alpha * alpha + beta * beta)


def type3_forced_curvature(alpha: float, beta: float) -> float:
    """The constant curvature (alpha^2 + beta^2)/alpha forced by a complex
    principal curvature in the type-III chain computation."""
    if alpha == 0:
        raise DomainError("alpha = 0 admits no solution")
    return (alpha * alpha + beta * beta) / alpha

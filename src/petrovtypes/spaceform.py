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

from . import linalg
from .linalg import (
    DomainError,
    ShapeError,
    ToleranceError,
    grad_norm_cut,
    residual_cut,
    resolve_tol,
)


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
        if self.variant == "sphere" and self.p is not None:
            raise ShapeError("sphere variant takes no linear term")
        pmat = np.array(self.P, dtype=float)  # a copy: later edits of the input do not reach it
        if pmat.ndim != 2 or pmat.shape[0] != pmat.shape[1] or pmat.size == 0:
            raise ShapeError(f"P must be a nonempty square matrix, got shape {pmat.shape}")
        n = pmat.shape[0]
        pv = np.zeros(n) if self.p is None else np.array(self.p, dtype=float)
        if pv.shape != (n,):
            raise ShapeError("p must match the dimension of P")
        if not all(np.isfinite(v).all() for v in (pmat, pv, self.c)):
            raise ShapeError("P, p and c must be finite (no NaN or infinity)")
        g = inner_matrix(n, self.s)
        scale = max(np.abs(pmat).max(), 1.0)
        if np.abs(g @ pmat - pmat.T @ g).max() > linalg.QUADRIC_SYMMETRY_TOL * scale:
            raise ShapeError("P is not self-adjoint for the ambient form")
        object.__setattr__(self, "P", pmat)
        if self.variant == "flat":
            object.__setattr__(self, "p", pv)

    @property
    def dim(self) -> int:
        return self.P.shape[0]

    def value(self, x):
        """f at a point x (n,), a float, or at each row of a stack (k, n), an
        array whose rows equal the point values bit for bit."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise ShapeError("point dimension mismatch")
        out = ambient_inner(_matvec(self.P, x), x, self.s)
        if self.variant == "flat":
            out += 2.0 * ambient_inner(np.broadcast_to(self.p, x.shape), x, self.s)
        return out


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
    if (np.abs(norm2 - 1.0) > residual_cut(tol) * radius).any():
        raise DomainError("sphere-variant gradient needs a point on the unit sphere")
    pxx = ambient_inner(px, x, f.s)
    return 2.0 * px - 2.0 * (pxx if x.ndim == 1 else pxx[:, None]) * x


def admissibility_check(
    f: QuadricFunction, tol: float | None = None
) -> tuple[bool, str]:
    """Checks the conditions that make the quadric level sets isoparametric.

    flat:   P = rho*E with rho != 0, or P^2 = O, Pp = 0, <p,p> != 0.
    sphere: the minimal polynomial of P has degree 2, decided as in
            quadratic_minimal_data, whose DomainError text a refusal reports.
    """
    tol = resolve_tol(tol)
    if f.variant == "sphere":
        try:
            quadratic_minimal_data(f, tol)
        except DomainError as exc:
            return False, str(exc)
        return True, "deg mu_P = 2"
    n = f.dim
    scale = max(np.abs(f.P).max(), 1.0)
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
    """Coefficients (a, b) with P^2 = a*P + b*E, for sphere-variant quadrics:
    the Frobenius projection of P^2 onto span{P, E}.  P0, the traceless part
    of P, is orthogonal to E, so a = <P^2, P0>/<P0, P0> and
    b = (tr P^2 - a tr P)/n.  With scale = max(|P|, 1), a DomainError names
    degree 1 when |P0| <= tol*scale, and a degree above 2 when
    |P^2 - aP - bE| > tol*scale^2.  tol is the only cut.

    Computed once per distinct P and tolerance: the memo is keyed by the
    bytes of P, so a changed P is never answered from an old entry.
    """
    tol = resolve_tol(tol)
    return _quadratic_minimal_data(f.P.tobytes(), f.dim, tol)


@functools.lru_cache(maxsize=64)
def _quadratic_minimal_data(p_bytes: bytes, n: int, tol: float) -> tuple[float, float]:
    p = np.frombuffer(p_bytes).reshape(n, n)
    eye = np.eye(n)
    scale = max(float(np.linalg.norm(p)), 1.0)
    p0 = p - np.trace(p) / n * eye
    p0_norm2 = float((p0 * p0).sum())
    if np.sqrt(p0_norm2) <= tol * scale:
        raise DomainError("deg mu_P = 1: P is a multiple of E, need degree 2")
    p2 = p @ p
    a = float((p2 * p0).sum()) / p0_norm2
    b = float(np.trace(p2) - a * np.trace(p)) / n
    residual = float(np.linalg.norm(p2 - a * p - b * eye))
    if residual > tol * scale * scale:
        raise DomainError(f"deg mu_P above 2: |P^2 - aP - bE| = {residual:.3e}, need 2")
    return a, b


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
    if (np.abs(f.value(x) - f.c) > residual_cut(tol) * max(1.0, abs(f.c))).any():
        raise DomainError("point is not on the requested level set")
    if (np.abs(phi) <= grad_norm_cut(tol)).any():
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
    if (misfit > residual_cut(tol) * scale).any():
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
    basis = np.asarray(tangent_basis, dtype=float)
    if basis.shape[0] != f.dim:
        raise ShapeError("tangent basis rows must match the ambient dimension")
    grad = quadric_gradient(f, x, tol)
    op, delta = sphere_level_operator(f, x, ambient_inner(grad, grad, f.s), tol)
    image = op @ basis
    rep, *_ = np.linalg.lstsq(basis, image, rcond=None)
    check_invariant(basis, rep, image, tol)
    return rep, delta


@dataclass(frozen=True)
class CurvatureSpectrum:
    """Principal curvatures with multiplicities; complex ones as (alpha, beta)."""

    real: tuple[tuple[float, int], ...]
    complex: tuple[tuple[float, float, int], ...] = field(default_factory=tuple)


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
        if abs(k_j - k_i) < linalg.CURVATURE_GAP_TOL:
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

"""Dense small-matrix primitives with dual numeric paths.

Matrices are numpy arrays: float64 for the floating path, object arrays of
``fractions.Fraction`` for the exact path (selected automatically when every
entry is rational, e.g. parsed from ``"p/q"`` strings).  All float-mode
predicates go through explicit tolerances, never raw equality.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

DEFAULT_TOL = 1e-9
RANK_TOL = 1e-6


class ShapeError(ValueError):
    """Input matrix has the wrong shape or mismatched dimensions."""


class ToleranceError(ArithmeticError):
    """A tolerance-guarded decision could not be made reliably."""


class ClusterAmbiguityError(ToleranceError):
    """Two eigenvalue clusters are too close to separate at the given tol."""


def default_tol() -> float:
    """Tolerance for algebraic predicates; PETROV_TOL overrides."""
    env = os.environ.get("PETROV_TOL")
    return float(env) if env else DEFAULT_TOL


def is_exact(a: np.ndarray) -> bool:
    return a.dtype == object


def to_float(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=float)


def matrix_to_json(a: np.ndarray) -> dict:
    """{"rows":r,"cols":c,"data":[...]} row-major; Fractions as "p/q"."""
    r, c = a.shape
    if is_exact(a):
        data = [str(x) for x in a.reshape(-1)]
    else:
        data = [float(x) for x in a.reshape(-1)]
    return {"rows": r, "cols": c, "data": data}


def matrix_from_json(obj: dict) -> np.ndarray:
    r, c = int(obj["rows"]), int(obj["cols"])
    data = obj["data"]
    if len(data) != r * c:
        raise ShapeError(f"expected {r * c} entries, got {len(data)}")
    if all(isinstance(x, str) for x in data) and data:
        return np.array([Fraction(x) for x in data], dtype=object).reshape(r, c)
    return np.array([float(x) for x in data], dtype=float).reshape(r, c)


def _require_square(a: np.ndarray, what: str = "matrix") -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{what} must be square, got shape {a.shape}")
    return a.shape[0]


@dataclass(frozen=True)
class BilinearSpace:
    """Nondegenerate symmetric bilinear form: dimension, Gram matrix, signature."""

    dim: int
    gram: np.ndarray
    signature: tuple[int, int]

    @classmethod
    def from_gram(cls, gram: np.ndarray, tol: float | None = None) -> "BilinearSpace":
        n = _require_square(gram, "gram")
        pos, neg, null = signature(gram, tol)
        if null:
            raise ValueError("gram matrix is degenerate")
        return cls(dim=n, gram=gram, signature=(pos, neg))

    def inner(self, u: np.ndarray, v: np.ndarray):
        return u @ self.gram @ v


def signature(gram: np.ndarray, tol: float | None = None) -> tuple[int, int, int]:
    """Sylvester signature (pos, neg, null) of a symmetric matrix."""
    tol = default_tol() if tol is None else tol
    n = _require_square(gram, "gram")
    if is_exact(gram):
        if (gram != gram.T).any():
            raise ShapeError("gram matrix is not symmetric")
        return _signature_exact(gram)
    g = to_float(gram)
    scale = max(np.abs(g).max(), 1.0)
    if np.abs(g - g.T).max() > tol * scale:
        raise ShapeError("gram matrix is not symmetric within tolerance")
    ev = np.linalg.eigvalsh((g + g.T) / 2.0)
    cut = max(tol, tol * scale)
    pos = int((ev > cut).sum())
    neg = int((ev < -cut).sum())
    return pos, neg, n - pos - neg


def _signature_exact(gram: np.ndarray) -> tuple[int, int, int]:
    """Lagrange congruence diagonalization over the rationals."""
    g = gram.copy()
    n = g.shape[0]
    pos = neg = null = 0
    idx = list(range(n))
    while idx:
        # find a nonzero diagonal entry, or create one from an off-diagonal
        piv = next((i for i in idx if g[i, i] != 0), None)
        if piv is None:
            pair = next(
                ((i, j) for i in idx for j in idx if j > i and g[i, j] != 0), None
            )
            if pair is None:
                null += len(idx)
                break
            i, j = pair
            # (e_i + e_j) has nonzero square; fold j into i
            for k in range(n):
                g[i, k] = g[i, k] + g[j, k]
            for k in range(n):
                g[k, i] = g[k, i] + g[k, j]
            piv = i
        d = g[piv, piv]
        if d > 0:
            pos += 1
        else:
            neg += 1
        idx.remove(piv)
        for i in list(idx):
            if g[i, piv] != 0:
                f = g[i, piv] / d
                for k in range(n):
                    g[i, k] = g[i, k] - f * g[piv, k]
                for k in range(n):
                    g[k, i] = g[k, i] - f * g[k, piv]
    return pos, neg, null


def is_self_adjoint(
    a: np.ndarray, space: BilinearSpace, tol: float | None = None
) -> bool:
    """True iff gram @ a == a.T @ gram (max-norm within tol in float mode)."""
    tol = default_tol() if tol is None else tol
    n = _require_square(a)
    if n != space.dim:
        raise ShapeError(f"operator dim {n} != space dim {space.dim}")
    g = space.gram
    if is_exact(a) and is_exact(g):
        return not (g @ a != a.T @ g).any()
    g = to_float(g)
    af = to_float(a)
    scale = max(np.abs(g).max() * max(np.abs(af).max(), 1.0), 1.0)
    return float(np.abs(g @ af - af.T @ g).max()) <= tol * scale


def char_poly(a: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial, coefficients ascending.

    Exact mode uses Faddeev-LeVerrier over the rationals; float mode expands
    from the (clustered) eigenvalues.
    """
    n = _require_square(a)
    if is_exact(a):
        # Faddeev-LeVerrier: M_0 = I, c_n = 1; M_k = A M_{k-1} + c_{n-k+1} I
        coeffs = [Fraction(0)] * (n + 1)
        coeffs[n] = Fraction(1)
        m = np.array(
            [[Fraction(int(i == j)) for j in range(n)] for i in range(n)],
            dtype=object,
        )
        for k in range(1, n + 1):
            am = a @ m
            c = -sum(am[i, i] for i in range(n)) / k
            coeffs[n - k] = c
            m = am + c * np.array(
                [[Fraction(int(i == j)) for j in range(n)] for i in range(n)],
                dtype=object,
            )
        return np.array(coeffs, dtype=object)
    clusters = eigen_clusters(a)
    roots: list[complex] = []
    for val, mult in clusters:
        if isinstance(val, tuple):
            alpha, beta = val
            roots += [complex(alpha, beta)] * mult + [complex(alpha, -beta)] * mult
        else:
            roots += [complex(val, 0.0)] * mult
    desc = np.poly(np.array(roots)) if roots else np.array([1.0])
    return np.real(desc[::-1]).astype(float)


def minimal_poly(a: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Monic polynomial of least degree annihilating a, ascending coefficients."""
    tol = default_tol() if tol is None else tol
    n = _require_square(a)
    if is_exact(a):
        return _minimal_poly_exact(a)
    clusters = eigen_clusters(a, tol)
    poly = np.array([1.0])
    for val, mult in clusters:
        if isinstance(val, tuple):
            alpha, beta = val
            lam = complex(alpha, beta)
            k = _max_block_size(to_float(a).astype(complex), lam, mult, tol)
            factor = np.array([alpha * alpha + beta * beta, -2.0 * alpha, 1.0])
        else:
            k = _max_block_size(to_float(a), float(val), mult, tol)
            factor = np.array([-float(val), 1.0])
        for _ in range(k):
            poly = np.convolve(poly, factor)
    poly = np.real(poly)
    # residual guard against misgrouped clusters
    residual = _poly_eval_matrix(poly, to_float(a))
    scale = max(np.abs(to_float(a)).max(), 1.0) ** max(len(poly) - 1, 1)
    if np.abs(residual).max() > max(1e3 * tol * scale, 1e-6 * scale):
        raise ToleranceError(
            f"minimal polynomial residual {np.abs(residual).max():.3e} too large; "
            f"ill-conditioned eigencluster near {clusters}"
        )
    return poly


def _minimal_poly_exact(a: np.ndarray) -> np.ndarray:
    """Least-degree monic annihilator via exact Krylov elimination."""
    n = a.shape[0]
    powers = [
        np.array(
            [[Fraction(int(i == j)) for j in range(n)] for i in range(n)],
            dtype=object,
        )
    ]
    rows: list[list[Fraction]] = []
    pivots: dict[int, list[Fraction]] = {}
    for deg in range(n + 1):
        vec = list(powers[-1].reshape(-1)) + [Fraction(0)] * (n + 1)
        vec[n * n + deg] = Fraction(1)  # track combination coefficients
        # reduce against existing pivot rows
        for col, prow in sorted(pivots.items()):
            if vec[col] != 0:
                f = vec[col] / prow[col]
                vec = [x - f * y for x, y in zip(vec, prow)]
        lead = next((i for i in range(n * n) if vec[i] != 0), None)
        if lead is None:
            coeffs = vec[n * n : n * n + deg + 1]
            top = coeffs[deg]
            return np.array([c / top for c in coeffs], dtype=object)
        pivots[lead] = vec
        rows.append(vec)
        powers.append(a @ powers[-1])
    raise RuntimeError("unreachable: Cayley-Hamilton bounds the degree")


def _poly_eval_matrix(poly: np.ndarray, a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    out = np.zeros_like(a)
    acc = np.eye(n, dtype=a.dtype)
    for c in poly:
        out = out + c * acc
        acc = acc @ a
    return out


def generalized_eigenspace(a: np.ndarray, lam, mult: int) -> np.ndarray:
    """Orthonormal columns spanning the mult-dimensional kernel of (a - lam I)^mult.

    The dimension is taken from the eigenvalue cluster, so no rank threshold is
    needed: the mult smallest right singular directions of the power are
    returned.  A cluster holding all n eigenvalues (a = lam I included) spans
    the whole space and gets the identity; a simple cluster gets the last
    right singular direction of (a - lam I) itself.
    """
    n = a.shape[0]
    if mult == n:
        return np.eye(n, dtype=a.dtype)
    power = a - lam * np.eye(n, dtype=a.dtype)
    if mult > 1:  # scaled to norm 1 so that the power cannot overflow
        power = np.linalg.matrix_power(power / np.linalg.norm(power, 2), mult)
    _u, _s, vh = np.linalg.svd(power)
    return vh.conj().T[:, n - mult :]


def jordan_rank_profile(
    a: np.ndarray, lam, mult: int, tol: float, basis: np.ndarray | None = None
) -> list[int]:
    """[rank(N^k) for k = 0..mult] where N restricts (a - lam I) to the
    generalized eigenspace of lam.

    Kernel dimensions are grown as a staircase, ker N^(k+1) = preimage of
    ker N^k, so every rank decision is one SVD of the unpowered N and never
    suffers the decay of explicit matrix powers; a simple cluster's 1x1 N
    needs no SVD at all.  ``basis`` is ``generalized_eigenspace(a, lam,
    mult)`` when the caller already has it.
    """
    n = a.shape[0]
    if mult == n:
        nil = a - lam * np.eye(n, dtype=a.dtype)
    else:
        q = generalized_eigenspace(a, lam, mult) if basis is None else basis
        nil = q.conj().T @ (a - lam * np.eye(n, dtype=a.dtype)) @ q
    cut = max(tol, RANK_TOL)
    # the first staircase step is the SVD of N itself, which also gives |N|_2;
    # a 1x1 N is its own singular value
    if mult == 1:
        sv, vh = np.abs(nil[0]), np.ones((1, 1))
    else:
        _u, sv, vh = np.linalg.svd(nil)
    norm = sv[0]
    if norm <= cut:
        return [mult] + [0] * mult
    nil = nil / norm
    sv = sv / norm
    ranks = [mult]
    kernel = np.zeros((mult, 0), dtype=nil.dtype)
    increment = mult
    for step in range(mult):
        if step:
            proj = nil - kernel @ (kernel.conj().T @ nil)
            _u, sv, vh = np.linalg.svd(proj)
        null_dim = int((sv <= cut).sum()) + (mult - len(sv))
        # Weyr increments are nonincreasing and the total is capped by mult
        increment = min(increment, null_dim - kernel.shape[1])
        increment = min(increment, mult - kernel.shape[1])
        if increment <= 0 and kernel.shape[1] < mult:
            raise ToleranceError(
                f"restriction to the eigenspace of {lam} is not numerically nilpotent"
            )
        new_dim = kernel.shape[1] + increment
        kernel = vh.conj().T[:, mult - new_dim :]
        ranks.append(mult - new_dim)
        if new_dim == mult:
            break
    ranks += [0] * (mult + 1 - len(ranks))
    return ranks


def _max_block_size(a: np.ndarray, lam, mult: int, tol: float) -> int:
    """Largest Jordan block size at lam: first k with rank(N^k) = 0."""
    profile = jordan_rank_profile(a, lam, mult, tol)
    return next(k for k in range(mult + 1) if profile[k] == 0)


def rank_sequence(a: np.ndarray, lam, tol: float | None = None) -> list[int]:
    """[rank((a - lam I)^k) for k = 0..n]; complex lam works on the complexification."""
    tol = default_tol() if tol is None else tol
    n = _require_square(a)
    base = to_float(a)
    if isinstance(lam, tuple):
        lam = complex(lam[0], lam[1])
    if isinstance(lam, complex) and lam.imag != 0:
        base = base.astype(complex)
    mult = None
    for val, m in eigen_clusters(base.real if np.iscomplexobj(base) else base, tol):
        v = complex(val[0], val[1]) if isinstance(val, tuple) else complex(val)
        if abs(v - complex(lam)) <= max(tol, 1e-6) * max(1.0, abs(v)):
            mult = m
    if mult is None:
        return [n] * (n + 1)  # lam is not an eigenvalue: full rank throughout
    profile = jordan_rank_profile(base, lam, mult, tol)
    profile = profile + [0] * (n - mult)
    return [(n - mult) + r for r in profile[: n + 1]]


def eigen_clusters(a: np.ndarray, tol: float | None = None) -> list[tuple[object, int]]:
    """Eigenvalues grouped by single-linkage at distance tol.

    Real clusters are reported as (value, multiplicity); complex-conjugate
    pairs as ((alpha, beta), pair_multiplicity) with beta > 0.  Multiplicities
    sum to dim counting each conjugate pair twice.
    """
    tol = default_tol() if tol is None else tol
    n = _require_square(a)
    if n == 0:
        return []
    ev = np.linalg.eigvals(to_float(a))
    scale = max(np.abs(ev).max(), 1.0)
    # defective eigenvalues scatter like eps^(1/m); widen the linkage radius
    defect = 3.0 * (250.0 * np.finfo(float).eps) ** (1.0 / n)
    thresh = max(tol, defect) * scale
    # single-linkage components on the complex plane
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(ev[i] - ev[j]) <= thresh:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    centers = {r: complex(np.mean(ev[m])) for r, m in groups.items()}
    # ambiguity guard: distinct clusters closer than 2*thresh
    roots = list(groups)
    for i, ri in enumerate(roots):
        for rj in roots[i + 1 :]:
            d = abs(centers[ri] - centers[rj])
            if d <= 2.0 * thresh and abs(centers[ri] - centers[rj].conjugate()) > thresh:
                raise ClusterAmbiguityError(
                    f"eigenvalue clusters {centers[ri]:.6g} and {centers[rj]:.6g} "
                    f"are within twice the clustering threshold {thresh:.3e}"
                )
    out: list[tuple[object, int]] = []
    used: set[int] = set()
    for r in sorted(roots, key=lambda r: (centers[r].real, abs(centers[r].imag))):
        if r in used:
            continue
        c = centers[r]
        mult = len(groups[r])
        if abs(c.imag) <= thresh:
            out.append((float(c.real), mult))
            used.add(r)
            continue
        # locate the conjugate cluster and symmetrize the pair
        mate = min(
            (s for s in roots if s not in used and s != r),
            key=lambda s: abs(centers[s] - c.conjugate()),
            default=None,
        )
        if mate is None or abs(centers[mate] - c.conjugate()) > 2.0 * thresh:
            raise ClusterAmbiguityError(
                f"no conjugate partner for complex cluster near {c:.6g}"
            )
        alpha = (c.real + centers[mate].real) / 2.0
        beta = abs(c.imag - centers[mate].imag) / 2.0
        out.append(((float(alpha), float(beta)), mult))
        used.add(r)
        used.add(mate)
    out.sort(key=_cluster_key)
    return out


def _cluster_key(item):
    val, _ = item
    if isinstance(val, tuple):
        return (1, val[0], val[1])
    return (0, float(val), 0.0)


def poly_to_string(poly: np.ndarray, var: str = "t") -> str:
    terms = []
    for k in range(len(poly) - 1, -1, -1):
        c = poly[k]
        if (isinstance(c, Fraction) and c == 0) or (
            not isinstance(c, Fraction) and abs(float(c)) < 1e-14
        ):
            continue
        if k == 0:
            terms.append(f"{c}")
        elif k == 1:
            terms.append(f"{c}*{var}")
        else:
            terms.append(f"{c}*{var}^{k}")
    return " + ".join(terms) if terms else "0"

"""Dense small-matrix primitives on float64 numpy arrays.

Every predicate goes through an explicit tolerance, never raw equality.
Matrix JSON may write an entry as a ``"p/q"`` string; it is parsed exactly
and rounded once to float64, so there is one numeric path.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# The tolerance table: every cut that decides a label, a refusal or a chart
# condition, named once.  Call sites read it by name when called, a cut of
# the form max(tol, floor) through its one-line function below; README.md's
# "Tolerances" section lists the readers of each.
EPS = float(np.finfo(float).eps)
# the tolerance when neither a tol argument nor PETROV_TOL gives one
DEFAULT_TOL = 1e-9
# floor of rank_cut: a singular value of a restriction N_r read as zero
RANK_TOL = 1e-6
# floor of residual_cut: self-adjointness of a pair, and a point on the unit
# sphere, on its level set, and a tangent basis invariant under its operator
RESIDUAL_FLOOR = 1e-7
# floor of grad_norm_cut: a quadric level set is regular where
# |<grad, grad>| is above max(tol, GRAD_NORM_FLOOR)
GRAD_NORM_FLOOR = 1e-9
# a quadric's P is self-adjoint where |G P - P^T G| <= this * max(|P|, 1)
QUADRIC_SYMMETRY_TOL = 1e-9
# a chain's deflation keeps the singular values above this * max(s_0, 1)
DEFLATE_TOL = 1e-10
# floor of cond_limit: the largest cond(T) accepted is 1 / max(tol, this)
COND_FLOOR = EPS * 10
# cartan_residual: two real curvatures closer than this are one, refused
CURVATURE_GAP_TOL = 1e-12
# entries 0-1 and 0-2: an angle whose |sin| is below this is region 0
REGION_TOL = 1e-12
# the sphere-variant chart solve stops a row once both residuals are below this
NEWTON_STOP = 1e-14
# the chart conditions of g, k and l fail at or below this
CHART_CLAUSE_TOL = 1e-9
# The chart of h and i solves for x2 and x5, and its Newton Jacobian is
# singular where x2 + x5 = 0.  Near there the constraint residual is
# quadratic in x2 + x5, so a solve stopped at NEWTON_STOP leaves x2 + x5 up
# to about sqrt(NEWTON_STOP) = 1e-7 from 0: within ten times that, the
# clause cannot be told from 0.
CHART_SINGULAR_TOL = 10.0 * np.sqrt(NEWTON_STOP)


def rank_cut(tol: float) -> float:
    """The cut of every rank decision at tolerance tol: a singular value at
    most max(tol, RANK_TOL) is read as zero."""
    return max(tol, RANK_TOL)


def residual_cut(tol: float) -> float:
    """The cut of every residual check at tolerance tol: max(tol,
    RESIDUAL_FLOOR), relative to the scale each check states."""
    return max(tol, RESIDUAL_FLOOR)


def grad_norm_cut(tol: float) -> float:
    """|<grad, grad>| at most max(tol, GRAD_NORM_FLOOR), or NaN, is a level
    that is not regular: spaceform.causal_sign's rule."""
    return max(tol, GRAD_NORM_FLOOR)


def cond_limit(tol: float) -> float:
    """The largest condition number of a normal-form basis T accepted at
    tolerance tol: 1 / max(tol, COND_FLOOR)."""
    return 1.0 / max(tol, COND_FLOOR)


def cluster_radius(tol: float, n: int) -> float:
    """The linkage radius of n eigenvalues, relative to max(max |ev|, 1):
    tol, widened to 3 (250 eps)^(1/n), since defective eigenvalues scatter
    like eps^(1/m)."""
    return max(tol, 3.0 * (250.0 * EPS) ** (1.0 / n))


class ShapeError(ValueError):
    """Input matrix has the wrong shape or mismatched dimensions."""


class ToleranceError(ArithmeticError):
    """A tolerance-guarded decision could not be made reliably."""


class ClusterAmbiguityError(ToleranceError):
    """Two eigenvalue clusters are too close to separate at the given tol."""


class DegenerateGramError(ValueError):
    """The Gram matrix has a null direction, so it is not an inner product."""


class BadToleranceError(ValueError):
    """A tolerance that is not a positive finite number."""


class DomainError(ValueError):
    """A point lies outside the region where the formulas are valid."""


def checked_tol(value, source: str) -> float:
    """value as a float if it is a positive finite number; otherwise
    BadToleranceError naming its source."""
    try:
        tol = float(value)
    except ValueError:
        tol = math.nan
    if math.isfinite(tol) and tol > 0:
        return tol
    raise BadToleranceError(f"{source} must be a positive finite number, got {value!r}")


def default_tol() -> float:
    """Tolerance for algebraic predicates; PETROV_TOL overrides."""
    env = os.environ.get("PETROV_TOL")
    return checked_tol(env, "PETROV_TOL") if env else DEFAULT_TOL


def resolve_tol(tol) -> float:
    """The tolerance argument of a library call: the default for None,
    otherwise tol itself if it is a positive finite number."""
    return default_tol() if tol is None else checked_tol(tol, "tol")


def matrix_to_json(a: np.ndarray) -> dict:
    """{"rows": r, "cols": c, "data": [...]}, row-major floats."""
    r, c = a.shape
    return {"rows": r, "cols": c, "data": [float(x) for x in a.reshape(-1)]}


def matrix_from_json(obj: dict) -> np.ndarray:
    """The float64 matrix of {"rows": r, "cols": c, "data": [...]}.

    rows and cols are positive integers and data is a row-major list of
    r * c numbers or "p/q" strings; a string is read as an exact fraction
    and rounded once to float.  An obj that is not a dict raises TypeError,
    a bad layout ShapeError, any other entry (true, false, beyond the float
    range) ValueError or TypeError.
    """
    if not isinstance(obj, dict):
        raise TypeError(
            'a matrix must be an object with "rows", "cols" and "data", '
            f"got {type(obj).__name__}"
        )
    r, c, data = obj["rows"], obj["cols"], obj["data"]
    for name, size in (("rows", r), ("cols", c)):
        if isinstance(size, bool) or not isinstance(size, int) or size < 1:
            raise ShapeError(f'"{name}" must be a positive integer, got {size!r}')
    if not isinstance(data, list):
        raise ShapeError(f'"data" must be a list, got {type(data).__name__}')
    if len(data) != r * c:
        raise ShapeError(f"expected {r * c} entries, got {len(data)}")
    if any(isinstance(x, bool) for x in data):
        raise ValueError("entries must be numbers or \"p/q\" strings, not true or false")
    if any(isinstance(x, str) for x in data):
        # imported on use: only a "p/q" entry needs fractions, which loads decimal
        from fractions import Fraction
    try:
        values = [float(Fraction(x)) if isinstance(x, str) else float(x) for x in data]
    except ZeroDivisionError as exc:
        raise ValueError(f"entry with a zero denominator: {exc}") from exc
    except OverflowError as exc:
        raise ValueError(f"entry beyond the float range: {exc}") from exc
    return np.array(values, dtype=float).reshape(r, c)


def _require_square(a, what: str = "matrix") -> tuple[np.ndarray, float]:
    """a as a float64 array and max |a|, if a is a nonempty square matrix of
    finite entries; otherwise ShapeError.  The max is not finite exactly
    when an entry is not, so one scan checks and scales."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{what} must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ShapeError(f"{what} is empty, got shape {a.shape}")
    scale = float(np.abs(a).max())
    if not math.isfinite(scale):
        raise ShapeError(f"{what} has a non-finite entry (NaN or infinity)")
    return a, scale


@dataclass(frozen=True)
class BilinearSpace:
    """Nondegenerate symmetric bilinear form: dimension, Gram matrix, signature."""

    dim: int
    gram: np.ndarray
    signature: tuple[int, int]

    @classmethod
    def from_gram(cls, gram: np.ndarray, tol: float | None = None) -> "BilinearSpace":
        tol = resolve_tol(tol)
        g, scale = _require_square(gram, "gram")
        pos, neg, null = _inertia(g, scale, tol)
        if null:
            raise DegenerateGramError("gram matrix is degenerate")
        space = cls(dim=pos + neg, gram=gram, signature=(pos, neg))
        # the scan that checked the gram also gives its cached scale
        vars(space)["gram_scale"] = scale
        return space

    @cached_property
    def gram_scale(self) -> float:
        """max |gram|, the scale ``is_self_adjoint`` divides the gram by."""
        return float(np.abs(np.asarray(self.gram, dtype=float)).max())


def signature(gram: np.ndarray, tol: float | None = None) -> tuple[int, int, int]:
    """Sylvester signature (pos, neg, null) of a symmetric matrix."""
    tol = resolve_tol(tol)
    return _inertia(*_require_square(gram, "gram"), tol)


def _inertia(g: np.ndarray, scale: float, tol: float) -> tuple[int, int, int]:
    """``signature`` of a checked gram g with max |g| = scale."""
    cut = tol * max(scale, 1.0)
    # halves first: g + g.T and g - g.T can overflow where g does not
    half = g / 2.0
    if np.abs(half - half.T).max() > cut / 2.0:
        raise ShapeError("gram matrix is not symmetric within tolerance")
    ev = np.linalg.eigvalsh(half + half.T).tolist()
    pos = len([x for x in ev if x > cut])
    neg = len([x for x in ev if x < -cut])
    return pos, neg, len(ev) - pos - neg


def is_self_adjoint(
    a: np.ndarray, space: BilinearSpace, tol: float | None = None
) -> bool:
    """True iff gram @ a == a.T @ gram in the max norm, within tol, with
    gram scaled by 1 / max |gram| and a by 1 / max(max |a|, 1), so that no
    product can overflow."""
    tol = resolve_tol(tol)
    af, scale = _require_square(a, "operator")
    if af.shape[0] != space.dim:
        raise ShapeError(f"operator dim {af.shape[0]} != space dim {space.dim}")
    g = np.asarray(space.gram, dtype=float) / space.gram_scale
    af = af / max(scale, 1.0)
    # a residual that is not finite fails the comparison
    return bool(np.abs(g @ af - af.T @ g).max() <= tol)


def generalized_eigenspace(shifts: np.ndarray, scales: np.ndarray, mult: int) -> np.ndarray:
    """(k, n, mult) stack: for each shift a - lam I of the (k, n, n) stack
    shifts (real or complex), orthonormal columns spanning the
    mult-dimensional kernel of (a - lam I)^mult.

    The dimension is taken from the eigenvalue cluster, so no rank threshold is
    needed: the mult smallest right singular directions of the power are
    returned, one stacked SVD for all shifts, and a stacked row equals the
    call for its shift alone bit for bit.  The power is of the shift divided
    by its entry of scales, max |a - lam I|, the scale the chain degeneracy
    checks read; it is within a factor n of the 2-norm, so the power cannot
    overflow.  It is formed by ``_power`` as ``@`` products.  A cluster
    holding all n eigenvalues gets the identity.
    """
    k, n, _n = shifts.shape
    if mult == n:
        return np.tile(np.eye(n, dtype=shifts.dtype), (k, 1, 1))
    _u, _s, vh = np.linalg.svd(_power(shifts / scales[:, None, None], mult))
    return vh.conj().transpose(0, 2, 1)[:, :, n - mult :]


def _power(x: np.ndarray, m: int) -> np.ndarray:
    """x^m for m >= 2 by the ``@`` products of np.linalg.matrix_power, in its
    order, so that it is that result bit for bit, without its wrapper:
    (x @ x) @ x for m = 3, otherwise square-and-multiply over the bits of m
    from the lowest (x @ x for m = 2)."""
    if m == 3:
        return (x @ x) @ x
    z = result = None
    while m:
        z = x if z is None else z @ z
        m, bit = divmod(m, 2)
        if bit:
            result = z if result is None else result @ z
    return result


def jordan_rank_profile(nil: np.ndarray, lam, tol: float) -> list[int]:
    """[rank(N^k) for k = 0..mult] of N = nil, the mult x mult restriction
    q^H (a - lam I) q of a to the generalized eigenspace q of its eigenvalue
    lam, which only the error text reads.

    Kernel dimensions are grown as a staircase, ker N^(k+1) = preimage of
    ker N^k, so every rank decision is one SVD of the unpowered N and never
    suffers the decay of explicit matrix powers; a simple cluster's 1x1 N
    needs no SVD at all.  A step taken with one kernel direction left either
    completes the staircase or raises, so it reads the singular values only
    and takes a values-only SVD; every other step reads V^H for the kernel
    of the next.  A restriction that is not numerically nilpotent raises
    ToleranceError.
    """
    mult = nil.shape[0]
    cut = rank_cut(tol)
    # the first staircase step is the SVD of N itself, which also gives |N|_2;
    # a 1x1 N is its own singular value, and its first step is its last.
    # The singular values are compared as Python floats
    _u, sv, vh = np.linalg.svd(nil) if mult > 1 else (None, np.abs(nil[0]), None)
    sv = sv.tolist()
    norm = sv[0]
    if norm <= cut:
        return [mult] + [0] * mult
    nil = nil / norm
    sv = [s / norm for s in sv]
    ranks = [mult]
    kernel_dim = 0
    increment = mult
    for step in range(mult):
        if step:
            proj = nil - kernel @ (kernel.conj().T @ nil)
            if mult - kernel_dim > 1:
                _u, sv, vh = np.linalg.svd(proj)
            else:  # adds the last direction or raises: V^H is not read
                sv = np.linalg.svd(proj, compute_uv=False)
            sv = sv.tolist()
        null_dim = len([s for s in sv if s <= cut]) + (mult - len(sv))
        # Weyr increments are nonincreasing and the total is capped by mult
        increment = min(increment, null_dim - kernel_dim, mult - kernel_dim)
        if increment <= 0 and kernel_dim < mult:
            raise ToleranceError(
                f"restriction to the eigenspace of {lam} is not numerically nilpotent"
            )
        kernel_dim += increment
        ranks.append(mult - kernel_dim)
        if kernel_dim == mult:
            break
        kernel = vh.conj().T[:, mult - kernel_dim :]
    ranks += [0] * (mult + 1 - len(ranks))
    return ranks


def eigen_clusters(a: np.ndarray, tol: float | None = None) -> list[tuple[object, int]]:
    """Eigenvalues grouped by single-linkage at distance tol.

    Real clusters are reported as (value, multiplicity), ascending, then
    each complex-conjugate pair once, from its member with beta > 0, as
    ((alpha, beta), pair_multiplicity).  Multiplicities sum to dim counting
    each pair twice.  a is real, so its spectrum is closed under conjugation
    and a mate lies 2|beta| away: a pair with |beta| up to half the linkage
    radius is one real cluster, and one with |beta| up to the radius raises
    ClusterAmbiguityError, like any two clusters within twice the radius.
    """
    tol = resolve_tol(tol)
    clusters, _vecs = _eig_clusters(_require_square(a)[0], tol)
    return [
        ((value.real, value.imag) if isinstance(value, complex) else value, len(members))
        for value, members in clusters
    ]


def _eig_clusters(a: np.ndarray, tol: float) -> tuple[list[tuple[object, list[int]]], np.ndarray]:
    """The clusters of ``eigen_clusters`` of a checked float matrix a, each
    as (value, member indices), a complex pair's value as a complex number,
    and the eigenvectors of the one np.linalg.eig call whose eigenvalues
    they link: member i is eigenvalue i, and column i its eigenvector."""
    n = a.shape[0]
    ev, vecs = np.linalg.eig(a)
    # + 0.0: a zero eigenvalue reads 0.0, never -0.0, as it does for -A
    ev = ev + 0.0
    # the linkage loops run on Python scalars, which are far cheaper to
    # subtract and compare than numpy ones: floats for a real spectrum, whose
    # distances |x - y| are those of the complex numbers x + 0j, y + 0j
    values = ev.tolist()
    scale = max(max(map(abs, values)), 1.0)
    thresh = cluster_radius(tol, n) * scale
    # single-linkage components on the complex plane: each link merges the
    # component labels of its ends
    label = list(range(n))
    for i, j in [(i, j) for i in range(n) for j in range(i + 1, n)
                 if abs(values[i] - values[j]) <= thresh]:
        keep, drop = label[i], label[j]
        label = [keep if x == drop else x for x in label]
    groups: dict[int, list[int]] = {}
    for i, x in enumerate(label):
        groups.setdefault(x, []).append(i)
    # a group of one is its own centre; a larger one is its mean, as the
    # sum and the division np.mean makes, bit for bit, without its overhead
    centers = [
        (values[m[0]] if len(m) == 1 else (np.add.reduce(ev[m]) / len(m)).item(), m)
        for m in groups.values()
    ]
    # ambiguity guard: distinct clusters closer than 2*thresh
    limit = 2.0 * thresh
    for i, (ci, _m) in enumerate(centers):
        for cj, _m in centers[i + 1 :]:
            if abs(ci - cj) <= limit:
                raise ClusterAmbiguityError(
                    f"eigenvalue clusters {complex(ci):.6g} and {complex(cj):.6g} "
                    f"are within twice the clustering threshold {thresh:.3e}"
                )
    # the real clusters, and each complex pair from its member with beta > 0
    out = [(c if c.imag > thresh else c.real, m) for c, m in centers if c.imag >= -thresh]
    # real values ascending, then complex ones by (alpha, beta)
    out.sort(key=lambda item: (type(item[0]) is complex, item[0].real, item[0].imag))
    return out, vecs

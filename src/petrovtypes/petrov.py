"""Jordan structure, Petrov normal forms, and the index-1/index-2 taxonomy.

The normal form pairs a block operator (Jordan blocks for real eigenvalues,
real 2x2-companion chains for conjugate pairs) with a Gram matrix made of
signed anti-diagonal blocks.  The sign attached to each real block is part of
the invariant data and drives the type labels.

Every eigenvalue cluster, real or complex, gets its orthonormal eigenspace
basis q, N_r = q^H (a - lam I) q and its scale max |a - lam I| (|a - lam I|
below), which every chain's degeneracy check reads.  One np.linalg.eig call
gives the eigenvalues the clusters link and the eigenvectors: a simple
cluster's q is its eig column, and its 1x1 N_r within the rank cut makes it
a 1-block.  Clusters of one kind and of one multiplicity 2 or more share one
shift stack a - lam I and one ``generalized_eigenspace`` call, scaled by
|a - lam I|, and the rank profile of N_r sizes their blocks.  Blocks are
then built in two ways:

- chains of length 2 or more, and every complex chain: the chain peel takes
  longest chains first in the coordinates of q, on N_r, and deflates each
  chain's B-orthocomplement.  Complex clusters run it over the
  complexification and are realified into companion blocks, whose columns,
  like a real block's, are fixed only up to sign.  Every chain generator is
  the dominant eigenvector of one real symmetric form: the pairing
  B(v, N^(m-1) v) on a real span; on a complex span, where B is bilinear,
  the real 2k x 2k embedding of the complex symmetric pairing Q, whose top
  eigenvalue is the maximum of |x^T Q x| over unit x, the largest Takagi
  value of Q (Horn & Johnson, *Matrix Analysis*, 2nd ed., 4.4).  A pairing
  at most tol * max(|form|, |a - lam I|, 1) raises one ConditioningError;
- real 1-blocks: what is left of a real cluster after its peel, the whole
  eigenspace of a simple or semisimple one, is a span where a - lam I
  vanishes.  One symmetric eigensolve of the Gram restricted to it, stacked
  over spans of equal width, gives B-orthogonal eigenvectors, and its
  inertia is the sign characteristic of those 1-blocks (a 1x1 form is its
  own eigenvalue, so simple eigenvalues need no eigensolve).  A restricted
  form with an eigenvalue at most tol * max(|form|, |a - lam I|, 1), the
  scale of the peel's checks, raises ConditioningError.

A cluster spanning the whole space gets the identity basis.

The type labels are orientation-free: (-A, G), the other unit normal, gets
the index and label of (A, G).  By the sign characteristic rule (Gohberg,
Lancaster & Rodman, *Indefinite Linear Algebra and Its Applications*, 2005,
ch. 5), its normal form has the eigenvalues negated, each even-size real
block with its sign negated and each odd-size real block with its sign
kept.  The index and label read only block sizes, complex sizes, the signs
of odd-size blocks and whether two even-size blocks have equal signs, and
the negative index reads no more, so (-A, G) gets the same index and label,
or the same TaxonomyError; only epsilon and the eigenvalue parameters of
the algebraic type may change.  ``classify_geometric`` returns that index and
label.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .linalg import (
    BilinearSpace,
    ShapeError,
    ToleranceError,
    _eig_clusters,
    cond_limit,
    generalized_eigenspace,
    is_self_adjoint,
    jordan_rank_profile,
    rank_cut,
    residual_cut,
    resolve_tol,
)


class ContractError(ValueError):
    """A precondition of the operation does not hold."""


class ConditioningError(ToleranceError):
    """Chain construction met a numerically defective configuration."""


class TaxonomyError(ValueError):
    """The block pattern does not fit the index-1/index-2 type lists."""


@dataclass(frozen=True)
class JordanStructure:
    """Block sizes per eigenvalue: real (lambda, sizes) and complex (alpha, beta, sizes)."""

    real_blocks: tuple[tuple[float, tuple[int, ...]], ...]
    complex_blocks: tuple[tuple[float, float, tuple[int, ...]], ...]

    @property
    def dim(self) -> int:
        return sum(sum(s) for _, s in self.real_blocks) + 2 * sum(
            sum(s) for _, _, s in self.complex_blocks
        )

    def to_json(self) -> dict:
        return {
            "real": [{"lambda": lam, "sizes": list(s)} for lam, s in self.real_blocks],
            "complex": [
                {"alpha": a, "beta": b, "sizes": list(s)}
                for a, b, s in self.complex_blocks
            ],
        }


@dataclass(frozen=True)
class SelfAdjointPair:
    """Operator matrix plus the bilinear space it is self-adjoint against."""

    a: np.ndarray
    space: BilinearSpace

    def __post_init__(self):
        if self.a.shape != (self.space.dim, self.space.dim):
            raise ShapeError("operator and space dimensions differ")


@dataclass(frozen=True)
class PetrovNormalForm:
    structure: JordanStructure
    signs: tuple[int, ...]  # one per real block, in canonical block order
    # columns: adapted basis; T^-1 A T and T^T G T are the normal pair of
    # structure and signs, which assemble_normal_pair builds
    transform: np.ndarray


@dataclass(frozen=True)
class AlgebraicType:
    index: int
    label: str
    epsilon: int | None = None
    parameters: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "label": self.label,
            "epsilon": self.epsilon,
            "params": self.parameters,
        }


@dataclass(frozen=True)
class GeometricType:
    index: int
    label: str

    def to_json(self) -> dict:
        return {"index": self.index, "label": self.label}


def jordan_structure(
    a: np.ndarray, tol: float | None = None
) -> tuple[JordanStructure, list[np.ndarray], list[np.ndarray], list[float]]:
    """Block sizes per eigenvalue from the rank profile of N_r, and per
    cluster (real, then complex, in canonical order) an orthonormal basis q
    of its generalized eigenspace, N_r = q^H (a - lam I) q and max |a - lam I|,
    each computed once for every use.

    One np.linalg.eig call gives the eigenvalues the clusters link and the
    eigenvectors: a simple cluster's q is its eig column (real for a real
    cluster), and its 1x1 N_r within the rank cut gives the 1-block with no
    rank profile.  Clusters of one kind and multiplicity 2 or more share one
    shift stack and one ``generalized_eigenspace`` call, scaled by that max,
    which is also the shift's part of the chain degeneracy scale."""
    tol = resolve_tol(tol)
    af = np.asarray(a, dtype=float)
    n = af.shape[0]
    if n > 8:
        raise ContractError("jordan_structure supports dim <= 8")
    # real clusters ascending, then complex by (alpha, beta), as eigen_clusters
    # lists them, with their eigenvalue indices into the columns of vecs
    linked, vecs = _eig_clusters(a, tol)
    clusters = [
        (complex(*val) if isinstance(val, tuple) else float(val), members)
        for val, members in linked
    ]
    groups: dict[tuple[type, int], list[int]] = {}
    for i, (lam, members) in enumerate(clusters):
        groups.setdefault((type(lam), len(members)), []).append(i)
    bases, restricted, shift_scales = ([None] * len(clusters) for _ in range(3))
    for (kind, mult), group in groups.items():
        # a complex cluster's eigenspace lies in the complexification
        mat = af.astype(kind)
        lams = np.array([clusters[i][0] for i in group])
        shifts = mat - lams[:, None, None] * np.eye(n)
        scales = np.abs(shifts).max(axis=(1, 2))
        if mult == 1:
            cols = vecs[:, [clusters[i][1][0] for i in group]].T[:, :, None]
            q = cols if kind is complex else cols.real
        else:
            q = generalized_eigenspace(shifts, scales, mult)
        nr = q.conj().transpose(0, 2, 1) @ shifts @ q
        for i, qi, nri, scale in zip(group, q, nr, scales):
            bases[i], restricted[i], shift_scales[i] = qi, nri, scale
    cut = rank_cut(tol)
    real: list[tuple[float, tuple[int, ...]]] = []
    cplx: list[tuple[float, float, tuple[int, ...]]] = []
    for (lam, _members), nr in zip(clusters, restricted):
        simple = nr.shape == (1, 1) and abs(nr[0, 0]) <= cut
        sizes = (1,) if simple else _block_sizes(nr, lam, tol)
        if isinstance(lam, complex):
            cplx.append((lam.real, lam.imag, sizes))
        else:
            real.append((lam, sizes))
    return JordanStructure(tuple(real), tuple(cplx)), bases, restricted, shift_scales


def _block_sizes(nr: np.ndarray, lam, tol: float) -> tuple[int, ...]:
    """Sizes (ascending) from the rank profile of N_r on the generalized
    eigenspace."""
    ranks = jordan_rank_profile(nr, lam, tol)
    # at_least[k] blocks have size k + 1 or more
    at_least = [r - s for r, s in zip(ranks, ranks[1:])] + [0]
    return tuple(
        k + 1 for k in range(len(at_least) - 1) for _ in range(at_least[k] - at_least[k + 1])
    )


def assemble_normal_pair(
    structure: JordanStructure, signs: list[int]
) -> SelfAdjointPair:
    """Emit (A_norm, G_norm) exactly in the canonical block layout, with the
    signature that the blocks fix (Sylvester's law), read as negative_index
    reads it."""
    a, g = _normal_matrices(structure, signs)
    neg = _negative_count(structure, signs)
    return SelfAdjointPair(a, BilinearSpace(structure.dim, g, (structure.dim - neg, neg)))


def _normal_matrices(
    structure: JordanStructure, signs: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """A_norm and G_norm of ``assemble_normal_pair``, without the space.

    Signs are consumed one per real block in canonical order (eigenvalues
    ascending, sizes ascending); among equal sizes of one eigenvalue the signs
    are reordered descending, which is a normalization, not an error.
    """
    n_real_blocks = sum(len(s) for _, s in structure.real_blocks)
    if len(signs) != n_real_blocks:
        raise ContractError(
            f"need {n_real_blocks} signs for the real blocks, got {len(signs)}"
        )
    a, g = np.zeros((2, structure.dim, structure.dim))
    at = 0  # first row of the next block
    i = 0
    for lam, sizes in structure.real_blocks:
        segment = list(zip(sizes, signs[i : i + len(sizes)]))
        i += len(sizes)
        # equal sizes: sign +1 before -1
        segment.sort(key=lambda t: (t[0], -t[1]))
        for m, eps in segment:
            if eps not in (-1, 1):
                raise ContractError("signs must be +-1")
            # Jordan block J_m(lam), Gram eps times the anti-identity
            idx = np.arange(at, at + m)
            a[idx, idx] = lam
            a[idx[:-1], idx[1:]] = 1.0
            g[idx, idx[::-1]] = eps
            at += m
    for alpha, beta, sizes in structure.complex_blocks:
        for m in sizes:
            # companion cells [[alpha, -beta], [beta, alpha]], identity cells
            # above them, Gram cells diag(-1, 1) on the block anti-diagonal
            re = np.arange(at, at + 2 * m, 2)
            im = re + 1
            a[re, re] = a[im, im] = alpha
            a[re, im] = -beta
            a[im, re] = beta
            a[re[:-1], re[1:]] = a[im[:-1], im[1:]] = 1.0
            g[re, re[::-1]] = -1.0
            g[im, im[::-1]] = 1.0
            at += 2 * m
    return a, g


def petrov_normal_form(
    pair: SelfAdjointPair, tol: float | None = None
) -> PetrovNormalForm:
    """Simultaneous canonical form of a self-adjoint pair.

    Chains of length 2 or more are built eigenvalue by eigenvalue inside each
    generalized eigenspace: longest chains first, each chain generator
    straightened so the Gram of the chain is exactly a signed anti-diagonal,
    then the chain's orthocomplement is deflated.  Complex pairs run the same
    procedure, for chains of every length, over the complexification and are
    realified into companion blocks.  Every real 1-block, of a simple,
    semisimple or mixed cluster, comes from one stacked eigensolve of the Gram
    on what the peel leaves (module docstring).
    """
    tol = resolve_tol(tol)
    a = np.asarray(pair.a, dtype=float)
    g = np.asarray(pair.space.gram, dtype=float)
    n = a.shape[0]
    if n > 8:
        raise ContractError("petrov_normal_form supports dim <= 8")
    if not is_self_adjoint(pair.a, pair.space, residual_cut(tol)):
        raise ContractError("operator is not self-adjoint for the given gram")
    structure, bases, restricted, shift_scales = jordan_structure(a, tol)
    clusters = list(structure.real_blocks) + [
        (complex(alpha, beta), sizes) for alpha, beta, sizes in structure.complex_blocks
    ]
    # (key, sign, columns) per block; the keys sort to the canonical block
    # order: real eigenvalues ascending, sizes ascending, sign +1 first among
    # equal sizes; then complex by (alpha, beta, size)
    blocks: list[tuple[tuple, int, np.ndarray]] = []
    spans = []  # (lam, max |a - lam I|, basis) of each real span where a - lam I vanishes
    for (lam, sizes), basis, nr, scale in zip(clusters, bases, restricted, shift_scales):
        cplx = isinstance(lam, complex)
        peel = [m for m in sizes if cplx or m > 1]
        chains, rest = _extract_chains(scale, g, basis, peel, tol, nr) if peel else ([], basis)
        for m, eps, cols in chains:
            key = (cplx, lam.real, lam.imag, m, -eps)
            blocks.append((key, eps, _realify_chain(cols) if cplx else cols))
        if rest.shape[1]:
            spans.append((lam, scale, rest))
    for lam, eps, col in _one_blocks(g, spans, tol):
        blocks.append(((False, lam, 0.0, 1, -eps), eps, col))
    blocks.sort(key=lambda t: t[0])
    columns = [cols for _key, _eps, cols in blocks]
    t_mat = np.hstack(columns) if columns else np.zeros((n, 0))
    if t_mat.shape != (n, n):
        raise ConditioningError("chain construction did not produce a full basis")
    sv = np.linalg.svd(t_mat, compute_uv=False)
    cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
    if cond > cond_limit(tol):
        raise ConditioningError(f"chain basis condition number {cond:.3e} too large")
    signs = tuple(eps for key, eps, _cols in blocks if not key[0])
    return PetrovNormalForm(structure, signs, t_mat)


def _degeneracy_cut(form: np.ndarray, shift_scale, tol: float):
    """tol * max(|form|, shift_scale, 1), shift_scale = max |a - lam I|: an
    eigenvalue of a chain pairing or of a 1-block form at most this raises
    ConditioningError.  For one form (k, k) or a stack (c, k, k) with one
    shift scale each."""
    return tol * np.maximum(np.maximum(np.abs(form).max(axis=(-2, -1)), shift_scale), 1.0)


def _one_blocks(
    g: np.ndarray, spans: list[tuple[float, float, np.ndarray]], tol: float
) -> list[tuple[float, int, np.ndarray]]:
    """Every real 1-block: (lam, sign, column) for each span (lam,
    shift_scale, basis) on which N = a - lam I vanishes.

    Such a span holds only 1-blocks of lam, so one symmetric eigensolve of the
    restricted form basis^T G basis gives B-orthogonal eigenvectors, scaled to
    B(v, v) = +-1, and their signs are the inertia of that form, the sign
    characteristic of those 1-blocks.  Spans of equal width share one stacked
    eigensolve; a 1x1 form is its own eigenvalue.  A restricted form with an
    eigenvalue at most tol * max(|form|, shift_scale, 1) raises
    ConditioningError, shift_scale being max |N| on the whole space, as
    ``jordan_structure`` returns it: the scale of the chain peel's checks.
    """
    groups: dict[int, list] = {}
    for span in spans:
        groups.setdefault(span[2].shape[1], []).append(span)
    out = []
    for k, group in groups.items():
        lams, shift_scales, bases = zip(*group)
        q = np.stack(bases)
        form = q.transpose(0, 2, 1) @ g @ q
        form = (form + form.transpose(0, 2, 1)) / 2.0
        w, vecs = (form[:, 0], np.ones_like(form)) if k == 1 else np.linalg.eigh(form)
        if (np.abs(w).min(axis=1) <= _degeneracy_cut(form, shift_scales, tol)).any():
            raise ConditioningError(
                f"degenerate form on a {k}-dimensional eigenspace; "
                "input sits near a Jordan-structure boundary"
            )
        cols = q @ (vecs / np.sqrt(np.abs(w))[:, None, :])
        out += [(lam, 1 if w[c, j] > 0 else -1, cols[c, :, j : j + 1])
                for c, lam in enumerate(lams) for j in range(k)]
    return out


def _extract_chains(
    shift_scale: float,
    g: np.ndarray,
    basis: np.ndarray,
    sizes: list[int],
    tol: float,
    nr: np.ndarray,
) -> tuple[list[tuple[int, int, np.ndarray]], np.ndarray]:
    """Peel Jordan chains of the given sizes off the span of basis, longest
    first, and return them with a basis of what is left.

    The chains are (size, sign, columns) with columns ordered so the operator
    acts as an upper Jordan/companion block and the chain Gram is exactly the
    target anti-diagonal block; a complex cluster (complex basis and nr) has
    sign -1, which makes its realified Gram cells diag(-1, 1).  A real
    cluster peels only its chains of length 2 or more, and what is left, the
    B-orthocomplement of its chains, is where N vanishes: its 1-blocks, for
    ``_one_blocks``.  The span of basis (orthonormal columns) is
    N-invariant, so the peel runs in its coordinates, on N_r = nr =
    basis^H N basis, as ``jordan_structure`` returns it, and
    G_r = basis^T G basis: the powers of N never reach the other eigenspaces,
    whose roundoff they would scale by (lam_j - lam)^k.  The chains and the
    rest are mapped back with basis @ cols.  shift_scale is max |N| =
    max |a - lam I| on the whole space, as ``jordan_structure`` returns it,
    part of the degeneracy scale.
    """
    gr = basis.T @ g @ basis
    k = nr.shape[0]
    powers = [np.eye(k, dtype=nr.dtype), nr]  # N_r^0 .. N_r^(m-1)
    while len(powers) < max(sizes):
        powers.append(powers[-1] @ nr)
    active = powers[0]
    out = []
    for m in sorted(sizes, reverse=True):
        v, eps = _pick_chain_generator(powers, gr, active, m, tol, shift_scale)
        v = _straighten(powers, gr, v, m, eps)
        chain_cols = np.column_stack([powers[m - j] @ v for j in range(1, m + 1)])
        out.append((m, eps, chain_cols))
        # B-orthocomplement of the chain; a chain that fills the span leaves none
        active = _deflate(gr, active, chain_cols, tol) if active.shape[1] > m else active[:, m:]
    return [(m, eps, basis @ cols) for m, eps, cols in out], basis @ active


def _pick_chain_generator(powers, g, active, m, tol, shift_scale):
    """Vector v in the active span with B(v, N^(m-1) v) = eps = +-1, and eps.

    v is the dominant eigenvector of one real symmetric form (module
    docstring): the symmetrized Q = active^T G N^(m-1) active on a real span,
    and [[Re Q, -Im Q], [-Im Q, -Re Q]] in (y, z), x = y + iz, on a complex
    one, where i x has the pairing of x negated, so eps is -1.  A pairing at
    most tol * max(|Q|, shift_scale, 1) raises ConditioningError.
    """
    form = active.T @ g @ powers[m - 1] @ active
    form = (form + form.T) / 2.0
    if np.iscomplexobj(form):
        k = form.shape[0]
        real_form = np.empty((2 * k, 2 * k))
        real_form[:k, :k] = form.real
        real_form[k:, k:] = -form.real
        real_form[:k, k:] = real_form[k:, :k] = -form.imag
        w, yz = np.linalg.eigh(real_form)
        vecs = (yz[:k] + 1j * yz[k:]) * np.where(w > 0, 1j, 1.0)
        w = -np.abs(w)
    else:
        w, vecs = np.linalg.eigh(form)
    idx = int(np.argmax(np.abs(w)))
    theta = w[idx]
    if abs(theta) <= _degeneracy_cut(form, shift_scale, tol):
        raise ConditioningError(
            f"degenerate chain pairing for block size {m}; "
            "input sits near a Jordan-structure boundary"
        )
    v = active @ vecs[:, idx] / np.sqrt(abs(theta))
    return v, (1 if theta > 0 else -1)


def _straighten(powers, g, v, m, eps):
    """Zero the lower Hankel moments B(v, N^k v), k < m-1, of the chain."""
    for k in range(m - 2, -1, -1):
        h_k = v @ g @ powers[k] @ v
        if abs(h_k) == 0.0:
            continue
        a_coef = -h_k / (2.0 * eps)
        v = v + a_coef * (powers[m - 1 - k] @ v)
    return v


def _deflate(g, active, chain_cols, tol):
    """Basis of the B-orthocomplement of the chain inside the active span."""
    constraints = chain_cols.T @ g @ active  # rows: B(e_j, active columns)
    _u, s, vh = np.linalg.svd(constraints)
    rank = int((s > max(s[0], 1.0) * linalg.DEFLATE_TOL).sum()) if s.size else 0
    keep = vh.conj().T[:, rank:]
    return active @ keep


def _realify_chain(cols: np.ndarray) -> np.ndarray:
    """Complex chain columns -> interleaved real pairs (sqrt2 Re, -sqrt2 Im)."""
    return np.sqrt(2.0) * np.stack([cols.real, -cols.imag], axis=2).reshape(cols.shape[0], -1)


def negative_index(form: PetrovNormalForm) -> int:
    """Negative inertia of the Gram, from the block data alone."""
    return _negative_count(form.structure, form.signs)


def _negative_count(structure: JordanStructure, signs) -> int:
    """Negative inertia of the normal Gram, one sign per real block in order;
    a complex block of size m has m."""
    sizes = [m for _lam, ms in structure.real_blocks for m in ms]
    real = sum(map(_negative_dim, sizes, signs))
    return real + sum(sum(ms) for _a, _b, ms in structure.complex_blocks)


def _negative_dim(m: int, eps: int) -> int:
    """Negative directions of eps times the m x m anti-identity: m / 2 for
    even m, (m - eps) / 2 for odd m."""
    return (m - (m % 2) * eps) // 2


# Petrov's list: (negative index, complex block sizes, (size, sign) of each
# real block that carries negative directions) -> label, sizes ascending.  An
# even-size block has sign 0 here: its sign only sets epsilon, and IX splits
# into IX-i and IX-ii by whether its two signs agree.  Every other real block
# is a positive 1-block, the only kind with no negative direction.
_PETROV_LIST = {
    (1, (1,), ()): "IV",
    (1, (), ((1, -1),)): "I",
    (1, (), ((2, 0),)): "II",
    (1, (), ((3, 1),)): "III",
    (2, (2,), ()): "I",
    (2, (1, 1), ()): "II",
    (2, (1,), ((1, -1),)): "III",
    (2, (1,), ((2, 0),)): "IV",
    (2, (1,), ((3, 1),)): "V",
    (2, (), ((4, 0),)): "VI",
    (2, (), ((3, -1),)): "VII-i",
    (2, (), ((1, -1), (3, 1))): "VII-ii",
    (2, (), ((2, 0), (3, 1))): "VIII",
    (2, (), ((2, 0), (2, 0))): "IX",
    (2, (), ((1, -1), (2, 0))): "X",
    (2, (), ((1, -1), (1, -1))): "XI",
}


def classify_algebraic(form: PetrovNormalForm) -> AlgebraicType:
    """Look the block pattern up in Petrov's list, ``_PETROV_LIST``."""
    neg = negative_index(form)
    if neg not in (1, 2):
        raise TaxonomyError(f"negative index {neg} outside the classified range")
    reals = [(lam, m) for lam, sizes in form.structure.real_blocks for m in sizes]
    # (lambda, size, sign) of the real blocks that carry negative directions
    carriers = [(lam, m, eps) for (lam, m), eps in zip(reals, form.signs)
                if _negative_dim(m, eps)]
    cplx = sorted((a, b, m) for a, b, sizes in form.structure.complex_blocks for m in sizes)
    csizes = tuple(sorted(m for _a, _b, m in cplx))
    pattern = tuple(sorted((m, eps if m % 2 else 0) for _lam, m, eps in carriers))
    label = _PETROV_LIST.get((neg, csizes, pattern))
    if label is None:
        sizes = tuple(m for m, _eps in pattern)
        raise TaxonomyError(f"negative block pattern {sizes} not in the index-2 list")
    # epsilon: the sign of the first even-size carrier in canonical order
    even = [eps for _lam, m, eps in carriers if m % 2 == 0]
    if label == "IX":
        label += "-i" if even[0] == even[1] else "-ii"
    # the eigenvalues, named by how many there are of each kind; longer
    # blocks by size descending, in canonical order among equal sizes
    pairs = [(a, b) for a, b, _m in cplx]
    longer = [lam for lam, m, _eps in sorted(carriers, key=lambda c: -c[1]) if m > 1]
    ones = sorted(lam for lam, m, _eps in carriers if m == 1)
    params: dict = {}
    if len(pairs) == 1:
        params.update(alpha=pairs[0][0], beta=pairs[0][1])
    elif pairs:
        params["pairs"] = pairs
    if len(longer) == 1:
        params["b"] = longer[0]
    elif longer:
        params.update(b1=longer[0], b2=longer[1])
    if len(ones) == 1:
        params["a0"] = ones[0]
    elif ones:
        params["a"] = ones
    return AlgebraicType(neg, label, even[0] if even else None, params)


def classify_geometric(
    pair: SelfAdjointPair, tol: float | None = None
) -> GeometricType:
    """Orientation-free label: the algebraic label, which (-A, G) shares
    (module docstring)."""
    alg = classify_algebraic(petrov_normal_form(pair, tol))
    return GeometricType(alg.index, alg.label)


def classify_pair(
    a: np.ndarray, gram: np.ndarray, tol: float | None = None
) -> dict:
    """One-shot classification bundle used by the CLI."""
    tol = resolve_tol(tol)
    space = BilinearSpace.from_gram(gram, tol)
    pair = SelfAdjointPair(np.asarray(a, dtype=float), space)
    form = petrov_normal_form(pair, tol)
    alg = classify_algebraic(form)
    return {
        "algebraic": alg.to_json(),
        "geometric": GeometricType(alg.index, alg.label).to_json(),
        "structure": form.structure.to_json(),
        "signs": list(form.signs),
        "negative_index": alg.index,
        "transform": form.transform.tolist(),
    }

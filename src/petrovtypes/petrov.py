"""Jordan structure, Petrov normal forms, and the index-1/index-2 taxonomy.

The normal form pairs a block operator (Jordan blocks for real eigenvalues,
real 2x2-companion chains for conjugate pairs) with a Gram matrix made of
signed anti-diagonal blocks.  The sign attached to each real block is part of
the invariant data and drives the type labels.

Every eigenvalue cluster, real or complex, simple or whole-space, gets its
orthonormal eigenspace basis q and N_r = q^H (a - lam I) q in one way:
clusters of one kind and multiplicity share one shift stack a - lam I and
one ``generalized_eigenspace`` call, scaled by max |a - lam I| (|a - lam I|
below), which the real chains' degeneracy checks read too; the rank profile
of N_r sizes the blocks.  A real cluster then takes one of three paths to
its chains, all with the decisions of the chain peel:

- simple (one 1-block): the eigenvectors of all simple clusters are scaled
  at once to B(v, v) = +-1, and their signs, the whole sign characteristic
  of a simple eigenvalue, are read off in one array expression;
- semisimple (several 1-blocks): one symmetric eigensolve of the Gram
  restricted to the eigenspace gives B-orthogonal eigenvectors, and its
  inertia is the sign characteristic.  A restricted form with an eigenvalue
  at most tol * max(|form|, |a - lam I|, 1), the scale of the peel's first
  step, raises ConditioningError;
- with a block of size 2 or more: the chain peel takes longest chains first
  in the coordinates of q, on N_r.

Complex clusters always take the peel, over the complexification, and are
realified into companion blocks.  A cluster spanning the whole space gets
the identity basis.

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

from .linalg import (
    BilinearSpace,
    ShapeError,
    ToleranceError,
    eigen_clusters,
    generalized_eigenspace,
    is_self_adjoint,
    jordan_rank_profile,
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
    each computed once for every use.  Clusters of one kind and multiplicity
    share one shift stack and one ``generalized_eigenspace`` call; that max
    scales its power and is the shift's part of the chain degeneracy scale."""
    tol = resolve_tol(tol)
    af = np.asarray(a, dtype=float)
    n = af.shape[0]
    if n > 8:
        raise ContractError("jordan_structure supports dim <= 8")
    # eigen_clusters lists real clusters ascending, then complex by (alpha, beta)
    clusters = [
        (complex(*val) if isinstance(val, tuple) else float(val), mult)
        for val, mult in eigen_clusters(a, tol)
    ]
    groups: dict[tuple[type, int], list[int]] = {}
    for i, (lam, mult) in enumerate(clusters):
        groups.setdefault((type(lam), mult), []).append(i)
    bases, restricted, shift_scales = ([None] * len(clusters) for _ in range(3))
    for (kind, mult), members in groups.items():
        # a complex cluster's eigenspace lies in the complexification
        mat = af.astype(kind)
        lams = np.array([clusters[i][0] for i in members])
        shifts = mat - lams[:, None, None] * np.eye(n)
        scales = np.abs(shifts).max(axis=(1, 2))
        q = generalized_eigenspace(shifts, scales, mult)
        nr = q.conj().transpose(0, 2, 1) @ shifts @ q
        for i, qi, nri, scale in zip(members, q, nr, scales):
            bases[i], restricted[i], shift_scales[i] = qi, nri, scale
    real: list[tuple[float, tuple[int, ...]]] = []
    cplx: list[tuple[float, float, tuple[int, ...]]] = []
    for (lam, _mult), nr in zip(clusters, restricted):
        sizes = _block_sizes(nr, lam, tol)
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

    Chains are built eigenvalue by eigenvalue inside each generalized
    eigenspace: longest chains first, each chain generator straightened so the
    Gram of the chain is exactly a signed anti-diagonal, then the chain's
    orthocomplement is deflated.  Complex pairs run the same procedure over the
    complexification and are realified into companion blocks.  Real
    eigenvalues whose blocks all have size 1 skip the peel: the simple ones
    all at once, each semisimple one with one eigensolve (module docstring).
    """
    tol = resolve_tol(tol)
    a = np.asarray(pair.a, dtype=float)
    g = np.asarray(pair.space.gram, dtype=float)
    n = a.shape[0]
    if n > 8:
        raise ContractError("petrov_normal_form supports dim <= 8")
    if not is_self_adjoint(pair.a, pair.space, max(tol, 1e-7)):
        raise ContractError("operator is not self-adjoint for the given gram")
    structure, bases, restricted, shift_scales = jordan_structure(a, tol)
    clusters = list(structure.real_blocks) + [
        (complex(alpha, beta), sizes) for alpha, beta, sizes in structure.complex_blocks
    ]
    # (key, sign, columns) per block; the keys sort to the canonical block
    # order: real eigenvalues ascending, sizes ascending, sign +1 first among
    # equal sizes; then complex by (alpha, beta, size)
    blocks: list[tuple[tuple, int, np.ndarray]] = []
    simple = [i for i, (_lam, sizes) in enumerate(structure.real_blocks) if sizes == (1,)]
    if simple:
        lams = [clusters[i][0] for i in simple]
        cols, signs = _simple_chains(
            g, np.hstack([bases[i] for i in simple]), [shift_scales[i] for i in simple], tol
        )
        blocks += [
            ((False, lam, 0.0, 1, -eps), eps, cols[:, j : j + 1])
            for j, (lam, eps) in enumerate(zip(lams, signs))
        ]
    for i, ((lam, sizes), basis, nr, shift_scale) in enumerate(
        zip(clusters, bases, restricted, shift_scales)
    ):
        if i in simple:
            continue
        cplx = isinstance(lam, complex)
        if not cplx and max(sizes) == 1:
            chains = _semisimple_chains(shift_scale, g, basis, tol)
        else:
            chains = _extract_chains(shift_scale, g, basis, list(sizes), tol, nr)
        for m, eps, cols in chains:
            key = (cplx, lam.real, lam.imag, m, -eps)
            blocks.append((key, eps, _realify_chain(cols) if cplx else cols))
    blocks.sort(key=lambda t: t[0])
    columns = [cols for _key, _eps, cols in blocks]
    t_mat = np.hstack(columns) if columns else np.zeros((n, 0))
    if t_mat.shape != (n, n):
        raise ConditioningError("chain construction did not produce a full basis")
    sv = np.linalg.svd(t_mat, compute_uv=False)
    cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
    if cond > 1.0 / max(tol, np.finfo(float).eps * 10):
        raise ConditioningError(f"chain basis condition number {cond:.3e} too large")
    signs = tuple(eps for key, eps, _cols in blocks if not key[0])
    return PetrovNormalForm(structure, signs, t_mat)


def _simple_chains(
    g: np.ndarray, vecs: np.ndarray, shift_scales: list[float], tol: float
) -> tuple[np.ndarray, list[int]]:
    """Chains of simple real eigenvalues, all at once.

    vecs holds one eigenvector per eigenvalue lam, and shift_scales the
    max |a - lam I| of each; each eigenvector is scaled to B(v, v) = +-1, and
    that sign is the whole sign characteristic of a simple eigenvalue.  The
    degeneracy check is the chain generator's, at its scale.
    """
    theta = np.einsum("ik,ij,jk->k", vecs, g, vecs)
    scale = np.maximum(np.maximum(np.abs(theta), shift_scales), 1.0)
    if (np.abs(theta) <= tol * scale).any():
        raise ConditioningError(
            "degenerate chain pairing for block size 1; "
            "input sits near a Jordan-structure boundary"
        )
    return vecs / np.sqrt(np.abs(theta)), np.where(theta > 0, 1, -1).tolist()


def _semisimple_chains(
    shift_scale: float, g: np.ndarray, basis: np.ndarray, tol: float
) -> list[tuple[int, int, np.ndarray]]:
    """1-chains of a real eigenvalue whose blocks all have size 1.

    Its eigenspace is the span of basis, so one symmetric eigensolve of the
    restricted form basis^T G basis gives B-orthogonal eigenvectors, scaled to
    B(v, v) = +-1, and their signs are the inertia of that form, which is the
    sign characteristic of a semisimple eigenvalue.  A restricted form with an
    eigenvalue at most tol * max(|form|, shift_scale, 1) raises
    ConditioningError, shift_scale being max |N| = max |a - lam I|: the scale
    of the first chain generator pick in ``_extract_chains``.
    """
    form = basis.T @ g @ basis
    form = (form + form.T) / 2.0
    w, vecs = np.linalg.eigh(form)
    scale = max(np.abs(form).max(), shift_scale, 1.0)
    if np.abs(w).min() <= tol * scale:
        raise ConditioningError(
            f"degenerate form on a {len(w)}-dimensional eigenspace; "
            "input sits near a Jordan-structure boundary"
        )
    cols = basis @ (vecs / np.sqrt(np.abs(w)))
    return [(1, 1 if w[j] > 0 else -1, cols[:, j : j + 1]) for j in range(len(w))]


def _extract_chains(
    shift_scale: float,
    g: np.ndarray,
    basis: np.ndarray,
    sizes: list[int],
    tol: float,
    nr: np.ndarray,
) -> list[tuple[int, int, np.ndarray]]:
    """Peel Jordan chains off the span of basis, longest first.

    Returns (size, sign, columns) with columns ordered so the operator acts
    as an upper Jordan/companion block and the chain Gram is exactly the
    target anti-diagonal block; a complex cluster (complex basis and nr) has
    sign 1.  The span of basis (orthonormal columns) is N-invariant, so the
    peel runs in its coordinates, on N_r = nr = basis^H N basis, as
    ``jordan_structure`` returns it, and G_r = basis^T G basis: the powers of
    N never reach the other eigenspaces, whose roundoff they would scale by
    (lam_j - lam)^k.  The chains are mapped back with basis @ cols.
    shift_scale is max |N| = max |a - lam I| on the whole space, as
    ``jordan_structure`` returns it, part of the degeneracy scale.
    """
    gr = basis.T @ g @ basis
    k = nr.shape[0]
    powers = [np.eye(k, dtype=nr.dtype), nr]  # N_r^0 .. N_r^(m-1)
    while len(powers) < max(sizes):
        powers.append(powers[-1] @ nr)
    active = powers[0]
    out = []
    for m in sorted(sizes, reverse=True):
        if out:  # B-orthocomplement of the previous chain
            active = _deflate(gr, active, out[-1][2], tol)
        v, eps = _pick_chain_generator(powers, gr, active, m, tol, shift_scale)
        v = _straighten(powers, gr, v, m, eps)
        chain_cols = np.column_stack([powers[m - j] @ v for j in range(1, m + 1)])
        out.append((m, eps, chain_cols))
    return [(m, eps, basis @ cols) for m, eps, cols in out]


def _pick_chain_generator(powers, g, active, m, tol, shift_scale):
    """Vector v in the active span with B(v, N^(m-1) v) != 0, normalized to +-1.

    A real active span picks the dominant eigenvector of the projected
    symmetric form; a complex one (a complex cluster) searches deterministic
    candidate combinations of the bilinear form.  shift_scale is max |N| on
    the whole space, part of the degeneracy scale.
    """
    k = active.shape[1]
    if not np.iscomplexobj(active):
        # active has real span; form is symmetric up to roundoff
        form = active.conj().T @ g @ powers[m - 1] @ active
        form_s = (form + form.T).real / 2.0
        # a 1x1 form is its own eigenvalue
        w, vecs = (form_s[0], np.ones((1, 1))) if k == 1 else np.linalg.eigh(form_s)
        idx = int(np.argmax(np.abs(w)))
        theta = w[idx]
        scale = max(np.abs(form_s).max(), shift_scale, 1.0)
        if abs(theta) <= tol * scale:
            raise ConditioningError(
                f"degenerate chain pairing for block size {m}; "
                "input sits near a Jordan-structure boundary"
            )
        v = active @ vecs[:, idx]
        v = v / np.sqrt(abs(theta))
        return v.real, (1 if theta > 0 else -1)
    # complex bilinear form x^T Q x (no conjugation): search candidates
    q = active.T @ g @ powers[m - 1] @ active
    cands = [np.eye(k, dtype=complex)[:, i] for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            e = np.eye(k, dtype=complex)
            cands.append(e[:, i] + e[:, j])
            cands.append(e[:, i] + 1j * e[:, j])
    vals = [c @ q @ c for c in cands]
    idx = int(np.argmax(np.abs(vals)))
    qv = vals[idx]
    scale = max(np.abs(q).max(), 1.0)
    if abs(qv) <= tol * scale:
        raise ConditioningError(
            f"degenerate complex chain pairing for block size {m}"
        )
    v = active @ cands[idx]
    # normalize B(v, N^(m-1) v) = -1 so the realified Gram cells are diag(-1, 1)
    mu = np.sqrt(-1.0 / qv + 0j)
    return v * mu, 1


def _straighten(powers, g, v, m, eps):
    """Zero the lower Hankel moments B(v, N^k v), k < m-1, of the chain."""
    target = -1.0 if np.iscomplexobj(v) else float(eps)
    for k in range(m - 2, -1, -1):
        h_k = v @ g @ powers[k] @ v
        if abs(h_k) == 0.0:
            continue
        a_coef = -h_k / (2.0 * target)
        v = v + a_coef * (powers[m - 1 - k] @ v)
    return v


def _deflate(g, active, chain_cols, tol):
    """Basis of the B-orthocomplement of the chain inside the active span."""
    constraints = chain_cols.T @ g @ active  # rows: B(e_j, active columns)
    _u, s, vh = np.linalg.svd(constraints)
    rank = int((s > max(s[0], 1.0) * 1e-10).sum()) if s.size else 0
    keep = vh.conj().T[:, rank:]
    return active @ keep


def _realify_chain(cols: np.ndarray) -> np.ndarray:
    """Complex chain columns -> interleaved real pairs (sqrt2 Re, -sqrt2 Im)."""
    out = []
    for j in range(cols.shape[1]):
        e = cols[:, j]
        out.append(np.sqrt(2.0) * e.real)
        out.append(-np.sqrt(2.0) * e.imag)
    return np.column_stack(out)


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


def _real_block_list(form: PetrovNormalForm) -> list[tuple[float, int, int]]:
    """(lambda, size, eps) per real block in sign order."""
    out = []
    i = 0
    for lam, sizes in form.structure.real_blocks:
        for m in sizes:
            out.append((lam, m, form.signs[i]))
            i += 1
    return out


def classify_algebraic(form: PetrovNormalForm) -> AlgebraicType:
    """Match the block multiset onto the index-1 or index-2 labeled forms."""
    neg = negative_index(form)
    if neg not in (1, 2):
        raise TaxonomyError(f"negative index {neg} outside the classified range")
    reals = _real_block_list(form)
    cplx = [
        (a, b, m) for a, b, sizes in form.structure.complex_blocks for m in sizes
    ]
    # blocks that carry negative Gram directions
    neg_reals = [(lam, m, eps) for lam, m, eps in reals if _negative_dim(m, eps)]
    background = [(lam, m, eps) for lam, m, eps in reals if not _negative_dim(m, eps)]
    if any(m != 1 or eps != 1 for _l, m, eps in background):
        raise TaxonomyError("non-index blocks must be positive 1-blocks")
    if neg == 1:
        return _classify_index1(neg_reals, cplx)
    return _classify_index2(neg_reals, cplx)


def _classify_index1(neg_reals, cplx) -> AlgebraicType:
    if len(cplx) == 1 and cplx[0][2] == 1 and not neg_reals:
        a, b, _ = cplx[0]
        return AlgebraicType(1, "IV", None, {"alpha": a, "beta": b})
    if cplx:
        raise TaxonomyError("complex blocks incompatible with index 1")
    if len(neg_reals) != 1:
        raise TaxonomyError("index-1 pattern needs one negative-carrying block")
    lam, m, eps = neg_reals[0]
    if m == 1:
        return AlgebraicType(1, "I", None, {"a0": lam})
    if m == 2:
        return AlgebraicType(1, "II", eps, {"b": lam})
    if m == 3 and eps == 1:
        return AlgebraicType(1, "III", None, {"b": lam})
    raise TaxonomyError(f"real block (size {m}, sign {eps}) not in the index-1 list")


def _classify_index2(neg_reals, cplx) -> AlgebraicType:
    csizes = sorted(m for *_ab, m in cplx)
    if csizes == [2] and not neg_reals:
        a, b, _ = cplx[0]
        return AlgebraicType(2, "I", None, {"alpha": a, "beta": b})
    if csizes == [1, 1] and not neg_reals:
        params = {
            "pairs": [(a, b) for a, b, _m in sorted(cplx, key=lambda t: (t[0], t[1]))]
        }
        return AlgebraicType(2, "II", None, params)
    if csizes == [1] and len(neg_reals) == 1:
        a, b, _ = cplx[0]
        lam, m, eps = neg_reals[0]
        if m == 1:  # eps == -1 by negativity
            return AlgebraicType(2, "III", None, {"alpha": a, "beta": b, "a0": lam})
        if m == 2:
            return AlgebraicType(2, "IV", eps, {"alpha": a, "beta": b, "b": lam})
        if m == 3 and eps == 1:
            return AlgebraicType(2, "V", None, {"alpha": a, "beta": b, "b": lam})
        raise TaxonomyError("complex pair plus incompatible real block")
    if csizes:
        raise TaxonomyError("complex block pattern not in the index-2 list")
    # neg_reals stays in canonical block order; match on the size multiset
    pattern = tuple(sorted(m for _l, m, _e in neg_reals))
    if pattern == (4,):
        lam, _m, eps = neg_reals[0]
        return AlgebraicType(2, "VI", eps, {"b": lam})
    if pattern == (3,):
        lam, _m, eps = neg_reals[0]
        if eps == -1:
            return AlgebraicType(2, "VII-i", None, {"b": lam})
        raise TaxonomyError("lone positive 3-block carries wrong inertia")
    if pattern == (1, 3):
        one = next(b for b in neg_reals if b[1] == 1)
        three = next(b for b in neg_reals if b[1] == 3)
        if three[2] == 1:  # one[2] == -1 by negativity
            return AlgebraicType(2, "VII-ii", None, {"b": three[0], "a0": one[0]})
        raise TaxonomyError("3-block sign incompatible with VII-ii")
    if pattern == (2, 3):
        two = next(b for b in neg_reals if b[1] == 2)
        three = next(b for b in neg_reals if b[1] == 3)
        if three[2] == 1:
            return AlgebraicType(2, "VIII", two[2], {"b1": three[0], "b2": two[0]})
        raise TaxonomyError("3-block sign incompatible with VIII")
    if pattern == (2, 2):
        (l1, _m1, e1), (l2, _m2, e2) = neg_reals
        label = "IX-i" if e1 == e2 else "IX-ii"
        # representative sign: the canonical first block's
        return AlgebraicType(2, label, e1, {"b1": l1, "b2": l2})
    if pattern == (1, 2):
        one = next(b for b in neg_reals if b[1] == 1)
        two = next(b for b in neg_reals if b[1] == 2)
        return AlgebraicType(2, "X", two[2], {"b": two[0], "a0": one[0]})
    if pattern == (1, 1):
        return AlgebraicType(2, "XI", None, {"a": sorted(b[0] for b in neg_reals)})
    raise TaxonomyError(f"negative block pattern {pattern} not in the index-2 list")


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
        "negative_index": negative_index(form),
        "transform": form.transform.tolist(),
    }

"""Normal forms and type classification for self-adjoint pairs."""

import itertools
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petrovtypes import linalg, petrov
from petrovtypes.catalog import EXAMPLE_IDS, evaluate, sample_domain
from petrovtypes.linalg import (
    BilinearSpace,
    ToleranceError,
    default_tol,
    generalized_eigenspace,
    signature,
)
from petrovtypes.petrov import (
    ConditioningError,
    ContractError,
    GeometricType,
    JordanStructure,
    PetrovNormalForm,
    SelfAdjointPair,
    TaxonomyError,
    _block_sizes,
    _extract_chains,
    _normal_matrices,
    _one_blocks,
    _pick_chain_generator,
    assemble_normal_pair,
    classify_algebraic,
    classify_geometric,
    classify_pair,
    jordan_structure,
    negative_index,
    petrov_normal_form,
)

RNG = np.random.default_rng(20260823)


def _conjugate(pair, max_cond=50.0):
    n = pair.a.shape[0]
    while True:
        t = RNG.normal(size=(n, n))
        if np.linalg.cond(t) <= max_cond:
            break
    tinv = np.linalg.inv(t)
    a = t @ pair.a @ tinv
    g = tinv.T @ pair.space.gram @ tinv
    return SelfAdjointPair(a, BilinearSpace.from_gram(0.5 * (g + g.T)))


def _pair(real_blocks, signs, complex_blocks=()):
    st = JordanStructure(tuple(real_blocks), tuple(complex_blocks))
    return assemble_normal_pair(st, list(signs))


def test_assemble_self_adjoint():
    pair = _pair([(0.0, (2,)), (1.0, (1,))], [1, -1])
    ga = pair.space.gram @ pair.a
    assert np.allclose(ga, ga.T)


def test_normal_form_round_trip_single_block():
    st = JordanStructure(((2.0, (3,)),), ())
    base = assemble_normal_pair(st, [-1])
    nf = petrov_normal_form(_conjugate(base))
    assert nf.structure.real_blocks[0][1] == (3,)
    assert abs(nf.structure.real_blocks[0][0] - 2.0) < 1e-6
    assert nf.signs == (-1,)


def test_normal_form_round_trip_complex_pair():
    st = JordanStructure((), ((0.5, 1.5, (2,)),))
    base = assemble_normal_pair(st, [])
    nf = petrov_normal_form(_conjugate(base))
    (alpha, beta, sizes), = nf.structure.complex_blocks
    assert sizes == (2,)
    assert abs(alpha - 0.5) < 1e-6 and abs(beta - 1.5) < 1e-6


def test_negative_index_matches_signature():
    for _ in range(50):
        sizes = []
        total = 0
        while total < 5:
            m = int(RNG.integers(1, 6 - total))
            sizes.append(m)
            total += m
        blocks = tuple(
            (float(i), (m,)) for i, m in enumerate(sizes)
        )
        signs = [int(s) for s in RNG.choice([-1, 1], size=len(sizes))]
        pair = _pair(blocks, signs)
        nf = petrov_normal_form(pair)
        _p, q, _z = signature(pair.space.gram)
        assert negative_index(nf) == q


# condensed taxonomy: every stated index-2 form with its label
INDEX2_CASES = [
    (((), ((0.0, 1.0, (2,)),)), [], "I"),
    (((), ((0.0, 1.0, (1,)), (1.0, 2.0, (1,)))), [], "II"),
    ((((3.0, (1,)),), ((0.0, 1.0, (1,)),)), [-1], "III"),
    ((((3.0, (2,)),), ((0.0, 1.0, (1,)),)), [1], "IV"),
    ((((3.0, (2,)),), ((0.0, 1.0, (1,)),)), [-1], "IV"),
    ((((3.0, (3,)),), ((0.0, 1.0, (1,)),)), [1], "V"),
    ((((3.0, (4,)),), ()), [1], "VI"),
    ((((3.0, (4,)),), ()), [-1], "VI"),
    ((((3.0, (3,)), (5.0, (1,))), ()), [-1, 1], "VII-i"),
    ((((3.0, (3,)), (5.0, (1,))), ()), [1, -1], "VII-ii"),
    ((((3.0, (3,)), (5.0, (2,))), ()), [1, 1], "VIII"),
    ((((3.0, (3,)), (5.0, (2,))), ()), [1, -1], "VIII"),
    ((((3.0, (2, 2)),), ()), [1, 1], "IX-i"),
    ((((3.0, (2,)), (5.0, (2,))), ()), [-1, -1], "IX-i"),
    ((((3.0, (2,)), (5.0, (2,))), ()), [1, -1], "IX-ii"),
    ((((3.0, (2,)), (5.0, (1,))), ()), [1, -1], "X"),
    ((((3.0, (2,)), (5.0, (1,))), ()), [-1, -1], "X"),
    ((((3.0, (1,)), (5.0, (1,))), ()), [-1, -1], "XI"),
]


@pytest.mark.parametrize("blocks,signs,label", INDEX2_CASES)
def test_index2_taxonomy(blocks, signs, label):
    real, cplx = blocks
    pair = _pair(real, signs, cplx)
    nf = petrov_normal_form(pair)
    assert classify_algebraic(nf).label == label
    assert classify_algebraic(nf).index == 2
    geo = classify_geometric(_conjugate(pair))
    assert geo.label == label and geo.index == 2


INDEX1_CASES = [
    ((((1.0, (1,)), (2.0, (1,)), (3.0, (1,))), ()), [-1, 1, 1], "I"),
    ((((1.0, (2,)), (3.0, (1,))), ()), [1, 1], "II"),
    ((((1.0, (2,)), (3.0, (1,))), ()), [-1, 1], "II"),
    ((((1.0, (3,)),), ()), [1], "III"),
    ((((7.0, (1,)),), ((0.0, 1.0, (1,)),)), [1], "IV"),
]


@pytest.mark.parametrize("blocks,signs,label", INDEX1_CASES)
def test_index1_taxonomy(blocks, signs, label):
    real, cplx = blocks
    pair = _pair(real, signs, cplx)
    nf = petrov_normal_form(pair)
    assert classify_algebraic(nf).label == label
    assert classify_algebraic(nf).index == 1
    geo = classify_geometric(_conjugate(pair))
    assert geo.label == label and geo.index == 1


def test_background_blocks_do_not_change_label():
    # type X core plus simple positive background eigenvalues
    pair = _pair([(0.0, (2,)), (1.0, (1,)), (4.0, (1,)), (5.0, (1,))], [1, -1, 1, 1])
    assert classify_geometric(pair).label == "X"


def test_classify_pair_bundle():
    pair = _pair([(0.0, (4,))], [1])
    out = classify_pair(pair.a, pair.space.gram)
    assert out["geometric"]["label"] == "VI"
    assert out["algebraic"]["label"] == "VI"
    assert out["negative_index"] == 2


def _partitions(n, most=None):
    """Partitions of n, parts descending."""
    if n == 0:
        yield ()
    for k in range(min(n, most or n), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _block_lists(most):
    """Ascending block size lists of total 0 to most."""
    return [tuple(sorted(p)) for total in range(most + 1) for p in _partitions(total)]


def _enumerated_forms():
    """Every normal form (structure, signs) of dimension 1 to 8 on the real
    eigenvalues -1.5 and 0.5 and the complex pairs 0.25 + i and -0.75 + 2i,
    with every +-1 sign vector; the second eigenvalue of a kind only with
    the first: 14,098 forms."""
    no_transform = np.zeros((0, 0))
    for r1 in _block_lists(8):
        for r2 in _block_lists(8 - sum(r1)) if r1 else [()]:
            left = (8 - sum(r1) - sum(r2)) // 2
            for c1 in _block_lists(left):
                for c2 in _block_lists(left - sum(c1)) if c1 else [()]:
                    if not (r1 or c1):
                        continue
                    real = tuple((lam, s) for lam, s in ((-1.5, r1), (0.5, r2)) if s)
                    cplx = tuple((a, b, s) for a, b, s in ((-0.75, 2.0, c2), (0.25, 1.0, c1)) if s)
                    structure = JordanStructure(real, cplx)
                    for signs in itertools.product((1, -1), repeat=len(r1) + len(r2)):
                        yield PetrovNormalForm(structure, signs, no_transform)


# (index, label, epsilon) or TaxonomyError text -> count over _enumerated_forms
ENUMERATED_TYPES = {
    (1, "I", None): 204,
    (1, "II", 1): 49,
    (1, "II", -1): 49,
    (1, "III", None): 36,
    (1, "IV", None): 22,
    (2, "I", None): 11,
    (2, "II", None): 22,
    (2, "III", None): 91,
    (2, "IV", 1): 25,
    (2, "IV", -1): 25,
    (2, "V", None): 16,
    (2, "VI", 1): 25,
    (2, "VI", -1): 25,
    (2, "VII-i", None): 36,
    (2, "VII-ii", None): 125,
    (2, "VIII", 1): 36,
    (2, "VIII", -1): 36,
    (2, "IX-i", 1): 40,
    (2, "IX-i", -1): 40,
    (2, "IX-ii", 1): 40,
    (2, "IX-ii", -1): 40,
    (2, "X", 1): 203,
    (2, "X", -1): 203,
    (2, "XI", None): 546,
    "negative index 0 outside the classified range": 36,
    "negative index 3 outside the classified range": 3912,
    "negative index 4 outside the classified range": 4747,
    "negative index 5 outside the classified range": 2576,
    "negative index 6 outside the classified range": 729,
    "negative index 7 outside the classified range": 114,
    "negative index 8 outside the classified range": 8,
    "negative block pattern (5,) not in the index-2 list": 16,
    "negative block pattern (3, 3) not in the index-2 list": 15,
}


def test_taxonomy_of_every_enumerated_form():
    """All 17 labels, each epsilon, and the only three refusals that a
    normal form of dimension up to 8 can meet."""
    counts = {}
    for form in _enumerated_forms():
        try:
            alg = classify_algebraic(form)
            key = (alg.index, alg.label, alg.epsilon)
        except TaxonomyError as exc:
            key = str(exc)
        counts[key] = counts.get(key, 0) + 1
    assert counts == ENUMERATED_TYPES
    assert sum(counts.values()) == 14098


# (real blocks, complex blocks, signs) -> (label, epsilon, parameters)
PARAMETER_CASES = [
    # VIII: b1 is the 3-block, wherever it sits in canonical order
    (((-1.5, (2,)), (0.5, (3,))), (), (1, 1), ("VIII", 1, {"b1": 0.5, "b2": -1.5})),
    (((-1.5, (3,)), (0.5, (2,))), (), (1, -1), ("VIII", -1, {"b1": -1.5, "b2": 0.5})),
    # IX: b1, b2 and epsilon from the blocks in canonical order
    (((-1.5, (2,)), (0.5, (2,))), (), (-1, 1), ("IX-ii", -1, {"b1": -1.5, "b2": 0.5})),
    (((-1.5, (2,)), (0.5, (2,))), (), (1, -1), ("IX-ii", 1, {"b1": -1.5, "b2": 0.5})),
    (((-1.5, (1, 2, 2)),), (), (1, -1, -1), ("IX-i", -1, {"b1": -1.5, "b2": -1.5})),
    # XI and index-2 II: sorted, even if the blocks are not
    (((0.5, (1,)), (-1.5, (1,))), (), (-1, -1), ("XI", None, {"a": [-1.5, 0.5]})),
    ((), ((0.25, 1.0, (1,)), (-0.75, 2.0, (1,))), (),
     ("II", None, {"pairs": [(-0.75, 2.0), (0.25, 1.0)]})),
]


@pytest.mark.parametrize("real,cplx,signs,want", PARAMETER_CASES)
def test_taxonomy_parameters(real, cplx, signs, want):
    form = PetrovNormalForm(JordanStructure(real, cplx), signs, np.zeros((0, 0)))
    alg = classify_algebraic(form)
    assert (alg.label, alg.epsilon, alg.parameters) == want
    assert alg.index == 2


def test_signs_canonical_order_positive_first():
    pair = _pair([(2.0, (1, 1))], [-1, 1])
    nf = petrov_normal_form(pair)
    assert nf.signs == (1, -1)


# Every (index, label, sign) case of the taxonomy, one case per recorded sign:
# real blocks as (lambda, size, sign), complex blocks as (alpha, beta, size).
# IX-ii records the sign of its canonical first block, the one at -1.0.
# Some cases put two blocks on one eigenvalue, so that chain extraction has
# to deflate the first chain before it picks the second.
TAXONOMY_CASES = [
    (1, "I", None, [(-1.0, 1, -1), (2.0, 1, 1), (2.0, 1, 1)], []),
    (1, "II", 1, [(0.5, 2, 1), (2.0, 1, 1)], []),
    (1, "II", -1, [(0.5, 2, -1), (2.0, 1, 1)], []),
    (1, "III", None, [(0.5, 3, 1), (2.0, 1, 1)], []),
    (1, "IV", None, [(2.0, 1, 1), (-1.0, 1, 1)], [(0.5, 1.25, 1)]),
    (2, "I", None, [], [(0.5, 1.25, 2)]),
    (2, "II", None, [], [(0.5, 1.25, 1), (-1.0, 0.75, 1)]),
    (2, "III", None, [(-1.0, 1, -1), (2.0, 1, 1)], [(0.5, 1.25, 1)]),
    (2, "IV", 1, [(-1.0, 2, 1)], [(0.5, 1.25, 1)]),
    (2, "IV", -1, [(-1.0, 2, -1)], [(0.5, 1.25, 1)]),
    (2, "V", None, [(-1.0, 3, 1)], [(0.5, 1.25, 1)]),
    (2, "VI", 1, [(0.5, 4, 1)], []),
    (2, "VI", -1, [(0.5, 4, -1), (2.0, 1, 1)], []),
    (2, "VII-i", None, [(0.5, 3, -1), (2.0, 1, 1)], []),
    (2, "VII-ii", None, [(0.5, 3, 1), (-1.0, 1, -1)], []),
    (2, "VIII", 1, [(0.5, 3, 1), (-1.0, 2, 1)], []),
    (2, "VIII", -1, [(0.5, 3, 1), (-1.0, 2, -1)], []),
    (2, "IX-i", 1, [(0.5, 2, 1), (0.5, 2, 1)], []),
    (2, "IX-i", -1, [(0.5, 2, -1), (-1.0, 2, -1), (2.0, 1, 1)], []),
    (2, "IX-ii", -1, [(0.5, 2, 1), (-1.0, 2, -1)], []),
    (2, "X", 1, [(0.5, 2, 1), (0.5, 1, -1)], []),
    (2, "X", -1, [(0.5, 2, -1), (-1.0, 1, -1), (2.0, 1, 1)], []),
    (2, "XI", None, [(0.5, 1, -1), (0.5, 1, -1), (2.0, 1, 1)], []),
]
TAXONOMY_IDS = [f"{i}-{label}-{sign}" for i, label, sign, _r, _c in TAXONOMY_CASES]


def _taxonomy_pair(reals, cplx):
    reals = sorted(reals)  # by eigenvalue, then size
    lams = sorted({lam for lam, _m, _eps in reals})
    st = JordanStructure(
        tuple((lam, tuple(m for mu, m, _e in reals if mu == lam)) for lam in lams),
        tuple((alpha, beta, (m,)) for alpha, beta, m in cplx),
    )
    return assemble_normal_pair(st, [eps for _lam, _m, eps in reals])


def _congruences(pair, seed, count=5, max_cond=100.0):
    """``count`` pairs T A T^-1, T^-T G T^-1 with cond(T) <= max_cond."""
    rng = np.random.default_rng(seed)
    n = pair.a.shape[0]
    out = []
    for _ in range(count):
        q1, _r1 = np.linalg.qr(rng.standard_normal((n, n)))
        q2, _r2 = np.linalg.qr(rng.standard_normal((n, n)))
        t = q1 @ np.diag(np.sqrt(max_cond) ** rng.uniform(-1.0, 1.0, n)) @ q2
        t_inv = np.linalg.inv(t)
        g = t_inv.T @ pair.space.gram @ t_inv
        out.append((t @ pair.a @ t_inv, 0.5 * (g + g.T)))
    return out


def _sample_pairs():
    """(A, G) of the congruent taxonomy pairs and of 4 sample points of every
    catalog entry."""
    pairs = []
    for case in TAXONOMY_CASES:
        base = _taxonomy_pair(case[3], case[4])
        pairs += _congruences(base, seed=TAXONOMY_CASES.index(case))
    for ex_id in EXAMPLE_IDS:
        for p in sample_domain(ex_id, 4, seed=7):
            fd = evaluate(ex_id, p)
            pairs.append((fd.shape, fd.gram))
    return pairs


def test_jordan_structure_restricts_every_cluster():
    """Every cluster, simple and whole-space ones included, comes with its
    basis q, N_r = q^H (a - lam I) q and max |a - lam I|, and the block sizes
    are read from the rank profile of that N_r."""
    tol = default_tol()
    seen = {"simple": 0, "whole": 0, "complex": 0}
    for a, _g in _sample_pairs():
        n = a.shape[0]
        structure, bases, restricted, shift_scales = jordan_structure(a, tol)
        clusters = list(structure.real_blocks) + [
            (complex(alpha, beta), sizes) for alpha, beta, sizes in structure.complex_blocks
        ]
        assert len(bases) == len(restricted) == len(shift_scales) == len(clusters)
        for (lam, sizes), q, nr, scale in zip(clusters, bases, restricted, shift_scales):
            mult = sum(sizes)
            seen["simple"] += sizes == (1,)
            seen["whole"] += mult == n
            seen["complex"] += isinstance(lam, complex)
            assert q.shape == (n, mult) and nr.shape == (mult, mult)
            want = q.conj().T @ (a - lam * np.eye(n)) @ q
            assert np.abs(nr - want).max() <= 1e-12 * max(np.abs(a).max(), 1.0)
            # the scale is read off the same shift, so it is exact
            assert scale == np.abs(a - lam * np.eye(n)).max()
            assert _block_sizes(nr, lam, tol) == sizes
    assert min(seen.values()) > 0, seen


def _simple_cluster_pairs():
    """The sample pairs, an 8x8 pair with 8 simple eigenvalues (four real
    1-blocks and two complex pairs) and a simple eigenvalue beside a
    3-block, each of the last two under five congruences."""
    eight = _taxonomy_pair(
        [(-3.0, 1, -1), (-1.0, 1, 1), (0.5, 1, -1), (2.0, 1, 1)], [(1.0, 0.75, 1), (-2.0, 1.25, 1)]
    )
    three = _taxonomy_pair([(0.5, 3, 1), (-1.0, 1, -1)], [])
    return _sample_pairs() + _congruences(eight, seed=81) + _congruences(three, seed=82)


def test_simple_cluster_basis_is_the_eigenspace():
    """A simple cluster's basis, an eig column, spans the line that
    generalized_eigenspace finds from its shift by one SVD: |q^H q'| >= 1 -
    1e-12, for real and complex clusters."""
    tol = default_tol()
    seen = {"real": 0, "complex": 0, "dim 8, all simple": 0, "beside a 3-block": 0}
    for a, _g in _simple_cluster_pairs():
        n = a.shape[0]
        structure, bases, _restricted, shift_scales = jordan_structure(a, tol)
        clusters = list(structure.real_blocks) + [
            (complex(alpha, beta), sizes) for alpha, beta, sizes in structure.complex_blocks
        ]
        simple = [(lam, q, scale) for (lam, sizes), q, scale in zip(clusters, bases, shift_scales)
                  if sizes == (1,)]
        seen["dim 8, all simple"] += n == 8 and len(simple) == len(clusters)
        seen["beside a 3-block"] += any(3 in sizes for _lam, sizes in clusters) and bool(simple)
        for lam, q, scale in simple:
            cplx = isinstance(lam, complex)
            seen["complex" if cplx else "real"] += 1
            assert q.shape == (n, 1) and np.iscomplexobj(q) == cplx
            shift = a.astype(type(lam)) - lam * np.eye(n)
            want = generalized_eigenspace(shift[None], np.array([scale]), 1)[0]
            assert abs(np.vdot(q[:, 0], want[:, 0])) >= 1.0 - 1e-12
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("offset", [0.9e-6, -0.9e-6, 1e-3])
def test_simple_cluster_rank_cut(monkeypatch, offset):
    """A simple cluster whose value is moved off its eigenvalue by less than
    the rank cut max(tol, RANK_TOL) keeps its 1-block with no rank profile;
    one moved farther gets the rank profile's ToleranceError and text."""
    a = np.diag([1.0, 2.0, 4.0])
    eig_clusters = petrov._eig_clusters

    def moved(mat, tol):
        clusters, vecs = eig_clusters(mat, tol)
        (value, members), *rest = clusters
        return [(value + offset, members), *rest], vecs

    monkeypatch.setattr(petrov, "_eig_clusters", moved)
    profile, profiled = petrov.jordan_rank_profile, []

    def counted(nil, lam, tol):
        profiled.append(lam)
        return profile(nil, lam, tol)

    monkeypatch.setattr(petrov, "jordan_rank_profile", counted)
    if abs(offset) < 1e-6:
        structure = jordan_structure(a)[0]
        assert structure.real_blocks == ((1.0 + offset, (1,)), (2.0, (1,)), (4.0, (1,)))
        assert profiled == []
    else:
        with pytest.raises(ToleranceError, match="of 1.001 is not numerically nilpotent"):
            jordan_structure(a)
        assert profiled == [1.0 + offset]


def test_one_blocks_signs_are_the_inertia():
    """On every real span where a - lam I vanishes in the sample pairs (a
    simple or semisimple eigenspace, or what the peel leaves of a mixed
    cluster), the 1-block signs are the inertia of basis^T G basis, read by
    ``signature``, and the columns have the Gram diag(signs)."""
    tol = default_tol()
    seen = {"simple": 0, "semisimple": 0, "mixed": 0}
    for a, g in _sample_pairs():
        structure, bases, restricted, shift_scales = jordan_structure(a, tol)
        spans = []
        for (lam, sizes), basis, nr, scale in zip(
            structure.real_blocks, bases, restricted, shift_scales
        ):
            long = [m for m in sizes if m > 1]
            if len(long) == len(sizes):
                continue
            rest = _extract_chains(scale, g, basis, long, tol, nr)[1] if long else basis
            assert rest.shape[1] == len(sizes) - len(long)
            seen["mixed" if long else "simple" if sizes == (1,) else "semisimple"] += 1
            spans.append((lam, scale, rest))
        blocks = _one_blocks(g, spans, tol)
        for lam, _scale, rest in spans:
            signs = [eps for mu, eps, _c in blocks if mu == lam]
            pos, neg, null = signature(rest.T @ g @ rest)
            assert (signs.count(1), signs.count(-1), 0) == (pos, neg, null)
            cols = np.hstack([c for mu, _e, c in blocks if mu == lam])
            assert np.abs(cols.T @ g @ cols - np.diag(signs)).max() <= 1e-10
    assert min(seen.values()) > 0, seen


def test_semisimple_degenerate_form_raises():
    """A Gram that is nondegenerate at tol 1e-12 but degenerate at the normal
    form's tolerance on a semisimple or a simple eigenspace gets no chain
    basis."""
    inputs = [
        (np.diag([1.0, 1.0, 2.0]), [[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-10, 0.0], [0.0, 0.0, 1.0]], 2),
        (np.diag([1.0, 2.0]), np.diag([1e-10, 1.0]), 1),
    ]
    for a, g, dim in inputs:
        pair = SelfAdjointPair(a, BilinearSpace.from_gram(np.array(g), 1e-12))
        with pytest.raises(ConditioningError, match=f"degenerate form on a {dim}-dimensional eigenspace"):
            petrov_normal_form(pair)


def _orthonormal_span(rng, n, k, complex_span):
    """n x k orthonormal columns (in the Hermitian inner product), complex or
    real."""
    x = rng.standard_normal((n, k))
    if complex_span:
        x = x + 1j * rng.standard_normal((n, k))
    return np.linalg.qr(x)[0]


def test_chain_generator_attains_the_largest_pairing():
    """On orthonormal spans of width 1..4 and a random symmetric G, the
    generator v has B(v, v) = eps, and its pairing 1/|v|^2 is the largest
    |x^T Q x| over unit x in the span, Q = span^T G span: the largest Takagi
    value (singular value) of Q on a complex span, where eps is -1, and the
    largest |eigenvalue| on a real one, whose sign is eps."""
    rng = np.random.default_rng(27)
    for complex_span in (True, False):
        for k in range(1, 5):
            for _ in range(10):
                g = rng.standard_normal((8, 8))
                g = g + g.T
                active = _orthonormal_span(rng, 8, k, complex_span)
                v, eps = _pick_chain_generator([np.eye(8)], g, active, 1, 1e-9, 1.0)
                q = active.T @ g @ active
                if complex_span:
                    best, want_eps = np.linalg.svd(q, compute_uv=False)[0], -1
                else:
                    w = np.linalg.eigvalsh(q)
                    best, want_eps = np.abs(w).max(), np.sign(w[np.abs(w).argmax()])
                assert eps == want_eps
                assert abs(v @ g @ v - eps) <= 1e-12
                assert abs(1.0 / np.vdot(v, v).real - best) <= 1e-12 * best


def test_degenerate_pairing_raises_one_error_on_every_span():
    """A pairing at most tol * max(|Q|, shift_scale, 1) raises the same
    ConditioningError text on a real and on a complex span.  The shift is
    part of that scale on both: a complex Q with max |Q| = 1e-3 passes at
    tol 1e-9 beside shift_scale 1 and is refused beside shift_scale 1e7."""
    rng = np.random.default_rng(11)
    g = rng.standard_normal((6, 6))
    g = g + g.T
    text = "degenerate chain pairing for block size 1; input sits near a Jordan-structure boundary"
    for complex_span in (False, True):
        active = _orthonormal_span(rng, 6, 2, complex_span)
        with pytest.raises(ConditioningError) as raised:
            _pick_chain_generator([np.eye(6)], 1e-12 * g, active, 1, 1e-9, 1.0)
        assert str(raised.value) == text
    complex_span = _orthonormal_span(rng, 6, 2, True)
    small = g * (1e-3 / np.abs(complex_span.T @ g @ complex_span).max())
    _pick_chain_generator([np.eye(6)], small, complex_span, 1, 1e-9, 1.0)
    with pytest.raises(ConditioningError) as raised:
        _pick_chain_generator([np.eye(6)], small, complex_span, 1, 1e-9, 1e7)
    assert str(raised.value) == text


@pytest.mark.parametrize("case", TAXONOMY_CASES, ids=TAXONOMY_IDS)
def test_normal_form_transform_reaches_normal_pair(case):
    _index, _label, _sign, reals, cplx = case
    base = _taxonomy_pair(reals, cplx)
    for a, g in _congruences(base, seed=TAXONOMY_CASES.index(case)):
        nf = petrov_normal_form(SelfAdjointPair(a, BilinearSpace.from_gram(g)))
        assert _contract_residual(nf, a, g) <= 1e-8


@pytest.mark.parametrize("case", TAXONOMY_CASES, ids=TAXONOMY_IDS)
def test_classify_pair_congruence_invariant(case):
    index, label, sign, reals, cplx = case
    base = _taxonomy_pair(reals, cplx)
    want = classify_pair(base.a, base.space.gram)
    assert (want["algebraic"]["index"], want["algebraic"]["label"]) == (index, label)
    assert want["algebraic"]["epsilon"] == sign
    assert want["geometric"] == {"index": index, "label": label}

    def sizes(result):
        st = result["structure"]
        return [b["sizes"] for b in st["real"]], [b["sizes"] for b in st["complex"]]

    for a, g in _congruences(base, seed=100 + TAXONOMY_CASES.index(case)):
        got = classify_pair(a, g)
        assert got["algebraic"]["label"] == label
        assert got["algebraic"]["epsilon"] == want["algebraic"]["epsilon"]
        assert got["geometric"] == want["geometric"]
        assert got["signs"] == want["signs"]
        assert got["negative_index"] == want["negative_index"]
        assert sizes(got) == sizes(want)


def _kron_normal_matrices(structure, signs):
    """Reference A_norm and G_norm built block by block with kron and a
    direct sum, as the normal pair was assembled before it was written in
    place."""
    blocks_a, blocks_g = [], []
    i = 0
    for lam, sizes in structure.real_blocks:
        segment = sorted(zip(sizes, signs[i : i + len(sizes)]), key=lambda t: (t[0], -t[1]))
        i += len(sizes)
        for m, eps in segment:
            blocks_a.append(lam * np.eye(m) + np.diag(np.ones(m - 1), 1))
            blocks_g.append(eps * np.fliplr(np.eye(m)))
    for alpha, beta, sizes in structure.complex_blocks:
        for m in sizes:
            cell = np.array([[alpha, -beta], [beta, alpha]])
            blocks_a.append(
                np.kron(np.eye(m), cell) + np.kron(np.diag(np.ones(m - 1), 1), np.eye(2))
            )
            blocks_g.append(np.kron(np.fliplr(np.eye(m)), np.diag([-1.0, 1.0])))
    n = sum(b.shape[0] for b in blocks_a)
    out_a, out_g = np.zeros((n, n)), np.zeros((n, n))
    at = 0
    for ba, bg in zip(blocks_a, blocks_g):
        m = ba.shape[0]
        out_a[at : at + m, at : at + m] = ba
        out_g[at : at + m, at : at + m] = bg
        at += m
    return out_a, out_g


@pytest.mark.parametrize("case", TAXONOMY_CASES, ids=TAXONOMY_IDS)
def test_normal_matrices_match_kron_reference(case):
    _index, _label, _sign, reals, cplx = case
    pair = _taxonomy_pair(reals, cplx)
    nf = petrov_normal_form(pair)
    for signs in (list(nf.signs), [-e for e in nf.signs]):
        got = _normal_matrices(nf.structure, signs)
        want = _kron_normal_matrices(nf.structure, signs)
        # equal as numbers; the reference may hold -0.0 where a product
        # with eps = -1 hit a zero
        assert all(np.array_equal(x, y) for x, y in zip(got, want))


# The transform contract: T^-1 A T = A_norm and T^T G T = G_norm within
# CONTRACT_BOUND, with structure, signs, negative index and label exact.
# With the chains peeled in the coordinates of their generalized eigenspace,
# the largest residual seen was 4.4e-9 in 10,000 draws of _congruent_pairs
# and 4.9e-10 in 4,000 draws of both strategies; peeled on the whole space,
# long chains next to other eigenvalues reached 1.7e-4.
CONTRACT_BOUND = 1e-6


def _contract_residual(form, a, g):
    """max |T^-1 A T - A_norm| and |T^T G T - G_norm| of a form of (a, g)."""
    t = form.transform
    a_norm, g_norm = _normal_matrices(form.structure, list(form.signs))
    return max(
        float(np.abs(np.linalg.solve(t, a @ t) - a_norm).max()),
        float(np.abs(t.T @ g @ t - g_norm).max()),
    )


def _assert_same_structure(got, want):
    """Equal block sizes, and eigenvalues within 1e-6."""
    assert [s for _l, s in got.real_blocks] == [s for _l, s in want.real_blocks]
    assert [s for _a, _b, s in got.complex_blocks] == [s for _a, _b, s in want.complex_blocks]
    for (l1, _s1), (l2, _s2) in zip(got.real_blocks, want.real_blocks):
        assert abs(l1 - l2) <= 1e-6
    for (a1, b1, _s1), (a2, b2, _s2) in zip(got.complex_blocks, want.complex_blocks):
        assert abs(a1 - a2) <= 1e-6 and abs(b1 - b2) <= 1e-6


@st.composite
def _congruent_pairs(draw):
    """A random block structure of dimension 2..8 with random signs, moved by
    a congruence with cond(T) <= 100.  Each block sits on its own
    eigenvalue, drawn from a unit grid; real blocks have size 1..4, complex
    chains size 1..2."""
    remaining = draw(st.integers(2, 8))
    reals, cplx = [], []
    while remaining:
        if remaining >= 2 and draw(st.booleans()):
            m = draw(st.integers(1, min(2, remaining // 2)))
            cplx.append((m, draw(st.sampled_from((0.75, 1.0, 1.25)))))
            remaining -= 2 * m
        else:
            m = draw(st.integers(1, min(4, remaining)))
            reals.append((m, draw(st.sampled_from((-1, 1)))))
            remaining -= m
    grid = draw(st.permutations([float(x) for x in range(-4, 5)]))
    real_blocks = sorted((lam, m, eps) for lam, (m, eps) in zip(grid, reals))
    structure = JordanStructure(
        tuple((lam, (m,)) for lam, m, _eps in real_blocks),
        tuple(sorted((lam, beta, (m,)) for lam, (m, beta) in zip(grid[len(reals) :], cplx))),
    )
    signs = tuple(eps for _lam, _m, eps in real_blocks)
    base = assemble_normal_pair(structure, list(signs))
    ((a, g),) = _congruences(base, seed=draw(st.integers(0, 2**32 - 1)), count=1)
    return structure, signs, base, SelfAdjointPair(a, BilinearSpace.from_gram(g))


def _label(form):
    try:
        alg = classify_algebraic(form)
    except TaxonomyError:
        return None
    return alg.index, alg.label, alg.epsilon


def _transform_contract_residual(structure, signs, base, pair):
    """Check the exact part of the contract and return the residual of the
    transform."""
    nf = petrov_normal_form(pair)
    _assert_same_structure(nf.structure, structure)
    assert nf.signs == signs
    want = PetrovNormalForm(structure, signs, np.eye(structure.dim))
    assert negative_index(nf) == negative_index(want) == signature(pair.space.gram)[1]
    assert _label(nf) == _label(want)
    return _contract_residual(nf, pair.a, pair.space.gram)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_congruent_pairs())
def test_transform_contract_property(drawn):
    assert _transform_contract_residual(*drawn) <= CONTRACT_BOUND


@st.composite
def _repeated_eigenvalue_pairs(draw):
    """A structure of dimension 2..8 in which one eigenvalue carries 2..5
    one-blocks with random signs, sometimes next to a 2-block of random sign;
    further one-blocks sit on three other eigenvalues of a unit grid, so they
    may repeat too.  Sometimes one complex pair carries two blocks, of sizes
    (1, 1) or (1, 2), so that the chain generator of a complex cluster is a
    choice in a span of width 2 or 3.  Moved by a congruence with
    cond(T) <= 100."""
    sign = st.sampled_from((-1, 1))
    grid = draw(st.permutations([float(x) for x in range(-4, 5)]))
    cplx = draw(st.sampled_from(((), (), (1, 1), (1, 2))))
    room = 8 - 2 * sum(cplx)
    blocks = [(grid[0], 1, draw(sign)) for _ in range(draw(st.integers(2, min(5, room))))]
    if len(blocks) + 2 <= room and draw(st.booleans()):
        blocks.append((grid[0], 2, draw(sign)))
    for _ in range(draw(st.integers(0, room - sum(m for _l, m, _e in blocks)))):
        blocks.append((draw(st.sampled_from(grid[1:4])), 1, draw(sign)))
    # canonical block order: eigenvalues ascending, sizes ascending, +1 first
    blocks.sort(key=lambda b: (b[0], b[1], -b[2]))
    lams = sorted({lam for lam, _m, _eps in blocks})
    structure = JordanStructure(
        tuple((lam, tuple(m for mu, m, _e in blocks if mu == lam)) for lam in lams),
        ((grid[4], draw(st.sampled_from((0.75, 1.0, 1.25))), cplx),) if cplx else (),
    )
    signs = tuple(eps for _lam, _m, eps in blocks)
    base = assemble_normal_pair(structure, list(signs))
    ((a, g),) = _congruences(base, seed=draw(st.integers(0, 2**32 - 1)), count=1)
    return structure, signs, base, SelfAdjointPair(a, BilinearSpace.from_gram(g))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_repeated_eigenvalue_pairs())
def test_transform_contract_repeated_eigenvalues(drawn):
    assert _transform_contract_residual(*drawn) <= CONTRACT_BOUND


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.one_of(_congruent_pairs(), _repeated_eigenvalue_pairs()))
def test_assembled_signature_is_the_grams(drawn):
    """assemble_normal_pair reads the signature off the blocks; it is the
    Sylvester signature of the Gram it builds, for every structure and sign
    list the property tests draw."""
    _structure, _signs, base, _pair = drawn
    pos, neg = base.space.signature
    assert signature(base.space.gram) == (pos, neg, 0)
    assert base.space.dim == pos + neg == base.a.shape[0]


@pytest.mark.parametrize("case", TAXONOMY_CASES, ids=TAXONOMY_IDS)
def test_assembled_signature_of_each_taxonomy_case(case):
    _index, _label, _eps, reals, cplx = case
    pair = _taxonomy_pair(reals, cplx)
    assert signature(pair.space.gram) == (*pair.space.signature, 0)


def test_long_chain_contract_tail():
    """A 1-block, a 3-block and a 4-block, all of sign -1, moved by a fixed
    congruence: powers of N = A - lam I on the whole space scaled the other
    eigenspaces' roundoff to a contract residual of 1.8e-4; peeled in the
    coordinates of each generalized eigenspace it stays near roundoff."""
    base = _taxonomy_pair([(-2.0, 1, -1), (0.0, 3, -1), (3.0, 4, -1)], [])
    ((a, g),) = _congruences(base, seed=234, count=1)
    nf = petrov_normal_form(SelfAdjointPair(a, BilinearSpace.from_gram(g)))
    assert [s for _l, s in nf.structure.real_blocks] == [(1,), (3,), (4,)]
    assert nf.signs == (-1, -1, -1)
    assert _contract_residual(nf, a, g) <= 1e-8


def _flip_rule(form):
    """Structure and signs of the normal form of (-A, G) by the sign
    characteristic rule, from the normal form of (A, G): eigenvalues negated,
    a real block of size m and sign eps with sign eps (-1)^(m-1), complex
    blocks (alpha, beta) as (-alpha, beta), all in canonical order."""
    signs = iter(form.signs)
    clusters = [
        (-lam, sorted(((m, next(signs) * (-1) ** (m - 1)) for m in sizes),
                      key=lambda b: (b[0], -b[1])))
        for lam, sizes in form.structure.real_blocks
    ][::-1]
    structure = JordanStructure(
        tuple((lam, tuple(m for m, _e in blocks)) for lam, blocks in clusters),
        tuple(sorted((-a, b, sizes) for a, b, sizes in form.structure.complex_blocks)),
    )
    return structure, tuple(eps for _lam, blocks in clusters for _m, eps in blocks)


def _check_flip(pair):
    """Solve (A, G) and (-A, G) independently: the eigenvalues of the second
    are those of the first negated, within 1e-6, its real blocks carry the
    signs of the sign characteristic rule, its transform meets the contract,
    and the index and label agree, TaxonomyError included.  Returns the form
    of (-A, G)."""
    form = petrov_normal_form(pair)
    minus_a = -pair.a
    flipped = petrov_normal_form(SelfAdjointPair(minus_a, pair.space))
    structure, signs = _flip_rule(form)
    _assert_same_structure(flipped.structure, structure)
    assert flipped.signs == signs
    assert _contract_residual(flipped, minus_a, pair.space.gram) <= CONTRACT_BOUND
    assert (_label(flipped) or ())[:2] == (_label(form) or ())[:2]
    return flipped


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_congruent_pairs())
def test_flip_orientation_property(drawn):
    _check_flip(drawn[3])


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_repeated_eigenvalue_pairs())
def test_flip_orientation_repeated_eigenvalues(drawn):
    _check_flip(drawn[3])


# (real blocks, signs, complex blocks) of a normal pair (A, G), and the real
# blocks and signs of the normal form of (-A, G), in canonical order
FLIP_CASES = {
    # a 4-block changes sign
    "VI": ([(0.5, (4,))], [1], [], [(-0.5, (4,))], [-1]),
    # a 3-block keeps its sign; the eigenvalue order reverses
    "VII-i": ([(0.5, (3,)), (2.0, (1,))], [-1, 1], [], [(-2.0, (1,)), (-0.5, (3,))], [1, -1]),
    # lambda = 0 under a 2-block stays +0.0
    "X": ([(0.0, (2,)), (1.0, (1,))], [1, -1], [], [(-1.0, (1,)), (0.0, (2,))], [-1, -1]),
    # a simple eigenvalue 0 stays +0.0 too
    "XI": ([(0.0, (1,)), (1.0, (1,))], [-1, -1], [], [(-1.0, (1,)), (0.0, (1,))], [-1, -1]),
    # two 2-blocks of one eigenvalue swap places: +1 stays first
    "IX-ii": ([(0.5, (2, 2))], [1, -1], [], [(-0.5, (2, 2))], [1, -1]),
    # +-i with sizes (1, 1), as on entry j: alpha = 0 stays +0.0
    "II": ([], [], [(0.0, 1.0, (1, 1))], [], []),
    # a complex 2-chain next to a real 1-block
    "I": ([(3.0, (1,))], [1], [(0.5, 1.5, (2,))], [(-3.0, (1,))], [1]),
}


@pytest.mark.parametrize("case", FLIP_CASES.values(), ids=FLIP_CASES)
def test_flip_orientation_fixed_cases(case):
    real, signs, cplx, want_real, want_signs = case
    pair = _pair(real, signs, cplx)
    flipped = _check_flip(pair)
    want = JordanStructure(tuple(want_real), tuple((-a, b, s) for a, b, s in cplx))
    _assert_same_structure(flipped.structure, want)
    assert flipped.signs == tuple(want_signs)
    assert "-0.0" not in json.dumps(flipped.structure.to_json())
    _check_flip(_conjugate(pair))


def test_flip_orientation_entry_j():
    """Entry j has +-i with two 1-blocks, one cluster (0, 1, (1, 1)), which
    the solve of (-A, G) keeps grouped: alpha = 0 stays 0 and beta stays
    positive."""
    p = sample_domain("j", 1, seed=3)[0]
    fd = evaluate("j", p)
    pair = SelfAdjointPair(fd.shape, BilinearSpace.from_gram(fd.gram))
    flipped = _check_flip(pair)
    ((alpha, beta, sizes),) = flipped.structure.complex_blocks
    assert sizes == (1, 1) and abs(alpha) <= 1e-9 and abs(beta - 1.0) <= 1e-9
    assert _label(flipped)[:2] == (2, "II")


def test_geometric_type_invariant_under_normal_flip():
    """The other unit normal, (-A, G), gets the geometric type of (A, G) in
    every taxonomy case, on the normal pair and on a congruent pair."""
    for case in TAXONOMY_CASES:
        index, label, _sign, reals, cplx = case
        base = _taxonomy_pair(reals, cplx)
        ((a, g),) = _congruences(base, seed=200 + TAXONOMY_CASES.index(case), count=1)
        want = GeometricType(index, label)
        for pair in (base, SelfAdjointPair(a, BilinearSpace.from_gram(g))):
            flipped = SelfAdjointPair(-pair.a, pair.space)
            assert classify_geometric(pair) == classify_geometric(flipped) == want, case


def test_one_normal_form_per_classification(monkeypatch):
    """classify_pair and classify_geometric compute one normal form and
    classify it once: the geometric type is the algebraic label."""
    calls = {"petrov_normal_form": 0, "classify_algebraic": 0}
    for name in calls:
        compute = getattr(petrov, name)

        def counted(*args, _name=name, _compute=compute, **kwargs):
            calls[_name] += 1
            return _compute(*args, **kwargs)

        monkeypatch.setattr(petrov, name, counted)
    pair = _pair([(-1.0, (2,)), (0.5, (3,))], [-1, 1])
    assert classify_pair(pair.a, pair.space.gram)["geometric"]["label"] == "VIII"
    assert calls == {"petrov_normal_form": 1, "classify_algebraic": 1}
    assert classify_geometric(pair).label == "VIII"
    assert calls == {"petrov_normal_form": 2, "classify_algebraic": 2}


def test_residual_floor_decides_self_adjointness(monkeypatch):
    """petrov_normal_form refuses a pair whose scaled self-adjointness
    residual, as is_self_adjoint computes it, is above residual_cut(tol),
    which reads linalg.RESIDUAL_FLOOR at call time: a residual of 5e-8 is
    accepted at the floor 1e-7 and refused once the floor is 1e-8."""
    base = _pair([(1.0, (1,)), (2.0, (1,)), (3.0, (1,))], [-1, 1, 1])
    a = base.a.copy()
    # G A - A^T G is -+1.5e-7 at (0, 1) and (1, 0), and A is scaled by 1/3
    a[0, 1] = 1.5e-7
    assert linalg.is_self_adjoint(a, base.space, 1e-7)
    assert not linalg.is_self_adjoint(a, base.space, 1e-8)
    pair = SelfAdjointPair(a, base.space)
    assert classify_algebraic(petrov_normal_form(pair)).label == "I"
    monkeypatch.setattr(linalg, "RESIDUAL_FLOOR", 1e-8)
    with pytest.raises(ContractError, match="operator is not self-adjoint for the given gram"):
        petrov_normal_form(pair)


def test_one_degeneracy_cut_for_chains_and_one_blocks(monkeypatch):
    """The chain pairing of _pick_chain_generator and the 1-block forms of
    _one_blocks are both refused against _degeneracy_cut, tol * max(|form|,
    |a - lam I|, 1), of one form or of a stack: a pair with a 2-block and a
    1-block calls it from each, and a cut moved above every eigenvalue
    refuses each with its own text."""
    form = np.array([[0.5, -3.0], [-3.0, 2.0]])
    assert petrov._degeneracy_cut(form, 2.0, 1e-9) == 1e-9 * 3.0
    stack = np.stack([form, form / 10.0, form / 100.0])
    cuts = petrov._degeneracy_cut(stack, (2.0, 0.1, 4.0), 1e-9)
    assert list(cuts) == [1e-9 * 3.0, 1e-9, 1e-9 * 4.0]
    cut, callers = petrov._degeneracy_cut, []

    def spy(form, shift_scale, tol):
        callers.append(sys._getframe(1).f_code.co_name)
        return cut(form, shift_scale, tol)

    monkeypatch.setattr(petrov, "_degeneracy_cut", spy)
    mixed = _pair([(0.0, (2,)), (1.0, (1,))], [1, -1])
    assert classify_algebraic(petrov_normal_form(mixed)).label == "X"
    assert sorted(callers) == ["_one_blocks", "_pick_chain_generator"]
    monkeypatch.setattr(petrov, "_degeneracy_cut", lambda form, shift_scale, tol: np.inf)
    with pytest.raises(ConditioningError, match="degenerate chain pairing for block size 2"):
        petrov_normal_form(mixed)
    simple = _pair([(1.0, (1,)), (2.0, (1,))], [-1, 1])
    with pytest.raises(ConditioningError, match="degenerate form on a 1-dimensional eigenspace"):
        petrov_normal_form(simple)


def test_cond_floor_decides_the_basis(monkeypatch):
    """petrov_normal_form refuses a basis T with cond(T) above cond_limit(tol),
    1 / max(tol, linalg.COND_FLOOR) read at call time."""
    ((a, g),) = _congruences(_pair([(0.0, (2,)), (1.0, (1,))], [1, -1]), seed=3, count=1)
    pair = SelfAdjointPair(a, BilinearSpace.from_gram(g))
    cond = np.linalg.cond(petrov_normal_form(pair).transform)
    monkeypatch.setattr(linalg, "COND_FLOOR", 2.0 / cond)
    with pytest.raises(ConditioningError, match="chain basis condition number"):
        petrov_normal_form(pair)


_NON_FINITE = "has a non-finite entry (NaN or infinity)"
_TOL_TEXT = "tol must be a positive finite number, got "
# (a, gram, tol) -> the exact type and text of the refusal, the gram's
# checks first, then the operator's shape against the space, dim <= 8, the
# operator's own checks and self-adjointness
_REFUSALS = {
    "operator not square": (np.zeros((2, 3)), np.eye(2), None,
                            linalg.ShapeError, "operator and space dimensions differ"),
    "operator a vector": (np.ones(2), np.eye(2), None,
                          linalg.ShapeError, "operator and space dimensions differ"),
    "dimensions differ": (np.eye(3), np.eye(2), None,
                          linalg.ShapeError, "operator and space dimensions differ"),
    "gram not square": (np.eye(2), np.ones((2, 3)), None,
                        linalg.ShapeError, "gram must be square, got shape (2, 3)"),
    "gram empty": (np.zeros((0, 0)), np.zeros((0, 0)), None,
                   linalg.ShapeError, "gram is empty, got shape (0, 0)"),
    "NaN in the operator": (np.diag([np.nan, 1.0]), np.diag([1.0, -1.0]), None,
                            linalg.ShapeError, f"operator {_NON_FINITE}"),
    "inf in the operator": (np.diag([np.inf, 1.0]), np.diag([1.0, -1.0]), None,
                            linalg.ShapeError, f"operator {_NON_FINITE}"),
    "inf in the gram": (np.eye(2), np.diag([np.inf, 1.0]), None,
                        linalg.ShapeError, f"gram {_NON_FINITE}"),
    "NaN in the gram": (np.eye(2), np.diag([np.nan, 1.0]), None,
                        linalg.ShapeError, f"gram {_NON_FINITE}"),
    "NaN in an asymmetric gram": (np.eye(2), np.array([[1.0, np.nan], [0.0, 1.0]]), None,
                                  linalg.ShapeError, f"gram {_NON_FINITE}"),
    "asymmetric gram": (np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]), None,
                        linalg.ShapeError, "gram matrix is not symmetric within tolerance"),
    "degenerate gram": (np.eye(2), np.diag([1.0, 0.0]), None,
                        linalg.DegenerateGramError, "gram matrix is degenerate"),
    "zero gram": (np.eye(2), np.zeros((2, 2)), None,
                  linalg.DegenerateGramError, "gram matrix is degenerate"),
    "not self-adjoint": (np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2), None,
                         ContractError, "operator is not self-adjoint for the given gram"),
    "dim 9": (np.eye(9), np.eye(9), None,
              ContractError, "petrov_normal_form supports dim <= 8"),
    "dim 9, NaN in the operator": (np.full((9, 9), np.nan), np.eye(9), None,
                                   ContractError, "petrov_normal_form supports dim <= 8"),
    "tol 0": (np.eye(2), np.eye(2), 0, linalg.BadToleranceError, f"{_TOL_TEXT}0"),
    "tol -1": (np.eye(2), np.eye(2), -1.0, linalg.BadToleranceError, f"{_TOL_TEXT}-1.0"),
    "tol NaN": (np.eye(2), np.eye(2), np.nan, linalg.BadToleranceError, f"{_TOL_TEXT}nan"),
    "tol inf": (np.eye(2), np.eye(2), np.inf, linalg.BadToleranceError, f"{_TOL_TEXT}inf"),
    "tol text": (np.eye(2), np.eye(2), "x", linalg.BadToleranceError, f"{_TOL_TEXT}'x'"),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_classify_pair_refusals(case):
    """Each refusal of classify_pair has exactly this type and text."""
    a, gram, tol, error, text = _REFUSALS[case]
    with pytest.raises(error) as raised:
        classify_pair(a, gram, tol)
    assert type(raised.value) is error and str(raised.value) == text


def test_classify_pair_refuses_a_bad_petrov_tol(monkeypatch):
    monkeypatch.setenv("PETROV_TOL", "abc")
    with pytest.raises(linalg.BadToleranceError) as raised:
        classify_pair(np.eye(2), np.eye(2))
    assert str(raised.value) == "PETROV_TOL must be a positive finite number, got 'abc'"


# numpy.linalg calls of one classify_pair per taxonomy case, the same on the
# assembled pair and on a congruent one: (eig, eigh, eigvalsh, svd,
# matrix_power).  The two simple complex pairs of 2-II share one stacked eigh.
_FACTORIZATIONS = {
    "1-I-None": (1, 1, 1, 3, 1), "1-II-1": (1, 1, 1, 4, 1), "1-II--1": (1, 1, 1, 4, 1),
    "1-III-None": (1, 1, 1, 5, 1), "1-IV-None": (1, 1, 1, 1, 0), "2-I-None": (1, 1, 1, 4, 1),
    "2-II-None": (1, 1, 1, 1, 0), "2-III-None": (1, 1, 1, 1, 0), "2-IV-1": (1, 2, 1, 4, 1),
    "2-IV--1": (1, 2, 1, 4, 1), "2-V-None": (1, 2, 1, 5, 1), "2-VI-1": (1, 1, 1, 5, 0),
    "2-VI--1": (1, 1, 1, 6, 1), "2-VII-i-None": (1, 1, 1, 5, 1),
    "2-VII-ii-None": (1, 1, 1, 5, 1), "2-VIII-1": (1, 2, 1, 8, 2),
    "2-VIII--1": (1, 2, 1, 8, 2), "2-IX-i-1": (1, 2, 1, 4, 0), "2-IX-i--1": (1, 2, 1, 6, 1),
    "2-IX-ii--1": (1, 2, 1, 6, 1), "2-X-1": (1, 1, 1, 4, 0), "2-X--1": (1, 1, 1, 4, 1),
    "2-XI-None": (1, 1, 1, 3, 1),
}


@pytest.mark.parametrize("case", TAXONOMY_CASES, ids=TAXONOMY_IDS)
def test_factorizations_per_classification(monkeypatch, case):
    """Every numpy.linalg factorization of a classification is pinned per
    taxonomy case, and a simple complex pair never enters the chain peel:
    its block comes from the stacked eigensolve of _simple_pairs."""
    names = ("eig", "eigh", "eigvalsh", "svd", "matrix_power")
    calls = dict.fromkeys(names, 0)
    for name in names:
        compute = getattr(np.linalg, name)

        def counted(*args, _name=name, _compute=compute, **kwargs):
            calls[_name] += 1
            return _compute(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    peeled, extract = [], petrov._extract_chains

    def spy(shift_scale, g, basis, *args):
        peeled.append(basis)
        return extract(shift_scale, g, basis, *args)

    monkeypatch.setattr(petrov, "_extract_chains", spy)
    index, label, sign, reals, cplx = case
    base = _taxonomy_pair(reals, cplx)
    moved = _congruences(base, seed=TAXONOMY_CASES.index(case), count=1)
    for a, g in [(base.a, base.space.gram), *moved]:
        calls.update(dict.fromkeys(names, 0))
        assert classify_pair(a, g)["algebraic"]["label"] == label
        assert tuple(calls.values()) == _FACTORIZATIONS[f"{index}-{label}-{sign}"]
    # the peel sees the complex spans of the longer complex chains only
    longer = [m for _alpha, _beta, m in cplx if m > 1]
    assert [q.shape[1] for q in peeled if np.iscomplexobj(q)] == longer * 2

"""Normal forms and type classification for self-adjoint pairs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petrovtypes.catalog import EXAMPLE_IDS, evaluate, sample_domain
from petrovtypes.linalg import BilinearSpace, default_tol, signature
from petrovtypes.petrov import (
    ConditioningError,
    JordanStructure,
    PetrovNormalForm,
    SelfAdjointPair,
    TaxonomyError,
    _extract_chains,
    _normal_matrices,
    _semisimple_chains,
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


def test_geometric_type_invariant_under_normal_flip():
    # flipping the sign of the operator flips epsilon of even blocks but the
    # geometric label must not change
    pair = _pair([(0.0, (2, 2))], [1, 1])
    flipped = SelfAdjointPair(-pair.a, pair.space)
    assert classify_geometric(pair).label == classify_geometric(flipped).label == "IX-i"


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


def test_semisimple_path_matches_peel():
    """On every semisimple real cluster of the sample pairs (more than one
    block, all of size 1) the eigh path gives the signs of the chain peel,
    and its columns have the Gram diag(signs)."""
    tol = default_tol()
    seen = 0
    for a, g in _sample_pairs():
        structure, bases = jordan_structure(a, tol)
        for (lam, sizes), basis in zip(structure.real_blocks, bases):
            if len(sizes) < 2 or max(sizes) > 1:
                continue
            seen += 1
            nmat = a - lam * np.eye(a.shape[0])
            chains = _semisimple_chains(nmat, g, basis, tol)
            peel = _extract_chains(nmat, g, basis, list(sizes), tol)
            signs = [eps for _m, eps, _c in chains]
            assert sorted(signs) == sorted(int(np.sign(eps)) for _m, eps, _c in peel)
            assert [m for m, _e, _c in chains] == list(sizes)
            cols = np.hstack([c for _m, _e, c in chains])
            assert np.abs(cols.T @ g @ cols - np.diag(signs)).max() <= 1e-10
    assert seen > 0


def test_semisimple_degenerate_form_raises():
    """A Gram that is nondegenerate at tol 1e-12 but degenerate at the normal
    form's tolerance on a semisimple eigenspace gets no chain basis."""
    a = np.diag([1.0, 1.0, 2.0])
    g = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-10, 0.0], [0.0, 0.0, 1.0]])
    pair = SelfAdjointPair(a, BilinearSpace.from_gram(g, 1e-12))
    with pytest.raises(ConditioningError, match="degenerate form on a 2-dimensional eigenspace"):
        petrov_normal_form(pair)


@pytest.mark.parametrize("case", TAXONOMY_CASES, ids=TAXONOMY_IDS)
def test_normal_form_transform_reaches_normal_pair(case):
    _index, _label, _sign, reals, cplx = case
    base = _taxonomy_pair(reals, cplx)
    for a, g in _congruences(base, seed=TAXONOMY_CASES.index(case)):
        nf = petrov_normal_form(SelfAdjointPair(a, BilinearSpace.from_gram(g)))
        t = nf.transform
        assert np.abs(np.linalg.solve(t, a @ t) - nf.a_norm).max() <= 1e-6
        assert np.abs(t.T @ g @ t - nf.g_norm).max() <= 1e-6


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
# The 1e-6 of test_normal_form_transform_reaches_normal_pair is too tight for
# random draws: long chains next to other eigenvalues reached 1.7e-4 on A in
# one set of 3,000 draws of _congruent_pairs, so the property has a bound of
# its own.
CONTRACT_BOUND = 1e-3


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


def _transform_contract_residuals(structure, signs, base, pair):
    """Check the exact part of the contract and return the residuals
    (on A, on G) of the transform."""
    nf = petrov_normal_form(pair)
    got = nf.structure
    assert [s for _l, s in got.real_blocks] == [s for _l, s in structure.real_blocks]
    assert [s for _a, _b, s in got.complex_blocks] == [
        s for _a, _b, s in structure.complex_blocks
    ]
    for (l1, _s1), (l2, _s2) in zip(got.real_blocks, structure.real_blocks):
        assert abs(l1 - l2) <= 1e-6
    for (a1, b1, _s1), (a2, b2, _s2) in zip(got.complex_blocks, structure.complex_blocks):
        assert abs(a1 - a2) <= 1e-6 and abs(b1 - b2) <= 1e-6
    assert nf.signs == signs
    want = PetrovNormalForm(structure, signs, np.eye(structure.dim), base.a, base.space.gram)
    assert negative_index(nf) == negative_index(want) == signature(pair.space.gram)[1]
    assert _label(nf) == _label(want)
    t = nf.transform
    return (
        float(np.abs(np.linalg.solve(t, pair.a @ t) - nf.a_norm).max()),
        float(np.abs(t.T @ pair.space.gram @ t - nf.g_norm).max()),
    )


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_congruent_pairs())
def test_transform_contract_property(drawn):
    res_a, res_g = _transform_contract_residuals(*drawn)
    assert res_a <= CONTRACT_BOUND and res_g <= CONTRACT_BOUND


@st.composite
def _repeated_eigenvalue_pairs(draw):
    """A structure of dimension 2..8 in which one eigenvalue carries 2..5
    one-blocks with random signs, sometimes next to a 2-block of random sign;
    further one-blocks sit on three other eigenvalues of a unit grid, so they
    may repeat too.  Moved by a congruence with cond(T) <= 100."""
    sign = st.sampled_from((-1, 1))
    grid = draw(st.permutations([float(x) for x in range(-4, 5)]))
    blocks = [(grid[0], 1, draw(sign)) for _ in range(draw(st.integers(2, 5)))]
    if draw(st.booleans()):
        blocks.append((grid[0], 2, draw(sign)))
    for _ in range(draw(st.integers(0, 8 - sum(m for _l, m, _e in blocks)))):
        blocks.append((draw(st.sampled_from(grid[1:4])), 1, draw(sign)))
    # canonical block order: eigenvalues ascending, sizes ascending, +1 first
    blocks.sort(key=lambda b: (b[0], b[1], -b[2]))
    lams = sorted({lam for lam, _m, _eps in blocks})
    structure = JordanStructure(
        tuple((lam, tuple(m for mu, m, _e in blocks if mu == lam)) for lam in lams), ()
    )
    signs = tuple(eps for _lam, _m, eps in blocks)
    base = assemble_normal_pair(structure, list(signs))
    ((a, g),) = _congruences(base, seed=draw(st.integers(0, 2**32 - 1)), count=1)
    return structure, signs, base, SelfAdjointPair(a, BilinearSpace.from_gram(g))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_repeated_eigenvalue_pairs())
def test_transform_contract_repeated_eigenvalues(drawn):
    res_a, res_g = _transform_contract_residuals(*drawn)
    assert res_a <= CONTRACT_BOUND and res_g <= CONTRACT_BOUND

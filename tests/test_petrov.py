"""Normal forms and type classification for self-adjoint pairs."""

import numpy as np
import pytest

from petrovtypes.linalg import BilinearSpace, signature
from petrovtypes.petrov import (
    JordanStructure,
    SelfAdjointPair,
    assemble_normal_pair,
    classify_algebraic,
    classify_geometric,
    classify_pair,
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

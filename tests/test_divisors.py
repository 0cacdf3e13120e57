"""Divisor calculus and monodromy vectors."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, strategies as st

from midconv import Convoluter, EigDivisor, GroupElement, GroupMode, MonodromyVector, ScalarExpr
from midconv.docio import parse_document
from midconv.errors import ModeMismatch
from midconv.scalars import product

MULT = GroupMode.MULTIPLICATIVE
ADD = GroupMode.ADDITIVE


def gen(name, mode=MULT):
    return GroupElement.generator(name, mode)


class TestEigDivisor:
    def test_degree_and_max_multiplicity(self):
        a, b = gen("a"), gen("b")
        g = EigDivisor(MULT, [(a, 2), (b, 1)])
        assert g.degree() == 3
        assert g.max_multiplicity() == (a, 2)
        assert g.multiplicity(b) == 1
        assert g.multiplicity(gen("c")) == 0

    def test_max_multiplicity_tie_breaks_to_smallest(self):
        a, b = gen("a"), gen("b")
        g = EigDivisor(MULT, [(b, 4), (a, 4)])
        assert g.max_multiplicity() == (min(a, b), 4)

    def test_single_class(self):
        g = EigDivisor(MULT, [(gen("a"), 3)])
        assert g.max_multiplicity() == (gen("a"), 3)

    def test_determinant_inverse_pair(self):
        a = gen("a")
        g = EigDivisor(MULT, [(a, 1), (a.invert(), 1)])
        assert g.determinant().is_identity()

    def test_trace_additive(self):
        half = GroupElement.constant(F(1, 2), ADD)
        g = EigDivisor(ADD, [(half, 2)])
        assert g.determinant() == GroupElement.constant(1, ADD)

    def test_zero_entries_dropped_and_sorted(self):
        a, b = gen("a"), gen("b")
        g = EigDivisor(MULT, [(b, 1), (a, 1), (a, -1)])
        assert g.entries == ((b, 1),)

    def test_additivity_of_degree_and_determinant(self):
        a, b = gen("a"), gen("b")
        g = EigDivisor(MULT, [(a, 2)])
        h = EigDivisor(MULT, [(a, 1), (b, 3)])
        s = g + h
        assert s.degree() == g.degree() + h.degree()
        assert s.determinant() == g.determinant().combine(h.determinant())

    def test_json_round_trip(self):
        g = EigDivisor(MULT, [(gen("a"), 2), (GroupElement(MULT, ScalarExpr(F(1, 3))), 1)])
        doc = {"mode": "multiplicative", "classes": [g.to_json()] * 3}
        assert parse_document(doc).vector[0] == g

    def test_mode_mixing_rejected(self):
        with pytest.raises(ModeMismatch):
            EigDivisor(MULT, [(GroupElement.constant(0, ADD), 1)])


class TestMonodromyVector:
    def test_referee_inputs_have_unit_determinant(self):
        # hypergeometric-style data with the last eigenvalue tied so the
        # total determinant is exactly 1
        ap, bp, up, vp, gp = (gen(x) for x in ["ap", "bp", "up", "vp", "gp"])
        hp = ap.combine(bp).combine(up).combine(vp).combine(gp).invert()
        v = MonodromyVector([EigDivisor.of(ap, bp), EigDivisor.of(up, vp),
                             EigDivisor.of(gp, hp)])
        assert v.total_determinant().is_identity()
        assert v.rank == 2 and v.n == 3

    def test_needs_three_points(self):
        g = EigDivisor.of(gen("a"))
        with pytest.raises(ValueError):
            MonodromyVector([g, g])

    def test_equal_degrees_enforced(self):
        with pytest.raises(ValueError):
            MonodromyVector([EigDivisor.of(gen("a")),
                             EigDivisor.of(gen("b"), gen("c")),
                             EigDivisor.of(gen("d"))])

    def test_effectiveness_enforced(self):
        bad = EigDivisor(MULT, [(gen("a"), 2), (gen("b"), -1)])
        good = EigDivisor.of(gen("c"))
        with pytest.raises(ValueError):
            MonodromyVector([bad, good, good])

    def test_pmv_and_gcd(self):
        a, b = gen("a"), gen("b")
        quad = MonodromyVector([EigDivisor(MULT, [(gen(f"x{i}"), 2), (gen(f"y{i}"), 2)])
                                for i in range(4)])
        assert quad.pmv() == ((2, 2),) * 4

        simple = MonodromyVector([
            EigDivisor(MULT, [(gen("a1"), 1), (gen("a2"), 1), (gen("a3"), 1)]),
            EigDivisor(MULT, [(gen("b1"), 2), (gen("b2"), 1)]),
            EigDivisor(MULT, [(gen("c1"), 3)]),
        ])
        assert simple.pmv() == ((1, 1, 1), (2, 1), (3,))

    def test_json_round_trip(self):
        v = MonodromyVector([EigDivisor.of(gen("a"), gen("b")),
                             EigDivisor.of(gen("c"), gen("d")),
                             EigDivisor(MULT, [(gen("e"), 2)])])
        assert parse_document(v.to_json()).vector == v


@given(perm=st.permutations(range(5)))
def test_pmv_invariant_under_relabeling(perm):
    names = [f"g{i}" for i in range(5)]
    mults = [3, 1, 1, 2, 2]
    g1 = EigDivisor(MULT, [(gen(names[i]), mults[i]) for i in range(5)])
    g2 = EigDivisor(MULT, [(gen(names[perm[i]]), mults[i]) for i in range(5)])
    assert g1.partition() == g2.partition()


# -- the symbolic fast paths against the public constructor and __lt__ --------

CIRC = GroupMode.CIRCLE
consts = st.fractions(min_value=-3, max_value=3, max_denominator=12)
terms = st.dictionaries(st.sampled_from(["a", "b", "x1", "x10"]),
                        st.fractions(min_value=-3, max_value=3, max_denominator=6), max_size=3)


def exprs(mode):
    """Mixed denominators and negative constants; generators drawn from one
    small pool, so some forms share them and some do not (none in circle mode)."""
    return st.builds(ScalarExpr, consts, st.just({}) if mode is CIRC else terms)


@pytest.mark.parametrize("mode", [MULT, ADD, CIRC])
class TestSymbolicFastPaths:
    @given(data=st.data())
    def test_entries_in_element_order(self, mode, data):
        xs = data.draw(st.lists(exprs(mode), max_size=8))
        mults = data.draw(st.lists(st.integers(1, 3), min_size=len(xs), max_size=len(xs)))
        elems = [GroupElement(mode, x) for x in xs]
        support = EigDivisor(mode, list(zip(elems, mults))).support()
        assert list(support) == sorted(set(elems), key=GroupElement.sort_key)
        for x, y in zip(support, support[1:]):
            assert x < y and x.sort_key() < y.sort_key() and not y < x

    @given(data=st.data())
    def test_equal_elements_hash_equal(self, mode, data):
        x = data.draw(exprs(mode))
        y = data.draw(exprs(mode))  # x = y + (x - y)
        powers = {} if mode is CIRC else data.draw(
            st.dictionaries(st.sampled_from(["a", "b", "x1"]), st.integers(-3, 3), max_size=3))
        x = x + ScalarExpr(0, powers)
        base = GroupElement(mode, x)
        built = [GroupElement(mode, ScalarExpr.from_json(x.to_json())),
                 GroupElement(mode, y).combine(GroupElement(mode, x - y)),
                 GroupElement(mode, -x).invert(),
                 GroupElement(mode, -x).power(-1)]
        if mode is not ADD:  # the constant lives mod 1
            built.append(GroupElement(mode, x + ScalarExpr(data.draw(st.integers(-3, 3)))))
        if mode is not CIRC:
            rest = GroupElement(mode, x - ScalarExpr(0, powers))
            built.append(product([rest] + [GroupElement.generator(n, mode).power(k)
                                           for n, k in powers.items()]))
        for e in built:
            assert e == base and hash(e) == hash(base)
            assert (e.expr._d, e.expr._c, e.expr._t) == (base.expr._d, base.expr._c, base.expr._t)
        for other in {MULT, ADD, CIRC} - {mode}:
            if other is not CIRC or not x.generators():
                assert GroupElement(other, base.expr) != base

    @given(data=st.data())
    def test_supplied_v_breaking_the_relation_raises(self, mode, data):
        n = data.draw(st.integers(3, 5))
        h = [GroupElement(mode, data.draw(exprs(mode))) for _ in range(n)]
        shifts = [GroupElement(mode, data.draw(exprs(mode))) for _ in range(n - 1)]
        shifts.append(product(shifts).invert())
        v = [hi.combine(si) for hi, si in zip(h, shifts)]
        beta = Convoluter(h, v)
        assert beta.t.combine(product(beta.v)).is_identity()
        same = Convoluter(h)
        assert same.v == same.h and same.t.combine(product(same.v)).is_identity()
        off = GroupElement(mode, data.draw(exprs(mode)))
        i = data.draw(st.integers(0, n - 1))
        if not off.is_identity():
            with pytest.raises(ValueError, match="product relation"):
                Convoluter(h, v[:i] + [v[i].combine(off)] + v[i + 1:])


class TestCanonicalConstructor:
    """``EigDivisor._canonical`` takes entries that are canonical already;
    its callers' divisors equal the validating, sorting constructor's."""

    @staticmethod
    def assert_canonical(vector):
        for g in vector:
            assert g == EigDivisor(g.mode, g.entries) and g.entries == EigDivisor(
                g.mode, g.entries).entries
            assert all(type(m) is int and m >= 1 for _, m in g.entries)

    def test_generated_vectors(self):
        from helpers import random_partition
        from midconv.homology import generate_instance
        rng = np.random.default_rng(3)
        for seed in range(40):
            # up to 13 classes a point: e0_10 sorts before e0_2
            r, n = int(rng.integers(1, 14)), int(rng.integers(3, 6))
            problem = generate_instance(
                seed=seed, r=r, n=n, aim=("support", "fresh")[seed % 2],
                v_policy=("same", "fresh")[seed // 2 % 2],
                mults=[random_partition(rng, r) for _ in range(n - 1)])
            self.assert_canonical(problem.vector)
        assert [e.expr.generators()[0] for e, _ in generate_instance(
            seed=1, r=11, n=3).vector[0].entries][:3] == ["e0_0", "e0_1", "e0_10"]

    @pytest.mark.parametrize("mode", [MULT, ADD])
    @pytest.mark.parametrize("v_policy", ["same", "fresh"])
    def test_run_algorithm_decodes(self, mode, v_policy):
        from helpers import random_vector
        from midconv.katz import run_algorithm
        rng = np.random.default_rng(4)
        steps = 0
        for case in range(30):
            vector = random_vector(rng, mode, int(rng.integers(2, 7)), int(rng.integers(3, 6)),
                                   f"c{case}", max_part=3)
            trace = run_algorithm(vector, v_policy=v_policy)
            for step in trace.steps:
                self.assert_canonical(step.input)
                self.assert_canonical(step.output)
            self.assert_canonical(trace.final)
            steps += len(trace.steps)
        assert steps >= 10, steps

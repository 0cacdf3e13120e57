"""Divisor calculus and monodromy vectors."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, strategies as st

from midconv import EigDivisor, GroupElement, GroupMode, MonodromyVector, ScalarExpr
from midconv.docio import parse_document
from midconv.errors import ModeMismatch

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
        assert quad.pmv_gcd() == 2

        simple = MonodromyVector([
            EigDivisor(MULT, [(gen("a1"), 1), (gen("a2"), 1), (gen("a3"), 1)]),
            EigDivisor(MULT, [(gen("b1"), 2), (gen("b2"), 1)]),
            EigDivisor(MULT, [(gen("c1"), 3)]),
        ])
        assert simple.pmv() == ((1, 1, 1), (2, 1), (3,))
        assert simple.pmv_gcd() == 1

        scalar = MonodromyVector([EigDivisor(MULT, [(gen(f"s{i}"), 4)])
                                  for i in range(3)])
        assert scalar.pmv_gcd() == 4

    def test_is_all_diagonal(self):
        r3 = MonodromyVector([EigDivisor(MULT, [(gen(f"d{i}"), 3)]) for i in range(3)])
        assert r3.is_all_diagonal()
        rank1 = MonodromyVector([EigDivisor.of(gen(f"r{i}")) for i in range(4)])
        assert rank1.is_all_diagonal()
        mixed = MonodromyVector([
            EigDivisor(MULT, [(gen("a"), 2)]),
            EigDivisor.of(gen("b"), gen("c")),
            EigDivisor(MULT, [(gen("d"), 2)]),
        ])
        assert not mixed.is_all_diagonal()

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

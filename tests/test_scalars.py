"""Exact arithmetic on symbolic eigenvalues."""

import cmath
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

from midconv import GroupElement, GroupMode, ScalarExpr
from midconv.errors import MissingGenerator, ModeMismatch
from midconv.scalars import _merge

MULT = GroupMode.MULTIPLICATIVE
ADD = GroupMode.ADDITIVE
CIRC = GroupMode.CIRCLE


def mult(const=0, exps=None):
    return GroupElement(MULT, ScalarExpr(const, exps or {}))


def additive(const=0, exps=None):
    return GroupElement(ADD, ScalarExpr(const, exps or {}))


class TestScalarExpr:
    def test_canonical_drops_zero_coefficients(self):
        e = ScalarExpr(F(1, 2), {"x": 0, "y": F(1, 3)})
        assert e.generators() == ("y",)

    def test_equality_is_structural(self):
        assert ScalarExpr(1, {"a": 2}) == ScalarExpr(F(2, 2), {"a": F(4, 2)})
        assert ScalarExpr(1, {"a": 2}) != ScalarExpr(1, {"b": 2})

    def test_add_neg(self):
        e = ScalarExpr(F(1, 2), {"x": 1}) + ScalarExpr(F(1, 2), {"x": -1, "y": 2})
        assert e == ScalarExpr(1, {"y": 2})
        assert -e == ScalarExpr(-1, {"y": -2})

    def test_json_round_trip(self):
        e = ScalarExpr(F(-3, 4), {"x": F(5, 7)})
        assert ScalarExpr.from_json(e.to_json()) == e
        assert e.to_json() == {"const": "-3/4", "exps": {"x": "5/7"}}

    def test_duplicate_generator_rejected(self):
        with pytest.raises(ValueError):
            ScalarExpr(0, [("x", 1), ("x", 2)])


class TestGroupLaw:
    def test_inverse_pair_is_identity(self):
        a = mult(0, {"x": 1})
        assert a.combine(mult(0, {"x": -1})).is_identity()

    def test_mod1_reduction_multiplicative(self):
        assert mult(F(3, 4)).combine(mult(F(1, 2))) == mult(F(1, 4))

    def test_additive_no_reduction(self):
        s = additive(F(1, 2), {"s": 1}).combine(additive(F(1, 2)))
        assert s == additive(1, {"s": 1})

    def test_invert_examples(self):
        assert GroupElement.identity(MULT).invert().is_identity()
        assert mult(F(1, 3)).invert() == mult(F(2, 3))
        assert additive(0, {"x": 2}).invert() == additive(0, {"x": -2})

    def test_mod1_never_leaks_denominators(self):
        a = GroupElement(MULT, ScalarExpr(F(7, 5), {"q": 1}))
        assert a.combine(a.invert()).is_identity()

    def test_mode_mismatch(self):
        with pytest.raises(ModeMismatch):
            mult(0).combine(additive(0))

    def test_power(self):
        assert mult(F(1, 3)).power(3).is_identity()
        assert additive(0, {"x": 1}).power(-2) == additive(0, {"x": -2})


class TestPredicates:
    def test_identity_one_is_zero_mod_one(self):
        assert GroupElement(MULT, ScalarExpr(1)).is_identity()

    def test_additive_integer_not_identity(self):
        a = additive(2)
        assert a.is_integer()
        assert not a.is_identity()

    def test_symbolic_generator_not_integer(self):
        assert not additive(0, {"x": 1}).is_integer()

    def test_is_integer_wrong_mode(self):
        with pytest.raises(ModeMismatch):
            mult(0).is_integer()


class TestToComplex:
    def test_circle_half_is_minus_one(self):
        assert GroupElement.circle(F(1, 2)).to_complex() == pytest.approx(-1)

    def test_mult_quarter_is_i(self):
        z = mult(0, {"x": 1}).to_complex({"x": 0.25})
        assert z == pytest.approx(1j)

    def test_additive_evaluates_linearly(self):
        z = additive(F(1, 2), {"s": 1}).to_complex({"s": 0.1})
        assert z == pytest.approx(0.6)

    def test_missing_generator(self):
        with pytest.raises(MissingGenerator):
            mult(0, {"x": 1}).to_complex({})


class TestCircleMode:
    def test_requires_constant(self):
        with pytest.raises(ValueError):
            GroupElement(CIRC, ScalarExpr(0, {"x": 1}))

    def test_wraps_mod_one(self):
        assert GroupElement.circle(F(5, 4)) == GroupElement.circle(F(1, 4))

    def test_generator_rejected(self):
        with pytest.raises(ValueError):
            GroupElement.generator("a", CIRC)


class TestOrdering:
    def test_total_order_strict(self):
        elems = [mult(F(1, 2)), mult(0, {"a": 1}), mult(0, {"b": 1}),
                 mult(F(1, 2), {"a": -1})]
        ordered = sorted(elems)
        for x, y in zip(ordered, ordered[1:]):
            assert x < y or x == y
        assert len(set(elems)) == len(elems)

    def test_cross_mode_comparison_rejected(self):
        with pytest.raises(ModeMismatch):
            mult(0) < additive(0)


rationals = st.fractions(min_value=-10, max_value=10, max_denominator=50)
small_exps = st.dictionaries(st.sampled_from("abcde"), rationals, max_size=3)


def elements(mode):
    return st.builds(lambda c, e: GroupElement(mode, ScalarExpr(c, e)),
                     rationals, small_exps)


@pytest.mark.parametrize("mode", [MULT, ADD])
class TestGroupAxioms:
    @given(data=st.data())
    def test_associative_commutative(self, mode, data):
        a = data.draw(elements(mode))
        b = data.draw(elements(mode))
        c = data.draw(elements(mode))
        assert a.combine(b).combine(c) == a.combine(b.combine(c))
        assert a.combine(b) == b.combine(a)

    @given(data=st.data())
    def test_identity_and_inverse(self, mode, data):
        a = data.draw(elements(mode))
        e = GroupElement.identity(mode)
        assert a.combine(e) == a
        assert a.combine(a.invert()).is_identity()

    @given(data=st.data())
    def test_canonicalization_idempotent(self, mode, data):
        a = data.draw(elements(mode))
        again = GroupElement(mode, a.expr)
        assert again == a and hash(again) == hash(a)

    @given(data=st.data())
    def test_to_complex_is_homomorphism(self, mode, data):
        a = data.draw(elements(mode))
        b = data.draw(elements(mode))
        assignment = {name: 0.37 + 0.11j for name in "abcde"}
        za = a.to_complex(assignment)
        zb = b.to_complex(assignment)
        zc = a.combine(b).to_complex(assignment)
        if mode is MULT:
            assert zc == pytest.approx(za * zb, rel=1e-9)
        else:
            assert zc == pytest.approx(za + zb, rel=1e-9)


# -- the integer representation against a Fraction reference model ----------
#
# The model is the seed's semantics: a form is (const, {name: coeff}) over
# Fraction, canonical as (const, name-sorted nonzero terms).

mixed = st.one_of(st.sampled_from([F(0), F(1, 2), F(-1, 2), F(1, 3), F(2, 3),
                                   F(1, 4), F(3, 4), F(5, 6), F(1), F(-2)]),
                  st.fractions(min_value=-5, max_value=5, max_denominator=12))
model_terms = st.dictionaries(st.sampled_from(["a", "b", "c", "x1", "x10", "y"]),
                              mixed, max_size=4)
models = st.tuples(mixed, model_terms)


def canonical(model):
    const, terms = model
    return const, tuple(sorted((n, c) for n, c in terms.items() if c != 0))


def form(model):
    return ScalarExpr(*model)


def model_add(x, y):
    terms = dict(x[1])
    for n, c in y[1].items():
        terms[n] = terms.get(n, F(0)) + c
    return x[0] + y[0], terms


def model_scale(x, k):
    return x[0] * k, {n: c * k for n, c in x[1].items()}


class TestIntegerFormsMatchModel:
    @given(x=models, y=models, k=mixed)
    def test_algebra(self, x, y, k):
        a, b = form(x), form(y)
        for got, want in [(a + b, model_add(x, y)),
                          (a - b, model_add(x, model_scale(y, -1))),
                          (-a, model_scale(x, -1)),
                          (a.scale(k), model_scale(x, k)),
                          (a.mod1(), (x[0] % 1, x[1]))]:
            assert (got.const, got.exps) == canonical(want)
            assert got == form(want) and hash(got) == hash(form(want))

    @given(x=models, y=models)
    def test_equal_forms_equal_hashes(self, x, y):
        a = form(x)
        roundabout = (a + form(y)) - form(y)
        assert roundabout == a and hash(roundabout) == hash(a)
        assert (a == form(y)) == (canonical(x) == canonical(y))

    @given(xs=st.lists(models, max_size=8))
    def test_sort_key_is_the_fraction_order(self, xs):
        by_key = sorted(xs, key=lambda x: form(x).sort_key())
        assert [canonical(x) for x in by_key] == sorted(canonical(x) for x in xs)
        for x, y in zip(by_key, by_key[1:]):
            assert not form(y).sort_key() < form(x).sort_key()

    @given(x=models)
    def test_json_and_evaluate(self, x):
        const, terms = canonical(x)
        a = form(x)
        assert a.to_json() == {"const": str(const),
                               "exps": {n: str(c) for n, c in terms}}
        assert ScalarExpr.from_json(a.to_json()) == a
        z = {n: 0.37 - 0.11j for n in "abcy"} | {"x1": 1.5, "x10": -2j}
        want = complex(const)
        for n, c in terms:
            want += float(c) * complex(z[n])
        assert a.evaluate(z) == want

    def test_mixed_denominators(self):
        a = ScalarExpr(F(1, 2), {"x": F(1, 3)}) + ScalarExpr(F(1, 3), {"x": F(1, 6)})
        assert a == ScalarExpr(F(5, 6), {"x": F(1, 2)})
        assert a.to_json() == {"const": "5/6", "exps": {"x": "1/2"}}

    def test_cancellation_restores_denominator_one(self):
        a = ScalarExpr(F(1, 2), {"x": 1}) + ScalarExpr(F(1, 2), {"y": 1})
        assert a._d == 1 and a == ScalarExpr(1, {"x": 1, "y": 1})
        assert (ScalarExpr(F(1, 2)) + ScalarExpr(F(1, 2)))._d == 1
        assert ScalarExpr(F(3, 4)).scale(4)._d == 1


# -- the term merge against a dict model --------------------------------------
#
# ``_Rows.plus`` and ``ScalarExpr.__add__`` both add terms by
# ``scalars._merge``, so a comparison of rows with objects runs it on both
# sides; here it meets a {name: Fraction} model instead.

term_names = st.sampled_from(["A", "_s1", "a", "b", "x1", "x10", "y"])
term_tuples = st.dictionaries(term_names, st.integers(-3, 3).filter(bool), max_size=6).map(
    lambda terms: tuple(sorted(terms.items())))
multipliers = st.sampled_from([1, 1, 1, 2, 3, -1, 6])


def merge_model(s, t, a, b):
    """a * s + b * t by a {name: Fraction} dict, as name-sorted nonzero terms."""
    terms = {}
    for k, side in ((a, s), (b, t)):
        for n, x in side:
            terms[n] = terms.get(n, F(0)) + k * F(x)
    return tuple((n, int(x)) for n, x in sorted(terms.items()) if x)


class TestMergeMatchesModel:
    @given(s=term_tuples, t=term_tuples, a=multipliers, b=multipliers)
    @example(s=(), t=(), a=1, b=1)
    @example(s=(("a", 1), ("b", -2)), t=(), a=1, b=1)
    @example(s=(), t=(("a", 1), ("b", -2)), a=2, b=3)
    @example(s=(("a", 1), ("b", 2)), t=(("a", -1), ("b", -2)), a=1, b=1)  # all cancel
    @example(s=(("a", 1), ("y", 2)), t=(("b", 1), ("x1", -2)), a=1, b=1)  # interleaved
    @example(s=(("a", 2),), t=(("a", -1), ("b", 1), ("y", 3)), a=1, b=2)  # cancels, t's tail
    @example(s=(("A", 1), ("b", 2), ("y", 1)), t=(("a", 3),), a=3, b=-1)  # s's tail
    def test_merge(self, s, t, a, b):
        got = _merge(s, t, a, b)
        assert type(got) is tuple and got == merge_model(s, t, a, b)

    @given(s=term_tuples, t=term_tuples)
    def test_unit_merge_keeps_the_pairs_of_one_operand(self, s, t):
        """A term whose name only one operand has is that operand's pair; an
        empty operand gives the other one back."""
        got = _merge(s, t)
        if not s or not t:
            assert got is (s or t)
        meeting = {n for n, _ in s} & {n for n, _ in t}
        kept = [p for p in got if p[0] not in meeting]
        assert len(kept) == len(s) + len(t) - 2 * len(meeting)
        assert all(any(p is q for q in (*s, *t)) for p in kept)


def _rational_text(sign, p, zeros, q):
    return f"{sign}{'0' * zeros}{p}" + ("" if q is None else f"/{'0' * zeros}{q}")


# the spec's texts: signs, leading zeros, unreduced and zero values, big ints
# and mixed denominators, and JSON integers
rational_texts = (
    st.builds(_rational_text, st.sampled_from(["", "+", "-"]),
              st.integers(0, 12) | st.integers(0, 10**40),
              st.integers(0, 3), st.none() | st.integers(1, 12) | st.integers(1, 10**30))
    | st.sampled_from(["-0", "0/7", "2/4", "-6/4", "007", "0"])
    | st.integers(-10**40, 10**40))


# texts that the "p/q" spec rejects, and valid texts next to them
OUTSIDE_THE_SPEC = [" 1", "1 ", "1_0", "\u0661", "\uff11", "+-1", "1/00", "1/-2", "9" * 4301]
NEIGHBOURS = ["1", "10", "-1", "+1", "1/2", "1/01", "9" * 4300]


class TestScalarJsonBoundary:
    @pytest.mark.parametrize("doc, where", [
        ({"const": 0.5}, "$.const"),
        ({"const": True}, "$.const"),
        ({"const": "0.5"}, "$.const"),
        ({"const": "1/0"}, "$.const"),
        ({"const": [1]}, "$.const"),
        ({"const": "0", "exps": [1]}, "$.exps"),
        ({"const": "0", "exps": {"x": 0.5}}, "$.exps.x"),
        ({"const": "0", "exps": {"x": False}}, "$.exps.x"),
        ("1/2", "$"),
    ])
    def test_rejected_with_path(self, doc, where):
        from midconv.errors import DocumentError
        with pytest.raises(DocumentError) as err:
            ScalarExpr.from_json(doc)
        assert err.value.path == where

    @pytest.mark.parametrize("text", OUTSIDE_THE_SPEC)
    def test_texts_outside_the_spec_rejected(self, text):
        from midconv.errors import DocumentError
        # the valid neighbours are memoised first: no memo hit may let a bad text by
        for near in NEIGHBOURS:
            ScalarExpr.from_json({"const": near, "exps": {"x": near}})
        for _ in range(2):
            for doc, where in [({"const": text}, "$.v.const"),
                               ({"const": "1", "exps": {"x": "1", "y": text}}, "$.v.exps.y")]:
                with pytest.raises(DocumentError) as err:
                    ScalarExpr.from_json(doc, "$.v")
                assert err.value.path == where

    @pytest.mark.parametrize("text", OUTSIDE_THE_SPEC + ["x", "1.5"])
    def test_rejected_text_reports_each_path(self, text):
        from midconv.errors import DocumentError
        messages = set()
        for path in ("$.a", "$.b", "$.a"):
            for doc, where in [({"const": text}, f"{path}.const"),
                               ({"exps": {"z": text}}, f"{path}.exps.z")]:
                with pytest.raises(DocumentError) as err:
                    ScalarExpr.from_json(doc, path)
                assert err.value.path == where and str(err.value).startswith(f"{where}: ")
                messages.add(err.value.message)
        assert len(messages) == 1  # the message names the text, never a path

    @given(const=rational_texts, exps=st.dictionaries(
        st.sampled_from(["a", "b", "x1", "x10", "y"]), rational_texts, max_size=4))
    def test_matches_the_fraction_oracle(self, const, exps):
        want = ScalarExpr(F(const), {n: F(c) for n, c in exps.items()})
        for _ in range(2):  # a first read and a memoised one
            got = ScalarExpr.from_json({"const": const, "exps": exps})
            assert (got._d, got._c, got._t) == (want._d, want._c, want._t)
            assert hash(got) == hash(want)

    def test_memos_stay_at_their_bound(self):
        from midconv.scalars import _ratio, _text_parts
        for memo in (_text_parts, _ratio):
            bound = memo.cache_info().maxsize
            assert bound is not None
            memo.cache_clear()
            for k in range(bound + 50):
                want = F(k, bound + 7)
                if memo is _text_parts:
                    got = ScalarExpr.from_json({"const": f"{k}/{bound + 7}"}).const
                else:
                    got = F(_ratio(k, bound + 7))
                assert got == want
            assert memo.cache_info().currsize == bound

    def test_integers_and_strings_accepted(self):
        assert ScalarExpr.from_json({"const": 1, "exps": {"x": "-2/4"}}) == \
            ScalarExpr(1, {"x": F(-1, 2)})

"""The transformation engine: defect, transform, involution, conventions,
emptiness, and the reduction loop."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (naive_kappa_local, random_beta, random_partition, random_vector,
                     reference_convoluter, reference_de_rham, reference_kappa, reference_run)
from midconv import (ConventionReport, Convoluter, EigDivisor, GroupElement, GroupMode,
                     MonodromyVector, ScalarExpr, TerminalStatus,
                     check_conventions, check_involution, defect, detect_empty,
                     dimension_report, kappa, run_algorithm)
from midconv.docio import render
from midconv.errors import (ConventionViolation, MaxStepsExceeded, ModeMismatch,
                            NoneffectiveTransform, SizeMismatch)
from midconv.katz import NoneffectiveReport, _read, _Rows, max_mult_convoluter, row_values

MULT = GroupMode.MULTIPLICATIVE
ADD = GroupMode.ADDITIVE


def gen(name, mode=MULT):
    return GroupElement.generator(name, mode)


def expr_elem(exps, mode=MULT):
    return GroupElement(mode, ScalarExpr(0, exps))


def referee_setup():
    """Rank-2 hypergeometric data with the twist (x, y, z=h'^{-1})."""
    ap, bp, up, vp, gp, hp = (gen(s) for s in ["ap", "bp", "up", "vp", "gp", "hp"])
    vec = MonodromyVector([EigDivisor.of(ap, bp), EigDivisor.of(up, vp),
                           EigDivisor.of(gp, hp)])
    beta = Convoluter([gen("x"), gen("y"), hp.invert()])
    return vec, beta


class TestConvoluter:
    def test_relations_derive_t_and_u(self):
        beta = Convoluter.with_fresh_v([gen("x"), gen("y"), gen("z")], ["s1", "s2"])
        prod_h = beta.h[0].combine(beta.h[1]).combine(beta.h[2])
        assert beta.t.combine(prod_h).is_identity()
        # the transform moves each eigenvalue a of g_i to a u_i, u_i = t h_i v_i
        vec = MonodromyVector([EigDivisor.of(gen(f"a{i}"), gen(f"b{i}")) for i in range(3)])
        out = kappa(beta, vec)
        for i in range(3):
            u = beta.t.combine(beta.h[i]).combine(beta.v[i])
            assert out[i].multiplicity(gen(f"a{i}").combine(u)) == 1

    def test_v_product_relation_validated(self):
        h = [gen("x"), gen("y"), gen("z")]
        with pytest.raises(ValueError):
            Convoluter(h, [gen("x"), gen("y"), gen("w")])

    def test_fresh_v_keeps_relations(self):
        beta = Convoluter.with_fresh_v([gen("x"), gen("y"), gen("z")], ["s1", "s2"])
        prod_v = beta.v[0].combine(beta.v[1]).combine(beta.v[2])
        assert beta.t.combine(prod_v).is_identity()

    def test_partner_is_involutive(self):
        beta = Convoluter.with_fresh_v([gen("x"), gen("y"), gen("z")], ["s1", "s2"])
        assert beta.partner().partner() == beta

    def test_partner_symmetric_when_v_equals_h(self):
        beta = Convoluter([gen("x"), gen("y"), gen("z")])
        gamma = beta.partner()
        assert gamma.h == gamma.v
        assert gamma.t == beta.t.invert()


class TestDefect:
    def test_referee_defect_is_one(self):
        vec, beta = referee_setup()
        assert defect(vec, beta) == 1

    def test_fully_diagonal(self):
        for n, r in [(3, 2), (4, 3), (5, 1)]:
            vec = MonodromyVector([EigDivisor(MULT, [(gen(f"a{i}"), r)])
                                   for i in range(n)])
            beta = max_mult_convoluter(vec)
            assert defect(vec, beta) == -2 * r
            assert defect(vec) == -2 * r

    def test_quad_dd_family_defect_zero(self):
        for d in [1, 2, 3]:
            vec = MonodromyVector([
                EigDivisor(MULT, [(gen(f"p{i}"), d), (gen(f"q{i}"), d)])
                for i in range(4)])
            assert defect(vec) == 0

    def test_size_mismatch(self):
        vec, _ = referee_setup()
        beta4 = Convoluter([gen("x"), gen("y"), gen("z"), gen("w")])
        with pytest.raises(SizeMismatch):
            defect(vec, beta4)


class TestKappaRefereeExample:
    def test_exact_columns(self):
        vec, beta = referee_setup()
        out = kappa(beta, vec)
        assert isinstance(out, MonodromyVector)
        assert out.rank == 3
        # z = hp^{-1}, so z^{-1} = hp; the displayed columns are
        # (a'xy^{-1}z^{-1}, b'xy^{-1}z^{-1}, x), (u'yx^{-1}z^{-1}, ...), \
        # (g'zx^{-1}y^{-1}, z, z)
        col1 = EigDivisor(MULT, [
            (expr_elem({"ap": 1, "x": 1, "y": -1, "hp": 1}), 1),
            (expr_elem({"bp": 1, "x": 1, "y": -1, "hp": 1}), 1),
            (expr_elem({"x": 1}), 1),
        ])
        col2 = EigDivisor(MULT, [
            (expr_elem({"up": 1, "y": 1, "x": -1, "hp": 1}), 1),
            (expr_elem({"vp": 1, "y": 1, "x": -1, "hp": 1}), 1),
            (expr_elem({"y": 1}), 1),
        ])
        col3 = EigDivisor(MULT, [
            (expr_elem({"gp": 1, "hp": -1, "x": -1, "y": -1}), 1),
            (expr_elem({"hp": -1}), 2),
        ])
        assert out.divisors == (col1, col2, col3)

    def test_round_trips_to_input(self):
        vec, beta = referee_setup()
        assert check_involution(beta, vec)

    def test_nongenericity_relation_appears(self):
        # substituting z = h'^{-1} creates the rank-one relation
        # (a' x y^{-1} z^{-1}) (u' y x^{-1} z^{-1}) (g' z x^{-1} y^{-1})
        # = a'u'g' x^{-1} y^{-1} z^{-1}, which an eigenvalue choice kills
        vec, beta = referee_setup()
        out = kappa(beta, vec)
        prod = out[0].support()[0].combine(out[1].support()[0]).combine(
            out[2].support()[0])
        expected = expr_elem({"ap": 1, "up": 1, "gp": 1, "x": -1, "y": -1, "hp": 1})
        assert prod == expected


class TestKappaProperties:
    @pytest.mark.parametrize("mode", [MULT, ADD])
    def test_degree_matches_independent_recount(self, mode):
        """The general-(h, v) sweep: every aim and v policy against the
        literal formula, with the de Rham conventions in additive mode."""
        rng = np.random.default_rng(42)
        seen = set()
        for aim in ("fresh", "maxmult", "support"):
            for v_policy in ("same", "fresh"):
                for trial in range(40):
                    r = int(rng.integers(1, 6))
                    n = int(rng.integers(3, 6))
                    tag = f"d{aim}{v_policy}{trial}"
                    vec = random_vector(rng, mode, r, n, tag)
                    beta = random_beta(rng, vec, aim, v_policy, tag)
                    d = defect(vec, beta)
                    naive = [naive_kappa_local(beta, vec, i) for i in range(n)]
                    out = kappa(beta, vec, de_rham=mode is ADD)
                    case = (aim, v_policy, vec, beta)
                    if isinstance(out, NoneffectiveReport):
                        assert [p[:2] for p in out.points] == [
                            (i, loc[0][1]) for i, loc in enumerate(naive) if loc[0][1] < 0], case
                        seen.add((aim, "empty"))
                        continue
                    assert all(loc[0][1] >= 0 for loc in naive), case
                    for i in range(n):
                        assert out[i] == EigDivisor(mode, naive[i]), case
                        assert out[i].degree() == r + d == sum(c for _, c in naive[i]), case
                    seen.add((aim, "ok"))
        # every aim meets effective transforms; only the rank-reducing aims
        # can go noneffective
        assert seen >= {(aim, "ok") for aim in ("fresh", "maxmult", "support")}
        assert (("maxmult", "empty") in seen) and (("support", "empty") in seen), seen

    def test_fully_diagonal_forced_noneffective(self):
        r, n = 3, 4
        vec = MonodromyVector([EigDivisor(MULT, [(gen(f"a{i}"), r)])
                               for i in range(n)])
        beta = max_mult_convoluter(vec)
        result = kappa(beta, vec)
        assert isinstance(result, NoneffectiveReport)
        assert {p[0] for p in result.points} == set(range(n))
        for _, coeff, lhs, rr in result.points:
            assert coeff == r - 2 * r and lhs < rr

    def test_determinant_is_preserved_exactly(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            mode = MULT if trial % 2 else ADD
            vec = random_vector(rng, mode, int(rng.integers(1, 5)),
                                int(rng.integers(3, 6)), f"det{trial}")
            beta = random_beta(rng, vec, "fresh", "fresh" if trial % 3 else "same",
                               f"det{trial}")
            out = kappa(beta, vec)
            assert isinstance(out, MonodromyVector)
            assert out.total_determinant() == vec.total_determinant()


class TestInvolution:
    def test_random_generic_suite(self):
        rng = np.random.default_rng(7)
        done = 0
        trial = 0
        while done < 60:
            trial += 1
            mode = MULT if trial % 2 else ADD
            r = int(rng.integers(1, 7))
            n = int(rng.integers(3, 7))
            vec = random_vector(rng, mode, r, n, f"i{trial}")
            aim = "fresh" if trial % 3 else "maxmult"
            beta = random_beta(rng, vec, aim, "same" if trial % 2 else "fresh",
                               f"i{trial}")
            out = kappa(beta, vec)
            if not isinstance(out, MonodromyVector):
                continue
            assert check_involution(beta, vec)
            done += 1

    def test_defect_zero_instance(self):
        vec = MonodromyVector([
            EigDivisor(MULT, [(gen(f"p{i}"), 2), (gen(f"q{i}"), 2)])
            for i in range(4)])
        beta = max_mult_convoluter(vec)
        assert defect(vec, beta) == 0
        out = kappa(beta, vec)
        assert out.rank == vec.rank
        assert check_involution(beta, vec)


class TestConventions:
    def test_trivial_diagonal_twist_detected(self):
        # h values multiplying to 1 force t = 1
        x, y = gen("x"), gen("y")
        beta = Convoluter([x, y, x.combine(y).invert()])
        vec = random_vector(np.random.default_rng(0), MULT, 2, 3, "c0")
        report = check_conventions(beta, vec)
        assert not report.chi_nontrivial and not report.ok

    def test_constructed_twisted_identity_violation(self):
        beta = Convoluter([gen("x"), gen("y"), gen("z")])
        bad = beta.h[0].combine(beta.t).invert()  # a with t h_0 a = 1
        vec = MonodromyVector([EigDivisor.of(bad, gen("a2")),
                               EigDivisor.of(gen("b1"), gen("b2")),
                               EigDivisor.of(gen("c1"), gen("c2"))])
        report = check_conventions(beta, vec)
        assert not report.chirhobeta_ok
        assert report.chirhobeta_detail[0] == (0, bad)
        with pytest.raises(ConventionViolation):
            kappa(beta, vec)

    def test_de_rham_integer_residue_shift(self):
        # alpha + h_0 + t equal to the integer 2 violates the residue check
        h = [GroupElement.generator(f"h{i}", ADD) for i in range(3)]
        beta = Convoluter(h)
        bad = GroupElement(ADD, ScalarExpr(2) + (-(h[0].combine(beta.t).expr)))
        vec = MonodromyVector([EigDivisor.of(bad, gen("a2", ADD)),
                               EigDivisor.of(gen("b1", ADD), gen("b2", ADD)),
                               EigDivisor.of(gen("c1", ADD), gen("c2", ADD))])
        report = check_conventions(beta, vec, de_rham=True)
        assert report.de_rham and not report.alphabetabeta_ok
        assert report.alphabetabeta_detail[0][0] == 0

    def test_de_rham_report_json(self):
        # alpha + h_0 equal to the nonzero integer 1 violates the residue check
        a = gen("a", ADD)
        h = [GroupElement(ADD, ScalarExpr(1) + (-a.expr)), gen("h1", ADD), gen("h2", ADD)]
        vec = MonodromyVector([EigDivisor.of(a, gen("a2", ADD)),
                               EigDivisor.of(gen("b1", ADD), gen("b2", ADD)),
                               EigDivisor.of(gen("c1", ADD), gen("c2", ADD))])
        doc = check_conventions(Convoluter(h), vec, de_rham=True).to_json()
        assert doc["diag_res_not_integer"] is True and doc["alphabetabeta_ok"] is False
        assert doc["alphabetabeta_violations"] == [{"point": 0, "eigenvalue": a.to_json()}]
        assert doc["ok"] is False

    def test_de_rham_needs_additive_mode(self):
        vec, beta = referee_setup()
        with pytest.raises(ModeMismatch):
            check_conventions(beta, vec, de_rham=True)


class TestDeRhamTransform:
    def _additive_mirror(self, vec, beta):
        to_add = lambda e: GroupElement(ADD, e.expr)
        vec_a = MonodromyVector([
            EigDivisor(ADD, [(to_add(e), m) for e, m in g.entries]) for g in vec])
        beta_a = Convoluter([to_add(e) for e in beta.h], [to_add(e) for e in beta.v])
        return vec_a, beta_a

    def test_exponential_intertwines_the_two_transforms(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            vec_a = random_vector(rng, ADD, int(rng.integers(1, 5)),
                                  int(rng.integers(3, 6)), f"m{trial}")
            beta_a = random_beta(rng, vec_a, "fresh", "same", f"m{trial}")
            out_a = kappa(beta_a, vec_a, de_rham=True)
            assert isinstance(out_a, MonodromyVector)
            # exponentiate: same expressions read multiplicatively
            to_mult = lambda e: GroupElement(MULT, e.expr)
            vec_m = MonodromyVector([
                EigDivisor(MULT, [(to_mult(e), m) for e, m in g.entries])
                for g in vec_a])
            beta_m = Convoluter([to_mult(e) for e in beta_a.h],
                                [to_mult(e) for e in beta_a.v])
            out_m = kappa(beta_m, vec_m)
            expected = MonodromyVector([
                EigDivisor(MULT, [(to_mult(e), m) for e, m in g.entries])
                for g in out_a])
            assert out_m == expected
            # the new-eigenvalue block at point i has dimension d_i = m_i + d, the
            # coefficient of [v_i]
            d = defect(vec_a, beta_a)
            for i, g in enumerate(out_a):
                m = vec_a[i].multiplicity(beta_a.h[i].invert())
                assert g.multiplicity(beta_a.v[i]) == m + d

    def test_trace_stays_integral(self):
        # residue data with integral total trace keeps an integral trace
        a1 = GroupElement(ADD, ScalarExpr(F(1, 3), {"a": 1}))
        a2 = GroupElement(ADD, ScalarExpr(F(2, 3), {"a": -1}))
        b1 = GroupElement(ADD, ScalarExpr(F(1, 2), {"b": 1}))
        b2 = GroupElement(ADD, ScalarExpr(F(1, 2), {"b": -1}))
        c1 = GroupElement(ADD, ScalarExpr(1, {"c": 1}))
        c2 = GroupElement(ADD, ScalarExpr(0, {"c": -1}))
        vec = MonodromyVector([EigDivisor.of(a1, a2), EigDivisor.of(b1, b2),
                               EigDivisor.of(c1, c2)])
        assert vec.total_determinant().is_integer()
        beta = random_beta(np.random.default_rng(2), vec, "fresh", "same", "tr")
        out = kappa(beta, vec, de_rham=True)
        assert out.total_determinant() == vec.total_determinant()
        assert out.total_determinant().is_integer()

    def test_integer_diagonal_residue_rejected(self):
        h = [GroupElement.generator(f"h{i}", ADD) for i in range(2)]
        h.append(GroupElement(ADD, ScalarExpr(-1) + (-(h[0].expr)) + (-(h[1].expr))))
        beta = Convoluter(h)  # t = 1, an integer
        assert beta.t == GroupElement.constant(1, ADD)
        vec = random_vector(np.random.default_rng(1), ADD, 2, 3, "dr")
        with pytest.raises(ConventionViolation) as err:
            kappa(beta, vec, de_rham=True)
        assert "integer" in str(err.value)


class TestDetectEmpty:
    def test_fully_diagonal_certified_everywhere(self):
        r, n = 2, 3
        vec = MonodromyVector([EigDivisor(MULT, [(gen(f"a{i}"), r)])
                               for i in range(n)])
        beta = max_mult_convoluter(vec)
        cert = detect_empty(beta, vec)
        assert cert is not None and cert.point == 0
        d = defect(vec, beta)
        for i in range(n):  # every point witnesses, by direct evaluation
            lhs = sum(r - vec[j].multiplicity(beta.h[j].invert())
                      for j in range(n) if j != i)
            assert lhs < r and vec[i].multiplicity(beta.h[i].invert()) + d < 0

    def test_generic_one_generic_has_no_certificate(self):
        rng = np.random.default_rng(9)
        vec = random_vector(rng, MULT, 3, 5, "ne", max_part=1)
        beta = random_beta(rng, vec, "maxmult", "same", "ne")
        assert defect(vec, beta) >= 0
        assert detect_empty(beta, vec) is None
        assert isinstance(kappa(beta, vec), MonodromyVector)

    def test_boundary_case_zero_coefficient(self):
        # r=2, n=3: m = (2,1,1) gives defect -2; the aimed point has
        # coefficient 0 (kept effective by dropping the entry) while the
        # other two go negative
        a, b, b2, c, c2 = gen("a"), gen("b"), gen("b2"), gen("c"), gen("c2")
        vec = MonodromyVector([EigDivisor(MULT, [(a, 2)]), EigDivisor.of(b, b2),
                               EigDivisor.of(c, c2)])
        beta = Convoluter([a.invert(), b.invert(), c.invert()])
        d = defect(vec, beta)
        assert d == -2
        lhs0 = sum(2 - vec[j].multiplicity(beta.h[j].invert()) for j in [1, 2])
        assert lhs0 == 2 >= 2  # no certificate at the aimed point
        cert = detect_empty(beta, vec)
        assert cert is not None and cert.point in (1, 2)
        result = kappa(beta, vec, check=False)
        assert isinstance(result, NoneffectiveReport)


class TestRunAlgorithm:
    def test_hypergeometric_reduces_to_rank_one(self):
        rng = np.random.default_rng(11)
        vec = random_vector(rng, MULT, 2, 3, "hg", max_part=1)
        trace = run_algorithm(vec)
        assert trace.status is TerminalStatus.ALL_DIAGONAL
        assert len(trace.steps) == 1
        assert trace.steps[0].defect == -1
        assert trace.final.rank == 1
        # hand-run the single step against the literal formula
        beta = max_mult_convoluter(vec)
        expected = MonodromyVector([
            EigDivisor(MULT, naive_kappa_local(beta, vec, i)) for i in range(3)])
        assert trace.steps[0].output == expected

    def test_quad_family_stops_at_positive_defect(self):
        vec = MonodromyVector([
            EigDivisor(MULT, [(gen(f"p{i}"), 2), (gen(f"q{i}"), 2)])
            for i in range(4)])
        trace = run_algorithm(vec)
        assert trace.status is TerminalStatus.POSITIVE_DEFECT
        assert len(trace.steps) == 0

    def test_fully_diagonal_stops_immediately(self):
        vec = MonodromyVector([EigDivisor(MULT, [(gen(f"a{i}"), 3)])
                               for i in range(3)])
        trace = run_algorithm(vec)
        assert trace.status is TerminalStatus.ALL_DIAGONAL
        assert len(trace.steps) == 0

    def test_trace_chains_and_ranks_decrease(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            vec = random_vector(rng, MULT, int(rng.integers(2, 7)),
                                int(rng.integers(3, 6)), f"ch{trial}")
            trace = run_algorithm(vec)
            for s, t in zip(trace.steps, trace.steps[1:]):
                assert s.output == t.input
            ranks = trace.ranks
            assert all(x > y for x, y in zip(ranks, ranks[1:]))
            assert len(trace.steps) <= vec.rank

    def test_a_run_aims_a_twist_only_where_it_steps(self, monkeypatch):
        """A run that ends at PositiveDefect or AllDiagonal stops on its last
        vector's own defect or classes, so it builds one twist per step."""
        calls, twist = [], _Rows.twist

        def spy(self, *args, **kwargs):
            calls.append(args)
            return twist(self, *args, **kwargs)

        monkeypatch.setattr(_Rows, "twist", spy)
        rng, seen = np.random.default_rng(41), set()
        for trial in range(60):
            mode = (MULT, ADD)[trial % 2]
            vec = random_vector(rng, mode, int(rng.integers(2, 7)), int(rng.integers(3, 6)),
                                f"tw{trial}")
            calls.clear()
            trace = run_algorithm(vec, v_policy=("same", "fresh")[trial // 2 % 2])
            if trace.status in (TerminalStatus.POSITIVE_DEFECT, TerminalStatus.ALL_DIAGONAL):
                assert len(calls) == len(trace.steps), (trace.status, len(trace.steps))
                seen.add((trace.status, bool(trace.steps)))
        assert (TerminalStatus.POSITIVE_DEFECT, True) in seen, seen
        assert (TerminalStatus.ALL_DIAGONAL, True) in seen, seen

    def test_a_step_negates_each_aimed_eigenvalue_once_more(self, monkeypatch):
        """A step negates its n tops into h and each t h_i into its witness,
        and nothing else: at most 2n row negations (``_Rows.plus`` with one
        argument) per twist it aims, against 3n + 1 when h is negated back."""
        twists, negations = [], []
        twist, plus = _Rows.twist, _Rows.plus

        def twist_spy(self, *args, **kwargs):
            twists.append(args)
            return twist(self, *args, **kwargs)

        def plus_spy(self, a, b=None):
            if b is None:
                negations.append(a)
            return plus(self, a, b)

        monkeypatch.setattr(_Rows, "twist", twist_spy)
        monkeypatch.setattr(_Rows, "plus", plus_spy)
        rng, aimed = np.random.default_rng(43), 0
        for trial in range(60):
            mode = (MULT, ADD)[trial % 2]
            vec = random_vector(rng, mode, int(rng.integers(2, 7)), int(rng.integers(3, 6)),
                                f"ng{trial}")
            twists.clear()
            negations.clear()
            run_algorithm(vec, v_policy=("same", "fresh")[trial // 2 % 2])
            assert len(negations) <= 2 * vec.n * len(twists), (len(negations), vec.n, len(twists))
            aimed += len(twists)
        assert aimed >= 50, aimed

    @pytest.mark.parametrize("parts, points, status", [
        ([2, 2], 4, TerminalStatus.POSITIVE_DEFECT), ([3], 3, TerminalStatus.ALL_DIAGONAL)],
        ids=["positive-defect", "all-diagonal"])
    def test_unknown_v_policy_raises_before_the_first_step(self, parts, points, status):
        """A misspelt policy raises ``_Rows.twist``'s ValueError also where the
        run stops before it aims a twist: four classes [p_i^2, q_i^2] (d = 0)
        and scalar classes."""
        vec = MonodromyVector([EigDivisor(MULT, [(gen(f"p{i}_{j}"), m)
                                                 for j, m in enumerate(parts)])
                               for i in range(points)])
        assert run_algorithm(vec).status is status
        rows, classes = _Rows.of(vec)
        for call in (lambda: run_algorithm(vec, v_policy="bogus"),
                     lambda: rows.twist(classes, "bogus")):
            with pytest.raises(ValueError, match="^unknown v policy 'bogus'$"):
                call()

    def test_circle_mode_rejected(self):
        circ = [EigDivisor.of(GroupElement.circle(F(i, 7))) for i in range(1, 4)]
        with pytest.raises(ModeMismatch):
            run_algorithm(MonodromyVector(circ))

    def test_max_steps_guard(self):
        rng = np.random.default_rng(37)
        vec = random_vector(rng, MULT, 2, 3, "ms", max_part=1)
        assert defect(vec) < 0  # a step is genuinely required
        with pytest.raises(MaxStepsExceeded):
            run_algorithm(vec, max_steps=0)

    def test_fresh_twist_policy_uses_per_step_names(self):
        rng = np.random.default_rng(31)
        for trial in range(6):
            vec = random_vector(rng, MULT, int(rng.integers(2, 6)),
                                int(rng.integers(3, 6)), f"fr{trial}")
            trace = run_algorithm(vec, v_policy="fresh")
            ranks = trace.ranks
            assert all(x > y for x, y in zip(ranks, ranks[1:]))
            for step_i, step in enumerate(trace.steps):
                assert step.beta.v != step.beta.h
                for e in step.beta.v:
                    names = [nm for nm in e.expr.generators()
                             if nm.startswith("_s")]
                    assert names and all(nm.startswith(f"_s{step_i}_")
                                         for nm in names)


class TestRowsMatchObjects:
    """``run_algorithm`` works on integer rows; ``reference_run`` runs the
    same loop on ``GroupElement`` objects.  Their answers must render to
    the same bytes, and the trace's decoded objects must match."""

    # "_" sorts between upper- and lower-case letters, and the "_s" names
    # collide with the loop's fresh ones, so fresh names land mid-order
    NAMES = ("A", "Z", "_a", "_s0_1", "_s1_1", "__s1_2", "b", "g")
    CONSTS = (F(0), F(1, 2), F(-1, 2), F(1), F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(5, 3))
    COEFFS = (1, 1, -1, 2, F(1, 2), F(-2, 3))

    def vector(self, rng, mode, shared):
        """n in 3..5 and rank up to 12.  Half the vectors start with a
        negative defect: their largest parts sum to (n-2) r + 1 or + 2,
        which makes long runs.  With ``shared`` an entry is a constant
        plus at most one generator from NAMES, so that eigenvalues collide
        and every terminal status occurs; otherwise each entry has a
        generator of its own."""
        n, r = int(rng.integers(3, 6)), int(rng.integers(2, 13))
        tops, target = [r] * n, (n - 2) * r + int(rng.integers(1, 3))
        if rng.integers(2):
            while sum(tops) > target:
                i = int(rng.integers(n))
                tops[i] = max(1, tops[i] - int(rng.integers(1, sum(tops) - target + 1)))
        classes = []
        for i, top in enumerate(tops):
            part = ([top, *random_partition(rng, r - top, top)] if top < r or rng.integers(2)
                    else random_partition(rng, r))
            entries = []
            for j, m in enumerate(part):
                name = self.NAMES[int(rng.integers(len(self.NAMES)))]
                if shared:
                    exps = {name: int(rng.choice([-1, 1]))} if rng.integers(3) == 0 else {}
                else:
                    exps = {f"e{i}_{j}": 1, name: self.COEFFS[int(rng.integers(len(self.COEFFS)))]}
                consts = self.CONSTS[:4] if shared else self.CONSTS
                const = consts[int(rng.integers(len(consts)))]
                entries.append((GroupElement(mode, ScalarExpr(const, exps)), m))
            classes.append(EigDivisor(mode, entries))
        return MonodromyVector(classes)

    def check(self, vec, max_steps=None, v_policy="same"):
        """The status both loops end in, or MaxStepsExceeded from both."""
        try:
            expected = reference_run(vec, max_steps, v_policy)
        except MaxStepsExceeded:
            with pytest.raises(MaxStepsExceeded):
                run_algorithm(vec, max_steps, v_policy)
            return "MaxStepsExceeded"
        trace = run_algorithm(vec, max_steps, v_policy)
        assert render(trace.to_json()) == render(expected), (vec, v_policy)
        assert trace.final.to_json() == expected["final"]
        assert [{"input": s.input.to_json(), "convoluter": s.beta.to_json(),
                 "defect": s.defect, "output": s.output.to_json()}
                for s in trace.steps] == expected["steps"]
        return expected["status"]

    def test_seeded_sweep(self):
        rng = np.random.default_rng(71)
        seen = {}
        for case in range(480):
            mode = (MULT, ADD)[case % 2]
            policy = ("same", "fresh")[case // 2 % 2]
            vec = self.vector(rng, mode, shared=case % 3 != 0)
            max_steps = int(rng.integers(0, 3)) if case % 10 == 9 else None
            status = self.check(vec, max_steps, policy)
            seen[status, mode, policy] = seen.get((status, mode, policy), 0) + 1
        for status in ("AllDiagonal", "PositiveDefect", "EmptyNoneffective",
                       "ConventionFailure"):
            for mode in (MULT, ADD):
                for policy in ("same", "fresh"):
                    assert seen.get((status, mode, policy), 0) >= 5, seen
        assert sum(k for (status, *_), k in seen.items() if status == "MaxStepsExceeded") >= 5

    @pytest.mark.parametrize("mode", [MULT, ADD])
    @pytest.mark.parametrize("v_policy", ["same", "fresh"])
    def test_convention_failure_classes(self, mode, v_policy):
        # eigenvalue 3/4 at point 0 collides with the default twist: t h_0 a = 1
        # mod 1; without the reduction (additive mode) the run goes on
        consts = [[F(3, 4), F(0)], [F(1, 2), F(1, 4)], [F(0), F(1, 3)]]
        vec = MonodromyVector([EigDivisor.of(*(GroupElement(mode, ScalarExpr(c)) for c in cls))
                               for cls in consts])
        status = self.check(vec, v_policy=v_policy)
        assert status == ("ConventionFailure" if mode is MULT else "AllDiagonal")


# a value as ``scalars._parts`` reads it, over one denominator: (c, den, [(name, p, den)]);
# "_" sorts between upper- and lower-case letters, and few names and numerators
# make two values' terms often meet and cancel
ROW_NAMES = ("A", "_s1", "a", "b")
DENS = (1, 2, 3, 4, 6)


@st.composite
def row_model_case(draw):
    """(mode, den, a, b, class): two values and a class of (value, multiplicity)
    pairs, each value's constant in [-den, 2 den] so that sums wrap at den."""
    mode, den = draw(st.sampled_from([MULT, ADD])), draw(st.sampled_from(DENS))

    def value():
        names = draw(st.lists(st.sampled_from(ROW_NAMES), unique=True, max_size=3))
        return (draw(st.integers(-den, 2 * den)), den,
                [(n, draw(st.sampled_from([-2, -1, 1, 2, den])), den) for n in names])
    mults = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    return mode, den, value(), value(), [(value(), m) for m in mults]


def model_element(mode, parts):
    c, den, terms = parts
    return GroupElement(mode, ScalarExpr(F(c, den), {n: F(p, q) for n, p, q in terms}))


def model_row(element, den):
    """The row of ``element`` over ``den``, read off its ``ScalarExpr``."""
    k = den // element.expr._d
    return element.expr._c * k, tuple((n, x * k) for n, x in element.expr._t)


class TestRowsModel:
    """``katz._Rows``' group law, order and decoding against the objects:
    ``plus`` is ``GroupElement.combine`` and ``invert`` row for row (zero
    terms dropped, the constant reduced mod den unless additive, terms in
    name order), ``ordered`` is ``EigDivisor``'s entry order, ``top`` its
    ``max_multiplicity`` and ``element`` the value's object."""

    @given(row_model_case())
    @settings(max_examples=300, deadline=None)
    @example((MULT, 2, (1, 2, [("a", 1, 2)]), (1, 2, [("a", -1, 2)]), [((0, 2, []), 1)]))
    @example((ADD, 2, (1, 2, [("a", 1, 2)]), (1, 2, [("a", -1, 2)]), [((0, 2, []), 1)]))
    @example((MULT, 4, (3, 4, []), (3, 4, [("b", 1, 4)]), [((3, 4, []), 2), ((-1, 4, []), 1)]))
    def test_rows_match_objects(self, case):
        mode, den, a, b, pairs = case
        rows = _Rows(mode, den)
        x, y = rows.row(a), rows.row(b)
        ea, eb = model_element(mode, a), model_element(mode, b)
        assert x == model_row(ea, den) and y == model_row(eb, den)
        assert rows.plus(x, y) == model_row(ea.combine(eb), den)
        assert rows.plus(x) == model_row(ea.invert(), den)
        assert rows.element(x) == ea and rows.element(rows.plus(x, y)) == ea.combine(eb)
        g = {}
        for parts, m in pairs:
            g[rows.row(parts)] = g.get(rows.row(parts), 0) + m
        divisor = EigDivisor(mode, [(model_element(mode, parts), m) for parts, m in pairs])
        ordered = rows.ordered(g.items())
        assert list(ordered.items()) == [(model_row(e, den), m) for e, m in divisor.entries]
        top = model_row(divisor.max_multiplicity()[0], den)
        assert rows.top(ordered) == top

    @pytest.mark.parametrize("mode", [MULT, ADD])
    @pytest.mark.parametrize("v_policy", ["same", "fresh"])
    def test_default_convoluter_matches_objects(self, mode, v_policy):
        """``max_mult_convoluter`` aims by ``_Rows.twist``; ``reference_convoluter``
        aims on the objects, ties to the smallest eigenvalue."""
        rng = np.random.default_rng(25)
        for _ in range(40):
            vec = TestRowsMatchObjects().vector(rng, mode, shared=bool(rng.integers(2)))
            assert max_mult_convoluter(vec, v_policy) == reference_convoluter(vec, v_policy)


class TestPartnerConventions:
    """The lemma behind checking only the forward pair in the reduction
    loop: when (beta, vector) meets the conventions and the transform is
    effective, the partner pair (beta', output) meets them too."""

    # Few constants and one shared generator, so that eigenvalues collide
    # and a good share of the pairs fail the forward conventions.
    CONSTS = (F(0), F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(1), F(-1, 2), F(2))

    def colliding_vector(self, rng, mode):
        n, r = int(rng.integers(3, 6)), int(rng.integers(1, 5))
        classes = []
        for _ in range(n):
            entries = []
            for _ in range(r):
                shared = int(rng.choice([0, 0, 1, -1]))
                c = self.CONSTS[int(rng.integers(len(self.CONSTS)))]
                entries.append((GroupElement(mode, ScalarExpr(c, {"g": shared})), 1))
            classes.append(EigDivisor(mode, entries))
        return MonodromyVector(classes)

    def convoluter(self, rng, vec, tag):
        kind = int(rng.integers(4))
        if kind < 2:
            return max_mult_convoluter(vec, ("same", "fresh")[kind])
        return random_beta(rng, vec, "support", ("same", "fresh")[kind - 2], tag)

    def sweep(self, cases, de_rham):
        """(forward failures, effective transforms) met by the sweep."""
        rng = np.random.default_rng(61)
        failures = effective = 0
        for case in range(cases):
            mode = ADD if de_rham or case % 2 else MULT
            vec = self.colliding_vector(rng, mode)
            beta = self.convoluter(rng, vec, f"pc{case}")
            if not check_conventions(beta, vec, de_rham=de_rham).ok:
                failures += 1
                continue
            out = kappa(beta, vec, check=False)
            if isinstance(out, MonodromyVector):
                effective += 1
                back = check_conventions(beta.partner(), out, de_rham=de_rham)
                assert back.ok, (vec, beta, back.first_violation())
        return failures, effective

    def test_partner_pair_passes_mixed_modes(self):
        failures, effective = self.sweep(1500, de_rham=False)
        assert failures >= 100 and effective >= 500, (failures, effective)

    def test_partner_pair_passes_de_rham(self):
        failures, effective = self.sweep(1500, de_rham=True)
        assert failures >= 300 and effective >= 300, (failures, effective)


class TestVirtualDimension:
    def test_naive_dim_invariant_under_transform(self):
        rng = np.random.default_rng(17)
        done = 0
        trial = 0
        while done < 25:
            trial += 1
            mode = MULT if trial % 2 else ADD
            vec = random_vector(rng, mode, int(rng.integers(2, 6)),
                                int(rng.integers(3, 6)), f"vd{trial}")
            beta = random_beta(rng, vec, "maxmult" if trial % 2 else "fresh",
                               "same", f"vd{trial}")
            out = kappa(beta, vec)
            if not isinstance(out, MonodromyVector):
                continue
            assert dimension_report(out.pmv()).naive_dim == dimension_report(vec.pmv()).naive_dim
            done += 1


def forbidden(*args, **kwargs):
    raise AssertionError("the objects' group law ran")


class TestLibraryOnRows:
    """The library's exact transform, checks and prediction read the objects
    into rows (``katz._read``) and run the formula there, so they answer with
    the objects' group law made to raise; and they answer as the object
    transcription in ``tests/helpers.py`` does."""

    @staticmethod
    def library(beta, vec, assignment):
        """Each exact library answer for the pair, a ConventionViolation as
        (convention, report) and a NoneffectiveTransform as its report, with
        ``GroupElement.combine`` and ``ScalarExpr.__add__`` raising."""
        def outcome(fn, *args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except ConventionViolation as exc:
                return exc.convention, exc.report
            except NoneffectiveTransform as exc:
                return exc.report

        additive = vec.mode is ADD
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(GroupElement, "combine", forbidden)
            patch.setattr(ScalarExpr, "__add__", forbidden)
            return {
                "kappa": outcome(kappa, beta, vec),
                "unchecked": kappa(beta, vec, check=False),
                "de_rham": outcome(kappa, beta, vec, de_rham=True) if additive else None,
                "conventions": check_conventions(beta, vec, de_rham=additive),
                "defect": defect(vec, beta),
                "empty": detect_empty(beta, vec),
                "values": None if additive else outcome(
                    lambda: row_values(*_read(beta, vec), assignment)),
            }

    @staticmethod
    def same_values(values, out, assignment):
        """``row_values``' (value, multiplicity) lists against the output
        vector valued at the assignment, point by point, within 1e-9."""
        assert len(values) == out.n
        for got, g in zip(values, out):
            want = [(a.to_complex(assignment), m) for a, m in g.entries]
            assert len(got) == len(want)
            for z, m in got:
                match = next(k for k, (w, k_m) in enumerate(want) if k_m == m and abs(z - w) < 1e-9)
                want.pop(match)

    def test_library_answers_as_the_object_oracle_without_object_arithmetic(self):
        rng = np.random.default_rng(27)
        sweep = TestPartnerConventions()
        seen = set()
        for case in range(300):
            mode = (MULT, ADD)[case % 2]
            vec = sweep.colliding_vector(rng, mode)
            beta = sweep.convoluter(rng, vec, f"lr{case}")
            names = {x for g in vec for a in g.support() for x in a.expr.generators()}
            names |= {x for e in (*beta.h, *beta.v) for x in e.expr.generators()}
            assignment = {x: complex(rng.normal(), 0.1 * rng.normal()) for x in sorted(names)}
            got = self.library(beta, vec, assignment)

            d, expected = reference_kappa(beta, vec)
            _, unchecked = reference_kappa(beta, vec, check=False)
            assert got["defect"] == d
            assert got["unchecked"] == unchecked
            points = unchecked.points if isinstance(unchecked, NoneffectiveReport) else ()
            assert got["empty"] == (NoneffectiveReport(points).certificate if points else None)
            abstract = (expected if isinstance(expected, ConventionReport) else
                        ConventionReport(chi_nontrivial=True, chirhobeta_ok=True))
            report = got["conventions"]
            assert (report.chi_nontrivial, report.chirhobeta_ok, report.chirhobeta_detail) == (
                abstract.chi_nontrivial, abstract.chirhobeta_ok, abstract.chirhobeta_detail)
            if mode is ADD:
                assert (report.diag_res_not_integer, report.alphabetabeta_detail) == \
                    reference_de_rham(beta, vec)
                assert report.alphabetabeta_ok == (not report.alphabetabeta_detail)
                violation = report.first_violation()
                assert got["de_rham"] == ((violation.convention, report) if violation
                                          else unchecked)
            if isinstance(expected, ConventionReport):
                violation = expected.first_violation()
                assert got["kappa"] == (violation.convention, expected)
                if mode is MULT:
                    assert got["values"] == (violation.convention, expected)
                seen.add("ConventionFailure")
                continue
            assert got["kappa"] == expected
            if mode is MULT and isinstance(expected, MonodromyVector):
                self.same_values(got["values"], expected, assignment)
            elif mode is MULT:
                assert got["values"] == expected
            seen.add(type(expected).__name__)
            if unchecked != expected:
                seen.add("merged")
        assert seen >= {"ConventionFailure", "NoneffectiveReport", "MonodromyVector"}, seen

    def test_unchecked_transform_merges_entries_that_meet(self):
        """Past a failing convention a kept a u_i can equal [v_i]; ``kappa``
        with ``check=False`` then adds their multiplicities, as the objects'
        divisors do."""
        x, y, z = gen("x"), gen("y"), gen("z")
        # t h_1 = (y z)^-1, so a = y z at the first point is a witness
        vec = MonodromyVector([EigDivisor.of(y.combine(z), gen("p")),
                               EigDivisor.of(gen("q"), gen("r")), EigDivisor.of(gen("s"), gen("w"))])
        beta = Convoluter([x, y, z])
        assert check_conventions(beta, vec).chirhobeta_detail == ((0, y.combine(z)),)
        out = kappa(beta, vec, check=False)
        assert out == reference_kappa(beta, vec, check=False)[1]
        assert out[0].multiplicity(x) == 3  # a u_1 = x = v_1, with 1 + (m_1 + d) = 1 + 2

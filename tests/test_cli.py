"""End-to-end command-line verbs and document handling."""

import collections
import contextlib
import copy
import dataclasses
import datetime
import functools
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import find, given, settings, strategies as st

from helpers import (random_partition, reference_convoluter, reference_kappa,
                     reference_kappa_spectra)
from midconv import cli, katz
from midconv.cli import main
from midconv.docio import (MAX_HIGGS_WEIGHTS, MAX_RAW_DIM, MAX_RUN_TERMS,
                           parse_document, parse_json, render)
from midconv.errors import ConventionViolation, DocumentError, NoneffectiveTransform
from midconv.katz import ConventionReport, NoneffectiveReport, run_algorithm


def expr(exps=None, const="0"):
    return {"const": const, "exps": exps or {}}


def entry(exps, mult=1, const="0"):
    return {"value": expr(exps, const), "mult": mult}


def referee_document():
    return {
        "mode": "multiplicative",
        "points": 3,
        "generators": ["ap", "bp", "up", "vp", "gp", "hp", "x", "y"],
        "classes": [
            [entry({"ap": "1"}), entry({"bp": "1"})],
            [entry({"up": "1"}), entry({"vp": "1"})],
            [entry({"gp": "1"}), entry({"hp": "1"})],
        ],
        "convoluter": {
            "h": [expr({"x": "1"}), expr({"y": "1"}), expr({"hp": "-1"})],
            "v": "same-as-h",
        },
    }


def run_cli(tmp_path, verb, doc, *flags):
    inp = tmp_path / "in.json"
    outp = tmp_path / "out.json"
    inp.write_text(json.dumps(doc), encoding="utf-8")
    code = main([verb, "--input", str(inp), "--output", str(outp), *flags])
    text = outp.read_text(encoding="utf-8") if outp.exists() else ""
    return code, (json.loads(text) if text else None), text


class TestTransform:
    def test_referee_document(self, tmp_path):
        code, out, _ = run_cli(tmp_path, "transform", referee_document())
        assert code == 0
        assert out["status"] == "ok" and out["defect"] == 1
        classes = out["output"]["classes"]
        assert [len(c) for c in classes] == [3, 3, 2]
        # the third column carries z = hp^{-1} with multiplicity 2
        z_entry = [c for c in classes[2]
                   if c["value"]["exps"] == {"hp": "-1"}]
        assert z_entry and z_entry[0]["mult"] == 2

    def test_noneffective_exit_code(self, tmp_path):
        doc = {
            "mode": "multiplicative",
            "classes": [[entry({f"a{i}": "1"}, mult=2)] for i in range(3)],
        }
        code, out, _ = run_cli(tmp_path, "transform", doc)
        assert code == 2
        assert out["status"] == "EmptyNoneffective"

    def test_malformed_input_exit_code(self, tmp_path):
        doc = {"mode": "multiplicative", "classes": [[{"value": {}, "mult": "x"}]]}
        code, _, _ = run_cli(tmp_path, "transform", doc)
        assert code == 1


class TestDefectAndClassify:
    def test_defect_verb(self, tmp_path):
        code, out, _ = run_cli(tmp_path, "defect", referee_document())
        assert code == 0 and out["defect"] == 1 and out["rank"] == 2

    def test_classify_tri_ddd(self, tmp_path):
        doc = {
            "mode": "multiplicative",
            "classes": [[entry({f"e{i}_{j}": "1"}) for j in range(3)]
                        for i in range(3)],
        }
        code, out, _ = run_cli(tmp_path, "classify", doc)
        assert code == 0
        assert out["family"] == "Tri_ddd_x3"
        assert out["report"]["naive_dim"] == 2

    def test_classify_none(self, tmp_path):
        doc = {
            "mode": "multiplicative",
            "classes": [[entry({f"e{i}_{j}": "1"}) for j in range(3)]
                        for i in range(4)],
        }
        code, out, _ = run_cli(tmp_path, "classify", doc)
        assert code == 0 and out["family"] == "none"


class TestRun:
    def test_fully_diagonal_document(self, tmp_path):
        doc = {
            "mode": "multiplicative",
            "classes": [[entry({f"a{i}": "1"}, mult=3)] for i in range(3)],
        }
        code, out, _ = run_cli(tmp_path, "run", doc)
        assert code == 0
        assert out["status"] == "AllDiagonal"
        assert out["steps"] == []

    def test_hypergeometric_runs_to_rank_one(self, tmp_path):
        doc = {
            "mode": "multiplicative",
            "classes": [[entry({f"e{i}0": "1"}), entry({f"e{i}1": "1"})]
                        for i in range(3)],
        }
        code, out, _ = run_cli(tmp_path, "run", doc, "--max-steps", "5")
        assert code == 0
        assert out["status"] == "AllDiagonal"
        assert out["ranks"] == [2, 1]

    def test_document_convoluter_h_is_not_read(self):
        # run aims its own convoluter at every step; of a document's
        # convoluter it reads only "v": "fresh", as --beta-v fresh
        bare = hypergeometric_document(4)
        h = [expr({"x": "1"}), expr({"y": "1/2"}), expr({"z": "-1"}, const="1/3")]
        same = call_main("run", {**bare, "convoluter": {"h": h}})
        assert same[0] == 0 and same == call_main("run", bare)
        assert json.loads(same[1])["ranks"] == [4, 3, 2, 1]
        fresh = call_main("run", {**bare, "convoluter": {"h": h, "v": "fresh"}})
        assert fresh[0] == 0 and fresh == call_main("run", bare, "--beta-v", "fresh")
        assert fresh != same


def _renamed(node, names):
    """``node`` with generators renamed by ``names``; any other name that
    starts with "__" loses one "_"."""
    if isinstance(node, list):
        return [_renamed(v, names) for v in node]
    if not isinstance(node, dict):
        return node
    return {k: ({names.get(n, n[1:] if n.startswith("__") else n): c for n, c in v.items()}
                if k == "exps" else _renamed(v, names)) for k, v in node.items()}


class TestFreshNames:
    """Fresh twist generators never reuse a name of the document."""

    @staticmethod
    def document(s1, s0_1, convoluter):
        doc = {"mode": "multiplicative",
               "classes": [[entry({s1: "1"}), entry({"a": "1"})],
                           [entry({"b": "1"}), entry({"c": "1"})],
                           [entry({s0_1: "1"}), entry({"f": "1"})]]}
        if convoluter:
            doc["convoluter"] = {"h": [expr({s1: "-1"}), expr({"b": "-1"}),
                                       expr({s0_1: "-1"})], "v": "fresh"}
        return doc

    # `_s1` and `_s0_1` are the first fresh names of a transform and of run's
    # step 0; `_t1` and `_t0_1` sort where they do, so ties break alike
    @pytest.mark.parametrize("verb, convoluter", [
        ("transform", True), ("defect", True),
        ("transform", False), ("defect", False), ("run", False)])
    def test_answers_equal_up_to_renaming(self, verb, convoluter):
        code, out, _ = call_main(verb, self.document("_s1", "_s0_1", convoluter),
                                 "--beta-v", "fresh")
        code_t, out_t, _ = call_main(verb, self.document("_t1", "_t0_1", convoluter),
                                     "--beta-v", "fresh")
        assert code == code_t == 0
        assert "__s" in out
        assert _renamed(json.loads(out), {"_s1": "_t1", "_s0_1": "_t0_1"}) == \
            json.loads(out_t)

    def test_shift_survives_a_taken_name(self):
        # h_0 = -_s1: with v_0 = h_0 + _s1 the twist would lose its shift
        code, out, _ = call_main("transform", self.document("_s1", "z", True))
        point0 = json.loads(out)["output"]["classes"][0]
        assert code == 0 and [e["value"]["exps"] for e in point0] == [
            {"__s1": "1", "_s1": "-1", "a": "1", "b": "1", "z": "1"}]


class TestHiggs:
    def test_constructible_document(self, tmp_path):
        doc = {
            "mode": "circle",
            "classes": [[{"value": expr(const="1/4"), "mult": 1},
                         {"value": expr(const="3/4"), "mult": 1}]] * 5,
        }
        code, out, _ = run_cli(tmp_path, "higgs", doc)
        assert code == 0
        assert out["status"] == "constructed"
        assert out["data"]["degree_check"] == "0"
        assert out["verify"]["ok"]
        assert out["degree_forms_match"]["form_with_substituted_constant"]

    def test_dim2_family_negative(self, tmp_path):
        doc = {
            "mode": "circle",
            "classes": [[{"value": expr(const="1/4"), "mult": 1},
                         {"value": expr(const="3/4"), "mult": 1}]] * 4,
        }
        code, out, _ = run_cli(tmp_path, "higgs", doc)
        assert code == 2
        assert out["status"] == "PreconditionDim2"

    def test_non_circle_document_is_bad_input(self):
        doc = {"mode": "multiplicative",
               "classes": [[entry({f"e{i}_{j}": "1"}) for j in range(2)] for i in range(3)]}
        code, out, err = call_main("higgs", doc)
        assert code == 1 and out == ""
        assert err.startswith("input error: $.mode: ")


class TestVerify:
    def test_generate_mode(self, tmp_path):
        doc = {"generate": {"rank": 2, "points": 3, "seed": 5}}
        code, out, _ = run_cli(tmp_path, "verify", doc)
        assert code == 0
        rep = out["report"]
        assert rep["ok"] and rep["raw_dim"] == 4
        assert rep["max_deviation"] < 1e-8

    def test_numeric_instance_round_trip(self, tmp_path):
        from midconv.homology import generate_instance
        inst = generate_instance(seed=9, r=2, n=3).instance
        doc = inst.to_json()
        code, out, _ = run_cli(tmp_path, "verify", doc)
        assert code == 0 and out["report"]["ok"]

    def test_numeric_chi_one_is_a_convention_failure(self):
        one = [1, 0]
        doc = {"matrices": [[[one]]] * 3, "b": [one] * 3, "w": [one] * 3, "chi": one}
        code, out, err = call_main("verify", doc)
        assert code == 2, err
        assert json.loads(out) == {"kind": "verify", "status": "ConventionFailure",
                                   "detail": "chi is numerically 1"}

    @pytest.mark.parametrize("build", [lambda: scaled_w_document(),
                                       lambda: wide_symbolic_document(60)],
                             ids=["scaled-w", "symbolic-rank-60"])
    def test_an_overflowing_product_answers_finite_numbers(self, build):
        """The determinant check reads an overflowed product from logarithms:
        the answer is strict JSON with a small ``det_product_error``, and no
        warning is raised (pyproject.toml makes a RuntimeWarning an error)."""
        code, out, err = call_main("verify", build())
        report = strict_json(out)["report"]
        assert (code, err) == (2, "") and not report["ok"]
        assert report["det_product_error"] < 1e-10, report

    def test_numeric_non_semisimple_fixed_eigenvalue(self):
        # b_0 M_0 = [[1, 1], [0, 1]]: eigenvalue 1 twice, one eigenvector
        M0 = np.array([[1, 1], [0, 1]], dtype=complex)
        M1 = np.diag(np.exp(2j * np.pi * np.array([0.3, 0.6])))
        b = np.exp(2j * np.pi * np.array([0.0, 0.2, 0.45]))
        pair = lambda z: [float(z.real), float(z.imag)]
        mats = [M0, M1, np.linalg.inv(M0 @ M1)]
        doc = {"matrices": [[[pair(z) for z in row] for row in M] for M in mats],
               "b": [pair(z) for z in b], "w": [pair(z) for z in b],
               "chi": pair(1 / np.prod(b))}
        code, out, err = call_main("verify", doc)
        assert code == 1 and out == ""
        assert err.startswith("input error: $.matrices[0]: ") and "not semisimple" in err


def strict_json(text):
    """``json.loads`` that refuses NaN and the infinities, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def scaled_w_document():
    """Rank 2 on 3 points, M_0 = diag(e(.1), e(.2)), M_1 = diag(e(.33), e(.45)),
    b = e(.17, .29, .41) with e(x) = exp(2 pi i x), and w scaled by 1e200,
    1e-300 and 1e100: every relation holds, but the product of the measured
    eigenvalues leaves the float range on the way."""
    e = lambda x: np.exp(2j * np.pi * np.asarray(x))
    M0, M1, b = np.diag(e([.1, .2])), np.diag(e([.33, .45])), e([.17, .29, .41])
    doc = matrices_document([M0, M1, np.linalg.inv(M0 @ M1)], b, 1 / np.prod(b))
    doc["w"] = [[float(z.real), float(z.imag)] for z in b * [1e200, 1e-300, 1e100]]
    return doc


def wide_symbolic_document(r):
    """Rank ``r`` on 3 points, one generator per eigenvalue, with h values
    off the circle inside the range (|Im w| <= 1): at r = 60 the product of a
    point's measured eigenvalues passes 1e308.  The first class is not
    scalar, so the last matrix does not carry the last class given, and
    the answer is ok: false."""
    classes = [[entry({f"{g}{i}": "1"}) for i in range(r)] for g in "ab"]
    classes.append([entry({f"a{i}": "-1", f"b{i}": "-1"}) for i in range(r)])
    rng = np.random.default_rng(1)
    assignment = {f"{g}{i}": float(rng.uniform(0.02, 0.98)) for g in "ab" for i in range(r)}
    return {"mode": "multiplicative", "classes": classes,
            "assignment": {**assignment, "x": [0.17, 1.0], "y": [0.3, -0.5], "z": 0.23},
            "convoluter": {"h": [expr({"x": "1"}), expr({"y": "1"}), expr({"z": "1"})]}}


def symbolic_verify_document(last_class=None, mode="multiplicative", h3=None):
    """Rank 2 on 3 points: a scalar class, then two eigenvalues; the
    last class is the one the product relation forces unless given.
    The twist h is (x, y, h3), with h3 = z by default."""
    doc = {
        "mode": mode,
        "classes": [
            [entry({"a": "1"}, mult=2)],
            [entry({"b0": "1"}), entry({"b1": "1"})],
            last_class or [entry({"a": "-1", "b0": "-1"}),
                           entry({"a": "-1", "b1": "-1"})],
        ],
        "assignment": {"a": 0.13, "b0": 0.29, "b1": 0.71, "c0": 0.37,
                       "c1": 0.83, "x": 0.17, "y": 0.47, "z": 0.23},
        "convoluter": {"h": [expr({"x": "1"}), expr({"y": "1"}),
                             h3 or expr({"z": "1"})]},
        "seed": 3,
    }
    return doc


UNRELATED_LAST = [entry({"c0": "1"}), entry({"c1": "1"})]
# rank 2 on 4 points with no convoluter, whose default twist passes the
# conventions and is not empty, so the answer reads the twist's v
UNTWISTED = {
    "mode": "multiplicative",
    "classes": [
        [entry({"g00": "1"}, const="1/3"), entry({"g01": "1"})],
        [entry({"g10": "1"}, const="1/3"), entry({"g11": "1"}, const="1/5")],
        [entry({"g20": "1"}, const="1/5"), entry({"g21": "1"}, const="1/5")],
        [entry({"g00": "-1", "g10": "-1", "g20": "-1"}, const="-13/15"),
         entry({"g01": "-1", "g11": "-1", "g21": "-1"}, const="-2/5")],
    ],
    "assignment": {"g00": 0.65, "g01": 0.5, "g10": 0.77, "g11": 0.4, "g20": 0.95, "g21": 0.46},
    "seed": 3,
}


class TestSymbolicVerify:
    def test_consistent_document(self, tmp_path):
        code, out, _ = run_cli(tmp_path, "verify", symbolic_verify_document())
        assert code == 0
        rep = out["report"]
        assert rep["ok"] and rep["middle_dim"] == rep["expected_middle_dim"] == 4
        assert rep["max_deviation"] < 1e-8

    def test_unrelated_last_class_fails(self, tmp_path):
        doc = symbolic_verify_document(UNRELATED_LAST)
        code, out, _ = run_cli(tmp_path, "verify", doc)
        assert code == 2
        rep = out["report"]
        assert not rep["ok"] and rep["max_deviation"] > 1e-3

    def test_unrelated_last_class_changes_the_dimension(self, tmp_path):
        # a twist aimed at the document's last class predicts a defect
        # that the matrices do not have
        doc = symbolic_verify_document(UNRELATED_LAST, h3=expr({"c0": "-1"}))
        code, out, _ = run_cli(tmp_path, "verify", doc)
        assert code == 2
        rep = out["report"]
        assert not rep["ok"] and rep["middle_dim"] != rep["expected_middle_dim"]
        assert rep["max_deviation"] is None and rep["per_point_deviation"] == []

    @pytest.mark.parametrize("im", [-1.0, 1.0])
    def test_values_off_the_circle_inside_the_range(self, im):
        doc = symbolic_verify_document()
        doc["assignment"]["a"] = [0.13, im]
        code, out, err = call_main("verify", doc)
        assert code == 0 and json.loads(out)["report"]["ok"], err

    def test_additive_mode_rejected(self, tmp_path, capsys):
        doc = symbolic_verify_document(mode="additive")
        code, out, _ = run_cli(tmp_path, "verify", doc)
        err = capsys.readouterr().err
        assert code == 1 and out is None
        assert "$.mode" in err and "Traceback" not in err

    def test_beta_v_fresh_twists_a_document_without_convoluter(self):
        """``--beta-v fresh`` gives the default h the fresh v, as an explicit
        ``"v": "fresh"`` with that h does, and the answer moves with it."""
        doc = {**UNTWISTED, "assignment": {**UNTWISTED["assignment"],
                                           "_s1": 0.31, "_s2": 0.59, "_s3": 0.43}}
        h = json.loads(call_main("defect", doc)[1])["convoluter"]["h"]
        explicit = call_main("verify", {**doc, "convoluter": {"h": h, "v": "fresh"}})
        assert explicit[1] and explicit[1] != call_main("verify", doc)[1]
        assert call_main("verify", doc, "--beta-v", "fresh") == explicit

    def test_beta_v_fresh_needs_values_for_the_fresh_generators(self):
        code, out, err = call_main("verify", UNTWISTED, "--beta-v", "fresh")
        assert (code, out) == (1, "")
        assert err == "input error: $.assignment: no value assigned to ['_s1', '_s2', '_s3']\n"


def expanded(groups):
    """(value, multiplicity) groups per point with each value listed once per copy."""
    return [[z for z, m in entries for _ in range(m)] for entries in groups]


def assert_prediction_matches_reference(problem) -> str:
    """``row_values`` on the problem's model, expanded, against ``reference_kappa_spectra``:
    the same raised report, or equal lengths and deviations of at most
    1e-12 at every point.  Returns the outcome's name."""
    from midconv.homology import match_multisets

    predict = functools.partial(katz.row_values, *problem.model, problem.assignment)
    try:
        expected = reference_kappa_spectra(problem)
    except ConventionViolation as exc:
        with pytest.raises(ConventionViolation) as raised:
            predict()
        assert raised.value.report == exc.report
        return "ConventionFailure"
    if isinstance(expected, NoneffectiveReport):
        with pytest.raises(NoneffectiveTransform) as raised:
            predict()
        assert raised.value.report == expected
        return "EmptyNoneffective"
    predicted = expanded(predict())
    assert len(predicted) == len(expected)
    for got, want in zip(predicted, expected):
        assert len(got) == len(want) and match_multisets(want, got) <= 1e-12
    return "ok"


class TestPredictionOracle:
    """The transform formula run with the valuation as its group law, against
    the transformed vector valued afterwards."""

    def test_generate_sweep(self):
        from midconv.homology import generate_instance

        rng, outcomes = np.random.default_rng(22), collections.Counter()
        for case in range(96):
            n, r = int(rng.integers(3, 7)), int(rng.integers(1, 9))
            mults = None if case % 3 == 0 else [random_partition(rng, r) for _ in range(n - 1)]
            problem = generate_instance(seed=case, r=r, n=n, aim=("support", "fresh")[case % 2],
                                        v_policy=("same", "fresh")[case // 2 % 2], mults=mults)
            outcomes[assert_prediction_matches_reference(problem)] += 1
        assert outcomes["ok"] >= 60 and outcomes["EmptyNoneffective"] >= 1, outcomes

    @pytest.mark.parametrize("doc", [
        symbolic_verify_document(),
        symbolic_verify_document(UNRELATED_LAST),
        symbolic_verify_document(UNRELATED_LAST, h3=expr({"c0": "-1"})),
        {**symbolic_verify_document(), "assignment": {
            **symbolic_verify_document()["assignment"], "a": [0.13, 1.0]}},
        {k: v for k, v in symbolic_verify_document().items() if k != "convoluter"},
    ], ids=["consistent", "unrelated", "unrelated-aimed", "off-circle", "convention"])
    def test_symbolic_documents(self, doc):
        from midconv.homology import VerificationProblem

        parsed = parse_document(doc)
        problem = VerificationProblem(None, parsed.row_form, parsed.assignment)
        assert_prediction_matches_reference(problem)

    def test_prediction_calls_no_kappa_and_builds_no_divisor(self, monkeypatch):
        from midconv import homology
        from midconv.divisors import EigDivisor

        problem = homology.generate_instance(seed=4, r=5, n=4, v_policy="fresh")

        def forbidden(*args, **kwargs):
            raise AssertionError("the prediction built a transformed vector")

        monkeypatch.setattr(katz, "kappa", forbidden)
        monkeypatch.setattr(homology, "kappa", forbidden)
        with monkeypatch.context() as inner:  # the prediction alone; TestVerifyOnRows spies the verb
            inner.setattr(EigDivisor, "__init__", forbidden)
            predicted = expanded(katz.row_values(*problem.model, problem.assignment))
        code, out, err = call_main("verify", {"generate": {"rank": 3, "points": 4, "seed": 1}})
        monkeypatch.undo()
        assert code == 0 and json.loads(out)["report"]["ok"], err
        assert [len(p) for p in predicted] == [len(e) for e in reference_kappa_spectra(problem)]

    def test_noneffective_verify_answers_from_the_raised_report(self, monkeypatch):
        """An empty transform answers EmptyNoneffective from the report the
        prediction raised, with the bytes of ``transform``'s answer under
        ``kind`` verify, and no ``kappa`` runs."""
        from midconv.homology import generate_instance

        doc = {"generate": {"rank": 1, "points": 3, "seed": 1}}

        def forbidden(*args, **kwargs):
            raise AssertionError("verify transformed again")

        monkeypatch.setattr(katz, "kappa", forbidden)
        code, out, err = call_main("verify", doc)
        monkeypatch.undo()
        problem = generate_instance(seed=1, r=1, n=3)
        report = katz.kappa(problem.beta, problem.vector)
        assert code == 2, err
        assert out == render({"kind": "verify", "status": "EmptyNoneffective",
                              "report": report.to_json(),
                              "certificate": report.certificate.to_json()}, exact=False)


ROW_VERIFY_CASES = {  # id: (document, exit code)
    "consistent": (symbolic_verify_document(), 0),
    "unrelated": (symbolic_verify_document(UNRELATED_LAST), 2),
    "tol": ({**symbolic_verify_document(), "tol": 1e-7}, 0),
    "fresh-v": ({**symbolic_verify_document(), "convoluter": {
        **symbolic_verify_document()["convoluter"], "v": "fresh"}, "assignment": {
        **symbolic_verify_document()["assignment"], "_s1": 0.31, "_s2": 0.59}}, 0),
    "default-empty": ({k: v for k, v in symbolic_verify_document(UNRELATED_LAST).items()
                       if k != "convoluter"}, 2),
    "convention": ({k: v for k, v in symbolic_verify_document().items() if k != "convoluter"}, 2),
    "missing": ({**symbolic_verify_document(), "assignment": {"a": 0.13}}, 1),
    "imaginary": ({**symbolic_verify_document(), "assignment": {
        **symbolic_verify_document()["assignment"], "x": [0.1, 2.0]}}, 1),
    "generate": ({"generate": {"rank": 3, "points": 4, "seed": 1}}, 0),
    "generate-fresh": ({"generate": {"rank": 2, "points": 5, "seed": 2, "aim": "fresh",
                                     "v_policy": "fresh"}}, 0),
    "generate-empty": ({"generate": {"rank": 1, "points": 3, "seed": 1}}, 2),
}


class TestVerifyOnRows:
    """Symbolic and ``generate`` verify answer from the model's rows: no
    eigenvalue, divisor, vector or convoluter object is built, and no object
    is read back into rows.  A convention failure answers with
    ``transform``'s report, whose witnesses are written from elements."""

    @pytest.mark.parametrize("doc, code", ROW_VERIFY_CASES.values(), ids=ROW_VERIFY_CASES)
    def test_builds_no_objects(self, monkeypatch, doc, code):
        from midconv import scalars
        from midconv.divisors import EigDivisor, MonodromyVector
        from midconv.scalars import GroupElement

        expected = call_main("verify", doc)
        assert expected[0] == code and "Traceback" not in expected[2], expected

        def forbidden(*args, **kwargs):
            raise AssertionError("verify built an eigenvalue object or read one into rows")

        elements = ((GroupElement, "__init__"), (scalars, "_element"), (katz, "_element"))
        for owner, name in ((EigDivisor, "__init__"), (EigDivisor, "_canonical"),
                            (MonodromyVector, "__init__"), (katz.Convoluter, "__init__"),
                            (katz, "_read"), (katz._Rows, "of"),
                            *(elements if "ConventionFailure" not in expected[1] else ())):
            monkeypatch.setattr(owner, name, forbidden)
        assert call_main("verify", doc) == expected


def object_answer(verb, doc, *flags):
    """``verb``'s answer to ``doc`` built from the eigenvalue objects:
    ``reference_kappa`` on the decoded ``ProblemDocument.vector``, with the
    document's convoluter or the default one from ``reference_convoluter``:
    (exit code, rendered answer)."""
    beta_v = flags[flags.index("--beta-v") + 1] if "--beta-v" in flags else None
    parsed = parse_document(doc, beta_v)
    vector = parsed.vector
    beta = (reference_convoluter(vector, parsed.v) if parsed.h is None
            else parsed.row_form[0].convoluter(*parsed.row_form[2:]))
    d, result = reference_kappa(beta, vector)
    if verb == "defect":
        return 0, render({"kind": "defect", "rank": vector.rank, "points": vector.n,
                          "defect": d, "vector_defect": (vector.n - 2) * vector.rank
                          - sum(g.max_multiplicity()[1] for g in vector),
                          "convoluter": beta.to_json()}, exact=True)
    if isinstance(result, ConventionReport):
        violation = result.first_violation()
        return 2, render({"kind": verb, "status": "ConventionFailure",
                          "convention": violation.convention, "report": result.to_json()},
                         exact=True)
    if isinstance(result, NoneffectiveReport):
        return 2, render({"kind": verb, "status": "EmptyNoneffective", "report": result.to_json(),
                          "certificate": result.certificate.to_json()}, exact=True)
    return 0, render({"kind": verb, "status": "ok", "defect": result.rank - vector.rank,
                      "output": result.to_json()}, exact=True)


def row_oracle_cases(count=200, seed=23):
    """Seeded (document, flags, features) for the row path's oracle sweep:
    the three modes, constants outside [0, 1) and duplicate entries (one
    value twice in a class, written alike, in other lowest terms, or 1 apart
    in multiplicative mode), v as a list, "same-as-h" or "fresh", no
    convoluter with tied maximal multiplicities, and ``--beta-v fresh``."""
    rng, cases = random.Random(seed), []
    consts = ["0", "1/2", "1/3", "2/3", "1/4", "3/4", "5/4", "-1/6", "7", "-2"]
    for k in range(count):
        mode = ("multiplicative", "additive", "circle")[k % 3]
        n, r, features = rng.randint(3, 5), rng.randint(1, 7), set()

        def value():
            gens = [] if mode == "circle" else rng.sample(["a", "b", "c", "_s1"], rng.randint(0, 2))
            return expr({g: rng.choice(["1", "-1", "1/2"]) for g in gens}, rng.choice(consts))

        classes = []
        for _ in range(n):
            mults, left, cap = [], r, rng.randint(1, r)
            while left:
                mults.append(rng.randint(1, min(cap, left)))
                left -= mults[-1]
            entries = [{"value": value(), "mult": m} for m in mults]
            if entries[0]["mult"] > 1 and rng.random() < 0.3:
                twin = copy.deepcopy(entries[0])
                twin["mult"], entries[0]["mult"] = 1, entries[0]["mult"] - 1
                c = Fraction(twin["value"]["const"])
                c += 1 if mode == "multiplicative" and rng.random() < 0.5 else 0
                twin["value"]["const"] = rng.choice([str(c), f"{2 * c.numerator}/{2 * c.denominator}"])
                entries.append(twin)
                features.add("duplicate")
            classes.append(entries)
        doc, flags = {"mode": mode, "classes": classes}, ()
        kind = rng.choice(["none", "none", "same-as-h", "fresh", "list"])
        if mode == "circle" and kind == "fresh":
            kind = "list"
        if kind == "none":
            if mode != "circle" and rng.random() < 0.5:
                flags = ("--beta-v", "fresh")
            if any(m.count(max(m)) > 1 for m in ([e["mult"] for e in c] for c in classes)):
                features.add("tied")
        else:
            h = [value() for _ in range(n)]
            doc["convoluter"] = {"h": h, "v": kind}
            if kind == "list":  # v_i = h_i + s_i with sum(s) = 0
                s = [rng.choice(["0", "1/3", "1/2"]) for _ in range(n - 1)]
                s.append(str(-sum(map(Fraction, s))))
                doc["convoluter"]["v"] = [{**e, "const": str(Fraction(e["const"]) + Fraction(x))}
                                          for e, x in zip(h, s)]
        cases.append((doc, flags, features | {kind, mode, *flags}))
    return cases


class TestRowOracle:
    """``transform`` and ``defect`` answer from the document's sparse
    integer rows; their bytes equal the answers built from the objects by
    the library's ``kappa`` and ``defect``."""

    def test_sweep(self):
        seen = collections.Counter()
        for doc, flags, features in row_oracle_cases():
            for verb in ("transform", "defect"):
                code, out, err = call_main(verb, doc, *flags)
                assert (code, out) == object_answer(verb, doc, *flags), (verb, flags, doc, err)
                seen.update({verb: 1, json.loads(out).get("status", "defect"): 1})
            seen.update(features)
        for feature in ("multiplicative", "additive", "circle", "duplicate", "tied", "none",
                        "same-as-h", "fresh", "list", "--beta-v", "ok", "EmptyNoneffective",
                        "ConventionFailure"):
            assert seen[feature] >= 5, (feature, seen)

    @pytest.mark.parametrize("verb, flags", [("transform", ()), ("defect", ()),
                                             ("transform", ("--beta-v", "fresh"))],
                             ids=["transform", "defect", "transform-fresh"])
    @pytest.mark.parametrize("rank, mode", [(100, "additive"), (3000, "multiplicative"),
                                            (3000, "additive")])
    def test_tall_documents(self, verb, flags, rank, mode):
        """A row costs its terms, not the document's generators: 3 points of
        ``rank`` values, each with a generator of its own and multiplicity 1
        (so every maximal multiplicity is tied), 300 values of 300
        generators or 9,000 of 9,000, answer within a second (0.12 s at rank
        3,000 on a 2-CPU VM)."""
        doc = tall_document(rank, mode)
        start = time.perf_counter()
        code, out, err = call_main(verb, doc, *flags)
        elapsed = time.perf_counter() - start
        assert (code, out) == object_answer(verb, doc, *flags), err
        assert elapsed < 1.0, elapsed


def tall_document(rank, mode):
    """3 points of ``rank`` eigenvalues of multiplicity 1, each the one
    generator of its own ("p<point>_<index>")."""
    return {"mode": mode, "classes": [
        [entry({f"p{k}_{i}": "1"}) for i in range(rank)] for k in range(3)]}


class TestUsageErrors:
    def test_unknown_flag_exits_one(self, capsys):
        assert main(["defect", "--bogus"]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_beta_v_explicit_exits_one(self, capsys):
        assert main(["defect", "--beta-v", "explicit"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["defect", "transform"])
    def test_beta_v_fresh_on_circle_mode_exits_one(self, verb):
        # circle weights are constants: there are no fresh generators to add
        doc = {"mode": "circle",
               "classes": [[entry({}, const="1/4"), entry({}, const="3/4")]] * 3}
        code, out, err = call_main(verb, doc, "--beta-v", "fresh")
        assert code == 1 and out == "" and "Traceback" not in err
        assert "input error: $.mode: " in err, err


class TestDeterminismAndBatch:
    def test_identical_runs_byte_identical(self, tmp_path):
        doc = {"generate": {"rank": 2, "points": 3, "seed": 11}}
        _, _, text1 = run_cli(tmp_path, "verify", doc)
        _, _, text2 = run_cli(tmp_path, "verify", doc)
        assert text1 == text2

    def test_batch_list_and_jobs(self, tmp_path):
        docs = [referee_document(), referee_document()]
        code, out, _ = run_cli(tmp_path, "transform", docs)
        assert code == 0
        assert isinstance(out, list) and len(out) == 2
        assert out[0] == out[1]
        # the batch runs serially; --jobs is no longer an option
        (tmp_path / "jobs").mkdir()
        code, out, _ = run_cli(tmp_path / "jobs", "transform", docs, "--jobs", "2")
        assert code == 1 and out is None

    def test_batch_error_names_the_document(self):
        """A malformed document of a batch is reported at its path in the list."""
        doc = {"classes": [[{"value": {"const": "x"}, "mult": 1}]]}
        code, out, err = call_main("transform", [referee_document(), doc])
        _, _, alone = call_main("transform", doc)
        assert (code, out) == (1, "")
        assert alone.startswith("input error: $.classes[0][0].value.const: ")
        assert err == alone.replace("$.", "$[1].", 1)

    def test_batch_entry_that_is_no_object(self):
        code, out, err = call_main("transform", [referee_document(), 3])
        assert (code, out, err) == (1, "", "input error: $[1]: a document must be a JSON object\n")

    @pytest.mark.parametrize("verb, flags, where", [
        ("run", ("--seed", "-1"), "$.seed: 'seed' must be at least 0, got -1"),
        ("verify", ("--tol", "2"), "$.tol: 'tol' must be a number strictly between 0 and 1, "
                                   "got 2.0"),
    ], ids=["seed", "tol"])
    def test_flag_overrides_are_checked_as_document_values(self, verb, flags, where):
        doc = run_document() if verb == "run" else {"generate": {"rank": 2, "points": 3}}
        assert call_main(verb, doc, *flags) == (1, "", f"input error: {where}\n")
        # a valid override answers as the document that holds the value
        key, value = flags[0][2:], {"--seed": 4, "--tol": 1e-7}[flags[0]]
        assert call_main(verb, doc, flags[0], str(value)) == call_main(verb, {**doc, key: value})

    def test_document_round_trip(self):
        doc = referee_document()
        parsed = parse_document(doc)
        rendered = parse_json(render(parsed.vector.to_json()))
        assert parse_document({"mode": rendered["mode"],
                               "classes": rendered["classes"]}).vector == parsed.vector


class TestDocumentErrors:
    def test_position_annotated_error(self):
        with pytest.raises(DocumentError) as err:
            parse_document({"mode": "multiplicative",
                            "classes": [[{"value": expr(), "mult": 1.5}]]})
        assert "$.classes[0][0]" in str(err.value)

    def test_unknown_mode(self):
        with pytest.raises(DocumentError) as err:
            parse_document({"mode": "quaternionic", "classes": [[]]})
        assert "$.mode" in str(err.value)

    def test_points_disagreement(self):
        doc = referee_document()
        doc["points"] = 4
        with pytest.raises(DocumentError):
            parse_document(doc)


# -- the document boundary ----------------------------------------------------

def call_main(verb, doc, *flags):
    """``main`` on a document piped through stdin; (code, stdout, stderr).
    An exception escaping ``main`` would be a traceback: it fails the test."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc).replace(json.dumps(DEEP), DEEP_TEXT))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([verb, *flags])
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def run_document():
    return {"mode": "additive", "points": 3, "seed": 1, "max_steps": 3,
            "classes": [[entry({f"e{i}0": "1"}, const="1/2"), entry({f"e{i}1": "1"})]
                        for i in range(3)]}


def valid_documents():
    """One small valid document per verb and verify flavor."""
    from midconv.homology import generate_instance
    return [
        ("defect", referee_document()),
        ("transform", referee_document()),
        ("run", run_document()),
        ("classify", {"mode": "multiplicative",
                      "classes": [[entry({f"e{i}_{j}": "1"}) for j in range(3)]
                                  for i in range(3)]}),
        ("higgs", {"mode": "circle",
                   "classes": [[entry({}, const="1/4"), entry({}, const="3/4")]] * 5}),
        ("verify", {"generate": {"rank": 2, "points": 3, "seed": 5, "aim": "support",
                                 "v_policy": "same"}, "tol": 1e-9}),
        ("verify", symbolic_verify_document()),
        ("verify", generate_instance(seed=9, r=2, n=3).instance.to_json()),
    ]


def _kind(path):
    """What the document spec allows at a path: 'rational' ("p/q" string
    or integer), 'integer' with its least value, 'number', or None."""
    key, parent = path[-1], (path[-2] if len(path) > 1 else None)
    if key == "const" or parent == "exps":
        return "rational", None
    if parent == "generate" and key in ("rank", "points"):
        return "integer", {"rank": 1, "points": 3}[key]
    if key in ("mult", "points", "seed", "max_steps", "rank"):
        return "integer", {"mult": 1, "max_steps": 0, "seed": 0}.get(key)
    if key == "tol" or parent == "assignment":
        return "number", None
    return None, None


# A list nested 100,000 deep, far past the recursion limit: ``call_main``
# splices its text in for this marker, since ``json.dumps`` would recurse too.
DEEP = "<a list nested 100,000 deep>"
DEEP_TEXT = "[" * 100_000 + "]" * 100_000

# one digit past the default sys.get_int_max_str_digits(), and an Arabic-Indic
# one: int() reads the second, the spec's ASCII "p/q" does not; values that
# grow: deep nesting, 10^6-character strings (digits and not), a lone
# surrogate as a key, and a rank or point count that puts the generate
# document's (points - 1) * rank just past MAX_RAW_DIM
SWAPS = ["x", "9" * 4301, "\u0661", 0.5, True, False, [1], {}, -1, 0, None,
         DEEP, "9" * 10 ** 6, "x" * 10 ** 6, {"\ud800": "1"}, MAX_RAW_DIM // 2 + 2]

# the shape of the valid generate document
GENERATE_SHAPE = {"rank": 2, "points": 3}


def forbidden(path, value):
    """True when the spec rejects ``value`` at ``path``."""
    kind, least = _kind(path)
    if kind == "rational":
        return isinstance(value, (bool, float, list, dict, str)) or value is None
    if kind == "integer":
        if (not isinstance(value, int) or isinstance(value, bool)
                or (least is not None and value < least)):
            return True
        if path[-2:-1] == ("generate",):  # rank or points
            shape = {**GENERATE_SHAPE, path[-1]: value}
            return (shape["points"] - 1) * shape["rank"] > MAX_RAW_DIM
        return False
    if kind == "number":  # an assignment may also be an [re, im] pair; [1] is not
        return (isinstance(value, bool) or not isinstance(value, (int, float))
                or (path[-1] == "tol" and not 0 < value < 1))
    return False


def _nodes(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _nodes(v, path + (i,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _mutated(doc, path, value, drop):
    doc = copy.deepcopy(doc)
    parent, last = _parent(doc, path), path[-1]
    if drop:
        del parent[last]
    else:
        parent[last] = value
    return doc


@st.composite
def mutations(draw):
    verb, doc = draw(st.sampled_from(valid_documents()))
    path = draw(st.sampled_from([p for p in _nodes(doc) if p]))
    drop = isinstance(_parent(doc, path), dict) and draw(st.booleans())
    value = None if drop else draw(st.sampled_from(SWAPS))
    return verb, path, value, drop, _mutated(doc, path, value, drop)


def matrices_document(mats, b, chi, **extra):
    """A numeric ``verify`` document with w = b."""
    pair = lambda z: [float(np.real(z)), float(np.imag(z))]
    b = [pair(z) for z in b]
    return {"matrices": [[[pair(z) for z in row] for row in M] for M in mats],
            "b": b, "w": b, "chi": pair(chi), **extra}


# b = (e^{i pi/5}, 1, e^{i pi/3}), so that chi = 1 / prod(b) is not 1
TWISTS = np.exp(1j * np.pi * np.array([1 / 5, 0, 1 / 3]))


def run_cap_document(generators):
    """Rank 250 on 4 points with 1000 distinct eigenvalues, the first
    ``generators`` of them generators and the rest constants, and
    max_steps 7.  The defect is 496, so the run stops before its first
    step and its bound is 1 * 4 * 250 * (1 + generators) terms."""
    values = ([entry({f"g{j}": "1"}) for j in range(generators)]
              + [entry({}, const=f"{j}/1000") for j in range(1000 - generators)])
    return {"mode": "multiplicative", "points": 4, "max_steps": 7,
            "classes": [values[k * 250:(k + 1) * 250] for k in range(4)]}


def hypergeometric_document(r):
    """The PMV [[r - 1, 1], [1]^r, [1]^r], one generator per eigenvalue:
    each step lowers the rank by one, and under fresh v every value gains
    generators, so the run answer grows as r^3."""
    return {"mode": "multiplicative",
            "classes": [[entry({"a": "1"}, mult=r - 1), entry({"b": "1"})],
                        [entry({f"c{j}": "1"}) for j in range(r)],
                        [entry({f"d{j}": "1"}) for j in range(r)]]}


def stepping_cap_document(generators):
    """Rank 250 on 4 points and max_steps 7: each point has one eigenvalue
    of multiplicity 126 and 124 simple ones, 500 distinct values that carry
    ``generators`` generators between them (g_k on value k mod 500).  The
    defect is 2 * 250 - 4 * 126 = -4, so the run steps, and its bound is
    8 * 4 * 250 * (1 + generators) terms."""
    def value(j):
        return entry({f"g{k}": "1" for k in range(j, generators, 500)})

    return {"mode": "multiplicative", "points": 4, "max_steps": 7,
            "classes": [[{**value(125 * k), "mult": 126}]
                        + [value(125 * k + j) for j in range(1, 125)] for k in range(4)]}


class TestDocumentBoundary:
    @pytest.mark.parametrize("verb, doc", valid_documents())
    def test_valid_documents_pass(self, verb, doc):
        code, out, err = call_main(verb, doc)
        assert code == 0, err

    @settings(max_examples=300, deadline=None)
    @given(m=mutations())
    def test_mutated_documents(self, m):
        verb, path, value, drop, doc = m
        code, out, err = call_main(verb, doc)
        assert "Traceback" not in err and len(err) < 1000, err[:200]
        assert code in (0, 1, 2)
        if code == 1:
            assert out == "" and "$" in err, err
        else:
            json.loads(out)
        if not drop and forbidden(path, value):
            assert code == 1, (path, value, out[:200])

    @pytest.mark.parametrize("verb, patch, where", [
        ("transform", {"classes": [[{"value": expr(const=0.5), "mult": 1}]] * 3},
         "$.classes[0][0].value.const"),
        ("transform", {"classes": [[{"value": {"const": "0", "exps": [1]}, "mult": 1}]] * 3},
         "$.classes[0][0].value.exps"),
        ("transform", {"classes": [[{"value": expr({"a": "1"}), "mult": True}]] * 3},
         "$.classes[0][0].mult"),
        ("transform", {"classes": [[{"value": expr({"a": 0.5}), "mult": 1}]] * 3},
         "$.classes[0][0].value.exps.a"),
        ("run", {"max_steps": "x"}, "$.max_steps"),
        ("run", {"max_steps": -1}, "$.max_steps"),
        ("run", {"seed": "x"}, "$.seed"),
        ("run", {"points": "3"}, "$.points"),
        ("verify", {"generate": {"rank": 2, "points": 3}, "tol": "x"}, "$.tol"),
        ("verify", {"generate": {"rank": 0, "points": 3}}, "$.generate.rank"),
        ("verify", {"generate": {"rank": 2, "points": 2}}, "$.generate.points"),
        ("verify", {"generate": {"rank": 2, "points": 3, "seed": 1.5}}, "$.generate.seed"),
        ("verify", {"matrices": [[1]]}, "$.matrices"),
        # a message cuts the value it quotes
        ("classify", {"mode": "x" * 10 ** 6}, "$.mode"),
        ("verify", {"generate": {"rank": 2, "points": 3}, "tol": "x" * 10 ** 6}, "$.tol"),
        ("transform", {"classes": [[entry({}, const="x" * 10 ** 6)]] * 3},
         "$.classes[0][0].value.const"),
        # a path cuts the name it carries
        ("transform", {"classes": [[entry({"x" * 10 ** 6: "q"})]] * 3},
         "$.classes[0][0].value.exps." + "x" * 40 + "...: "),
        ("verify", {"classes": symbolic_verify_document()["classes"],
                    "assignment": {"x" * 10 ** 6: "q"}}, "$.assignment." + "x" * 40 + "...: "),
        ("transform", {"classes": referee_document()["classes"],
                       "convoluter": {"h": [expr({"x" * 10 ** 6: "q"})] * 3}},
         "$.convoluter.h[0].exps." + "x" * 40 + "...: "),
        # (points - 1) * rank one or two past the cap
        ("verify", {"generate": {"rank": 1, "points": MAX_RAW_DIM + 2}}, "$.generate.rank"),
        ("verify", {"generate": {"rank": MAX_RAW_DIM // 2 + 1, "points": 3}}, "$.generate.rank"),
        ("verify", {"classes": [[entry({}, const="1/3", mult=MAX_RAW_DIM // 2 + 1)]] * 3,
                    "assignment": {"a": 0.5}}, "$.classes"),
        ("verify", {"matrices": [[[[1, 0]]]] * (MAX_RAW_DIM + 2)}, "$.matrices"),
        # values off the unit circle: one that overflows, one that underflows to
        # 0, and moduli inside the range that compound past the relations
        ("verify", {**symbolic_verify_document(), "assignment": {
            **symbolic_verify_document()["assignment"], "a": [0.1, -200]}}, "$.assignment"),
        ("verify", {**symbolic_verify_document(), "assignment": {
            **symbolic_verify_document()["assignment"], "a": [0.1, 200]}}, "$.assignment"),
        ("verify", {**symbolic_verify_document(), "assignment": {
            **symbolic_verify_document()["assignment"], "b0": [0.1, 5]}}, "$.assignment"),
        ("verify", {"classes": [[entry({f"e{i}": "1"}), entry({f"f{i}": "1"})] for i in range(6)],
                    "assignment": {**{f"e{i}": [0.1 * i, -1.09] for i in range(6)},
                                   **{f"f{i}": [0.05 + 0.1 * i, 1.09] for i in range(6)},
                                   **{f"x{i}": 0.1 * i + 0.05 for i in range(6)}},
                    "convoluter": {"h": [expr({f"x{i}": "1"}) for i in range(6)]}},
         "$.assignment: the realized matrices miss their defining relations"),
        # an entry past the first is named only when it fails, at its own path
        ("transform", {"classes": [[entry({"a": "1"})], [entry({"b": "1"})],
                                   [entry({"c": "1"}), entry({"d": "1"}, mult=0)]]},
         "$.classes[2][1].mult: 'mult' must be at least 1, got 0"),
        ("transform", {"classes": [[entry({"a": "1"})], [{"mult": 1}], [entry({"c": "1"})]]},
         "$.classes[1][0]: entries need 'value' and 'mult'"),
        ("transform", {"classes": [[entry({"a": "1"})], [entry({"b": "1"})],
                                   [entry({"c": "1"}), {"value": [1], "mult": 1}]]},
         "$.classes[2][1].value: expected an object"),
        ("higgs", {"mode": "circle", "classes": [[entry({"a": "1"})]] * 3},
         "$.classes[0][0].value: circle-mode elements must be constant weights"),
        # higgs answers with points * rank just past its cap (in rank, then in
        # points), and one that would be half a gigabyte
        ("higgs", {"mode": "circle", "classes": [[
            entry({}, const="1/8", mult=MAX_HIGGS_WEIGHTS // 10),
            entry({}, const="3/8", mult=MAX_HIGGS_WEIGHTS // 10 + 1)]] * 5},
         f"$.classes: points * rank must be at most {MAX_HIGGS_WEIGHTS} for higgs"),
        ("higgs", {"mode": "circle", "classes": [[
            entry({}, const="1/8", mult=MAX_HIGGS_WEIGHTS // 100),
            entry({}, const="3/8", mult=MAX_HIGGS_WEIGHTS // 100)]] * 51},
         "$.classes: points * rank must be at most"),
        ("higgs", {"mode": "circle", "classes": [[
            entry({}, const="1/8", mult=2 * 10 ** 6), entry({}, const="3/8", mult=2 * 10 ** 6)]] * 5},
         "$.classes: points * rank must be at most"),
        # twisted actions b_k M_k that are numerically singular at the document's
        # tol: all zero, all 1e-200, and a tiny and a huge singular value in
        # matrices whose product is exactly I
        ("verify", matrices_document([np.zeros((2, 2))] * 3, [1] * 3, 2, tol=0.5),
         "$.matrices[0]: the singular values of b_0 M_0 must lie in [tol, 1/tol]"),
        ("verify", matrices_document([np.full((2, 2), 1e-200)] * 3, [1] * 3, 2, tol=0.5),
         "$.matrices[0]: the singular values of b_0 M_0 must lie in [tol, 1/tol]"),
        ("verify", matrices_document([np.diag([1e-200, 2]), np.diag([1e200, 0.5]), np.eye(2)],
                                     TWISTS, 1 / np.prod(TWISTS)),
         "$.matrices[0]: the singular values of b_0 M_0 must lie in [tol, 1/tol]"),
        # admissible matrices whose running product overflows: prod(M) is NaN
        ("verify", matrices_document([np.diag([1e8, 1e-8])] * 40 + [np.diag([1e-8, 1e8])] * 40
                                     + [np.eye(2)], [0.5] + [1] * 80, 2),
         "$: instance violates its defining relations: {'prod(M) = 1': nan}"),
        # a run that steps, with a bound just past its cap: one generator
        # more than the document that answers at the cap
        ("run", stepping_cap_document(1000),
         f"$.classes: a run answer may need (steps + 1) * points * rank * terms per value "
         f"= 8 * 4 * 250 * 1001 terms, more than {MAX_RUN_TERMS:,}"),
        # JSON integers past the float range are not finite numbers
        ("verify", {"generate": {"rank": 2, "points": 3}, "tol": 10 ** 400}, "$.tol: "),
        ("verify", {**symbolic_verify_document(), "assignment": {
            **symbolic_verify_document()["assignment"], "a": 10 ** 400}},
         "$.assignment.a: expected an [re, im] pair of finite numbers"),
        ("verify", {"matrices": [[[[1, 0], [0, 0]], [[10 ** 400, 0], [1, 0]]]] * 3},
         "$.matrices[0][1][0]: expected an [re, im] pair of finite numbers"),
        # symbolic verify: no assignment, and a coefficient whose value passes
        # the float range (a w that is not finite)
        ("verify", {"classes": symbolic_verify_document()["classes"]},
         "$: verify needs 'matrices', 'generate', or classes plus an 'assignment'\n"),
        ("verify", {**symbolic_verify_document(), "convoluter": {
            "h": [expr({"x": "1" + "0" * 330}), expr({"y": "1"}), expr({"z": "1"})]}},
         "$.assignment: a value exp(2 pi i w) in ('x',) needs a finite w with |Im w| <= 1.1\n"),
        # a convoluter h of the wrong length, an assignment that is no object
        ("transform", {**referee_document(), "convoluter": {"h": [expr({"x": "1"})] * 2}},
         "$.convoluter.h: 'h' needs one scalar expression per class\n"),
        ("transform", {**referee_document(), "assignment": 3},
         "$.assignment: 'assignment' must be an object\n"),
        # numeric instances: matrices of two shapes, b and w one short, two
        # matrices, and a 'points' or 'rank' that the matrices contradict
        ("verify", matrices_document([np.eye(1), np.eye(2), np.eye(2)], TWISTS, 2),
         "$: all matrices must be r x r\n"),
        ("verify", matrices_document([np.eye(2)] * 3, TWISTS[:2], 2),
         "$: need one b and one w scalar per point\n"),
        ("verify", matrices_document([np.eye(2)] * 2, TWISTS[:2], 2),
         "$.matrices: need at least 3 matrices\n"),
        ("verify", matrices_document([np.eye(2)] * 3, TWISTS, 1 / np.prod(TWISTS), points=4),
         "$.points: 'points' is 4 but the matrices give 3\n"),
        ("verify", matrices_document([np.eye(2)] * 3, TWISTS, 1 / np.prod(TWISTS), rank=3),
         "$.rank: 'rank' is 3 but the matrices give 2\n"),
    ])
    def test_forbidden_inputs(self, verb, patch, where):
        doc = run_document() if verb == "run" else {}
        doc.update(patch)
        code, out, err = call_main(verb, doc)
        assert code == 1 and out == "" and "Traceback" not in err
        assert f"input error: {where}" in err and len(err) < 1000, err[:200]

    @pytest.mark.parametrize("verb", ["defect", "transform", "run", "classify", "verify",
                                      "higgs"])
    def test_deep_nesting_is_invalid_json(self, verb):
        code, out, err = call_main(verb, DEEP)
        assert code == 1 and out == "" and "Traceback" not in err
        assert err.startswith("input error: $: not valid JSON: "), err[:200]

    def test_higgs_at_its_cap_answers(self):
        m = MAX_HIGGS_WEIGHTS // 100  # 50 points of rank 2m: points * rank at the cap
        doc = {"mode": "circle",
               "classes": [[entry({}, const="1/8", mult=m), entry({}, const="3/8", mult=m)]] * 50}
        code, out, err = call_main("higgs", doc)
        assert code == 0 and err == "", err[:200]
        assert json.loads(out)["status"] == "constructed"

    def test_run_at_its_cap_answers(self):
        assert 8 * 4 * 250 * (1 + 999) == MAX_RUN_TERMS
        code, out, err = call_main("run", stepping_cap_document(999))
        assert code == 0 and err == "", err[:200]
        answer = json.loads(out)
        assert answer["status"] == "PositiveDefect" and answer["ranks"] == [250, 246]

    def test_fresh_run_near_its_cap(self):
        # the fresh hypergeometric document runs r - 1 steps; its bound is
        # (r + 1) * 3 * r * (1 + 2 r + 2 + 2 r) terms, under the cap at r = 86
        assert 87 * 3 * 86 * 347 <= MAX_RUN_TERMS < 88 * 3 * 87 * 351
        code, out, err = call_main("run", {**hypergeometric_document(86), "max_steps": 86},
                                   "--beta-v", "fresh")
        assert code == 0 and err == "", err[:200]
        answer = json.loads(out)
        assert answer["status"] == "AllDiagonal" and answer["ranks"] == list(range(86, 0, -1))
        code, out, err = call_main("run", {**hypergeometric_document(87), "max_steps": 87},
                                   "--beta-v", "fresh")
        assert code == 1 and out == "", err[:200]
        assert err.startswith("input error: $.classes: a run answer may need "
                              "(steps + 1) * points * rank * terms per value = 88 * 3 * 87 * 351")

    def test_run_that_stops_at_once_answers(self):
        # a bound that counted min(rank, max_steps) = 7 steps would pass the cap
        assert 8 * 4 * 250 * (1 + 1000) > MAX_RUN_TERMS
        code, out, err = call_main("run", run_cap_document(1000))
        assert code == 0 and err == "", err[:200]
        answer = json.loads(out)
        assert answer["status"] == "PositiveDefect" and answer["steps"] == []

    def test_cubic_run_answer_exits_before_the_loop(self):
        # about 2 GB of answer if it ran: the bound is 301 * 3 * 300 * 1203 terms
        start = time.perf_counter()
        code, out, err = call_main("run", hypergeometric_document(300), "--beta-v", "fresh")
        elapsed = time.perf_counter() - start
        assert code == 1 and out == "" and elapsed < 1, (elapsed, err[:200])
        assert err.startswith("input error: $.classes: a run answer may need"), err[:200]

    def test_verify_at_its_cap_answers(self):
        # rank 1 at 1001 points: (points - 1) * rank is the cap, and the braid
        # factors of the most points the cap allows come from prefix products
        doc = {"generate": {"rank": 1, "points": MAX_RAW_DIM + 1, "seed": 1, "aim": "fresh"}}
        start = time.perf_counter()
        code, out, err = call_main("verify", doc)
        elapsed = time.perf_counter() - start
        assert code == 0 and err == "", err[:200]
        assert json.loads(out)["report"]["ok"] is True
        assert elapsed < 8, f"{elapsed:.1f} s"

    @pytest.mark.parametrize("verb", ["defect", "classify"])
    def test_integers_past_64_bits_stay_exact(self, verb):
        # json.loads reads a long integer exactly; a float reader would round it
        m, points = 2 ** 70 + 1, {"defect": 4, "classify": 3}[verb]
        doc = {"mode": "multiplicative",
               "classes": [[entry({f"e{i}_{j}": "1"}, mult=m) for j in range(3)]
                           for i in range(points)]}
        code, out, err = call_main(verb, doc)
        assert code == 0, err
        got = json.loads(out)
        if verb == "defect":  # 4 (3m - m) - 2 (3m)
            assert (got["rank"], got["defect"], got["vector_defect"]) == (3 * m, 2 * m, 2 * m)
        else:  # a class of three eigenvalues, each of multiplicity m: 9 m^2 - 3 m^2
            report = got["report"]
            assert (report["rank"], report["class_dims"]) == (3 * m, [6 * m * m] * 3)
            assert (report["naive_dim"], got["family"]) == (2, "Tri_ddd_x3")

    def test_long_rational_string_exits_one_at_its_path(self):
        doc = {"mode": "multiplicative", "classes": [[entry({}, const="9" * 5000)]] * 3}
        code, out, err = call_main("transform", doc)
        assert code == 1 and out == "" and "Traceback" not in err
        assert "input error: $.classes[0][0].value.const: " in err, err[:200]

    def test_long_json_integer_is_invalid_json(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"seed": ' + "9" * 5000 + "}"))
        assert main(["defect"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("input error: $: not valid JSON: "), err[:200]

    @pytest.mark.parametrize("verb", ["transform", "run"])
    def test_long_output_rational_exits_one(self, verb):
        # each constant is valid input; the lcm of their denominators has 8,600 digits
        pair = [entry({}, const="1/" + "7" * 4300), entry({}, const="1/" + "3" * 4299 + "1")]
        code, out, err = call_main(verb, {"mode": "additive", "classes": [pair] * 3})
        assert code == 1 and out == "" and "Traceback" not in err
        assert err.startswith("error: "), err[:200]

    def test_long_total_weight_exits_one(self):
        pair = [entry({}, const="1/" + "7" * 4300), entry({}, const="1/" + "3" * 4299 + "1")]
        code, out, err = call_main("higgs", {"mode": "circle", "classes": [pair] * 4})
        assert code == 1 and out == "" and "Traceback" not in err
        assert err.startswith("error: "), err[:200]

    def test_lone_surrogate_name_exits_one_at_its_path(self, tmp_path, capsys):
        # a StringIO stdout takes the surrogate: only a real file shows the failure
        doc = {"mode": "multiplicative",
               "classes": [[entry({"\ud800": "1"})], [entry({}, const="1/3")],
                           [entry({}, const="1/5")]]}
        code, out, _ = run_cli(tmp_path, "defect", doc)
        err = capsys.readouterr().err
        assert code == 1 and out is None
        assert err.startswith("input error: $.classes[0][0].value.exps.\\ud800: "), err

    def test_unassigned_generator(self):
        doc = symbolic_verify_document()
        del doc["assignment"]["b1"]
        code, _, err = call_main("verify", doc)
        assert code == 1 and "input error: $.assignment" in err

    def test_run_convention_failure_answer(self):
        # eigenvalue 3/4 at point 0 collides with the default twist: t h_0 a = 1
        consts = [["3/4", "0"], ["1/2", "1/4"], ["0", "1/3"]]
        doc = {"mode": "multiplicative",
               "classes": [[entry({}, const=c) for c in cls] for cls in consts]}
        code, out, _ = call_main("run", doc)
        assert code == 2
        out = json.loads(out)
        assert out["status"] == "ConventionFailure"
        assert "failed_side" not in out and out["steps"] == []
        report = out["convention_report"]
        assert report["ok"] is False
        assert report["chirhobeta_violations"] == [
            {"point": 0, "eigenvalue": expr(const="3/4")}]

    def test_max_steps_run_out(self):
        code, _, err = call_main("run", {**run_document(), "max_steps": 0})
        assert code == 1 and "input error: $.max_steps" in err

    def test_verify_convention_failure_is_negative(self):
        # the default twist aims at all three classes: t = 1
        doc = symbolic_verify_document()
        del doc["convoluter"]
        code, out, _ = call_main("verify", doc)
        assert code == 2
        out = json.loads(out)
        assert out["status"] == "ConventionFailure"
        assert out["convention"] == "diagonal-monodromy-nontrivial"

    @pytest.mark.parametrize("verb", ["transform", "verify"])
    def test_convention_failure_reads_the_raised_report(self, monkeypatch, verb):
        """A ConventionFailure answer renders the report that the transform
        found: the formula's data is evaluated once (``katz.row_step`` on
        the document's rows, for transform and for verify's valued
        prediction) and ``check_conventions`` never runs."""
        doc = symbolic_verify_document()
        del doc["convoluter"]  # the default twist aims at all three classes: t = 1
        calls, aimed_calls, real_aimed = [], [], katz.row_step

        def spy(*args, **kwargs):
            aimed_calls.append(args)
            return real_aimed(*args, **kwargs)

        monkeypatch.setattr(katz, "check_conventions", lambda *a, **kw: calls.append(a))
        monkeypatch.setattr(katz, "row_step", spy)
        code, out, err = call_main(verb, doc)
        assert code == 2 and calls == [] and len(aimed_calls) == 1, err
        monkeypatch.undo()
        parsed = parse_document(doc)
        report = katz.check_conventions(parsed.row_form[0].convoluter(*parsed.row_form[2:]),
                                        parsed.vector)
        assert out == render({"kind": verb, "status": "ConventionFailure",
                              "convention": report.first_violation().convention,
                              "report": report.to_json()}, exact=verb != "verify")

    @pytest.mark.parametrize("mode, shift, problem", [
        ("multiplicative", ["0", "1/2", "1/2"], None),  # prod(v) = prod(h): 1 is 0 mod 1
        ("additive", ["0", "1/2", "1/2"], "v violates the product relation t * prod(v) = 1"),
        ("additive", ["0", "1/2"], "h has 3 components but v has 2"),
        ("circle", "fresh", "fresh generators need multiplicative or additive mode"),
    ])
    def test_convoluter_checks_read_no_rows(self, mode, shift, problem):
        """A given v is checked on the document's one read, a fold of the
        rows' group law, and the object convoluter words a failure: the
        product holds mod 1 in multiplicative mode and not in additive mode,
        and a short v or circle-mode fresh v fails."""
        h = [expr(const=c) for c in ("1/2", "1/4", "1/8")]
        v = shift if shift == "fresh" else [expr(const=str(Fraction(e["const"]) + Fraction(x)))
                                            for e, x in zip(h, shift)]
        doc = {"mode": mode, "classes": [[entry({}, const=c)] for c in ("1/5", "1/7", "2/3")],
               "convoluter": {"h": h, "v": v}}
        code, out, err = call_main("classify", doc)
        if problem is None:
            assert code == 0 and err == "", err
        else:
            assert (code, out) == (1, "")
            assert err == f"input error: $.convoluter: invalid convoluter: {problem}\n"

    def test_run_bound_reads_no_rows(self):
        """The run bound refuses on the document's read, before the loop."""
        start = time.perf_counter()
        code, out, err = call_main("run", stepping_cap_document(1000))
        elapsed = time.perf_counter() - start
        assert (code, out) == (1, "") and "more than 8,000,000" in err, err[:200]
        assert elapsed < 1, f"{elapsed:.2f} s"

    @pytest.mark.parametrize("verb, doc", valid_documents()[:5])
    def test_each_document_is_read_once(self, monkeypatch, verb, doc):
        """Every symbolic verb answers from one ``_Rows.read`` per parsed
        document: its rows, bound, twist and objects all come from it."""
        calls, read = [], katz._Rows.read.__func__

        def spy(cls, *args):
            calls.append(args)
            return read(cls, *args)

        monkeypatch.setattr(katz._Rows, "read", classmethod(spy))
        for batch, reads in ((doc, 1), ([doc, doc], 2)):
            calls.clear()
            code, _, err = call_main(verb, batch)
            assert (code, len(calls)) == (0, reads), err

    def test_beta_v_flag_on_a_malformed_convoluter(self):
        doc = {**referee_document(), "convoluter": "x"}
        code, _, err = call_main("transform", doc, "--beta-v", "fresh")
        assert code == 1 and "input error: $.convoluter" in err

    def test_points_must_be_an_integer(self):
        _, _, err = call_main("run", {**run_document(), "points": "3"})
        assert "'points' must be an integer" in err


# -- the canonical writer ------------------------------------------------------

def oracle(doc):
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


_text = st.text(st.characters() | st.sampled_from('"\\/\n\t\x00\x1f\x7f\u2028é😀'),
                max_size=6)
_floats = (st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([-0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf]))
_exact_leaves = (st.none() | st.booleans() | _text
                 | st.integers() | st.integers(min_value=-10**40, max_value=10**40))
_leaves = _exact_leaves | _floats | _floats.map(np.float64)


# Hypothesis judges whether ``extend`` recurses by finding its source from its
# first line number; a lambda read from lines that no longer match the code
# (a file changed while the tests run) looks non-recursive and warns, once per
# validation.  The extends are named functions, and each recursive strategy is
# built once, at import, so that a mismatch warns once rather than per draw.
def _nest(inner):
    return st.lists(inner, max_size=4) | st.dictionaries(_text, inner, max_size=4)


def _nest_with_tuples(inner):
    return _nest(inner) | st.lists(inner, max_size=4).map(tuple)


def _trees_of(leaves):
    return st.recursive(leaves, _nest_with_tuples, max_leaves=30)


_trees = _trees_of(_leaves)


class TestRender:
    @settings(max_examples=400, deadline=None)
    @given(doc=_trees)
    def test_matches_json_dumps(self, doc):
        assert render(doc) == oracle(doc)

    def test_nested_empty_containers(self):
        doc = {"a": {}, "b": [], "c": [{}, [], ()], "d": {"e": {"f": []}}}
        assert render(doc) == oracle(doc)

    @pytest.mark.parametrize("doc", [object(), np.int64(3), {"a": [object()]},
                                     [{"a": 1, 2: "b"}]])
    def test_other_types_raise(self, doc):
        with pytest.raises(TypeError):
            render(doc)


class _Slot:
    """Where a shared list goes in a drawn skeleton."""

    def __init__(self, k):
        self.k = k


_skeletons = st.recursive(_leaves | st.sampled_from([0, 1]).map(_Slot), _nest, max_leaves=20)


@st.composite
def _shared_trees(draw):
    """Trees holding the same two list objects at several depths: ``a``
    (possibly empty) and ``b``, which holds ``a`` itself."""
    a = draw(st.lists(_trees, max_size=3))
    b = draw(st.lists(_trees, max_size=3))
    b.insert(draw(st.integers(0, len(b))), a)
    skeleton = draw(_skeletons)

    def fill(node):
        if isinstance(node, _Slot):
            return (a, b)[node.k]
        if isinstance(node, list):
            return [fill(v) for v in node]
        if isinstance(node, dict):
            return {k: fill(v) for k, v in node.items()}
        return node

    return [a, {"b": b, "deeper": {"a": a, "b": [b, a]}}, b, fill(skeleton)]


class TestRenderSharedLists:
    @settings(max_examples=200, deadline=None)
    @given(doc=_shared_trees())
    def test_matches_json_dumps(self, doc):
        assert render(doc) == oracle(doc)

    @pytest.mark.parametrize("strategy", [_trees, _skeletons], ids=["trees", "skeletons"])
    def test_strategies_draw_nested_trees(self, strategy):
        def depth(node):
            if isinstance(node, dict):
                node = list(node.values())
            return 1 + max(map(depth, node), default=0) if isinstance(node, (list, tuple)) else 0

        nested = find(strategy, lambda tree: depth(tree) >= 3, settings=settings(database=None))
        assert depth(nested) >= 3

    def test_run_trace(self):
        cls = [[entry({f"a{j}": "1"}) for j in range(4)], [entry({f"b{j}": "1"}) for j in range(4)],
               [entry({"c": "1"}, mult=3), entry({"d": "1"})]]
        trace = run_algorithm(parse_document({"mode": "multiplicative", "classes": cls}).vector)
        doc = trace.to_json()
        assert len(doc["steps"]) >= 3
        assert all(s["output"] is t["input"] for s, t in zip(doc["steps"], doc["steps"][1:]))
        assert doc["steps"][-1]["output"] is doc["final"]
        assert render(doc) == oracle(doc)


@dataclasses.dataclass
class _Point:
    x: int = 1


def _values(node):
    """Every value in a JSON tree, containers included."""
    yield node
    children = (node.values() if isinstance(node, dict)
                else node if isinstance(node, (list, tuple)) else ())
    for v in children:
        yield from _values(v)


_SHARED = ["a", 1, [2]]


class TestRenderExact:
    """``render(doc, exact=True)`` on trees without floats: orjson writes
    them, ``json.dumps`` whatever orjson refuses."""

    @settings(max_examples=400, deadline=None)
    @given(doc=_trees_of(_exact_leaves))
    def test_matches_json_dumps(self, doc):
        assert render(doc, exact=True) == oracle(doc)

    @pytest.mark.parametrize("doc", [
        2**64 - 1, 2**64, -2**63, -2**63 - 1, 10**40, -10**40, {"a": [1, 2**64, "é"]},
        functools.reduce(lambda inner, _: [inner], range(300), []),
        "\ud800", {"\udfff": "a"}, ["a", {"b": "\ud800"}],
        [_SHARED, {"a": _SHARED, "b": [_SHARED, 2**64]}, _SHARED],
    ])
    def test_what_orjson_refuses_keeps_its_bytes(self, doc):
        assert render(doc, exact=True) == oracle(doc)

    @pytest.mark.parametrize("doc", [np.int64(3), [object()], {"a": _Point()},
                                     datetime.date(2020, 1, 1)])
    def test_other_types_raise(self, doc):
        with pytest.raises(TypeError):
            render(doc, exact=True)

    @pytest.mark.parametrize("verb, doc", valid_documents() + [
        ("transform", {"mode": "multiplicative",
                       "classes": [[entry({f"a{i}": "1"}, mult=2)] for i in range(3)]}),
        ("run", {"mode": "multiplicative",
                 "classes": [[entry({}, const=c) for c in cls]
                             for cls in (["3/4", "0"], ["1/2", "1/4"], ["0", "1/3"])]}),
        ("higgs", {"mode": "circle",
                   "classes": [[entry({}, const="1/4"), entry({}, const="3/4")]] * 4}),
    ])
    def test_exact_answers_hold_no_float(self, monkeypatch, verb, doc):
        """The CLI promises ``exact`` for every verb but verify, and every
        verb's answer keys its dicts by str only."""
        seen = []

        def spy(tree, exact=False):
            seen.append((tree, exact))
            return render(tree, exact=exact)

        monkeypatch.setattr(cli, "render", spy)
        code, _, err = call_main(verb, doc)
        assert code in (0, 2), err
        [(tree, exact)] = seen
        assert exact == (verb != "verify")
        assert not exact or not any(isinstance(v, float) for v in _values(tree))
        assert all(isinstance(k, str) for v in _values(tree) if isinstance(v, dict) for k in v)


# -- what a verb imports -------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"

# runs the CLI in process, then prints the loaded module names
_PROBE = """
import json, sys
import midconv.cli
code = midconv.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def modules_after(tmp_path, verb, doc):
    """Exit code and the names in ``sys.modules`` of a fresh interpreter
    that ran one verb on ``doc``."""
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(doc), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))])}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, verb, "--input", str(inp),
         "--output", str(tmp_path / "out.json")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["code"], set(result["modules"])


class TestImportHygiene:
    @pytest.mark.parametrize("verb, doc", [
        ("run", run_document()),
        ("classify", valid_documents()[3][1]),
        ("higgs", valid_documents()[4][1]),
        ("defect", referee_document()),
        ("transform", referee_document()),
    ])
    def test_symbolic_verbs_leave_out_numpy_and_scipy(self, tmp_path, verb, doc):
        code, modules = modules_after(tmp_path, verb, doc)
        assert code in (0, 2)
        assert not {m.split(".")[0] for m in modules} & {"numpy", "scipy"}

    def test_verify_loads_numpy_but_not_scipy_or_orjson(self, tmp_path):
        doc = {"generate": {"rank": 2, "points": 3, "seed": 5}}
        code, modules = modules_after(tmp_path, "verify", doc)
        assert code == 0
        assert "numpy" in modules
        assert not {m.split(".")[0] for m in modules} & {"scipy", "orjson"}

    def test_lazy_names_are_the_homology_objects(self):
        import midconv
        from midconv import homology, verify_instance
        assert midconv.verify_instance is homology.verify_instance
        assert verify_instance is homology.verify_instance
        for name in midconv.__all__:
            assert getattr(midconv, name) is not None
        with pytest.raises(AttributeError):
            midconv.no_such_name

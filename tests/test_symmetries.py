"""Metamorphic relations from the transform's symmetries, through the CLI.

Katz's transform acts point by point: the twist aimed at a vector is one
choice per point, its t is a product over the points, and the defect is a
sum over them.  So rotating the points rotates every answer, an
order-preserving renaming of the generators renames every answer, the
verbs that report the vector's defect agree, a rank-one twist of the
vector twists every vector of a run, every vector of a run has the same
expected moduli dimension, and a constructed Higgs bundle's degrees sum
to the defect.  These relations come from
the paper's symmetries rather than from a second transcription of the
formula, so a slip that a transcription repeats still breaks one of them.
"""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from midconv import EigDivisor, GroupElement, GroupMode, MonodromyVector, ScalarExpr, kappa
from midconv.cli import main
from midconv.docio import parse_document
from midconv.errors import ConventionViolation
from midconv.katz import Convoluter, max_mult_convoluter

CONSTS = ("0", "1/2", "1/3", "2/3", "1/4")
GENERATORS = ("g1", "g2", "g3")
# an order-preserving renaming onto the first fresh names of a transform,
# which must then pick others
RENAMED = {g: "_s" + g[1:] for g in GENERATORS}


def call(verb, doc, *flags):
    """``main`` on ``doc`` through stdin: (exit code, parsed answer or None)."""
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([verb, *flags])
    finally:
        sys.stdin = saved
    return code, (json.loads(out.getvalue()) if out.getvalue() else None)


def tied_partition(rng, r):
    """A partition of r whose largest part is tied when it can be."""
    top = rng.randint((r + 2) // 3, max(1, r - 1))
    parts = [top, top][: r // top]
    while sum(parts) < r:
        parts.append(rng.randint(1, min(top, r - sum(parts))))
    return parts


def value(rng, mode):
    names = rng.sample(GENERATORS, rng.choice((0, 0, 1, 2)))
    exps = {g: rng.choice(("1", "-1", "2")) for g in names}
    const = rng.choice(CONSTS) if mode == "multiplicative" else rng.choice(CONSTS + ("-1", "3/2"))
    return {"const": const, "exps": exps}


def documents(mode, count=40, seed=1):
    """Seeded documents of 3 to 5 points and rank 2 to 7, mostly with
    tied largest multiplicities, each holding the generator g1."""
    rng = random.Random(f"{mode}:{seed}")
    docs = []
    for _ in range(count):
        n, r = rng.choice((3, 3, 4, 5)), rng.randint(2, 7)
        classes = []
        for _ in range(n):
            values = {}
            parts = tied_partition(rng, r)
            while len(values) < len(parts):
                v = value(rng, mode)
                values[json.dumps(v, sort_keys=True)] = v
            classes.append([{"value": v, "mult": m} for v, m in zip(values.values(), parts)])
        classes[0][0]["value"]["exps"]["g1"] = "1"
        docs.append({"mode": mode, "classes": classes})
    return docs


CASES = [(mode, doc) for mode in ("multiplicative", "additive") for doc in documents(mode)]
IDS = [f"{mode}-{i}" for i, (mode, _) in enumerate(CASES)]


def rot(seq, k):
    return seq[k:] + seq[:k]


def relabel(entries, k, n):
    """Entries naming a point, renamed for points rotated by k and sorted by
    their new point: the first one is the first point in the new order."""
    return sorted(({**e, "point": (e["point"] - k) % n} for e in entries),
                  key=lambda e: e["point"])


def rotated(verb, answer, k, n, witnesses=()):
    """The answer expected once the points are rotated by k; ``witnesses``
    are the noneffective points of a run's final vector."""
    def vector(vec):
        return {**vec, "classes": rot(vec["classes"], k)}

    def twist(tw):
        return {"h": rot(tw["h"], k), "v": rot(tw["v"], k)}

    def conventions(report):
        return {**report, "chirhobeta_violations": relabel(report["chirhobeta_violations"], k, n)}

    out = dict(answer)
    if verb == "defect":
        out["convoluter"] = twist(answer["convoluter"])
    elif verb == "classify":
        report = answer["report"]
        out["report"] = {**report, "class_dims": rot(report["class_dims"], k),
                         "superdefects": rot(report["superdefects"], k)}
    elif verb == "transform":
        if answer["status"] == "ok":
            out["output"] = vector(answer["output"])
        elif answer["status"] == "EmptyNoneffective":
            points = relabel(answer["report"]["noneffective"], k, n)
            out["report"], out["certificate"] = {"noneffective": points}, points[0]
        else:
            out["report"] = conventions(answer["report"])
    else:
        out["steps"] = [{**s, "input": vector(s["input"]), "output": vector(s["output"]),
                         "convoluter": twist(s["convoluter"])} for s in answer["steps"]]
        out["final"] = vector(answer["final"])
        if "convention_report" in answer:
            out["convention_report"] = conventions(answer["convention_report"])
        if "certificate" in answer:
            out["certificate"] = relabel(witnesses, k, n)[0]
    return out


def renamed(node, names):
    """``node`` with every generator renamed by ``names`` at once."""
    if isinstance(node, list):
        return [renamed(v, names) for v in node]
    if not isinstance(node, dict):
        return node
    return {k: ({names.get(g, g): c for g, c in v.items()} if k == "exps"
                else renamed(v, names)) for k, v in node.items()}


@pytest.mark.parametrize("mode, doc", CASES, ids=IDS)
def test_rotating_the_points_rotates_the_answers(mode, doc):
    n = len(doc["classes"])
    answers = {verb: call(verb, doc) for verb in ("transform", "defect", "classify", "run")}
    code, run = answers["run"]
    witnesses = ()
    if run["status"] == "EmptyNoneffective":
        # the run's last twist is transform's default one on its final vector
        final = call("transform", {"mode": mode, "classes": run["final"]["classes"]})[1]
        witnesses = final["report"]["noneffective"]
        assert final["certificate"] == run["certificate"]
    for k in range(1, n):
        turned = {**doc, "classes": rot(doc["classes"], k)}
        for verb, (code, answer) in answers.items():
            assert call(verb, turned) == (code, rotated(verb, answer, k, n, witnesses)), (verb, k)


@pytest.mark.parametrize("mode, doc", CASES, ids=IDS)
def test_renaming_the_generators_renames_the_answers(mode, doc):
    """g_k becomes _s_k, so fresh v must avoid the names it picked before:
    its _s_j become __s_j."""
    fresh = {f"_s{j}": f"__s{j}" for j in range(1, len(doc["classes"]))}
    other = renamed(doc, RENAMED)
    for verb, flags in (("transform", ()), ("defect", ()), ("classify", ()), ("run", ()),
                        ("transform", ("--beta-v", "fresh")), ("defect", ("--beta-v", "fresh"))):
        code, answer = call(verb, doc, *flags)
        assert call(verb, other, *flags) == (code, renamed(answer, {**RENAMED, **fresh})), \
            (verb, flags)


@st.composite
def partitions(draw, r):
    """A partition of r whose largest part is tied or not, as drawn."""
    tied = draw(st.booleans())
    top = draw(st.integers(1, r // 2) if tied else st.integers(2, r))
    parts = [top, top] if tied else [top]
    while sum(parts) < r:
        parts.append(draw(st.integers(1, min(top - (not tied), r - sum(parts)))))
    return parts


@st.composite
def drawn_documents(draw):
    """Documents as ``documents`` builds them, drawn: 3 to 5 points, rank 2
    to 7, each class's largest multiplicity tied or not, and the generator
    g1 in the first value."""
    mode = draw(st.sampled_from(("multiplicative", "additive")))
    consts = CONSTS if mode == "multiplicative" else CONSTS + ("-1", "3/2")
    # a constant value half the time, so that eigenvalues meet
    exps = st.just({}) | st.dictionaries(st.sampled_from(GENERATORS),
                                         st.sampled_from(("1", "-1", "2")), max_size=2)
    values = st.builds(lambda const, exps: {"const": const, "exps": dict(exps)},
                       st.sampled_from(consts), exps)
    n, r = draw(st.integers(3, 5)), draw(st.integers(2, 7))
    classes = []
    for _ in range(n):
        parts = draw(partitions(r))
        drawn = draw(st.lists(values, min_size=len(parts), max_size=len(parts),
                              unique_by=lambda v: json.dumps(v, sort_keys=True)))
        classes.append([{"value": v, "mult": m} for v, m in zip(drawn, parts)])
    classes[0][0]["value"]["exps"]["g1"] = "1"
    return {"mode": mode, "classes": classes}


@settings(max_examples=80, deadline=None)
@given(doc=drawn_documents())
def test_rotating_the_points_of_drawn_documents(doc):
    test_rotating_the_points_rotates_the_answers(doc["mode"], doc)


@settings(max_examples=80, deadline=None)
@given(doc=drawn_documents())
def test_renaming_the_generators_of_drawn_documents(doc):
    test_renaming_the_generators_renames_the_answers(doc["mode"], doc)


@pytest.mark.parametrize("mode, doc", CASES, ids=IDS)
def test_the_verbs_agree_on_the_vector_defect(mode, doc):
    _, defect = call("defect", doc)
    _, classify = call("classify", doc)
    _, run = call("run", doc)
    assert defect["vector_defect"] == classify["report"]["defect"]
    if run["steps"]:
        assert run["steps"][0]["defect"] == defect["vector_defect"]


def test_the_documents_reach_every_answer():
    """The relations above meet each kind of answer they rotate."""
    statuses = {(verb, call(verb, doc)[1]["status"]) for _, doc in CASES
                for verb in ("transform", "run")}
    assert statuses >= {("transform", "ok"), ("transform", "EmptyNoneffective"),
                        ("transform", "ConventionFailure"), ("run", "AllDiagonal"),
                        ("run", "EmptyNoneffective"), ("run", "ConventionFailure")}, statuses
    assert any(call("run", doc)[1]["steps"] for _, doc in CASES)


# -- the rank-one twist ---------------------------------------------------------
#
# Adding c_i to every value at point i, with sum(c) an integer (0 in additive
# mode), is a twist by a rank-one system: h_i becomes h_i c_i^-1 and t stays.
# So each kept a u_i becomes a u_i c_i^-1 and each [v_i] becomes [v_i c_i^-1],
# and a run's vector after step k is twisted by c^((-1)^k).  With a tie, the
# loop aims at the smallest tied eigenvalue; where the twist keeps the smallest
# tied value smallest at every aimed point, the whole answer is twisted too.
# Otherwise the loop aims at another tied eigenvalue, of the same multiplicity
# but with another t: the ranks and defects are unchanged up to the first
# convention failure of either run, and so is the status when neither fails
# (the fixed cases below meet no such failure).  On the
# library's ``kappa`` with the twist moved by hand, c need not close up:
# t then moves by lam = prod(c), and so does each kept a u_i.

def twist_value(value, ci, sign, mode):
    """``value`` + sign * ci, the constant reduced mod 1 in multiplicative mode."""
    const = Fraction(value["const"]) + sign * ci[0]
    exps = {g: Fraction(x) for g, x in value["exps"].items()}
    for g, x in ci[1].items():
        exps[g] = exps.get(g, 0) + sign * x
    return {"const": str(const % 1 if mode == "multiplicative" else const),
            "exps": {g: str(x) for g, x in exps.items() if x}}


def order_key(value, mode):
    """The eigenvalue order of the loop's ties and of the answer's classes:
    the constant (mod 1 in multiplicative mode), then the name-sorted terms."""
    const = Fraction(value["const"])
    return (const % 1 if mode == "multiplicative" else const,
            tuple(sorted((g, Fraction(x)) for g, x in value["exps"].items() if Fraction(x))))


def twist_classes(classes, c, sign, mode):
    return [sorted(({**e, "value": twist_value(e["value"], ci, sign, mode)} for e in cls),
                   key=lambda e: order_key(e["value"], mode)) for cls, ci in zip(classes, c)]


def keeps(classes, c, sign, mode, pick=min):
    """Whether the twist keeps the ``pick`` (the smallest, or with max the
    largest) of each point's tied largest multiplicities where it was."""
    for cls, ci in zip(classes, c):
        top = max(e["mult"] for e in cls)
        tied = [e["value"] for e in cls if e["mult"] == top]
        chosen = pick(tied, key=lambda v: order_key(v, mode))
        moved = [order_key(twist_value(v, ci, sign, mode), mode) for v in tied]
        if pick(moved) != order_key(twist_value(chosen, ci, sign, mode), mode):
            return False
    return True


def aimed_stages(answer):
    """The vectors a run aimed a twist at: each step's input, and the final
    vector of a convention failure."""
    stages = [s["input"] for s in answer["steps"]]
    return stages + [answer["final"]] if answer["status"] == "ConventionFailure" else stages


def twisted_run(answer, c, mode):
    """``run``'s answer twisted by c, or None when a tie is not kept."""
    steps = answer["steps"]
    if not all(keeps(v["classes"], c, (-1) ** k, mode) for k, v in enumerate(aimed_stages(answer))):
        return None

    def vector(vec, k):
        return {**vec, "classes": twist_classes(vec["classes"], c, (-1) ** k, mode)}

    out = {**answer, "final": vector(answer["final"], len(steps)), "steps": [
        {**s, "input": vector(s["input"], k), "output": vector(s["output"], k + 1),
         "convoluter": {key: [twist_value(x, ci, (-1) ** (k + 1), mode)
                              for x, ci in zip(s["convoluter"][key], c)] for key in ("h", "v")}}
        for k, s in enumerate(steps)]}
    if "convention_report" in answer:
        report = answer["convention_report"]
        out["convention_report"] = {**report, "chirhobeta_violations": [
            {**w, "eigenvalue": twist_value(w["eigenvalue"], c[w["point"]], (-1) ** len(steps), mode)}
            for w in report["chirhobeta_violations"]]}
    return out


def rank_one_twist(rng, n, mode, total):
    """c_1 .. c_n as (constant, {generator: coefficient}): the constants sum to
    ``total``, and each generator's coefficients to 0."""
    consts = [Fraction(rng.choice(("0", "1/2", "1/3", "-1/4", "1/5"))) for _ in range(n - 1)]
    consts.append(total - sum(consts))
    exps = [{} for _ in range(n)]
    for g in rng.sample(GENERATORS, rng.randint(0, 2)):
        i, j = rng.sample(range(n), 2)
        x = Fraction(rng.choice((1, -1, 2)))
        exps[i][g], exps[j][g] = x, -x
    return list(zip(consts, exps))


def untied_documents(mode, count=24, seed=3):
    """Documents whose largest multiplicities are not tied, with a negative
    defect d and every m_i + d >= 0, so that runs step with no tie at their
    first input."""
    rng = random.Random(f"untied:{mode}:{seed}")
    docs = []
    while len(docs) < count:
        n, r = rng.choice((3, 3, 4)), rng.randint(3, 8)
        tops = [rng.randint(2, r) for _ in range(n)]
        d = (n - 2) * r - sum(tops)
        if d >= 0 or min(tops) + d < 0:
            continue
        classes = []
        for top in tops:
            parts = [top]
            while sum(parts) < r:
                parts.append(rng.randint(1, min(top - 1, r - sum(parts))))
            values = {}
            while len(values) < len(parts):
                v = value(rng, mode)
                values[json.dumps(v, sort_keys=True)] = v
            classes.append([{"value": v, "mult": m} for v, m in zip(values.values(), parts)])
        docs.append({"mode": mode, "classes": classes})
    return docs


def twists(doc, mode, count=3):
    """``count`` seeded rank-one twists of ``doc``, sum(c) 0 or 1 in
    multiplicative mode."""
    rng = random.Random(json.dumps(doc, sort_keys=True))
    return [rank_one_twist(rng, len(doc["classes"]), mode,
                           rng.choice((0, 1)) if mode == "multiplicative" else 0)
            for _ in range(count)]


TWIST_CASES = [(mode, doc) for mode in ("multiplicative", "additive")
               for doc in documents(mode, 20, seed=2) + untied_documents(mode)]


def elements(ci, mode):
    return GroupElement(GroupMode(mode), ScalarExpr(ci[0], ci[1]))


def transform(beta, vector):
    """``kappa``'s answer, or the ConventionViolation it raised."""
    try:
        return kappa(beta, vector)
    except ConventionViolation as exc:
        return exc


@pytest.mark.parametrize("mode, doc", TWIST_CASES,
                         ids=[f"{mode}-{i}" for i, (mode, _) in enumerate(TWIST_CASES)])
def test_a_rank_one_twist_twists_the_run(mode, doc):
    answers = {flags: call("run", doc, *flags) for flags in ((), ("--beta-v", "fresh"))}
    for c in twists(doc, mode):
        other = {**doc, "classes": twist_classes(doc["classes"], c, 1, mode)}
        for flags, (code, answer) in answers.items():
            twisted_code, twisted = call("run", other, *flags)
            assert (twisted_code, twisted["status"], twisted["ranks"]) == (
                code, answer["status"], answer["ranks"]), (c, flags)
            assert [s["defect"] for s in twisted["steps"]] == [s["defect"] for s in answer["steps"]]
            expected = twisted_run(answer, c, mode)
            if expected is not None:
                assert twisted == expected, (c, flags)


@settings(max_examples=80, deadline=None)
@given(doc=drawn_documents(), fresh=st.booleans())
def test_a_rank_one_twist_twists_the_run_of_drawn_documents(doc, fresh):
    """The relation of ``test_a_rank_one_twist_twists_the_run`` on drawn
    documents, under one v policy.  Where a twist does not keep a tie rule's
    choice, the loop aims at another eigenvalue of the same multiplicity,
    and t moves: the runs then agree on their ranks and defects up to the
    first convention failure of either, and on their status too when
    neither fails."""
    mode, flags = doc["mode"], ("--beta-v", "fresh") if fresh else ()
    code, answer = call("run", doc, *flags)
    for c in twists(doc, mode):
        twisted_code, twisted = call(
            "run", {**doc, "classes": twist_classes(doc["classes"], c, 1, mode)}, *flags)
        expected = twisted_run(answer, c, mode)
        if expected is not None:
            assert (twisted_code, twisted) == (code, expected), c
            continue
        defects = [[s["defect"] for s in run["steps"]] for run in (answer, twisted)]
        if "ConventionFailure" in (answer["status"], twisted["status"]):
            k = min(map(len, defects))
            assert (defects[1][:k], twisted["ranks"][:k + 1]) == (defects[0][:k],
                                                                  answer["ranks"][:k + 1]), c
        else:
            assert (twisted_code, twisted["status"], twisted["ranks"], defects[1]) == (
                code, answer["status"], answer["ranks"], defects[0]), c


def test_the_twists_reach_steps_and_pin_the_tie_rule():
    """The twisted runs compared whole include steps with no tie, and a tie
    whose smallest value the twist keeps smallest while it moves the largest:
    there ties broken to the largest would break the relation."""
    seen = set()
    for mode, doc in TWIST_CASES:
        answer = call("run", doc)[1]
        for c in twists(doc, mode):
            if answer["steps"] and twisted_run(answer, c, mode) is not None:
                seen.add("steps")
                seen.update("tie" for k, v in enumerate(aimed_stages(answer))
                            if not keeps(v["classes"], c, (-1) ** k, mode, max))
    assert seen == {"steps", "tie"}, seen


@pytest.mark.parametrize("mode", ["multiplicative", "additive"])
def test_a_rank_one_twist_twists_the_library_transform(mode):
    """``kappa`` on the decoded vector: twisting the vector by c and the twist
    (h, v) by c^-1 moves each [v_i] by c_i^-1 and each kept a u_i by
    lam c_i^-1, lam = prod(c), since t moves by lam (so c need not close up);
    the defect and the emptiness do not move, and with lam = 1 neither do the
    conventions."""
    seen = set()
    for k, (_, doc) in enumerate(case for case in TWIST_CASES if case[0] == mode):
        rng = random.Random(k)
        vector = parse_document(doc).vector
        c = [elements(ci, mode) for ci in rank_one_twist(rng, vector.n, mode, Fraction(k % 3, 7))]
        lam = c[0]
        for ci in c[1:]:
            lam = lam.combine(ci)
        for beta in (max_mult_convoluter(vector), max_mult_convoluter(vector, "fresh")):
            other = MonodromyVector([EigDivisor(g.mode, [(a.combine(ci), m) for a, m in g.entries])
                                     for g, ci in zip(vector, c)])
            moved = Convoluter([x.combine(ci.invert()) for x, ci in zip(beta.h, c)],
                               [x.combine(ci.invert()) for x, ci in zip(beta.v, c)])
            out, twisted = transform(beta, vector), transform(moved, other)
            if isinstance(out, ConventionViolation) or isinstance(twisted, ConventionViolation):
                if lam.is_identity():
                    assert type(twisted) is type(out) and twisted.convention == out.convention
                seen.add("ConventionFailure")
                continue
            if not isinstance(out, MonodromyVector):
                assert twisted == out
                seen.add("noneffective")
                continue
            assert twisted == MonodromyVector([EigDivisor(g.mode, [
                (a.combine(ci.invert()) if a == vi else a.combine(lam).combine(ci.invert()), m)
                for a, m in g.entries]) for g, ci, vi in zip(out, c, beta.v)])
            seen.add("lam" if not lam.is_identity() else "closed")
    assert seen >= {"lam", "closed", "noneffective"}, seen


# -- the moduli dimension and the higgs degrees ------------------------------------
#
# Middle convolution is an isomorphism of moduli spaces where the conventions
# hold, so classify's expected dimension naive_dim = 2 - 2 q(alpha) is the same
# on every vector of a run.  A constructed Higgs bundle's degrees z sum to the
# defect d of its vector, so higgs and defect agree on it.

def circle_documents(count, seed=5):
    """Seeded circle documents of 3 to 5 points and rank 2 to 6: distinct
    multiples of 1/24 at each point, parts at most (n-2) r / n so that the
    defect is mostly positive, and the last point's first weight set so the
    total weight is an integer."""
    rng = random.Random(f"circle:{seed}")
    docs = []
    while len(docs) < count:
        n, r = rng.choice((3, 4, 5)), rng.randint(2, 6)
        cap = (n - 2) * r // n
        if cap < 1:
            continue
        classes, total = [], Fraction(0)
        for i in range(n):
            parts = []
            while sum(parts) < r:
                parts.append(rng.randint(1, min(cap, r - sum(parts))))
            weights = [Fraction(k, 24) for k in rng.sample(range(24), len(parts))]
            if i == n - 1:
                rest = total + sum(w * m for w, m in zip(weights[1:], parts[1:]))
                weights[0] = (-rest / parts[0]) % 1
                if weights[0] in weights[1:]:
                    break
            total += sum(w * m for w, m in zip(weights, parts))
            classes.append([{"value": {"const": str(w)}, "mult": m}
                            for w, m in zip(weights, parts)])
        else:
            docs.append({"mode": "circle", "classes": classes})
    return docs


RUN_CASES = CASES + [(mode, doc) for mode in ("multiplicative", "additive")
                     for doc in untied_documents(mode)]


def run_keeps_the_moduli_dimension(doc, *flags) -> int:
    """Checks classify's naive_dim on every vector of ``doc``'s run against
    the document's own; returns the run's number of steps."""
    _, run = call("run", doc, *flags)
    _, own = call("classify", doc)
    for vec in [s["input"] for s in run["steps"]] + [run["final"]]:
        _, answer = call("classify", vec)
        assert answer["report"]["naive_dim"] == own["report"]["naive_dim"], (doc, vec)
    return len(run["steps"])


@pytest.mark.parametrize("flags", [(), ("--beta-v", "fresh")], ids=["same", "fresh"])
def test_a_run_keeps_the_moduli_dimension(flags):
    steps = sum(run_keeps_the_moduli_dimension(doc, *flags) for _, doc in RUN_CASES)
    assert steps >= 60, steps


@settings(max_examples=80, deadline=None)
@given(doc=drawn_documents(), fresh=st.booleans())
def test_a_run_of_drawn_documents_keeps_the_moduli_dimension(doc, fresh):
    run_keeps_the_moduli_dimension(doc, *(("--beta-v", "fresh") if fresh else ()))


def test_a_constructed_higgs_bundle_has_degrees_summing_to_the_defect():
    built = []
    for doc in circle_documents(120):
        _, answer = call("higgs", doc)
        if answer["status"] == "constructed":
            _, defect = call("defect", doc)
            assert sum(answer["data"]["z"]) == defect["vector_defect"], doc
            built.append(defect["vector_defect"])
    assert len(built) >= 80 and sum(d > 0 for d in built) >= 60, built

"""Metamorphic relations from the transform's symmetries, through the CLI.

Katz's transform acts point by point: the twist aimed at a vector is one
choice per point, its t is a product over the points, and the defect is a
sum over them.  So rotating the points rotates every answer, an
order-preserving renaming of the generators renames every answer, and the
verbs that report the vector's defect agree.  These relations come from
the paper's symmetries rather than from a second transcription of the
formula, so a slip that a transcription repeats still breaks one of them.
"""

import contextlib
import io
import json
import random
import sys

import pytest

from midconv.cli import main

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

"""Seeded document corpora for the three benchmark workloads.

Every corpus is a list of ``Doc`` items: the CLI verb and flags, the
JSON text the program reads, and an ``expect`` record that the checkers
in ``checks.py`` use to judge the answer.  The expectations come from
the generator alone (multiplicity patterns, sizes, twists), never from
the program.

Document *sizes* follow a fixed schedule per workload; the seed draws
everything else (generator names, constants, partitions, weights,
numeric seeds, modes, order), except for two parts of small-docs whose
cost swings widely with the draw: the Higgs searches are one fixed set,
and the transforms' partitions are fixed.  A fixed size schedule keeps the cost of
a corpus nearly the same from seed to seed, so run-to-run spread
reflects the program and the machine rather than the draw.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from checks import pmv_defect, predict_run, superdefect

WORKLOADS = ("reduce-rigid", "verify-numeric", "small-docs")

MODES = ("multiplicative", "additive")
POLICIES = ("same", "fresh")
CONSTS = ("0", "0", "1/2", "1/3", "2/3", "1/4", "3/4")
LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class Doc:
    verb: str
    flags: list
    text: str
    expect: dict
    # the second half of a transform round trip, whose text is built
    # from the answer to this document
    partner: "Doc | None" = None
    argv: list = field(init=False)

    def __post_init__(self):
        self.argv = [self.verb, "--input", "-", "--output", "-", *self.flags]


def _tag(rng: random.Random) -> str:
    return "".join(rng.choice(LETTERS) for _ in range(3))


def _value(rng: random.Random, name: str) -> dict:
    return {"const": rng.choice(CONSTS), "exps": {name: "1"}}


def _symbolic_doc(rng, mode, partitions, tag) -> dict:
    classes = [[{"value": _value(rng, f"{tag}{i}_{j}"), "mult": m}
                for j, m in enumerate(part)]
               for i, part in enumerate(partitions)]
    return {"mode": mode, "points": len(classes), "classes": classes}


def _partition(rng: random.Random, r: int, cap: int | None = None) -> list[int]:
    cap = cap or r
    parts, left = [], r
    while left:
        p = rng.randint(1, min(cap, left))
        parts.append(p)
        left -= p
    return sorted(parts, reverse=True)


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True)


# -- reduce-rigid -------------------------------------------------------------

# 64 rigid hypergeometric documents, ranks 6-24 weighted towards the
# small ones.  The loop grows about as r^3 (r = 24 costs 20x r = 6), so
# a few large ranks already carry a third of the time; more of them
# would leave too few passes in a run for a per-document median.
RIGID_RANKS = {6: 14, 7: 12, 8: 10, 9: 8, 10: 6, 11: 4, 12: 3, 13: 2,
               14: 1, 16: 1, 18: 1, 20: 1, 24: 1}
EARLY_STOPS = 36  # random PMVs, half EmptyNoneffective, half PositiveDefect


def reduce_rigid(rng: random.Random) -> list[Doc]:
    docs = []
    variants = [(m, p) for m in MODES for p in POLICIES]
    for r, count in RIGID_RANKS.items():
        for k in range(count):
            mode, policy = variants[(r + k) % len(variants)]
            pmv = [[r - 1, 1], [1] * r, [1] * r]
            doc = _symbolic_doc(rng, mode, pmv, _tag(rng))
            docs.append(Doc("run", ["--beta-v", policy], _dumps(doc),
                            {"kind": "run", "pmv": pmv, "rigid": True}))
    quota = {"EmptyNoneffective": EARLY_STOPS // 2,
             "PositiveDefect": EARLY_STOPS - EARLY_STOPS // 2}
    while any(quota.values()):
        n, r = rng.randint(3, 5), rng.randint(4, 12)
        pmv = [_partition(rng, r) for _ in range(n)]
        status = predict_run(pmv, r)["status"]
        if quota.get(status, 0) == 0:
            continue
        quota[status] -= 1
        doc = _symbolic_doc(rng, rng.choice(MODES), pmv, _tag(rng))
        docs.append(Doc("run", ["--beta-v", rng.choice(POLICIES)], _dumps(doc),
                        {"kind": "run", "pmv": pmv, "rigid": False}))
    rng.shuffle(docs)
    return docs


# -- verify-numeric -------------------------------------------------------------

# (r, n) shapes with N = n r between 40 and 240; each shape runs under
# all four (aim, v policy) combinations.  The cost grows about as N^2.5
# (N = 240 takes 15x N = 40), so one shape sits at the top of the range.
VERIFY_SHAPES = (
    (14, 3), (16, 3), (18, 3), (20, 3), (26, 3), (30, 3), (34, 3), (44, 3),
    (10, 4), (12, 4), (14, 4), (16, 4), (18, 4), (22, 4), (24, 4), (32, 4), (60, 4),
    (8, 5), (10, 5), (12, 5), (14, 5), (16, 5), (18, 5), (20, 5), (28, 5),
)


def verify_numeric(rng: random.Random) -> list[Doc]:
    docs = []
    for r, n in VERIFY_SHAPES:
        for aim in ("support", "fresh"):
            for policy in POLICIES:
                doc = {"generate": {"rank": r, "points": n, "aim": aim,
                                    "v_policy": policy,
                                    "seed": rng.randrange(2 ** 31)}}
                docs.append(Doc("verify", [], _dumps(doc),
                                {"kind": "verify", "r": r, "n": n, "aim": aim}))
    rng.shuffle(docs)
    return docs


# -- small-docs -----------------------------------------------------------------

HIGGS_RANKS = tuple(range(2, 11))
HIGGS_SEARCH, HIGGS_POSITIVE = 40, 60
TRANSFORM_SHAPES = tuple((r, n) for r in (4, 8, 12, 16, 20, 24, 28, 32, 36, 40)
                         for n in (3, 4, 5, 6, 7))
TRANSFORM_PAIRS = 2 * len(TRANSFORM_SHAPES)
CLASSIFY_DOCS = DEFECT_DOCS = 40


def _cap(r: int, n: int) -> int:
    """Largest multiplicity that keeps the defect of an n-point rank-r
    vector nonnegative at every point alike."""
    return ((n - 2) * r) // n


def _circle_doc(rng: random.Random, r: int, n: int, zero_defect: bool):
    """A criterion-8-style circle-weight vector with integral total
    weight and the requested defect sign, or None for a failed draw."""
    cap = _cap(r, n)
    if zero_defect:
        # defect zero forces the maximal multiplicity cap at every point
        pmv = [[cap] + _partition(rng, r - cap, cap) for _ in range(n)]
        if superdefect(pmv) == 0:
            return None  # a dimension-2 family: the construction does not apply
    else:
        pmv = [_partition(rng, r, cap) for _ in range(n)]
        if pmv_defect(pmv) == 0:
            return None
    denom, total, classes = 24, Fraction(0), []
    for i, part in enumerate(pmv):
        vals = [Fraction(v, denom) for v in rng.sample(range(denom), len(part))]
        entries = list(zip(vals, part))
        if i == n - 1:
            partial = total + sum(a * m for a, m in entries[1:])
            alpha = (-partial / entries[0][1]) % 1
            if any(alpha == a for a, _ in entries[1:]):
                return None
            entries[0] = (alpha, entries[0][1])
        total += sum(a * m for a, m in entries)
        classes.append([{"value": {"const": str(a), "exps": {}}, "mult": m}
                        for a, m in entries])
    return {"mode": "circle", "points": n, "classes": classes}, pmv


# (r, n) where defect zero with positive superdefect exists: n divides
# (n-2) r and the forced cap leaves room for unequal parts.  The search
# is capped at r = 6: from r = 8 on it explores enough arrangements to
# take 0.1-4 s per document, which would swamp the small documents.
SEARCH_SHAPES = tuple((r, n) for r in range(4, 7) for n in (3, 4, 5)
                      if ((n - 2) * r) % n == 0 and _cap(r, n) > 1)
# (r, n) where a positive defect is reachable under the same cap.
POSITIVE_SHAPES = tuple((r, n) for r in HIGGS_RANKS for n in (3, 4, 5)
                        if _cap(r, n) >= 2 or (_cap(r, n) == 1 and n < (n - 2) * r))


def _higgs_docs(rng: random.Random) -> list[Doc]:
    # The searches are one fixed set for every seed: the weights drawn
    # set how far the search goes, and with them the cost of a document
    # varies 15x (2-60 ms at r = 4-6), so 40 seeded searches cost from
    # 0.47 to 0.94 s, a third of the corpus.  The seed places them.
    search = random.Random("small-docs:higgs-search")
    docs = []
    for count, zero, shapes, draw in ((HIGGS_SEARCH, True, SEARCH_SHAPES, search),
                                      (HIGGS_POSITIVE, False, POSITIVE_SHAPES, rng)):
        for k in range(count):
            r, n = shapes[k % len(shapes)]
            drawn = None
            while drawn is None:
                drawn = _circle_doc(draw, r, n, zero)
            doc, pmv = drawn
            docs.append(Doc("higgs", [], _dumps(doc),
                            {"kind": "higgs", "pmv": pmv}))
    return docs


def _neg(expr: dict) -> dict:
    return {"const": str(-Fraction(expr["const"])),
            "exps": {g: str(-Fraction(c)) for g, c in expr["exps"].items()}}


def _add(a: dict, b: dict) -> dict:
    exps = {g: Fraction(c) for g, c in a["exps"].items()}
    for g, c in b["exps"].items():
        exps[g] = exps.get(g, Fraction(0)) + Fraction(c)
    return {"const": str(Fraction(a["const"]) + Fraction(b["const"])),
            "exps": {g: str(c) for g, c in exps.items() if c}}


def fresh_twist_v(h: list[dict]) -> list[dict]:
    """v of the program's fresh-v convoluter (``"v": "fresh"``):
    v_i = h_i + _s_i for i < n, and v_n = h_n - sum of the _s_i."""
    n = len(h)
    s = [{"const": "0", "exps": {f"_s{i}": "1"}} for i in range(1, n)]
    last = {"const": "0", "exps": {f"_s{i}": "-1" for i in range(1, n)}}
    return [_add(hi, si) for hi, si in zip(h, s + [last])]


def partner_doc(forward: dict, answer: dict) -> dict:
    """Transform document for the partner twist, applied to the forward
    answer: h' = v^-1 and v' = h^-1."""
    h = forward["convoluter"]["h"]
    v = fresh_twist_v(h)
    out = answer["output"]
    return {"mode": out["mode"], "points": out["points"],
            "classes": out["classes"],
            "convoluter": {"h": [_neg(e) for e in v], "v": [_neg(e) for e in h]}}


def _transform_pairs(rng: random.Random) -> list[list[Doc]]:
    # The partitions are one fixed set for every seed, as they set the
    # cost of a transform and of its round trip (its output's ranks);
    # the seed draws the values, names, modes and twists.
    shapes = random.Random("small-docs:transform")
    pairs = []
    for k in range(TRANSFORM_PAIRS):
        r, n = TRANSFORM_SHAPES[k % len(TRANSFORM_SHAPES)]
        pmv = [_partition(shapes, r, max(1, r // 3)) for _ in range(n)]
        tag = _tag(rng)
        doc = _symbolic_doc(rng, rng.choice(MODES), pmv, tag)
        doc["convoluter"] = {"h": [_value(rng, f"{tag}h{i}") for i in range(n)],
                             "v": "fresh"}
        back = Doc("transform", [], "", {"kind": "round-trip", "pmv": pmv, "doc": doc})
        fwd = Doc("transform", [], _dumps(doc), {"kind": "transform", "pmv": pmv},
                  partner=back)
        pairs.append([fwd, back])
    return pairs


def _pmv_docs(rng: random.Random, verb: str, count: int) -> list[Doc]:
    """Random symbolic vectors whose points are all genuine singularities
    (at least two eigenvalues), as in the package's dimension-2 census."""
    docs = []
    for _ in range(count):
        n, r = rng.randint(3, 6), rng.randint(2, 12)
        pmv = [_partition(rng, r, r - 1) for _ in range(n)]
        doc = _symbolic_doc(rng, rng.choice(MODES), pmv, _tag(rng))
        docs.append(Doc(verb, [], _dumps(doc), {"kind": verb, "pmv": pmv}))
    return docs


def small_docs(rng: random.Random) -> list[Doc]:
    units = [[d] for d in _higgs_docs(rng)]
    units += _transform_pairs(rng)
    units += [[d] for d in _pmv_docs(rng, "classify", CLASSIFY_DOCS)]
    units += [[d] for d in _pmv_docs(rng, "defect", DEFECT_DOCS)]
    rng.shuffle(units)
    return [doc for unit in units for doc in unit]


def build(workload: str, seed: int) -> list[Doc]:
    rng = random.Random(f"{workload}:{seed}")
    return {"reduce-rigid": reduce_rigid,
            "verify-numeric": verify_numeric,
            "small-docs": small_docs}[workload](rng)


# Tiny documents for the fresh-process set-up launches, one per workload.
SETUP_DOCS = {
    "reduce-rigid": ("run", _dumps(_symbolic_doc(random.Random(0), "multiplicative",
                                                 [[1, 1]] * 3, "set"))),
    "verify-numeric": ("verify", _dumps({"generate": {"rank": 2, "points": 3,
                                                      "seed": 1}})),
    "small-docs": ("classify", _dumps(_symbolic_doc(random.Random(0), "multiplicative",
                                                    [[1, 1, 1]] * 3, "set"))),
}

"""Independent checks of midconv answers.

Each checker judges one CLI answer from the input document and the
multiplicity data the generator recorded; none of them calls into the
package.  The reduction loop is re-derived at the level of
polymultiplicity vectors (PMVs: the per-point multiplicity partitions),
which is all that decides its course when the eigenvalues are generic
symbols.  ``corruptions`` damages a passing answer in ways each checker
must reject, so no check passes vacuously.
"""

from __future__ import annotations

import copy
from collections import Counter
from fractions import Fraction

DEVIATION_TOL = 1e-8


# -- PMV arithmetic -------------------------------------------------------------

def pmv_of(vector: dict) -> list[list[int]]:
    return [sorted((e["mult"] for e in cls), reverse=True)
            for cls in vector["classes"]]


def pmv_defect(pmv) -> int:
    n, r = len(pmv), sum(pmv[0])
    return (n - 2) * r - sum(max(p) for p in pmv)


def class_dims(pmv) -> list[int]:
    r = sum(pmv[0])
    return [r * r - sum(m * m for m in p) for p in pmv]


def naive_dim(pmv) -> int:
    r = sum(pmv[0])
    return sum(class_dims(pmv)) - 2 * r * r + 2


def superdefect(pmv) -> int:
    r = sum(pmv[0])
    return sum(r * max(p) - sum(m * m for m in p) for p in pmv)


def predict_run(pmv, max_steps: int) -> dict:
    """Course of the reduction loop for generic eigenvalues.

    A step aimed at the maximal multiplicities replaces each point's
    largest part m by m + d and keeps the other parts (the new eigenvalue
    never meets a shifted old one under the conventions).
    """
    cur = [sorted(p, reverse=True) for p in pmv]
    ranks, steps = [sum(cur[0])], []
    for _ in range(max_steps + 1):
        if all(len(p) == 1 for p in cur):
            return {"status": "AllDiagonal", "ranks": ranks, "steps": steps}
        d = pmv_defect(cur)
        if d >= 0:
            return {"status": "PositiveDefect", "ranks": ranks, "steps": steps}
        if any(p[0] + d < 0 for p in cur):
            return {"status": "EmptyNoneffective", "ranks": ranks, "steps": steps}
        nxt = [sorted(p[1:] + ([p[0] + d] if p[0] + d else []), reverse=True)
               for p in cur]
        steps.append((cur, d, nxt))
        ranks.append(sum(nxt[0]))
        cur = nxt
    return {"status": "MaxStepsExceeded", "ranks": ranks, "steps": steps}


def _rank(vector: dict) -> int | None:
    """Common degree of the classes, None when they disagree."""
    degrees = {sum(e["mult"] for e in cls) for cls in vector["classes"]}
    return degrees.pop() if len(degrees) == 1 else None


def _canonical_classes(mode: str, classes) -> list:
    def key(value):
        const = Fraction(value["const"])
        if mode != "additive":
            const %= 1
        exps = tuple(sorted((g, Fraction(c)) for g, c in value.get("exps", {}).items()
                            if Fraction(c)))
        return const, exps
    return [sorted((key(e["value"]), e["mult"]) for e in cls) for cls in classes]


# -- checkers: each returns a list of problems, empty when the answer holds --------

def check_run(expect, doc, code, ans) -> list[str]:
    out = []
    r = sum(expect["pmv"][0])
    pred = predict_run(expect["pmv"], r)
    status = ans.get("status")
    if status != pred["status"]:
        out.append(f"status {status}, expected {pred['status']}")
    if ans.get("ranks") != pred["ranks"]:
        out.append(f"ranks {ans.get('ranks')}, expected {pred['ranks']}")
    if expect.get("rigid") and (status != "AllDiagonal"
                                or ans.get("ranks") != list(range(r, 0, -1))):
        out.append("rigid vector did not reduce through ranks r, r-1, ..., 1")
    want_code = 2 if pred["status"] == "EmptyNoneffective" else 0
    if code != want_code:
        out.append(f"exit code {code}, expected {want_code}")
    steps = ans.get("steps", [])
    if len(steps) != len(pred["steps"]):
        return out + [f"{len(steps)} steps, expected {len(pred['steps'])}"]
    chain = [s["input"] for s in steps] + [ans["final"]]
    for k, (step, (pin, d, pout)) in enumerate(zip(steps, pred["steps"])):
        rin, rout = _rank(step["input"]), _rank(step["output"])
        if rin is None or rout is None or rout != rin + step["defect"]:
            out.append(f"step {k}: output rank {rout} != input rank {rin} "
                       f"+ defect {step['defect']}")
        if step["defect"] != d:
            out.append(f"step {k}: defect {step['defect']}, expected {d}")
        if pmv_of(step["input"]) != pin or pmv_of(step["output"]) != pout:
            out.append(f"step {k}: PMV differs from the predicted course")
        if step["output"] != chain[k + 1]:
            out.append(f"step {k}: output is not the next step's input")
    final = ans.get("final", {})
    if status == "AllDiagonal" and any(len(c) != 1 for c in final.get("classes", [])):
        out.append("AllDiagonal but a final class is not scalar")
    if status == "PositiveDefect" and pmv_defect(pmv_of(final)) < 0:
        out.append("PositiveDefect but the final PMV has negative defect")
    if status == "EmptyNoneffective":
        cert = ans.get("certificate") or {}
        if not cert.get("rank_sum", r) < cert.get("rank", 0):
            out.append(f"emptiness certificate fails rank_sum < rank: {cert}")
    return out


def check_verify(expect, doc, code, ans) -> list[str]:
    out = []
    rep = ans.get("report", {})
    r, n = expect["r"], expect["n"]
    # an aimed twist meets one eigenvalue of multiplicity one per point
    middle = (n - 1) * r - (n if expect["aim"] == "support" else 0)
    if code != 0 or rep.get("ok") is not True:
        out.append(f"exit code {code}, ok={rep.get('ok')}")
    deviations = [rep.get("max_deviation", 1.0)] + rep.get("per_point_deviation", [])
    if not all(dev <= DEVIATION_TOL for dev in deviations):
        out.append(f"max_deviation {rep.get('max_deviation')} > {DEVIATION_TOL}")
    if rep.get("raw_dim") != (n - 1) * r:
        out.append(f"raw_dim {rep.get('raw_dim')} != (n-1) r = {(n - 1) * r}")
    if rep.get("middle_dim") != middle:
        out.append(f"middle_dim {rep.get('middle_dim')} != {middle}")
    return out


def check_higgs(expect, doc, code, ans) -> list[str]:
    out = []
    if code != 0 or ans.get("status") != "constructed":
        return [f"exit code {code}, status {ans.get('status')}"]
    data = ans["data"]
    weights = [Fraction(a) for arr in data["arrangements"] for a in arr]
    if sum(data["k"]) + sum(weights) != 0:
        out.append(f"parabolic degree {sum(data['k']) + sum(weights)} != 0")
    if sum(data["z"]) != pmv_defect(expect["pmv"]):
        out.append(f"sum(z) {sum(data['z'])} != defect {pmv_defect(expect['pmv'])}")
    if len(data["arrangements"]) != len(doc["classes"]):
        out.append("one arrangement per point expected")
    for i, (arr, cls) in enumerate(zip(data["arrangements"], doc["classes"])):
        given = Counter({Fraction(e["value"]["const"]): e["mult"] for e in cls})
        if Counter(Fraction(a) for a in arr) != given:
            out.append(f"point {i}: arrangement weights differ from the input")
    if ans.get("verify", {}).get("ok") is not True:
        out.append("program's own verification failed")
    return out


def check_transform(expect, doc, code, ans) -> list[str]:
    pmv = expect["pmv"]
    r, n = sum(pmv[0]), len(pmv)
    d = (n - 2) * r  # a fresh twist meets no eigenvalue
    if code != 0 or ans.get("status") != "ok":
        return [f"exit code {code}, status {ans.get('status')}"]
    out = []
    if ans.get("defect") != d:
        out.append(f"defect {ans.get('defect')}, expected {d}")
    want = [sorted(p + [d], reverse=True) for p in pmv]
    if pmv_of(ans["output"]) != want:
        out.append("output PMV is not the input PMV plus the new eigenvalue")
    return out


def check_round_trip(expect, doc, code, ans) -> list[str]:
    forward = expect["doc"]
    pmv = expect["pmv"]
    d = -(len(pmv) - 2) * sum(pmv[0])
    if code != 0 or ans.get("status") != "ok":
        return [f"exit code {code}, status {ans.get('status')}"]
    out = []
    if ans.get("defect") != d:
        out.append(f"partner defect {ans.get('defect')}, expected {d}")
    mode = forward["mode"]
    if (_canonical_classes(mode, ans["output"]["classes"])
            != _canonical_classes(mode, forward["classes"])):
        out.append("partner round trip did not return the input classes")
    return out


def check_classify(expect, doc, code, ans) -> list[str]:
    pmv = expect["pmv"]
    rep = ans.get("report", {})
    out = [] if code == 0 else [f"exit code {code}"]
    if rep.get("naive_dim") != naive_dim(pmv):
        out.append(f"naive_dim {rep.get('naive_dim')}, expected {naive_dim(pmv)}")
    if rep.get("class_dims") != class_dims(pmv):
        out.append("class dimensions differ")
    if rep.get("defect") != pmv_defect(pmv):
        out.append(f"defect {rep.get('defect')}, expected {pmv_defect(pmv)}")
    return out


def check_defect(expect, doc, code, ans) -> list[str]:
    pmv = expect["pmv"]
    out = [] if code == 0 else [f"exit code {code}"]
    # the default twist aims at a maximal multiplicity at every point
    if ans.get("defect") != pmv_defect(pmv) or ans.get("vector_defect") != pmv_defect(pmv):
        out.append(f"defect {ans.get('defect')}, expected {pmv_defect(pmv)}")
    if (ans.get("rank"), ans.get("points")) != (sum(pmv[0]), len(pmv)):
        out.append("rank or point count differs")
    return out


CHECKERS = {
    "run": check_run,
    "verify": check_verify,
    "higgs": check_higgs,
    "transform": check_transform,
    "round-trip": check_round_trip,
    "classify": check_classify,
    "defect": check_defect,
}


def check(expect, doc, code, ans) -> list[str]:
    try:
        return CHECKERS[expect["kind"]](expect, doc, code, ans)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return [f"malformed answer: {type(exc).__name__}: {exc}"]


# -- self-test corruptions ----------------------------------------------------------

def _bump(node, key):
    node[key] += 1


def _scalar_final(ans):
    """Make every final class scalar, which gives a negative defect."""
    r = sum(e["mult"] for e in ans["final"]["classes"][0])
    for cls in ans["final"]["classes"]:
        cls[1:] = []
        cls[0]["mult"] = r


def _perturb_eigenvalue(ans):
    rep = ans["report"]
    rep["per_point_deviation"][0] = rep["max_deviation"] = 1e-6


def _move_eigenvalue(ans):
    value = ans["output"]["classes"][0][0]["value"]
    value["const"] = str(Fraction(value["const"]) + Fraction(1, 7))


def corruptions(expect, code, ans) -> list[tuple[str, int, dict]]:
    """Damaged copies (label, exit code, answer) of a passing answer."""
    kind, status = expect["kind"], ans.get("status")
    out = []

    def damaged(label, edit, new_code=code):
        bad = copy.deepcopy(ans)
        edit(bad)
        out.append((label, new_code, bad))

    if kind == "run":
        damaged("skipped rank", lambda a: a["ranks"].pop(1 if len(a["ranks"]) > 1 else 0))
        damaged("exit code", lambda a: None, 2 - code)
        if ans["steps"]:
            damaged("rank law", lambda a: _bump(a["steps"][0]["output"]["classes"][0][0], "mult"))
        if status == "EmptyNoneffective":
            damaged("certificate", lambda a: a["certificate"].update(
                rank_sum=a["certificate"]["rank"]))
        if status == "PositiveDefect":
            damaged("final defect", _scalar_final)
    elif kind == "verify":
        damaged("perturbed eigenvalue", _perturb_eigenvalue)
        damaged("raw dimension", lambda a: _bump(a["report"], "raw_dim"))
    elif kind == "higgs":
        damaged("k shifted by one", lambda a: _bump(a["data"]["k"], 0))
        damaged("z shifted by one", lambda a: _bump(a["data"]["z"], 0))
    elif kind == "transform":
        damaged("wrong defect", lambda a: _bump(a, "defect"))
        damaged("wrong multiplicity", lambda a: _bump(a["output"]["classes"][0][0], "mult"))
    elif kind == "round-trip":
        damaged("wrong round trip", _move_eigenvalue)
    elif kind == "classify":
        damaged("naive dimension", lambda a: _bump(a["report"], "naive_dim"))
    elif kind == "defect":
        damaged("defect", lambda a: _bump(a, "defect"))
    return out

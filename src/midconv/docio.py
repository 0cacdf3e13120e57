"""JSON problem documents: parsing, validation, deterministic rendering.

One document format drives every command-line verb.  Rationals travel
as "p/q" strings (never floats); complex numbers appear only in numeric
instance documents, as [re, im] pairs.

A symbolic document is validated once into the exact parts of its values
(``scalars._parts``).  ``transform`` and ``defect`` answer from integer
rows read from them (from the eigenvalue objects past ``MAX_ROW_CELLS``),
``run`` bounds its answer on the parts and reads its own rows, and
``classify``, ``higgs`` and symbolic ``verify`` build the objects.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Optional

from .divisors import EigDivisor, MonodromyVector, check_degrees
from .errors import DocumentError, MidconvError, path_key, shown
from .katz import Convoluter, _Rows, fresh_names, max_mult_convoluter, row_defect
from .scalars import GroupElement, GroupMode, _expr, _parts

__all__ = ["ProblemDocument", "parse_document", "render", "parse_json"]


@dataclass
class ProblemDocument:
    """A parsed problem: the monodromy vector plus optional twisting
    data, numeric assignment and seed.

    ``points`` holds each point's (value, multiplicity) pairs, a value as
    ``scalars._parts``' (c, e, terms); ``h`` is None for the default
    convoluter (v by ``v_policy``), and ``v`` a list, "same-as-h" or
    "fresh".  The rows of ``row_form`` (``transform``, ``defect``) and the
    objects ``vector`` and ``convoluter`` (the other verbs, library
    callers) are built from the parts on first use."""

    mode: GroupMode
    points: list
    h: Optional[list] = None
    v: Any = "same-as-h"
    v_policy: str = "same"
    assignment: dict = field(default_factory=dict)
    seed: int = 0
    max_steps: Optional[int] = None

    @cached_property
    def names(self) -> set[str]:
        """The generators of the classes, of h and of a given v."""
        values = [a for entries in self.points for a, _ in entries] + [*(self.h or ())]
        values += self.v if isinstance(self.v, list) else []
        return {x for _, _, t in values for x, _, _ in t}

    @cached_property
    def fresh(self) -> list[str]:
        """The n - 1 fresh v names under fresh v (none in circle mode)."""
        if self.v_policy != "fresh" or self.mode is GroupMode.CIRCLE:
            return []
        return fresh_names(len(self.points) - 1, self.names)

    @cached_property
    def row_form(self) -> Optional[tuple]:
        """(rows, classes, h, v): ``katz._Rows.read`` of the classes and the
        twist, the document's convoluter or the default one; None when the
        rows would hold more than ``MAX_ROW_CELLS`` integers."""
        v = self.v if isinstance(self.v, list) else []
        values, names = [*(self.h or ()), *v], self.names.union(self.fresh)
        if (sum(map(len, self.points)) + len(values)) * (1 + len(names)) > MAX_ROW_CELLS:
            return None
        rows, classes = _Rows.read(self.mode, self.points, values, names)
        h = None if self.h is None else [*map(rows.row, self.h)]
        if v:
            return rows, classes, h, [*map(rows.row, v)]
        return rows, classes, *rows.twist(classes, self.v_policy, self.fresh, h)

    @cached_property
    def vector(self) -> MonodromyVector:
        return MonodromyVector([EigDivisor(self.mode, [(self._element(a), m) for a, m in entries])
                                for entries in self.points])

    @cached_property
    def convoluter(self) -> Optional[Convoluter]:
        if self.h is None:
            return None
        h = [*map(self._element, self.h)]
        if self.v == "fresh":
            return Convoluter.with_fresh_v(h, self.fresh)
        return Convoluter(h, None if self.v == "same-as-h" else map(self._element, self.v))

    def _element(self, parts: tuple) -> GroupElement:
        return GroupElement(self.mode, _expr(parts))

    def convoluter_or_default(self) -> Convoluter:
        if self.convoluter is not None:
            return self.convoluter
        return max_mult_convoluter(self.vector, v_policy=self.v_policy)


def _fail(message: str, path: str):
    raise DocumentError(message, path)


def integer(value: Any, path: str, minimum: int | None = None) -> int:
    """A non-bool JSON integer, at least ``minimum`` when given."""
    if isinstance(value, bool) or not isinstance(value, int):
        problem = "must be an integer"
    elif minimum is not None and value < minimum:
        problem = f"must be at least {minimum}, got {value}"
    else:
        return value
    _fail(f"'{path.rsplit('.', 1)[-1]}' {problem}", path)  # the key named only on failure


def _finite(value: Any) -> bool:
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and math.isfinite(value))


def complex_array(value: Any, path: str, depth: int = 0):
    """Nested lists, ``depth`` deep, of [re, im] pairs of finite numbers."""
    if depth:
        if not isinstance(value, list):
            _fail("expected a list", path)
        return [complex_array(v, f"{path}[{i}]", depth - 1) for i, v in enumerate(value)]
    if not (isinstance(value, list) and len(value) == 2 and all(map(_finite, value))):
        _fail("expected an [re, im] pair of finite numbers", path)
    return complex(*value)


def parse_tol(doc: dict, default: float) -> float:
    tol = doc.get("tol", default)
    if not (_finite(tol) and 0 < tol < 1):
        _fail(f"'tol' must be a number strictly between 0 and 1, got {shown(tol)}", "$.tol")
    return float(tol)


def parse_generate(doc: dict) -> dict:
    """``homology.generate_instance`` keywords but ``tol`` from a verify document."""
    g = doc["generate"]
    if not isinstance(g, dict):
        _fail("'generate' must be an object", "$.generate")
    for key, choices in (("aim", ("support", "fresh")), ("v_policy", ("same", "fresh"))):
        if g.get(key, choices[0]) not in choices:
            _fail(f"'{key}' must be one of {list(choices)}", f"$.generate.{key}")
    r = integer(g.get("rank"), "$.generate.rank", 1)
    n = integer(g.get("points"), "$.generate.points", 3)
    check_raw_dim(n, r, "$.generate.rank")
    return {"seed": (integer(g["seed"], "$.generate.seed", 0) if "seed" in g
                     else integer(doc.get("seed", 0), "$.seed", 0)),
            "r": r, "n": n, "aim": g.get("aim", "support"), "v_policy": g.get("v_policy", "same")}


# The largest raw dimension (points - 1) * rank that verify builds a numeric
# instance for.  Its factors have points * rank rows and width about rank; on
# one BLAS thread one at the cap takes 0.3-3.6 s and up to 180 MB, rank 500 at
# 3 points the slowest, rank 1 at 1001 points 1.5-1.7 s (bench shapes reach 180)
MAX_RAW_DIM = 1000


# The most weights, points * rank, that a higgs answer lists: its time and size
# follow that count, and at the cap (rank 50,000 at 5 points) it takes 0.5-0.8 s
MAX_HIGGS_WEIGHTS = 250_000


# The most integers, values * (1 + names), in the dense rows that transform and
# defect answer from; past it they answer from the sparse eigenvalue objects.
# Rows cost values * names where objects cost values * terms: with one
# generator per eigenvalue, 3 points of rank 100 (90,601 cells) take 20 ms as
# rows and 6 ms as objects, and rank 1000 (9 million) 1.4-1.7 s and 160 MB
# against 0.14-0.17 s and 25 MB; 101 points of rank 1 under fresh v (61,206)
# take 23 ms and 28 ms, and bench documents reach 5,100
MAX_ROW_CELLS = 1 << 16


# The most terms (a value's constant or one of its generator coefficients) that
# a run answer may need by ``check_run_terms``' bound: at the cap the
# hypergeometric document [[r-1, 1], [1]^r, [1]^r] under fresh v, one generator
# per eigenvalue, answers at r = 86 (bound 7.8 million) in 0.8-0.9 s with a
# 53 MB answer, and r = 87 is past it (bench documents reach 92,000)
MAX_RUN_TERMS = 8_000_000


def check_run_terms(doc: ProblemDocument) -> None:
    """DocumentError at ``$.classes`` when a run of ``doc`` may write more
    than ``MAX_RUN_TERMS`` terms.  Bound, from the parts before anything is
    built: s steps, so s + 1 vectors of at most points * rank entries, each
    value holding a constant, the document's generators and, under fresh v,
    points - 1 new ones per step; s is 0 when the run stops at once (scalar
    classes, or d >= 0), else min(rank, max_steps)."""
    additive, classes, gens = doc.mode is GroupMode.ADDITIVE, [], set()
    for entries in doc.points:  # equal values have equal keys: their parts are in lowest terms
        g = {}
        for (c, e, t), m in entries:
            key = c if additive else c % e, e, frozenset(t)
            g[key] = g.get(key, 0) + m
            gens.update([x for x, _, _ in t])
        classes.append(g)
    n, r = len(classes), sum(classes[0].values())
    steps = 0 if row_defect(classes) >= 0 or all(len(g) == 1 for g in classes) else (
        r if doc.max_steps is None else min(r, doc.max_steps))
    per_value = 1 + len(gens) + ((n - 1) * steps if doc.v_policy == "fresh" else 0)
    if (steps + 1) * n * r * per_value > MAX_RUN_TERMS:
        _fail(f"a run answer may need (steps + 1) * points * rank * terms per value = "
              f"{steps + 1} * {n} * {r} * {per_value} terms, more than {MAX_RUN_TERMS:,}",
              "$.classes")


def check_raw_dim(points: int, rank: int, path: str) -> None:
    """DocumentError at ``path`` when (points - 1) * rank passes ``MAX_RAW_DIM``."""
    if (points - 1) * rank > MAX_RAW_DIM:
        _fail(f"(points - 1) * rank must be at most {MAX_RAW_DIM} for a numeric verify", path)


def parse_document(doc: dict, v_policy: str = "same") -> ProblemDocument:
    """Validate a JSON object into a ProblemDocument; ``v_policy`` ("same"
    or "fresh") is the default convoluter's v.

    Errors are DocumentError with a JSON-path-style position annotation.
    """
    if not isinstance(doc, dict):
        _fail("top level must be an object", "$")
    try:
        mode = GroupMode(doc.get("mode", "multiplicative"))
    except ValueError:
        _fail(f"unknown mode {shown(doc.get('mode'))}", "$.mode")
    classes = doc.get("classes")
    if not isinstance(classes, list) or not classes:
        _fail("'classes' must be a nonempty list of divisor entry lists", "$.classes")
    points = []
    for i, cls in enumerate(classes):
        if not isinstance(cls, list) or not cls:
            _fail("each class must be a nonempty list", f"$.classes[{i}]")
        entries = []
        for j, item in enumerate(cls):
            # each entry is read as a document of its own, rooted at "$":
            # its path in this document is built only when it fails
            try:
                if not isinstance(item, dict) or "value" not in item or "mult" not in item:
                    _fail("entries need 'value' and 'mult'", "$")
                entries.append((_parts(item["value"], "$.value", mode),
                                integer(item["mult"], "$.mult", 1)))
            except DocumentError as exc:
                raise DocumentError(exc.message, f"$.classes[{i}][{j}]{exc.path[1:]}") from None
        points.append(entries)
    if "points" in doc and integer(doc["points"], "$.points") != len(classes):
        _fail(f"'points' is {doc['points']} but {len(classes)} classes given",
              "$.points")
    try:
        check_degrees([sum(m for _, m in entries) for entries in points])
    except ValueError as exc:
        _fail(f"invalid monodromy vector: {exc}", "$.classes")

    h, v = None, "same-as-h"
    conv_doc = doc.get("convoluter")
    if conv_doc is not None:
        if not isinstance(conv_doc, dict) or "h" not in conv_doc:
            _fail("convoluter needs an 'h' list", "$.convoluter")
        h = conv_doc["h"]
        if not isinstance(h, list) or len(h) != len(classes):
            _fail("'h' needs one scalar expression per class", "$.convoluter.h")
        h = [_parts(e, f"$.convoluter.h[{i}]", mode) for i, e in enumerate(h)]
        v = conv_doc.get("v", "same-as-h")
        if isinstance(v, list):
            v = [_parts(e, f"$.convoluter.v[{i}]", mode) for i, e in enumerate(v)]
        elif v not in ("same-as-h", "fresh"):
            _fail("'v' must be a list, 'same-as-h' or 'fresh'", "$.convoluter.v")
        v_policy = "fresh" if v == "fresh" else "same"
        # a given v needs one component per point and t * prod(v) = 1, fresh v
        # needs generators: when one fails, the object convoluter says which
        if isinstance(v, list) and (len(v) != len(h) or not _same_product(mode, h, v)) or (
                v == "fresh" and mode is GroupMode.CIRCLE):
            try:
                ProblemDocument(mode, points, h, v, v_policy).convoluter
            except (ValueError, MidconvError) as exc:
                _fail(f"invalid convoluter: {exc}", "$.convoluter")

    assignment = doc.get("assignment") or {}
    if not isinstance(assignment, dict):
        _fail("'assignment' must be an object", "$.assignment")
    assignment = {name: complex(x) if _finite(x)
                  else complex_array(x, f"$.assignment.{path_key(name)}")
                  for name, x in assignment.items()}

    return ProblemDocument(
        mode, points, h, v, v_policy,
        assignment=assignment,
        seed=integer(doc.get("seed", 0), "$.seed", 0),
        max_steps=integer(doc["max_steps"], "$.max_steps", 0) if "max_steps" in doc else None,
    )


def _same_product(mode: GroupMode, h: list, v: list) -> bool:
    """prod(v) = prod(h), that is t * prod(v) = 1, on ``scalars._parts``."""
    den = math.lcm(*[e for _, e, _ in h + v], *[q for _, _, t in h + v for _, _, q in t])
    total = Counter()
    for sign, (c, e, t) in [(1, a) for a in v] + [(-1, a) for a in h]:
        total[None] += sign * c * (den // e)
        total.update({x: sign * p * (den // q) for x, p, q in t})
    c = total.pop(None)
    return not (c if mode is GroupMode.ADDITIVE else c % den) and not any(total.values())


def parse_json(text: str) -> Any:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, deep nesting
        raise DocumentError(f"not valid JSON: {exc}", "$") from exc


def render(doc: Any, exact: bool = False) -> str:
    """Canonical JSON rendering: sorted keys, fixed indentation, so the
    same (document, seed) always produces byte-identical output.

    The bytes are those of ``json.dumps(doc, sort_keys=True, indent=2,
    ensure_ascii=False) + "\\n"``, and that call writes them unless
    ``exact`` holds: what it cannot encode raises TypeError.  With
    ``exact`` the caller promises that ``doc`` holds no float (orjson
    formats floats otherwise, and writes an Enum or UUID as its value):
    orjson writes the tree in C, and what it refuses (ints past 64 bits,
    non-str keys, lone surrogates, nesting past 255) goes to ``json.dumps``.
    orjson loads on the first ``exact`` call, so verify never pays for it.
    """
    if exact:
        import orjson

        # render's bytes on float-free trees; dataclasses, datetimes and
        # subclasses go to json.dumps
        options = (orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE
                   | orjson.OPT_PASSTHROUGH_DATACLASS | orjson.OPT_PASSTHROUGH_DATETIME
                   | orjson.OPT_PASSTHROUGH_SUBCLASS)
        try:
            return orjson.dumps(doc, option=options).decode()
        except TypeError:  # orjson.JSONEncodeError
            pass
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"

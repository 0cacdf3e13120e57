"""JSON problem documents: parsing, validation, deterministic rendering.

One document format drives every command-line verb.  Rationals travel
as "p/q" strings (never floats); complex numbers appear only in numeric
instance documents, as [re, im] pairs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Optional

from .divisors import EigDivisor, MonodromyVector
from .errors import DocumentError, MidconvError, path_key, shown
from .katz import Convoluter, fresh_names, max_mult_convoluter
from .scalars import GroupElement, GroupMode, ScalarExpr

__all__ = ["ProblemDocument", "parse_document", "render", "parse_json"]


@dataclass
class ProblemDocument:
    """A parsed problem: the monodromy vector plus optional twisting
    data, numeric assignment and seed."""

    vector: MonodromyVector
    convoluter: Optional[Convoluter] = None
    v_policy: str = "same"
    assignment: dict = field(default_factory=dict)
    seed: int = 0
    max_steps: Optional[int] = None

    @property
    def mode(self) -> GroupMode:
        return self.vector.mode

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
# one BLAS thread one at the cap takes 0.5-4.3 s and up to 164 MB from rank 10
# to 500, but 5.5 s at rank 2 and 17 s at rank 1, where the braid factors'
# points^2 word letters dominate (bench shapes reach 180)
MAX_RAW_DIM = 1000


# The most weights, points * rank, that a higgs answer lists: its time and size
# follow that count, and at the cap (rank 50,000 at 5 points) it takes 0.5-0.8 s
MAX_HIGGS_WEIGHTS = 250_000


def check_raw_dim(points: int, rank: int, path: str) -> None:
    """DocumentError at ``path`` when (points - 1) * rank passes ``MAX_RAW_DIM``."""
    if (points - 1) * rank > MAX_RAW_DIM:
        _fail(f"(points - 1) * rank must be at most {MAX_RAW_DIM} for a numeric verify", path)


def _parse_element(mode: GroupMode, doc: Any, path: str) -> GroupElement:
    expr = ScalarExpr.from_json(doc, path)
    try:
        return GroupElement(mode, expr)
    except ValueError as exc:
        _fail(str(exc), path)


def parse_document(doc: dict) -> ProblemDocument:
    """Validate and convert a JSON object into module inputs.

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
    divisors = []
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
                entries.append((_parse_element(mode, item["value"], "$.value"),
                                integer(item["mult"], "$.mult", 1)))
            except DocumentError as exc:
                raise DocumentError(exc.message, f"$.classes[{i}][{j}]{exc.path[1:]}") from None
        divisors.append(EigDivisor(mode, entries))
    if "points" in doc and integer(doc["points"], "$.points") != len(classes):
        _fail(f"'points' is {doc['points']} but {len(classes)} classes given",
              "$.points")
    try:
        vector = MonodromyVector(divisors)
    except (ValueError, MidconvError) as exc:
        _fail(f"invalid monodromy vector: {exc}", "$.classes")

    convoluter = None
    v_policy = "same"
    conv_doc = doc.get("convoluter")
    if conv_doc is not None:
        if not isinstance(conv_doc, dict) or "h" not in conv_doc:
            _fail("convoluter needs an 'h' list", "$.convoluter")
        h = conv_doc["h"]
        if not isinstance(h, list) or len(h) != len(classes):
            _fail("'h' needs one scalar expression per class", "$.convoluter.h")
        h = [_parse_element(mode, e, f"$.convoluter.h[{i}]") for i, e in enumerate(h)]
        v = conv_doc.get("v", "same-as-h")
        if isinstance(v, list):
            v = [_parse_element(mode, e, f"$.convoluter.v[{i}]") for i, e in enumerate(v)]
        elif v not in ("same-as-h", "fresh"):
            _fail("'v' must be a list, 'same-as-h' or 'fresh'", "$.convoluter.v")
        try:
            if v == "fresh":
                taken = {x for e in (*h, *(a for g in vector for a in g.support()))
                         for x in e.expr.generators()}
                names = fresh_names(len(h) - 1, taken)
                convoluter = Convoluter.with_fresh_v(h, names)
                v_policy = "fresh"
            else:
                convoluter = Convoluter(h, None if v == "same-as-h" else v)
        except (ValueError, MidconvError) as exc:
            _fail(f"invalid convoluter: {exc}", "$.convoluter")

    assignment = doc.get("assignment") or {}
    if not isinstance(assignment, dict):
        _fail("'assignment' must be an object", "$.assignment")
    assignment = {name: complex(x) if _finite(x)
                  else complex_array(x, f"$.assignment.{path_key(name)}")
                  for name, x in assignment.items()}

    return ProblemDocument(
        vector=vector,
        convoluter=convoluter,
        v_policy=v_policy,
        assignment=assignment,
        seed=integer(doc.get("seed", 0), "$.seed", 0),
        max_steps=integer(doc["max_steps"], "$.max_steps", 0) if "max_steps" in doc else None,
    )


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

"""JSON problem documents: parsing, validation, deterministic rendering.

One document format drives every command-line verb.  Rationals travel
as "p/q" strings (never floats); complex numbers appear only in numeric
instance documents, as [re, im] pairs.

A symbolic document is validated once into the exact parts of its values
(``scalars._parts``) and read once, with its twist and ``--beta-v``, into
the sparse integer rows that ``ProblemDocument`` holds.  Every verb answers
from that read: ``transform``, ``defect``, ``run`` and symbolic ``verify``
on the rows, ``classify`` on their multiplicities, ``higgs`` on the classes'
circle weights; a given twist is checked on the rows, its failure worded here.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Any, Optional

from .divisors import check_degrees
from .errors import DocumentError, path_key, shown
from .katz import _generators, _Rows, row_defect
from .katz import max_mult_convoluter  # noqa: F401  (unused: bench/spans.py traces it here)
from .scalars import GroupMode, _parts

__all__ = ["ProblemDocument", "parse_document", "render", "parse_json"]


@dataclass
class ProblemDocument:
    """A parsed problem as ``parse_document`` read it: ``rows`` and ``classes``
    (``katz._Rows.read``, classes in ``EigDivisor`` entry order), the
    convoluter's ``h`` in rows (None for the default one), ``v`` in rows or
    the policy "same" (v = h) or "fresh", assignment, seed and max_steps;
    ``row_form`` adds the twist in rows."""

    rows: _Rows
    classes: list
    h: Optional[list]
    v: Any
    assignment: dict
    seed: int
    max_steps: Optional[int]

    @cached_property
    def row_form(self) -> tuple:
        """(rows, classes, h, v): the read with the twist in rows, the
        document's convoluter or the default one."""
        if isinstance(self.v, list):
            return self.rows, self.classes, self.h, self.v
        return self.rows, self.classes, *self.rows.twist(self.classes, self.v, self.h)


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
    """A JSON number that a float holds: an integer is compared exactly, so
    one past the float range is not finite rather than an OverflowError."""
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and abs(value) <= sys.float_info.max)


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
# 3 points the slowest, rank 1 at 1001 points 0.8-1.3 s on a 2-CPU Xeon host
# (bench shapes reach 180)
MAX_RAW_DIM = 1000


# The most weights, points * rank, that a higgs answer lists: its time and size
# follow that count.  At the cap (rank 50,000 at 5 points) a launch on a 2-CPU Xeon
# host takes 0.3-0.4 s with two weights a point, 2.7-2.9 s with all 250,000 distinct
MAX_HIGGS_WEIGHTS = 250_000


def check_higgs_weights(doc: dict) -> None:
    """DocumentError at ``$.classes`` past ``MAX_HIGGS_WEIGHTS``, before any value is
    read: points * rank from the first class's raw mults when each is a valid one."""
    try:
        classes = doc["classes"]
        rank = sum(integer(e["mult"], "$.mult", 1) for e in classes[0])
    except (TypeError, KeyError, IndexError, DocumentError):  # parse_document says what is wrong
        return
    if len(classes) * rank > MAX_HIGGS_WEIGHTS:
        _fail(f"points * rank must be at most {MAX_HIGGS_WEIGHTS} for higgs", "$.classes")


# The most terms (a value's constant or one of its generator coefficients) that
# a run answer may need by ``check_run_terms``' bound: at the cap the
# hypergeometric document [[r-1, 1], [1]^r, [1]^r] under fresh v, one generator
# per eigenvalue, answers at r = 86 (bound 7.8 million) in 0.7-1.0 s on a 2-CPU
# Xeon host with a 53 MB answer, and r = 87 is past it (bench documents reach 92,000)
MAX_RUN_TERMS = 8_000_000


def check_run_terms(doc: ProblemDocument) -> None:
    """DocumentError at ``$.classes`` when a run of ``doc`` may write more
    than ``MAX_RUN_TERMS`` terms.  Bound, on the document's classes before the
    loop: s steps, so s + 1 vectors of at most points * rank entries, each
    value holding a constant, the classes' generators and, under fresh v,
    points - 1 new ones per step; s is 0 when the run stops at once (d >= 0,
    or m_i + d < 0 for a largest multiplicity m_i: scalar classes, or a first
    twist that is empty or fails a convention), else min(rank, max_steps)."""
    classes = doc.classes
    n, r, d = len(classes), sum(classes[0].values()), row_defect(classes)
    stops = d >= 0 or min(max(g.values()) for g in classes) + d < 0
    steps = 0 if stops else r if doc.max_steps is None else min(r, doc.max_steps)
    per_value = 1 + len(_generators(classes)) + ((n - 1) * steps if doc.v == "fresh" else 0)
    if (steps + 1) * n * r * per_value > MAX_RUN_TERMS:
        _fail(f"a run answer may need (steps + 1) * points * rank * terms per value = "
              f"{steps + 1} * {n} * {r} * {per_value} terms, more than {MAX_RUN_TERMS:,}",
              "$.classes")


def check_raw_dim(points: int, rank: int, path: str) -> None:
    """DocumentError at ``path`` when (points - 1) * rank passes ``MAX_RAW_DIM``."""
    if (points - 1) * rank > MAX_RAW_DIM:
        _fail(f"(points - 1) * rank must be at most {MAX_RAW_DIM} for a numeric verify", path)


def parse_document(doc: dict, beta_v: str | None = None) -> ProblemDocument:
    """Validate a JSON object into a ProblemDocument.  ``beta_v`` ("same",
    "fresh" or None), the ``--beta-v`` flag, is the default convoluter's v
    (None for "same") and replaces a given convoluter's v before it is read.

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

    h, v = None, beta_v or "same"
    conv_doc = doc.get("convoluter")
    if conv_doc is not None:
        if not isinstance(conv_doc, dict) or "h" not in conv_doc:
            _fail("convoluter needs an 'h' list", "$.convoluter")
        h = conv_doc["h"]
        if not isinstance(h, list) or len(h) != len(classes):
            _fail("'h' needs one scalar expression per class", "$.convoluter.h")
        h = [_parts(e, f"$.convoluter.h[{i}]", mode) for i, e in enumerate(h)]
        v = conv_doc.get("v", "same-as-h") if beta_v is None else beta_v
        if isinstance(v, list):
            v = [_parts(e, f"$.convoluter.v[{i}]", mode) for i, e in enumerate(v)]
        elif beta_v is None and v not in ("same-as-h", "fresh"):
            _fail("'v' must be a list, 'same-as-h' or 'fresh'", "$.convoluter.v")
        v = "same" if v == "same-as-h" else v

    # the one read of the parts that every verb answers from
    rows, read = _Rows.read(mode, points, [*(h or ()), *(v if isinstance(v, list) else ())])
    h = h and [*map(rows.row, h)]
    v = [*map(rows.row, v)] if isinstance(v, list) else v
    # a given v needs one component per point and t * prod(v) = 1; fresh v needs
    # generators, which circle mode has not
    if isinstance(v, list) and len(v) != len(h):
        _fail(f"invalid convoluter: h has {len(h)} components but v has {len(v)}", "$.convoluter")
    if isinstance(v, list) and reduce(rows.plus, [*v, *map(rows.plus, h)]) != (0, ()):
        _fail("invalid convoluter: v violates the product relation t * prod(v) = 1", "$.convoluter")
    if h is not None and v == "fresh" and mode is GroupMode.CIRCLE:
        _fail("invalid convoluter: fresh generators need multiplicative or additive mode",
              "$.convoluter")

    assignment = doc.get("assignment") or {}
    if not isinstance(assignment, dict):
        _fail("'assignment' must be an object", "$.assignment")
    assignment = {name: complex(x) if _finite(x)
                  else complex_array(x, f"$.assignment.{path_key(name)}")
                  for name, x in assignment.items()}
    max_steps = integer(doc["max_steps"], "$.max_steps", 0) if "max_steps" in doc else None
    return ProblemDocument(rows, read, h, v, assignment, integer(doc.get("seed", 0), "$.seed", 0),
                           max_steps)


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

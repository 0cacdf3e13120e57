"""JSON problem documents: parsing, validation, deterministic rendering.

One document format drives every command-line verb.  Rationals travel
as "p/q" strings (never floats); complex numbers appear only in numeric
instance documents, as [re, im] pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from .divisors import EigDivisor, MonodromyVector
from .errors import DocumentError, MidconvError
from .katz import Convoluter, max_mult_convoluter
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


def _parse_expr(doc: Any, path: str) -> ScalarExpr:
    if not isinstance(doc, dict):
        _fail(f"expected an object with 'const'/'exps', got {type(doc).__name__}", path)
    try:
        return ScalarExpr.from_json(doc)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        _fail(f"bad scalar expression: {exc}", path)


def _parse_element(mode: GroupMode, doc: Any, path: str) -> GroupElement:
    expr = _parse_expr(doc, path)
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
        _fail(f"unknown mode {doc.get('mode')!r}", "$.mode")
    classes = doc.get("classes")
    if not isinstance(classes, list) or not classes:
        _fail("'classes' must be a nonempty list of divisor entry lists", "$.classes")
    divisors = []
    for i, cls in enumerate(classes):
        if not isinstance(cls, list) or not cls:
            _fail("each class must be a nonempty list", f"$.classes[{i}]")
        entries = []
        for j, item in enumerate(cls):
            if not isinstance(item, dict) or "value" not in item or "mult" not in item:
                _fail("entries need 'value' and 'mult'", f"$.classes[{i}][{j}]")
            elem = _parse_element(mode, item["value"], f"$.classes[{i}][{j}].value")
            mult = item["mult"]
            if not isinstance(mult, int):
                _fail("'mult' must be an integer", f"$.classes[{i}][{j}].mult")
            entries.append((elem, mult))
        divisors.append(EigDivisor(mode, entries))
    if "points" in doc and doc["points"] != len(classes):
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
        h = [_parse_element(mode, e, f"$.convoluter.h[{i}]")
             for i, e in enumerate(conv_doc["h"])]
        v_spec = conv_doc.get("v", "same-as-h")
        try:
            if v_spec == "same-as-h":
                convoluter = Convoluter(h)
            elif v_spec == "fresh":
                names = [f"_s{i}" for i in range(1, len(h))]
                convoluter = Convoluter.with_fresh_v(h, names)
                v_policy = "fresh"
            elif isinstance(v_spec, list):
                v = [_parse_element(mode, e, f"$.convoluter.v[{i}]")
                     for i, e in enumerate(v_spec)]
                convoluter = Convoluter(h, v)
            else:
                _fail("'v' must be a list, 'same-as-h' or 'fresh'", "$.convoluter.v")
        except DocumentError:
            raise
        except (ValueError, MidconvError) as exc:
            _fail(f"invalid convoluter: {exc}", "$.convoluter")

    assignment = {}
    for name, value in (doc.get("assignment") or {}).items():
        if isinstance(value, (int, float)):
            assignment[name] = complex(value)
        elif (isinstance(value, list) and len(value) == 2
              and all(isinstance(x, (int, float)) for x in value)):
            assignment[name] = complex(value[0], value[1])
        else:
            _fail("assignment values are numbers or [re, im] pairs",
                  f"$.assignment.{name}")

    return ProblemDocument(
        vector=vector,
        convoluter=convoluter,
        v_policy=v_policy,
        assignment=assignment,
        seed=int(doc.get("seed", 0)),
        max_steps=doc.get("max_steps"),
    )


def parse_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc


def render(doc: Any) -> str:
    """Canonical JSON rendering: sorted keys, fixed indentation, so the
    same (document, seed) always produces byte-identical output."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"

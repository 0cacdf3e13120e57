"""Exact arithmetic for eigenvalues of semisimple local monodromy.

An eigenvalue is modeled as an element of an abelian group built from
rational linear forms ``q0 + sum q_i * gen_i`` over named symbolic
generators.  The generators stand for "sufficiently general" exponents:
they are treated as rationally independent of 1 and of each other, which
makes every identity/integrality test exact and decidable.

Three group modes are supported:

* ``MULTIPLICATIVE`` -- the element represents ``exp(2*pi*i*expr)``; the
  constant term lives mod 1 and the group law is addition of exponents.
* ``ADDITIVE`` -- the element is the linear form itself (residue
  eigenvalues of a logarithmic connection); no mod-1 reduction.
* ``CIRCLE`` -- a constant in [0, 1) with no generators (parabolic
  weights).

Values are immutable; all operations are pure.
"""

from __future__ import annotations

import cmath
import enum
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import MissingGenerator, ModeMismatch

__all__ = ["ScalarExpr", "GroupMode", "GroupElement"]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected a rational, got {type(x).__name__}: {x!r}")


class ScalarExpr:
    """A rational linear form ``const + sum coeff * generator``.

    Kept canonical: zero coefficients are never stored and the generator
    terms are sorted by name, so equality and hashing are structural.
    """

    __slots__ = ("const", "exps")

    def __init__(self, const=0, exps: Mapping[str, object] | Iterable | None = None):
        object.__setattr__(self, "const", _as_fraction(const))
        items = []
        if exps:
            pairs = exps.items() if isinstance(exps, Mapping) else exps
            for name, coeff in pairs:
                coeff = _as_fraction(coeff)
                if coeff != 0:
                    items.append((str(name), coeff))
        items.sort()
        for (a, _), (b, _) in zip(items, items[1:]):
            if a == b:
                raise ValueError(f"duplicate generator {a!r}")
        object.__setattr__(self, "exps", tuple(items))

    def __setattr__(self, name, value):
        raise AttributeError("ScalarExpr is immutable")

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "ScalarExpr") -> "ScalarExpr":
        acc = dict(self.exps)
        for name, coeff in other.exps:
            acc[name] = acc.get(name, Fraction(0)) + coeff
        return ScalarExpr(self.const + other.const, acc)

    def __neg__(self) -> "ScalarExpr":
        return ScalarExpr(-self.const, [(n, -c) for n, c in self.exps])

    def __sub__(self, other: "ScalarExpr") -> "ScalarExpr":
        return self + (-other)

    def scale(self, k) -> "ScalarExpr":
        k = _as_fraction(k)
        return ScalarExpr(self.const * k, [(n, c * k) for n, c in self.exps])

    def mod1(self) -> "ScalarExpr":
        return ScalarExpr(self.const % 1, self.exps)

    # -- queries ---------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return not self.exps

    def coefficient(self, name: str) -> Fraction:
        for n, c in self.exps:
            if n == name:
                return c
        return Fraction(0)

    def generators(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.exps)

    def evaluate(self, assignment: Mapping[str, complex]) -> complex:
        value = complex(self.const)
        for name, coeff in self.exps:
            if name not in assignment:
                raise MissingGenerator(f"no value assigned to generator {name!r}")
            value += float(coeff) * complex(assignment[name])
        return value

    def sort_key(self):
        return (self.const, self.exps)

    # -- protocol --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalarExpr):
            return NotImplemented
        return self.const == other.const and self.exps == other.exps

    def __hash__(self) -> int:
        return hash((self.const, self.exps))

    def __repr__(self) -> str:
        terms = []
        if self.const != 0 or not self.exps:
            terms.append(str(self.const))
        for name, coeff in self.exps:
            if coeff == 1:
                terms.append(f"+ {name}")
            elif coeff == -1:
                terms.append(f"- {name}")
            elif coeff < 0:
                terms.append(f"- {-coeff}*{name}")
            else:
                terms.append(f"+ {coeff}*{name}")
        text = " ".join(terms)
        return text[2:] if text.startswith("+ ") else text

    # -- JSON form: rationals as "p/q" strings, never floats --------------

    def to_json(self) -> dict:
        return {
            "const": str(self.const),
            "exps": {n: str(c) for n, c in self.exps},
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "ScalarExpr":
        return cls(Fraction(str(doc.get("const", "0"))),
                   {n: Fraction(str(c)) for n, c in doc.get("exps", {}).items()})


class GroupMode(enum.Enum):
    MULTIPLICATIVE = "multiplicative"
    ADDITIVE = "additive"
    CIRCLE = "circle"


class GroupElement:
    """A ScalarExpr tagged with a group mode, canonicalized for that mode.

    Elements carry a strict total order (constant first, then the sorted
    generator terms) used for all deterministic tie-breaking.  Only
    elements of the same mode may be compared or combined.
    """

    __slots__ = ("mode", "expr")

    def __init__(self, mode: GroupMode, expr: ScalarExpr):
        if not isinstance(mode, GroupMode):
            raise TypeError(f"expected GroupMode, got {mode!r}")
        if mode is GroupMode.MULTIPLICATIVE:
            expr = expr.mod1()
        elif mode is GroupMode.CIRCLE:
            if expr.exps:
                raise ValueError("circle-mode elements must be constant weights")
            expr = expr.mod1()
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "expr", expr)

    def __setattr__(self, name, value):
        raise AttributeError("GroupElement is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, mode: GroupMode) -> "GroupElement":
        return cls(mode, ScalarExpr(0))

    @classmethod
    def generator(cls, name: str, mode: GroupMode = GroupMode.MULTIPLICATIVE,
                  power=1) -> "GroupElement":
        return cls(mode, ScalarExpr(0, {name: power}))

    @classmethod
    def constant(cls, value, mode: GroupMode) -> "GroupElement":
        return cls(mode, ScalarExpr(value))

    @classmethod
    def circle(cls, value) -> "GroupElement":
        return cls(GroupMode.CIRCLE, ScalarExpr(value))

    # -- group law ---------------------------------------------------------

    def _require_same_mode(self, other: "GroupElement"):
        if not isinstance(other, GroupElement):
            raise TypeError(f"expected GroupElement, got {other!r}")
        if self.mode is not other.mode:
            raise ModeMismatch(f"cannot mix {self.mode.value} and {other.mode.value}")

    def combine(self, other: "GroupElement") -> "GroupElement":
        self._require_same_mode(other)
        return GroupElement(self.mode, self.expr + other.expr)

    def invert(self) -> "GroupElement":
        return GroupElement(self.mode, -self.expr)

    def power(self, k: int) -> "GroupElement":
        return GroupElement(self.mode, self.expr.scale(k))

    def is_identity(self) -> bool:
        return self.expr == ScalarExpr(0)

    def is_integer(self) -> bool:
        """Integrality test for additive-mode elements.

        Symbolic generators are non-integral by the genericity model, so
        an element is an integer iff it has no generator support and an
        integral constant.
        """
        if self.mode is not GroupMode.ADDITIVE:
            raise ModeMismatch("is_integer is defined in additive mode only")
        return self.expr.is_constant and self.expr.const.denominator == 1

    def to_complex(self, assignment: Mapping[str, complex] | None = None) -> complex:
        value = self.expr.evaluate(assignment or {})
        if self.mode is GroupMode.ADDITIVE:
            return value
        return cmath.exp(2j * cmath.pi * value)

    # -- ordering / protocol -------------------------------------------------

    def sort_key(self):
        return self.expr.sort_key()

    def __lt__(self, other: "GroupElement") -> bool:
        self._require_same_mode(other)
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "GroupElement") -> bool:
        self._require_same_mode(other)
        return self.sort_key() <= other.sort_key()

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.mode is other.mode and self.expr == other.expr

    def __hash__(self) -> int:
        return hash((self.mode, self.expr))

    def __repr__(self) -> str:
        return f"{self.mode.value[:4]}({self.expr!r})"

    def to_json(self) -> dict:
        return self.expr.to_json()


def product(elements: Iterable[GroupElement], mode: GroupMode | None = None) -> GroupElement:
    """Fold the group law over ``elements`` (identity for an empty fold)."""
    acc = None
    for e in elements:
        acc = e if acc is None else acc.combine(e)
    if acc is None:
        if mode is None:
            raise ValueError("empty product needs an explicit mode")
        return GroupElement.identity(mode)
    return acc

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
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Mapping

from .errors import (DigitLimitExceeded, DocumentError, MissingGenerator, ModeMismatch,
                     path_key, shown)

__all__ = ["ScalarExpr", "GroupMode", "GroupElement"]


def _as_fraction(x) -> Fraction:
    if not isinstance(x, (Fraction, int, str)):
        raise TypeError(f"expected a rational, got {type(x).__name__}: {x!r}")
    return Fraction(x)


_RATIONAL = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?", re.ASCII)

# Bound of the memos of document and answer texts: a bench pass meets about
# a hundred distinct input texts and at most a few hundred output rationals
_MEMO_SIZE = 1024


def _rational_parts(x) -> tuple[int, int]:
    """A rational in a document, a non-bool int or a "p/q" string with
    q > 0, as its lowest-terms numerator and denominator; ValueError,
    with a message but no path, otherwise (the caller adds the path).
    A string is read through the ``_text_parts`` memo of the last
    ``_MEMO_SIZE`` distinct texts, which holds no failure and no path."""
    if isinstance(x, str):
        return _text_parts(x)
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"expected a \"p/q\" rational string, got {shown(x)}")
    return x, 1


@lru_cache(maxsize=_MEMO_SIZE)
def _text_parts(text: str) -> tuple[int, int]:
    """``_rational_parts`` of a string, memoised on the text: the last
    ``_MEMO_SIZE`` distinct texts read keep their parts.  A rejected text
    raises each time it is met (``lru_cache`` stores no exception), and
    no path is an argument, so the caller's path is never memoised."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"expected a \"p/q\" rational string, got {shown(text)}")
    p, _, q = text.partition("/")
    try:
        p, q = int(p), int(q or 1)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise ValueError(f"rational of {len(text)} characters has too many digits") from None
    g = gcd(p, q)
    return p // g, q // g


@lru_cache(maxsize=_MEMO_SIZE)
def _ratio(x: int, d: int) -> str:
    """``str(Fraction(x, d))`` without building the Fraction.  Every
    output rational is written here, memoised on ``(x, d)`` as
    ``_text_parts`` is on its text: the last ``_MEMO_SIZE`` distinct pairs
    keep their text, and DigitLimitExceeded is raised afresh each time."""
    g = gcd(x, d)
    try:
        return str(x // g) if g == d else f"{x // g}/{d // g}"
    except ValueError:  # past sys.get_int_max_str_digits()
        raise DigitLimitExceeded("an output rational has too many digits to print") from None


class ScalarExpr:
    """A rational linear form ``const + sum coeff * generator``.

    Stored as integer numerators over one denominator ``_d > 0``: the
    constant ``_c`` and the name-sorted ``(generator, numerator)`` terms
    ``_t``, none zero, with ``gcd(_d, _c, *numerators) == 1``.  So each
    form has one representation and equality and hashing compare integer
    tuples.  ``from_json`` reads document text straight into these
    integers; ``const`` and ``exps`` are ``Fraction`` views.  The hash
    is computed once, with the parts, into ``_h``.

    Texts are memoised both ways, each memo bounded to the last
    ``_MEMO_SIZE`` distinct keys: ``from_json`` reads a rational text
    once into its lowest-terms parts (``_text_parts``), and ``to_json``
    writes each (numerator, denominator) pair once (``_ratio``).  Neither
    memo holds a failure or a JSON path.
    """

    __slots__ = ("_d", "_c", "_t", "_h")

    def __init__(self, const=0, exps: Mapping[str, object] | Iterable | None = None):
        const = _as_fraction(const)
        pairs = exps.items() if isinstance(exps, Mapping) else exps or ()
        items = sorted((str(n), q) for n, c in pairs if (q := _as_fraction(c)) != 0)
        for (a, _), (b, _) in zip(items, items[1:]):
            if a == b:
                raise ValueError(f"duplicate generator {a!r}")
        # over the lcm of lowest-terms denominators the numerators have gcd 1
        d = lcm(const.denominator, *(q.denominator for _, q in items))
        self._d = d
        self._c = const.numerator * (d // const.denominator)
        self._t = tuple((n, q.numerator * (d // q.denominator)) for n, q in items)
        self._h = hash((self._c, d, self._t))

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "ScalarExpr") -> "ScalarExpr":
        d, e = self._d, other._d
        m = d if d == e else lcm(d, e)
        a, b = m // d, m // e
        return _normal(m, self._c * a + other._c * b, _merge(self._t, other._t, a, b))

    def __neg__(self) -> "ScalarExpr":
        return _normal(self._d, -self._c, _times(self._t, -1))

    def __sub__(self, other: "ScalarExpr") -> "ScalarExpr":
        return self + (-other)

    def scale(self, k) -> "ScalarExpr":
        k = _as_fraction(k)
        if k == 0:
            return _ZERO
        p = k.numerator
        return _normal(self._d * k.denominator, self._c * p, _times(self._t, p))

    def mod1(self) -> "ScalarExpr":
        # gcd(d, c mod d) == gcd(d, c): the parts stay canonical
        d, c = self._d, self._c
        return self if 0 <= c < d else _normal(d, c % d, self._t)

    # -- queries ---------------------------------------------------------

    @property
    def const(self) -> Fraction:
        return Fraction(self._c, self._d)

    @property
    def exps(self) -> tuple[tuple[str, Fraction], ...]:
        return tuple((n, Fraction(x, self._d)) for n, x in self._t)

    def generators(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self._t)

    def evaluate(self, assignment: Mapping[str, complex]) -> complex:
        d = self._d
        value = complex(self._c / d)  # int division rounds as float(Fraction)
        for name, x in self._t:
            if name not in assignment:
                raise MissingGenerator(f"no value assigned to generator {name!r}")
            value += (x / d) * complex(assignment[name])
        return value

    def sort_key(self) -> "ScalarExpr":
        """The form: ordered as ``(const, exps)``, by cross-multiplication."""
        return self

    def __lt__(self, other: "ScalarExpr") -> bool:
        d, e = self._d, other._d
        if d == e:
            return (self._c, self._t) < (other._c, other._t)
        return (self._c * e, _times(self._t, e)) < (other._c * d, _times(other._t, d))

    # -- protocol --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalarExpr):
            return NotImplemented
        return self._c == other._c and self._d == other._d and self._t == other._t

    def __hash__(self) -> int:
        return self._h

    def __repr__(self) -> str:
        terms = [str(self.const)] if self._c or not self._t else []
        for name, coeff in self.exps:
            sign, size = ("-", -coeff) if coeff < 0 else ("+", coeff)
            terms.append(f"{sign} {name}" if size == 1 else f"{sign} {size}*{name}")
        text = " ".join(terms)
        return text[2:] if text.startswith("+ ") else text

    # -- JSON form: rationals as "p/q" strings, never floats --------------

    def to_json(self) -> dict:
        d = self._d
        return {"const": _ratio(self._c, d), "exps": {n: _ratio(x, d) for n, x in self._t}}

    @classmethod
    def from_json(cls, doc, path: str = "$") -> "ScalarExpr":
        """Raises DocumentError at the JSON path of a malformed part (``_parts``)."""
        return _expr(_parts(doc, path))


def _expr(parts: tuple) -> ScalarExpr:
    """The ScalarExpr of ``_parts``' (c, e, terms)."""
    c, e, terms = parts
    d, t = e, ()
    if terms:  # over the lcm of lowest-terms denominators the numerators have gcd 1
        d = lcm(e, *[q for _, _, q in terms])
        t = tuple(sorted([(n, p * (d // q)) for n, p, q in terms]))
    f = object.__new__(ScalarExpr)
    f._d, f._c, f._t = d, c * (d // e), t
    f._h = hash((f._c, d, t))
    return f


def _parts(doc, path: str, mode: "GroupMode | None" = None) -> tuple[int, int, list]:
    """A document's {"const": ..., "exps": {...}} as (c, e, [(name, p, q)]),
    the constant c/e and nonzero terms p/q in lowest terms.  DocumentError
    at the JSON path of a malformed part, or of a circle-mode value (with
    ``mode``) that is not a constant weight; a path is built only then."""
    if not isinstance(doc, dict):
        raise DocumentError("expected an object with 'const'/'exps', "
                            f"got {type(doc).__name__}", path)
    exps = doc.get("exps", {})
    if not isinstance(exps, dict):
        raise DocumentError("'exps' must be an object", f"{path}.exps")
    try:
        c, e = _rational_parts(doc.get("const", "0"))
    except ValueError as exc:
        raise DocumentError(str(exc), f"{path}.const") from None
    terms = []
    for n, x in exps.items():
        if not n.isascii():
            try:
                n.encode()
            except UnicodeEncodeError:  # a lone surrogate from a JSON escape
                n = n.encode(errors="backslashreplace").decode()
                raise DocumentError("generator name is not valid UTF-8",
                                    f"{path}.exps.{path_key(n)}") from None
        try:
            p, q = _rational_parts(x)
        except ValueError as exc:
            raise DocumentError(str(exc), f"{path}.exps.{path_key(n)}") from None
        if p:
            terms.append((n, p, q))
    if terms and mode is GroupMode.CIRCLE:
        raise DocumentError(_WEIGHTS_ONLY, path)
    return c, e, terms


def _normal(d: int, c: int, t: tuple) -> ScalarExpr:
    """A ScalarExpr from parts with no zero term, gcd(d, c, *terms) divided out."""
    g = gcd(d, c)
    if g != 1:
        g = gcd(g, *[x for _, x in t])
        if g != 1:
            d, c, t = d // g, c // g, tuple([(n, x // g) for n, x in t])
    f = object.__new__(ScalarExpr)
    f._d, f._c, f._t, f._h = d, c, t, hash((c, d, t))
    return f


def _times(t: tuple, k: int) -> tuple:
    """Terms with every numerator multiplied by a nonzero ``k``."""
    return t if k == 1 else tuple([(n, x * k) for n, x in t])


def _merge(s: tuple, t: tuple, a: int = 1, b: int = 1) -> tuple:
    """``a * s + b * t`` for name-sorted term tuples, zero sums dropped."""
    out = []
    i = j = 0
    ls, lt = len(s), len(t)
    while i < ls and j < lt:
        p, q = s[i], t[j]
        if p[0] == q[0]:
            x = p[1] * a + q[1] * b
            if x:
                out.append((p[0], x))
            i += 1
            j += 1
        elif p[0] < q[0]:
            out.append((p[0], p[1] * a))
            i += 1
        else:
            out.append((q[0], q[1] * b))
            j += 1
    return (*out, *_times(s[i:], a), *_times(t[j:], b))


_ZERO = ScalarExpr(0)
_WEIGHTS_ONLY = "circle-mode elements must be constant weights"


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
        if mode is GroupMode.CIRCLE and expr._t:
            raise ValueError(_WEIGHTS_ONLY)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "expr", expr if mode is _ADDITIVE else expr.mod1())

    def __setattr__(self, name, value):
        raise AttributeError("GroupElement is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, mode: GroupMode) -> "GroupElement":
        return cls(mode, _ZERO)

    @classmethod
    def generator(cls, name: str, mode: GroupMode = GroupMode.MULTIPLICATIVE) -> "GroupElement":
        if mode is GroupMode.CIRCLE:
            raise ValueError(_WEIGHTS_ONLY)
        return _element(mode, _normal(1, 0, ((name, 1),)))

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
        return _element(self.mode, self.expr + other.expr)

    def invert(self) -> "GroupElement":
        return _element(self.mode, -self.expr)

    def power(self, k: int) -> "GroupElement":
        return _element(self.mode, self.expr.scale(k))

    def is_identity(self) -> bool:
        return self.expr._c == 0 and not self.expr._t

    def is_integer(self) -> bool:
        """Integrality test for additive-mode elements.

        Symbolic generators are non-integral by the genericity model, so
        an element is an integer iff it has no generator support and an
        integral constant.
        """
        if self.mode is not GroupMode.ADDITIVE:
            raise ModeMismatch("is_integer is defined in additive mode only")
        return not self.expr._t and self.expr._d == 1

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
        return not other.sort_key() < self.sort_key()

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.mode is other.mode and self.expr == other.expr

    def __hash__(self) -> int:
        return self.expr._h

    def __repr__(self) -> str:
        return f"{self.mode.value[:4]}({self.expr!r})"

    def to_json(self) -> dict:
        return self.expr.to_json()


_ADDITIVE = GroupMode.ADDITIVE
_set_mode, _set_expr = GroupElement.mode.__set__, GroupElement.expr.__set__


def _element(mode: GroupMode, expr: ScalarExpr) -> GroupElement:
    """A group-law result: ``expr`` reduced mod 1 unless additive, without
    the public constructor's checks (a circle-mode result has no generators)."""
    e = object.__new__(GroupElement)
    _set_mode(e, mode)
    _set_expr(e, expr if mode is _ADDITIVE else expr.mod1())
    return e


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

"""Divisor calculus over the eigenvalue group.

A semisimple conjugacy class is recorded as a finite multiplicity map
``g = sum m(a) * [a]`` over group elements; an n-tuple of equal-degree
effective divisors is the local monodromy vector of a rank-r system.
Divisors with negative coefficients are representable (they show up as
raw transform outputs) but are rejected as monodromy-vector entries.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Sequence

from .errors import ModeMismatch
from .scalars import GroupElement, GroupMode, ScalarExpr, _times, product

__all__ = ["EigDivisor", "MonodromyVector"]


def _over(x: ScalarExpr, den: int) -> tuple:
    """``(const, terms)`` numerators of ``x`` over ``den``, a multiple of its denominator."""
    k = den // x._d
    return x._c * k, _times(x._t, k)


class EigDivisor:
    """Finite multiplicity map over GroupElements of one mode.

    Entries are stored canonically sorted by the deterministic element
    order with no zero multiplicities, so equality is structural and
    serialization is reproducible.
    """

    __slots__ = ("mode", "entries")

    def __init__(self, mode: GroupMode, entries: Iterable[tuple[GroupElement, int]] = ()):
        acc: dict[GroupElement, int] = {}
        for elem, mult in entries:
            if elem.mode is not mode:
                raise ModeMismatch(
                    f"divisor mode {mode.value} but entry mode {elem.mode.value}")
            if mult != int(mult):
                raise TypeError("multiplicities must be integers")
            acc[elem] = acc.get(elem, 0) + int(mult)
        items = [(e, m) for e, m in acc.items() if m != 0]
        if len(items) > 1:
            # the element order (const, terms) of ScalarExpr.__lt__, as
            # integer tuples over the common denominator
            den = lcm(*[e.expr._d for e, _ in items])
            items.sort(key=lambda em: _over(em[0].expr, den))
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "entries", tuple(items))

    def __setattr__(self, name, value):
        raise AttributeError("EigDivisor is immutable")

    @classmethod
    def _canonical(cls, mode: GroupMode,
                   entries: Iterable[tuple[GroupElement, int]]) -> "EigDivisor":
        """The divisor of ``entries`` that are canonical already: distinct
        elements of ``mode`` in the element order, nonzero int
        multiplicities.  Nothing is checked, merged or sorted."""
        self = object.__new__(cls)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "entries", tuple(entries))
        return self

    @classmethod
    def of(cls, *elements: GroupElement) -> "EigDivisor":
        """Divisor with multiplicity one at each listed element."""
        if not elements:
            raise ValueError("need at least one element")
        return cls(elements[0].mode, [(e, 1) for e in elements])

    # -- basic invariants --------------------------------------------------

    def degree(self) -> int:
        return sum(m for _, m in self.entries)

    @property
    def is_effective(self) -> bool:
        return all(m > 0 for _, m in self.entries)

    def support(self) -> tuple[GroupElement, ...]:
        return tuple(e for e, _ in self.entries)

    def multiplicity(self, elem: GroupElement) -> int:
        for e, m in self.entries:
            if e == elem:
                return m
        return 0

    def max_multiplicity(self) -> tuple[GroupElement, int]:
        """Largest multiplicity; ties broken to the smallest element."""
        if not self.entries:
            raise ValueError("empty divisor has no maximal multiplicity")
        best = None
        for e, m in self.entries:
            if best is None or m > best[1]:
                best = (e, m)  # entries already sorted, first max wins
        return best

    def determinant(self) -> GroupElement:
        """Group-law fold of m(a)*a; the trace in additive mode."""
        return product((e.power(m) for e, m in self.entries), self.mode)

    def partition(self) -> tuple[int, ...]:
        return tuple(sorted((m for _, m in self.entries), reverse=True))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "EigDivisor") -> "EigDivisor":
        if self.mode is not other.mode:
            raise ModeMismatch("cannot add divisors of different modes")
        return EigDivisor(self.mode, self.entries + other.entries)

    # -- protocol -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, EigDivisor):
            return NotImplemented
        return self.mode is other.mode and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.mode, self.entries))

    def __repr__(self) -> str:
        if not self.entries:
            return "0"
        return " + ".join(f"{m}[{e.expr!r}]" for e, m in self.entries)

    def to_json(self) -> list:
        return [{"value": e.to_json(), "mult": m} for e, m in self.entries]


def check_degrees(degrees: Sequence[int]) -> None:
    """ValueError unless the degrees are those of a monodromy vector:
    at least 3 points, all of one degree >= 1."""
    if len(degrees) < 3:
        raise ValueError(f"need at least 3 points, got {len(degrees)}")
    if degrees[0] < 1:
        raise ValueError("divisors must have degree >= 1")
    for i, k in enumerate(degrees):
        if k != degrees[0]:
            raise ValueError(f"divisor {i} has degree {k}, expected {degrees[0]}")


class MonodromyVector:
    """An n-tuple of equal-degree effective divisors (n >= 3).

    The common degree is the rank of the local systems whose local
    monodromy data the vector records.
    """

    __slots__ = ("divisors",)

    def __init__(self, divisors: Sequence[EigDivisor]):
        divisors = tuple(divisors)
        check_degrees([g.degree() for g in divisors])
        mode = divisors[0].mode
        for i, g in enumerate(divisors):
            if g.mode is not mode:
                raise ModeMismatch(f"divisor {i} has mode {g.mode.value}, expected {mode.value}")
            if not g.is_effective:
                raise ValueError(f"divisor {i} is not effective: {g!r}")
        object.__setattr__(self, "divisors", divisors)

    def __setattr__(self, name, value):
        raise AttributeError("MonodromyVector is immutable")

    @property
    def n(self) -> int:
        return len(self.divisors)

    @property
    def rank(self) -> int:
        return self.divisors[0].degree()

    @property
    def mode(self) -> GroupMode:
        return self.divisors[0].mode

    def __getitem__(self, i: int) -> EigDivisor:
        return self.divisors[i]

    def __iter__(self):
        return iter(self.divisors)

    def pmv(self) -> tuple[tuple[int, ...], ...]:
        """Polymultiplicity vector: the per-point multiplicity partitions."""
        return tuple(g.partition() for g in self.divisors)

    def total_determinant(self) -> GroupElement:
        return product((g.determinant() for g in self.divisors), self.mode)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonodromyVector):
            return NotImplemented
        return self.divisors == other.divisors

    def __hash__(self) -> int:
        return hash(self.divisors)

    def __repr__(self) -> str:
        body = ", ".join(repr(g) for g in self.divisors)
        return f"MonodromyVector(n={self.n}, r={self.rank}; {body})"

    def to_json(self) -> dict:
        return {
            "mode": self.mode.value,
            "points": self.n,
            "classes": [g.to_json() for g in self.divisors],
        }

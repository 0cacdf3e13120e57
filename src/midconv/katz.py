"""The Katz transformation on local monodromy data.

Given a rank-one twisting datum (a "convoluter") and a local monodromy
vector, middle convolution changes the rank by the defect and transforms
each local divisor by an explicit substitution: [v_i] gets the
coefficient m_i(h_i^{-1}) + d, and every other eigenvalue a of g_i moves
to a u_i.  This module implements that transformation exactly, together
with the eigenvalue conventions it requires, its involution partner,
emptiness detection, and the iterative rank-reduction loop.  The formula
is written once, in ``_aim`` and ``_apply``, and runs in ``row_step`` on
sparse integer rows (``_Rows``, each costing its terms): documents are
read into rows, classes in ``EigDivisor`` entry order, and the library's
``GroupElement`` objects too (``_read``), so the ``transform`` verb, each
step of the reduction loop, ``kappa`` and the checks share one exact
arithmetic.  ``row_step`` returns an output or raises why there is none:
the first ConventionViolation of the failing report, or
NoneffectiveTransform with its NoneffectiveReport.  Its output's group
law is the rows' own or, for ``row_values`` (verify's prediction), the
valuation x -> exp(2 pi i x(assignment)) into the nonzero complex
numbers, which turns ``_apply``'s output into the numeric spectra that
:mod:`midconv.homology` compares with its measurement.

Everything here is pure divisor arithmetic over the symbolic eigenvalue
group; the numeric verification of these formulas lives in
:mod:`midconv.homology`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache, partial, reduce
from math import lcm
from typing import Collection, NamedTuple, Optional, Sequence

from .divisors import EigDivisor, MonodromyVector, _over
from .errors import (ConventionViolation, MaxStepsExceeded, ModeMismatch, NoneffectiveTransform,
                     SizeMismatch)
from .scalars import (GroupElement, GroupMode, _element, _evaluate, _merge, _normal, _ratio,
                      _times, product)

__all__ = [
    "Convoluter",
    "ConventionReport",
    "NoneffectiveReport",
    "EmptinessCertificate",
    "KatzStep",
    "AlgorithmTrace",
    "TerminalStatus",
    "defect",
    "kappa",
    "check_involution",
    "check_conventions",
    "detect_empty",
    "fresh_names",
    "run_algorithm",
]


class Convoluter:
    """Rank-one twisting datum with components h_i, v_i and t.

    The components satisfy ``t * prod(h) = 1`` and ``t * prod(v) = 1``;
    the first relation *derives* t from h, the second is validated on a
    given v (v omitted is h, which satisfies it by construction of t).
    The transform moves each kept eigenvalue a of g_i to a u_i with
    ``u_i = t * h_i * v_i``, which it computes as it goes.
    """

    __slots__ = ("h", "v", "t")

    def __init__(self, h: Sequence[GroupElement], v: Sequence[GroupElement] | None = None):
        h = tuple(h)
        if len(h) < 3:
            raise ValueError("a convoluter needs at least 3 points")
        mode = h[0].mode
        if any(e.mode is not mode for e in h):
            raise ModeMismatch("all h components must share one mode")
        t = product(h).invert()
        if v is None:
            v = h
        else:
            v = tuple(v)
            if any(e.mode is not mode for e in v):
                raise ModeMismatch("all v components must share h's mode")
            if len(v) != len(h):
                raise SizeMismatch(f"h has {len(h)} components but v has {len(v)}")
            if not t.combine(product(v)).is_identity():
                raise ValueError("v violates the product relation t * prod(v) = 1")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "t", t)

    def __setattr__(self, name, value):
        raise AttributeError("Convoluter is immutable")

    @property
    def n(self) -> int:
        return len(self.h)

    @property
    def mode(self) -> GroupMode:
        return self.h[0].mode

    @classmethod
    def with_fresh_v(cls, h: Sequence[GroupElement], names: Sequence[str]) -> "Convoluter":
        """v_i := h_i * s_i with fresh generators s_i, s_n forced so the
        product relation still holds."""
        h = tuple(h)
        mode = h[0].mode
        check_fresh(mode)
        if len(names) != len(h) - 1:
            raise SizeMismatch("need n-1 fresh generator names")
        s = [GroupElement.generator(name, mode) for name in names]
        s.append(product(s).invert())
        v = [hi.combine(si) for hi, si in zip(h, s)]
        return cls(h, v)

    def partner(self) -> "Convoluter":
        """The convoluter that inverts the transformation.

        Flip the two projection factors and dualize: h and v swap and
        every component is inverted (in additive mode this is negation).
        The defining relations hold automatically for the result.
        """
        return Convoluter([e.invert() for e in self.v],
                          [e.invert() for e in self.h])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Convoluter):
            return NotImplemented
        return self.h == other.h and self.v == other.v

    def __hash__(self) -> int:
        return hash((self.h, self.v))

    def __repr__(self) -> str:
        return f"Convoluter(h={list(self.h)!r}, v={list(self.v)!r})"

    def to_json(self) -> dict:
        return {"h": [e.to_json() for e in self.h],
                "v": [e.to_json() for e in self.v]}


def check_fresh(mode: GroupMode) -> None:
    """ModeMismatch in circle mode, which has no generators to add as fresh v."""
    if mode is GroupMode.CIRCLE:
        raise ModeMismatch("fresh generators need multiplicative or additive mode")


def _is_fresh(v_policy: str) -> bool:
    """Whether the v policy is "fresh" rather than "same"; ValueError for any other."""
    if v_policy not in ("same", "fresh"):
        raise ValueError(f"unknown v policy {v_policy!r}")
    return v_policy == "fresh"


@dataclass(frozen=True)
class ConventionReport:
    """Outcome of the exact convention checks for a pair (beta, vector).

    ``chirhobeta_detail`` lists (point, eigenvalue) witnesses whenever
    ``t * h_i * a = 1``; the de Rham fields are filled only when the
    check ran in de Rham (additive) flavor.
    """

    chi_nontrivial: bool
    chirhobeta_ok: bool
    chirhobeta_detail: tuple = ()
    de_rham: bool = False
    diag_res_not_integer: Optional[bool] = None
    alphabetabeta_ok: Optional[bool] = None
    alphabetabeta_detail: tuple = ()

    @property
    def ok(self) -> bool:
        return self.first_violation() is None

    def first_violation(self) -> Optional[ConventionViolation]:
        if self.de_rham and not self.diag_res_not_integer:
            return ConventionViolation("diagonal-residue-not-integer", report=self)
        if not self.chi_nontrivial:
            return ConventionViolation("diagonal-monodromy-nontrivial", report=self)
        if self.de_rham and not self.alphabetabeta_ok:
            i, a = self.alphabetabeta_detail[0]
            return ConventionViolation("residue-shift-not-integer", i, a, report=self)
        if not self.chirhobeta_ok:
            i, a = self.chirhobeta_detail[0]
            return ConventionViolation("twisted-eigenvalue-nontrivial", i, a, report=self)
        return None

    def to_json(self) -> dict:
        doc = {
            "chi_nontrivial": self.chi_nontrivial,
            "chirhobeta_ok": self.chirhobeta_ok,
            "chirhobeta_violations": [
                {"point": i, "eigenvalue": a.to_json()} for i, a in self.chirhobeta_detail],
            "ok": self.ok,
        }
        if self.de_rham:
            doc["diag_res_not_integer"] = self.diag_res_not_integer
            doc["alphabetabeta_ok"] = self.alphabetabeta_ok
            doc["alphabetabeta_violations"] = [
                {"point": i, "eigenvalue": a.to_json()} for i, a in self.alphabetabeta_detail]
        return doc


@dataclass(frozen=True)
class NoneffectiveReport:
    """Transform output had a negative coefficient: no such local system.

    For each witnessing point we record the offending coefficient
    ``m_i + d`` and both sides of the equivalent rank inequality
    ``sum_{j != i} (r - m_j) < r``.
    """

    points: tuple  # of (i, coefficient, lhs, r)

    @property
    def certificate(self) -> "EmptinessCertificate":
        """The first witnessing point."""
        i, coefficient, lhs, r = self.points[0]
        return EmptinessCertificate(point=i, lhs=lhs, rank=r, coefficient=coefficient)

    def to_json(self) -> dict:
        return {"noneffective": [
            {"point": i, "coefficient": c, "rank_sum": lhs, "rank": r}
            for i, c, lhs, r in self.points]}


@dataclass(frozen=True)
class EmptinessCertificate:
    point: int
    lhs: int          # sum_{j != i} (r - m_j(h_j^{-1}))
    rank: int
    coefficient: int  # m_i(h_i^{-1}) + defect (< 0)

    def to_json(self) -> dict:
        return {"point": self.point, "rank_sum": self.lhs,
                "rank": self.rank, "coefficient": self.coefficient}


class _Aim(NamedTuple):
    """The transform formula's data for the aimed eigenvalues ``inv`` (h_i^{-1}), in rows.

    ``mults[i]`` is m_i(h_i^{-1}), ``defect`` is d = (n-2) r - sum(mults),
    and ``noneffective`` lists (i, m_i + d, sum_{j != i}(r - m_j), r) for
    every point whose new eigenvalue [v_i] gets a negative coefficient.
    ``th[i]`` is t h_i with t = prod(h)^{-1}.  The abstract conventions
    hold when ``chi_nontrivial`` (t != 1) and there are no ``witnesses``,
    the (i, a) with a an eigenvalue of g_i and t h_i a = 1.
    """

    inv: list
    mults: list
    defect: int
    noneffective: tuple
    th: list
    chi_nontrivial: bool
    witnesses: tuple


def _aim(rows: "_Rows", classes: list, h: list) -> _Aim:
    """The formula's data for ``classes``, one {eigenvalue: multiplicity}
    per point, and the twist's h, in ``rows``."""
    plus = rows.plus
    inv = [plus(x) for x in h]
    n, r = len(classes), sum(classes[0].values())
    mults = [g.get(a, 0) for g, a in zip(classes, inv)]
    d = (n - 2) * r - sum(mults)
    total = sum(r - m for m in mults)
    lhs = [total - (r - m) for m in mults]  # sum_{j != i} (r - m_j)
    assert all((m + d < 0) == (l < r) for m, l in zip(mults, lhs)), \
        "emptiness characterizations disagree"
    t_inv = plus(reduce(plus, inv))  # t = prod(h)^{-1} = prod(h^{-1})
    # t h_i a = 1 for one eigenvalue only, a = (t h_i)^{-1} = t^{-1} h_i^{-1};
    # and t = 1 exactly when that a is h_i^{-1}
    hit = [plus(t_inv, b) for b in inv]
    witnesses = tuple((i, a) for i, (g, a) in enumerate(zip(classes, hit)) if a in g)
    return _Aim(inv, mults, d, tuple((i, m + d, lhs[i], r) for i, m in enumerate(mults)
                                     if m + d < 0), [plus(a) for a in hit], hit[0] != inv[0], witnesses)


def _apply(plus, classes: list, aim: _Aim, v: Sequence) -> list[list]:
    """The local transform, one entry list per point: m_i(a) [a u_i] for
    each eigenvalue a of g_i with a h_i != 1, where u_i = t h_i v_i, then
    (m_i + d) [v_i] unless m_i + d = 0.  When the conventions hold no two
    entries meet, since a u_i = v_i would mean t h_i a = 1.  ``plus(a, b)``
    takes a row a and b of the output's group: the rows' law, or ``row_values``'
    valuation with ``v`` valued; a h_i != 1 compares the exact ``aim.inv``."""
    d, out = aim.defect, []
    for g, b, m, x, vi in zip(classes, aim.inv, aim.mults, aim.th, v):
        ui = plus(x, vi)
        entries = [(plus(a, ui), k) for a, k in g.items() if a != b]
        if m + d:
            entries.append((vi, m + d))
        out.append(entries)
    return out


def _read(beta: Convoluter, vector: MonodromyVector) -> tuple:
    """(rows, classes, h, v): ``vector`` and ``beta``'s twist in rows
    (``_Rows.of``), the form every exact client of the library answers from."""
    if beta.n != vector.n:
        raise SizeMismatch(f"convoluter has {beta.n} points, vector has {vector.n}")
    if beta.mode is not vector.mode:
        raise ModeMismatch(
            f"convoluter mode {beta.mode.value} but vector mode {vector.mode.value}")
    return _Rows.of(vector, beta.h, beta.v)


def fresh_names(count: int, taken: Collection[str], stem: str = "_s") -> list[str]:
    """``stem1 .. stem<count>``, the stem prefixed with "_" until no name
    is in ``taken``."""
    while any(f"{stem}{i}" in taken for i in range(1, count + 1)):
        stem = "_" + stem
    return [f"{stem}{i}" for i in range(1, count + 1)]


def max_mult_convoluter(vector: MonodromyVector, v_policy: str = "same") -> Convoluter:
    """The default convoluter, the one the reduction loop aims: ``_Rows.twist``'s
    on the vector's rows, h_i the inverse of a maximal-multiplicity eigenvalue
    of g_i (ties broken to the smallest element in the deterministic order)."""
    rows, classes = _Rows.of(vector)
    return rows.convoluter(*rows.twist(classes, v_policy))


def defect(vector: MonodromyVector, beta: Convoluter | None = None) -> int:
    """(n-2) r - sum of the multiplicities m_i(h_i^{-1}).

    With ``beta`` omitted the maximal multiplicity is used at each point,
    which is the defect of the vector itself.
    """
    if beta is None:
        return (vector.n - 2) * vector.rank - sum(g.max_multiplicity()[1] for g in vector)
    return _aim(*_read(beta, vector)[:3]).defect


def check_conventions(beta: Convoluter, vector: MonodromyVector,
                      de_rham: bool = False) -> ConventionReport:
    """Exact convention checks for the pair.

    Abstract flavor: t != 1 and t * h_i * a != 1 for every eigenvalue a
    of g_i.  De Rham flavor (additive mode required): t not an integer,
    a + h_i + t not an integer, and a + h_i not a nonzero integer.
    """
    form = _read(beta, vector)[:3]
    return _report(*form, _aim(*form), de_rham)


def _report(rows: "_Rows", classes: list, h: list, aim: _Aim,
            de_rham: bool) -> ConventionReport:
    """``check_conventions``' report on rows, from the formula's data ``aim``."""
    abstract = dict(chi_nontrivial=aim.chi_nontrivial, chirhobeta_ok=not aim.witnesses,
                    chirhobeta_detail=tuple((i, rows.element(a)) for i, a in aim.witnesses))
    if not de_rham:
        return ConventionReport(**abstract)
    if rows.mode is not GroupMode.ADDITIVE:
        raise ModeMismatch("de Rham conventions require additive mode")
    plus = rows.plus

    def integer(x: tuple) -> bool:  # generators are not integers (the genericity model)
        return not x[1] and x[0] % rows.den == 0
    abb_detail = []
    for i, (g, hi, thi) in enumerate(zip(classes, h, aim.th)):
        for a in g:
            s2 = plus(a, hi)
            if integer(plus(a, thi)) or (integer(s2) and s2 != (0, ())):
                abb_detail.append((i, rows.element(a)))
    return ConventionReport(
        **abstract,
        de_rham=True,
        diag_res_not_integer=not integer(plus(aim.th[0], aim.inv[0])),  # t = t h_1 h_1^{-1}
        alphabetabeta_ok=not abb_detail,
        alphabetabeta_detail=tuple(abb_detail),
    )


def kappa(beta: Convoluter, vector: MonodromyVector, check: bool = True,
          de_rham: bool = False):
    """Global transform.

    Returns a MonodromyVector of rank r + d, or a NoneffectiveReport if
    any coefficient went negative.  With ``check`` the conventions are
    verified first (the de Rham ones with ``de_rham``, on residue
    eigenvalues in additive mode) and a ConventionViolation is raised on
    failure (the flag exists for exploratory use).  The coefficient of
    [v_i] in the output, m_i(h_i^{-1}) + d, is the dimension of the
    new-eigenvalue block at point i.
    """
    rows, *form = _read(beta, vector)
    try:
        return rows.vector(row_step(rows, *form, check=check, de_rham=de_rham)[1])
    except NoneffectiveTransform as exc:
        return exc.report


def row_values(rows: "_Rows", classes: list, h: list, v: list, assignment: dict) -> list:
    """The prediction of ``verify``: the transform's output valued at
    ``assignment``, one (value, multiplicity) list per point, with no
    transformed vector.  ``row_step`` checks the conventions exactly, on
    rows, and raises as it does; the output then takes the valuation
    x -> exp(2 pi i x(assignment)) of ``scalars._evaluate`` as its group
    law, a homomorphism into the nonzero complex numbers: each eigenvalue a
    of g_i is valued once and u_i = t h_i v_i once per point, a kept a gives
    val(a) val(u_i), and val(v_i) gets m_i(h_i^{-1}) + d."""
    return row_step(rows, classes, h, v,
                    value=lambda x: _evaluate(rows.den, *x, assignment, rows.mode))[1]


def check_involution(beta: Convoluter, vector: MonodromyVector,
                     de_rham: bool = False) -> bool:
    """Transform, transform back with the partner, compare exactly."""
    once = kappa(beta, vector, de_rham=de_rham)
    if not isinstance(once, MonodromyVector):
        raise ValueError(f"transform is not a vector: {once!r}")
    back = kappa(beta.partner(), once, de_rham=de_rham)
    return back == vector


def detect_empty(beta: Convoluter, vector: MonodromyVector) -> Optional[EmptinessCertificate]:
    """Witness for a noneffective transform, if any: the first point
    with a negative coefficient ``m_i + d``, equivalently with
    ``sum_{j != i}(r - m_j) < r`` (the two are asserted to agree at
    every point)."""
    bad = _aim(*_read(beta, vector)[:3]).noneffective
    return NoneffectiveReport(points=bad).certificate if bad else None


class TerminalStatus(enum.Enum):
    # ALL_DIAGONAL covers every scalar-classes terminal, rank one included.
    ALL_DIAGONAL = "AllDiagonal"
    EMPTY_NONEFFECTIVE = "EmptyNoneffective"
    POSITIVE_DEFECT = "PositiveDefect"
    CONVENTION_FAILURE = "ConventionFailure"


class _Rows:
    """Eigenvalues as sparse integer rows, read from a document's parts or
    from ``GroupElement`` objects: the working form of every exact
    transform, check and twist.

    c + sum e_j g_j is the row (c, terms): ``ScalarExpr``'s ``(_c, _t)``
    over one denominator ``den`` for every row, the numerator c reduced mod
    ``mod`` (``den`` unless additive, 0 for none) and ``terms`` the
    name-sorted nonzero (name, numerator) pairs.  So equal elements have
    equal rows, a row costs its terms, not the document's generators, and
    rows compare in ``ScalarExpr.__lt__``'s order.  A vector is a list of
    dicts {row: multiplicity}, one per point."""

    def __init__(self, mode: GroupMode, den: int):
        self.mode, self.den = mode, den
        self.mod = 0 if mode is GroupMode.ADDITIVE else den

    @classmethod
    def read(cls, mode: GroupMode, points: list, values: list = ()):
        """(rows, classes) of ``points``, per point (value, multiplicity) pairs
        with values as ``scalars._parts`` reads them, each class ``ordered``;
        the denominator is that of the points and ``values``."""
        every = [a for entries in points for a, _ in entries] + [*values]
        rows = cls(mode, lcm(*[e for _, e, _ in every], *[q for _, _, t in every for _, _, q in t]))
        row, ordered = rows.row, rows.ordered
        return rows, [ordered([(row(a), m) for a, m in entries]) for entries in points]

    @classmethod
    def of(cls, vector: MonodromyVector, *twist: Sequence[GroupElement]) -> tuple:
        """(rows, classes, *twist) of the objects ``vector`` and the element
        lists ``twist`` over one denominator: an element is reduced (mod 1
        unless additive) and name-sorted already, so ``_over`` is its row,
        and a divisor's entries are in order, so its class is ``ordered``."""
        den = lcm(*[a.expr._d for g in vector for a, _ in g.entries],
                  *[e.expr._d for t in twist for e in t])
        classes = [{_over(a.expr, den): m for a, m in g.entries} for g in vector]
        return cls(vector.mode, den), classes, *([_over(e.expr, den) for e in t] for t in twist)

    def row(self, parts: tuple) -> tuple:
        """The row of ``scalars._parts``' (c, e, [(name, p, q)]): c/e + sum p/q name."""
        c, e, terms = parts
        den = self.den
        c *= den // e
        return (c % self.mod if self.mod else c,
                tuple(sorted([(n, p * (den // q)) for n, p, q in terms])))

    def plus(self, a: tuple, b: tuple | None = None) -> tuple:
        """The group law of rows: a + b, or -a with b omitted."""
        if b is None:
            c, t = -a[0], _times(a[1], -1)
        else:
            c, t = a[0] + b[0], _merge(a[1], b[1])
        return (c % self.mod if self.mod else c, t)

    def t(self, h: list) -> tuple:
        """The twist's t = prod(h)^-1 as a row."""
        return self.plus(reduce(self.plus, h))

    def ordered(self, entries) -> dict:
        """(row, multiplicity) ``entries`` as a class in ``EigDivisor`` entry
        order, the multiplicities of equal rows added (a document's repeated
        value, or a transform that met a convention witness unchecked)."""
        g = dict(sorted(entries))
        if len(g) < len(entries):
            g = {a: sum(m for b, m in entries if b == a) for a in g}
        return g

    def top(self, g: dict) -> tuple:
        """The eigenvalue of largest multiplicity in the ``ordered`` class
        ``g``, ties broken to the first, the smallest, as by
        ``EigDivisor.max_multiplicity``."""
        return max(g, key=g.__getitem__)

    def twist(self, classes: list, v_policy: str, h: list | None = None,
              stem: str = "_s") -> tuple[list, list]:
        """(h, v) in rows: the given h or ``max_mult_convoluter``'s (h_i the
        inverse of ``top`` of class i), and v = h or, under fresh v,
        ``Convoluter.with_fresh_v``'s v_i = h_i s_i with s_1 .. s_{n-1} the
        ``fresh_names`` from ``stem`` that avoid the generators of the
        classes and h, and s_n closing prod(s) = 1."""
        if h is None:
            h = [self.plus(self.top(g)) for g in classes]
        if not _is_fresh(v_policy):
            return h, h
        check_fresh(self.mode)
        den, plus = self.den, self.plus
        names = fresh_names(len(classes) - 1, _generators([*classes, dict.fromkeys(h)]), stem)
        v = [plus(x, (0, ((n, den),))) for x, n in zip(h, names)]
        return h, [*v, plus(h[-1], (0, tuple(sorted([(n, -den) for n in names]))))]

    def element(self, row: tuple) -> GroupElement:
        return _element(self.mode, _normal(self.den, *row))

    def convoluter(self, h: list, v: list) -> Convoluter:
        """The twist (h, v) in rows as a Convoluter, v omitted when it is h."""
        return Convoluter([*map(self.element, h)], None if v is h else map(self.element, v))

    def vector(self, classes: list[dict]) -> MonodromyVector:
        """``ordered`` classes as a vector."""
        return MonodromyVector([EigDivisor._canonical(self.mode, [(self.element(a), m)
                                                                  for a, m in g.items()])
                                for g in classes])

    def writer(self):
        """``(value, vector, twist)``, writing a row, classes and (h, v) as the
        objects' ``to_json`` do, each numerator's text made once."""
        mode = self.mode.value
        text = cache(partial(_ratio, d=self.den))

        def value(row: tuple) -> dict:
            return {"const": text(row[0]), "exps": {n: text(x) for n, x in row[1]}}

        def vector(classes: list) -> dict:
            return {"mode": mode, "points": len(classes), "classes": [
                [{"value": value(a), "mult": m} for a, m in g.items()] for g in classes]}

        def twist(h: list, v: list) -> dict:
            h_json = [value(a) for a in h]
            return {"h": h_json, "v": h_json if v is h else [value(a) for a in v]}
        return value, vector, twist


def _generators(classes: list) -> set[str]:
    """The generator names in the terms of ``classes``' rows."""
    return {x for g in classes for _, t in g for x, _ in t}


def row_defect(classes: list, inv: Sequence | None = None) -> int:
    """``defect`` on {eigenvalue: multiplicity} classes: (n-2) r - sum of
    m_i(inv_i), or of the maximal multiplicities with ``inv`` omitted."""
    n, r = len(classes), sum(classes[0].values())
    if inv is None:
        return (n - 2) * r - sum(max(g.values()) for g in classes)
    return (n - 2) * r - sum(g.get(a, 0) for g, a in zip(classes, inv))


def row_step(rows: _Rows, classes: list, h: list, v: list, check: bool = True,
             de_rham: bool = False, value=None) -> tuple:
    """``kappa`` by the twist (h, v) on rows, the step of ``transform``, of the
    reduction loop and of the library: (the formula's data, the output), the
    output ``ordered`` classes or, with a valuation ``value`` of rows, one
    (value, multiplicity) list per point.  With no output it raises: the first
    ConventionViolation of a failing ConventionReport (``kappa``'s ``check``
    and ``de_rham``), or NoneffectiveTransform with the NoneffectiveReport."""
    aim = _aim(rows, classes, h)
    if check and (de_rham or not aim.chi_nontrivial or aim.witnesses):
        violation = _report(rows, classes, h, aim, de_rham).first_violation()
        if violation is not None:
            raise violation
    if aim.noneffective:
        raise NoneffectiveTransform(NoneffectiveReport(aim.noneffective))
    if value is not None:
        return aim, _apply(lambda a, b: value(a) * b, classes, aim, [*map(value, v)])
    # every m_i + d >= 0 sums to (n-2) r + (n-1) d >= 0, so r + d > 0
    output = [rows.ordered(entries) for entries in _apply(rows.plus, classes, aim, v)]
    r = sum(classes[0].values())
    assert all(sum(g.values()) == r + aim.defect for g in output), "rank law r' = r + d"
    return aim, output


class KatzStep(NamedTuple):
    """One step of the reduction loop in rows; ``input``, ``beta``, ``output`` decode them."""

    rows: _Rows
    input_rows: list
    h_rows: list
    v_rows: list
    defect: int
    output_rows: list

    input = property(lambda self: self.rows.vector(self.input_rows))
    output = property(lambda self: self.rows.vector(self.output_rows))
    beta = property(lambda self: self.rows.convoluter(self.h_rows, self.v_rows))


class AlgorithmTrace(NamedTuple):
    """The reduction loop's steps and end, in rows; ``final`` decodes its rows."""

    rows: _Rows
    steps: tuple
    status: TerminalStatus
    final_rows: list
    certificate: Optional[EmptinessCertificate] = None
    report: Optional[ConventionReport] = None

    final = property(lambda self: self.rows.vector(self.final_rows))

    @property
    def ranks(self) -> list[int]:
        return [sum(v[0].values()) for v in (*(s.input_rows for s in self.steps), self.final_rows)]

    def to_json(self) -> dict:
        # step k's output is step k+1's input (and the last one is
        # ``final``): each vector's dict is built once and shared
        _, write, twist = self.rows.writer()
        vectors = {}

        def vector(classes: list) -> dict:
            if id(classes) not in vectors:
                vectors[id(classes)] = write(classes)
            return vectors[id(classes)]

        steps = []
        for s in self.steps:
            steps.append({"input": vector(s.input_rows), "convoluter": twist(s.h_rows, s.v_rows),
                          "defect": s.defect, "output": vector(s.output_rows)})
        doc = {"status": self.status.value, "ranks": self.ranks, "steps": steps,
               "final": vector(self.final_rows)}
        if self.certificate is not None:
            doc["certificate"] = self.certificate.to_json()
        if self.report is not None:
            doc["convention_report"] = self.report.to_json()
        return doc


def run_algorithm(vector, max_steps: int | None = None,
                  v_policy: str = "same") -> AlgorithmTrace:
    """Iterate the transformation while it strictly reduces the rank.

    Per step: stop at AllDiagonal (every class scalar, which covers rank
    one) and at PositiveDefect when the vector's defect d >= 0; otherwise
    aim the convoluter at maximal multiplicities, as ``max_mult_convoluter``
    does, whose defect is d; stop at ConventionFailure with the report when
    (beta, input) fails the conventions, and at EmptyNoneffective with a
    certificate; else step.  Every recorded step has d < 0, so at most
    ``rank`` steps can happen.  ``vector`` is a MonodromyVector or the
    (rows, classes) of a document's ``ProblemDocument``; each step is
    ``row_step``, with no ``ScalarExpr`` arithmetic.
    """
    rows, current = _Rows.of(vector) if isinstance(vector, MonodromyVector) else vector
    _is_fresh(v_policy)  # a misspelt policy raises before the first step, not where it aims
    if rows.mode is GroupMode.CIRCLE:
        raise ModeMismatch("the reduction loop runs in multiplicative or additive mode")
    max_steps = sum(current[0].values()) if max_steps is None else max_steps
    steps = []
    for step in range(max_steps + 1):
        if all(len(g) == 1 for g in current):
            return AlgorithmTrace(rows, tuple(steps), TerminalStatus.ALL_DIAGONAL, current)
        if row_defect(current) >= 0:
            return AlgorithmTrace(rows, tuple(steps), TerminalStatus.POSITIVE_DEFECT, current)
        # fresh generators must be fresh per step, not reused across steps
        h, v = rows.twist(current, v_policy, stem=f"_s{step}_")
        try:
            aim, output = row_step(rows, current, h, v)
        except ConventionViolation as exc:
            return AlgorithmTrace(rows, tuple(steps), TerminalStatus.CONVENTION_FAILURE,
                                  current, report=exc.report)
        except NoneffectiveTransform as exc:
            return AlgorithmTrace(rows, tuple(steps), TerminalStatus.EMPTY_NONEFFECTIVE, current,
                                  exc.report.certificate)
        # The partner pair (beta', output) passes too: h' = v^-1 and t' = t^-1,
        # so t' h'_i v_i = t^-1 != 1 at the new eigenvalue [v_i] and
        # t' h'_i a u_i = a h_i != 1 at each kept a u_i (de Rham flavor alike).
        steps.append(KatzStep(rows, current, h, v, aim.defect, output))
        current = output
    raise MaxStepsExceeded(f"no terminal state after {max_steps} steps")

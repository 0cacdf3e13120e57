"""The Katz transformation on local monodromy data.

Given a rank-one twisting datum (a "convoluter") and a local monodromy
vector, middle convolution changes the rank by the defect and transforms
each local divisor by an explicit substitution: [v_i] gets the
coefficient m_i(h_i^{-1}) + d, and every other eigenvalue a of g_i moves
to a u_i.  This module implements that transformation exactly, together
with the eigenvalue conventions it requires, its involution partner,
emptiness detection, and the iterative rank-reduction loop.  The formula
is written once, in ``_aim`` and ``_apply``, over one of three group
laws: ``GroupElement`` objects for the library's ``kappa`` and the
checks, integer rows (``_Rows``) for ``row_step``, which answers the
``transform`` verb and runs each step of the reduction loop, or, for
``kappa_values``, the valuation x -> exp(2 pi i x(assignment)) into the
nonzero complex numbers, which turns ``_apply``'s output into the
numeric spectra that :mod:`midconv.homology` compares with its
measurement.

Everything here is pure divisor arithmetic over the symbolic eigenvalue
group; the numeric verification of these formulas lives in
:mod:`midconv.homology`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import compress
from math import lcm
from operator import add, neg
from typing import Collection, NamedTuple, Optional, Sequence

from .divisors import EigDivisor, MonodromyVector
from .errors import ConventionViolation, MaxStepsExceeded, ModeMismatch, SizeMismatch
from .scalars import GroupElement, GroupMode, _element, _normal, _ratio, product

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
    "kappa_values",
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
    """The transform formula's data for the aimed eigenvalues ``inv``
    (h_i^{-1}), in the arithmetic ``_aim`` was given.

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


def _aim(plus, classes: list, inv: list, r: int) -> _Aim:
    """The formula's data for ``classes``, one {eigenvalue: multiplicity}
    per point.  ``plus(a, b)`` is the group law and ``plus(a)`` the
    inverse: ``_Rows.plus`` on integer rows, or ``_plus`` on
    ``GroupElement``s."""
    n = len(classes)
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
    entries meet, since a u_i = v_i would mean t h_i a = 1.  Only the
    two-argument law ``plus(a, b)`` is used, so ``kappa_values``' valuation
    serves as well; the test a h_i != 1 compares the exact ``aim.inv``."""
    d, out = aim.defect, []
    for g, b, m, x, vi in zip(classes, aim.inv, aim.mults, aim.th, v):
        ui = plus(x, vi)
        entries = [(plus(a, ui), k) for a, k in g.items() if a != b]
        if m + d:
            entries.append((vi, m + d))
        out.append(entries)
    return out


def _plus(a: GroupElement, b: GroupElement | None = None) -> GroupElement:
    """The group law of ``GroupElement``s for ``_aim`` and ``_apply``."""
    return a.invert() if b is None else a.combine(b)


def _aimed(beta: Convoluter, vector: MonodromyVector) -> tuple[list, _Aim]:
    """``vector``'s classes as dicts, and the formula's data for ``beta``."""
    if beta.n != vector.n:
        raise SizeMismatch(f"convoluter has {beta.n} points, vector has {vector.n}")
    if beta.mode is not vector.mode:
        raise ModeMismatch(
            f"convoluter mode {beta.mode.value} but vector mode {vector.mode.value}")
    classes = [dict(g.entries) for g in vector]
    return classes, _aim(_plus, classes, [hi.invert() for hi in beta.h], vector.rank)


def fresh_names(count: int, taken: Collection[str], stem: str = "_s") -> list[str]:
    """``stem1 .. stem<count>``, the stem prefixed with "_" until no name
    is in ``taken``."""
    while any(f"{stem}{i}" in taken for i in range(1, count + 1)):
        stem = "_" + stem
    return [f"{stem}{i}" for i in range(1, count + 1)]


def max_mult_convoluter(vector: MonodromyVector, v_policy: str = "same") -> Convoluter:
    """The default convoluter, the one the reduction loop aims: h_i is the
    inverse of a maximal-multiplicity eigenvalue of g_i (ties broken to the
    smallest element in the deterministic order).  Fresh v generators
    are named by ``fresh_names`` over the vector's eigenvalues."""
    h = [g.max_multiplicity()[0].invert() for g in vector]
    if v_policy == "same":
        return Convoluter(h)
    if v_policy == "fresh":
        taken = {x for g in vector for a in g.support() for x in a.expr.generators()}
        names = fresh_names(vector.n - 1, taken)
        return Convoluter.with_fresh_v(h, names)
    raise ValueError(f"unknown v policy {v_policy!r}")


def defect(vector: MonodromyVector, beta: Convoluter | None = None) -> int:
    """(n-2) r - sum of the multiplicities m_i(h_i^{-1}).

    With ``beta`` omitted the maximal multiplicity is used at each point,
    which is the defect of the vector itself.
    """
    if beta is None:
        return (vector.n - 2) * vector.rank - sum(g.max_multiplicity()[1] for g in vector)
    return _aimed(beta, vector)[1].defect


def check_conventions(beta: Convoluter, vector: MonodromyVector,
                      de_rham: bool = False) -> ConventionReport:
    """Exact convention checks for the pair.

    Abstract flavor: t != 1 and t * h_i * a != 1 for every eigenvalue a
    of g_i.  De Rham flavor (additive mode required): t not an integer,
    a + h_i + t not an integer, and a + h_i not a nonzero integer.
    """
    return _report(beta, vector, _aimed(beta, vector)[1], de_rham)


def _report(beta: Convoluter, vector: MonodromyVector, aim: _Aim,
            de_rham: bool) -> ConventionReport:
    """``check_conventions``' report from the pair's formula data ``aim``."""
    abstract = dict(chi_nontrivial=aim.chi_nontrivial, chirhobeta_ok=not aim.witnesses,
                    chirhobeta_detail=aim.witnesses)
    if not de_rham:
        return ConventionReport(**abstract)
    if vector.mode is not GroupMode.ADDITIVE:
        raise ModeMismatch("de Rham conventions require additive mode")
    abb_detail = []
    for i, (g, hi, thi) in enumerate(zip(vector, beta.h, aim.th)):
        for a in g.support():
            s1 = a.combine(thi)
            s2 = a.combine(hi)
            if s1.is_integer() or (s2.is_integer() and not s2.is_identity()):
                abb_detail.append((i, a))
    return ConventionReport(
        **abstract,
        de_rham=True,
        diag_res_not_integer=not beta.t.is_integer(),
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
    classes, aim = _aimed(beta, vector)
    if check:
        violation = _report(beta, vector, aim, de_rham).first_violation()
        if violation is not None:
            raise violation
    if aim.noneffective:
        return NoneffectiveReport(points=aim.noneffective)
    # every m_i + d >= 0 sums to (n-2) r + (n-1) d >= 0, so r + d > 0
    out = MonodromyVector([EigDivisor(vector.mode, entries)
                           for entries in _apply(_plus, classes, aim, beta.v)])
    assert all(k.degree() == vector.rank + aim.defect for k in out), "rank law r' = r + d"
    return out


def kappa_values(beta: Convoluter, vector: MonodromyVector, assignment: dict):
    """``kappa``'s output valued at ``assignment``, with no transformed vector:
    one (value, multiplicity) list per point, or a NoneffectiveReport.

    The conventions are checked exactly first, as by ``kappa``.  The
    formula then runs with the valuation x -> exp(2 pi i x(assignment)) as
    its group law, a homomorphism into the nonzero complex numbers that is
    the identity on the values it has produced: each eigenvalue a of g_i is
    valued once and u_i = t h_i v_i once per point, a kept a gives
    val(a) val(u_i), and val(v_i) gets m_i(h_i^{-1}) + d.  Multiplicative
    mode only.
    """
    if vector.mode is not GroupMode.MULTIPLICATIVE:
        raise ModeMismatch("the valuation needs multiplicative mode")
    classes, aim = _aimed(beta, vector)
    violation = _report(beta, vector, aim, False).first_violation()
    if violation is not None:
        raise violation
    if aim.noneffective:
        return NoneffectiveReport(points=aim.noneffective)

    def value(x) -> complex:
        return x if isinstance(x, complex) else x.to_complex(assignment)
    return _apply(lambda a, b: value(a) * value(b), classes, aim, [value(e) for e in beta.v])


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
    bad = _aimed(beta, vector)[1].noneffective
    return NoneffectiveReport(points=bad).certificate if bad else None


class TerminalStatus(enum.Enum):
    # ALL_DIAGONAL covers every scalar-classes terminal, rank one included.
    ALL_DIAGONAL = "AllDiagonal"
    EMPTY_NONEFFECTIVE = "EmptyNoneffective"
    POSITIVE_DEFECT = "PositiveDefect"
    CONVENTION_FAILURE = "ConventionFailure"


class _Rows:
    """Eigenvalues as dense integer rows, read from a document's parts: the
    working form of ``transform``, ``defect`` and the reduction loop.

    c + sum e_j g_j is the tuple (c, e_1, ..., e_g) of numerators over one
    denominator ``den``, c reduced mod ``mod`` (``den`` unless additive, 0
    for none), so equal elements have equal rows.  Position j holds
    ``names[j - 1]``: in name order, then each loop step's fresh names.  A
    vector is a list of dicts {row: multiplicity}, one per point."""

    def __init__(self, mode: GroupMode, den: int, names: list[str]):
        self.mode, self.den, self.names = mode, den, names
        self.mod = 0 if mode is GroupMode.ADDITIVE else den
        self.pos = {n: k for k, n in enumerate(names, 1)}

    @classmethod
    def read(cls, mode: GroupMode, points: list, values: list = (), names: set | None = None):
        """(rows, classes) of ``points``, per point (value, multiplicity) pairs
        with values as ``scalars._parts`` reads them, duplicates merged; the
        names are ``names``, or those of the points and ``values``."""
        every = [a for entries in points for a, _ in entries] + [*values]
        if names is None:
            names = {x for _, _, t in every for x, _, _ in t}
        rows = cls(mode, lcm(*[e for _, e, _ in every], *[q for _, _, t in every for _, _, q in t]),
                   sorted(names))
        classes, row = [], rows.row
        for entries in points:
            g = {}
            for a, m in entries:
                a = row(a)
                g[a] = g.get(a, 0) + m
            classes.append(g)
        return rows, classes

    def extend(self, names: list[str]):
        for n in names:
            if n not in self.pos:
                self.names.append(n)
                self.pos[n] = len(self.names)

    def row(self, parts: tuple) -> tuple:
        """The row of ``scalars._parts``' (c, e, [(name, p, q)]): c/e + sum p/q name."""
        c, e, terms = parts
        den, pos = self.den, self.pos
        out = [0] * (len(self.names) + 1)
        out[0] = c * (den // e) % self.mod if self.mod else c * (den // e)
        for n, p, q in terms:
            out[pos[n]] = p * (den // q)
        return tuple(out)

    def plus(self, a: tuple, b: tuple | None = None) -> tuple:
        """The group law of rows: a + b, or -a with b omitted."""
        s = [*map(add, a, b)] if b else [*map(neg, a)]
        if self.mod:
            s[0] %= self.mod
        return tuple(s)

    def key(self, row: tuple) -> tuple:
        """``ScalarExpr.__lt__``'s order: the constant, then the nonzero
        (name, numerator) terms in name order."""
        t = row[1:]
        return row[0], sorted(zip(compress(self.names, t), filter(None, t)))

    def ordered(self, entries) -> dict:
        """(row, multiplicity) ``entries`` as a class in ``EigDivisor`` entry order."""
        key = self.key
        return dict(sorted(entries, key=lambda e: key(e[0])))

    def top(self, g: dict, in_order: bool = False) -> tuple:
        """The eigenvalue of largest multiplicity in ``g``, ties broken to
        the smallest as by ``EigDivisor.max_multiplicity`` (the first, when
        g is ``in_order``)."""
        m = max(g.values())
        tied = [a for a, k in g.items() if k == m]
        return tied[0] if in_order or len(tied) == 1 else min(tied, key=self.key)

    def twist(self, classes: list, v_policy: str, names: list[str] = (), h: list | None = None,
              in_order: bool = False) -> tuple[list, list]:
        """(h, v) in rows: the given h or ``max_mult_convoluter``'s (h_i the
        inverse of ``top`` of class i), and v = h or, under fresh v,
        ``Convoluter.with_fresh_v``'s v_i = h_i s_i with the fresh ``names``
        s_1 .. s_{n-1} and s_n closing prod(s) = 1."""
        if h is None:
            h = [self.plus(self.top(g, in_order)) for g in classes]
        if v_policy == "same":
            return h, h
        if v_policy != "fresh":
            raise ValueError(f"unknown v policy {v_policy!r}")
        check_fresh(self.mode)
        v = [list(x) for x in h]
        for vi, n in zip(v, names):
            vi[self.pos[n]] += self.den
            v[-1][self.pos[n]] -= self.den
        return h, [*map(tuple, v)]

    def element(self, row: tuple) -> GroupElement:
        return _element(self.mode, _normal(self.den, row[0], tuple(self.key(row)[1])))

    def vector(self, classes: list[dict]) -> MonodromyVector:
        return MonodromyVector([EigDivisor(self.mode, [(self.element(a), m) for a, m in g.items()])
                                for g in classes])

    def writer(self):
        """``(value, vector, twist)``, writing a row, classes and (h, v) as the
        objects' ``to_json`` do, each numerator's text made once."""
        mode, names = self.mode.value, self.names
        text = cache(partial(_ratio, d=self.den))

        def value(row: tuple) -> dict:
            terms = row[1:]
            return {"const": text(row[0]),
                    "exps": dict(zip(compress(names, terms), map(text, filter(None, terms))))}

        def vector(classes: list) -> dict:
            return {"mode": mode, "points": len(classes), "classes": [
                [{"value": value(a), "mult": m} for a, m in g.items()] for g in classes]}

        def twist(h: list, v: list) -> dict:
            h_json = [value(a) for a in h]
            return {"h": h_json, "v": h_json if v is h else [value(a) for a in v]}
        return value, vector, twist

def row_defect(classes: list, inv: Sequence | None = None) -> int:
    """``defect`` on {eigenvalue: multiplicity} classes: (n-2) r - sum of
    m_i(inv_i), or of the maximal multiplicities with ``inv`` omitted."""
    n, r = len(classes), sum(classes[0].values())
    if inv is None:
        return (n - 2) * r - sum(max(g.values()) for g in classes)
    return (n - 2) * r - sum(g.get(a, 0) for g, a in zip(classes, inv))


def row_step(rows: _Rows, classes: list, h: list, v: list, positive_stops: bool = False):
    """``kappa`` by the twist (h, v) on rows, the step of ``transform`` and of
    the reduction loop: the formula's data and a failing ConventionReport,
    a NoneffectiveReport or the output classes in ``EigDivisor`` entry
    order.  With ``positive_stops`` a defect d >= 0 gives None first."""
    r = sum(classes[0].values())
    aim = _aim(rows.plus, classes, [rows.plus(x) for x in h], r)
    if positive_stops and aim.defect >= 0:
        return aim, None
    if not aim.chi_nontrivial or aim.witnesses:
        return aim, ConventionReport(aim.chi_nontrivial, not aim.witnesses, tuple(
            (i, rows.element(a)) for i, a in aim.witnesses))
    if aim.noneffective:
        return aim, NoneffectiveReport(aim.noneffective)
    output = [rows.ordered(entries) for entries in _apply(rows.plus, classes, aim, v)]
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
    beta = property(lambda self: Convoluter(map(self.rows.element, self.h_rows),
                                            map(self.rows.element, self.v_rows)))


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
    one); otherwise aim the convoluter at maximal multiplicities, as
    ``max_mult_convoluter`` does; stop at PositiveDefect when d >= 0, at
    ConventionFailure with the report when (beta, input) fails the
    conventions, and at EmptyNoneffective with a certificate; else step.
    Every recorded step has d < 0, so at most ``rank`` steps can happen.
    ``vector`` is a MonodromyVector or a document's (mode, points) as
    ``docio.parse_document`` reads them; each step is ``row_step``, with
    no ``ScalarExpr`` arithmetic.
    """
    if isinstance(vector, MonodromyVector):
        vector = vector.mode, [[((a.expr._c, a.expr._d, [(x, y, a.expr._d) for x, y in a.expr._t]),
                                 m) for a, m in g.entries] for g in vector]
    rows, classes = _Rows.read(*vector)
    if rows.mode is GroupMode.CIRCLE:
        raise ModeMismatch("the reduction loop runs in multiplicative or additive mode")
    current = [rows.ordered(g.items()) for g in classes]  # the answer writes EigDivisor's order
    n = len(current)
    max_steps = sum(current[0].values()) if max_steps is None else max_steps
    steps = []
    for step in range(max_steps + 1):
        if all(len(g) == 1 for g in current):
            return AlgorithmTrace(rows, tuple(steps), TerminalStatus.ALL_DIAGONAL, current)
        work, names = current, ()  # ``current`` widened by this step's fresh generators
        if v_policy == "fresh":
            # fresh generators must be fresh per step, not reused across steps
            live = [any(col) for col in zip(*(a for g in current for a in g))]
            names = fresh_names(n - 1, {x for x, y in zip(rows.names, live[1:]) if y},
                                f"_s{step}_")
            rows.extend(names)
            if pad := (0,) * (len(rows.names) + 1 - len(live)):
                work = [{a + pad: m for a, m in g.items()} for g in current]
        h, v = rows.twist(work, v_policy, names, in_order=True)
        aim, output = row_step(rows, work, h, v, positive_stops=True)
        if output is None:
            return AlgorithmTrace(rows, tuple(steps), TerminalStatus.POSITIVE_DEFECT, current)
        if isinstance(output, ConventionReport):
            return AlgorithmTrace(rows, tuple(steps), TerminalStatus.CONVENTION_FAILURE,
                                  current, report=output)
        if isinstance(output, NoneffectiveReport):
            return AlgorithmTrace(rows, tuple(steps), TerminalStatus.EMPTY_NONEFFECTIVE, current,
                                  output.certificate)
        # The partner pair (beta', output) passes too: h' = v^-1 and t' = t^-1,
        # so t' h'_i v_i = t^-1 != 1 at the new eigenvalue [v_i] and
        # t' h'_i a u_i = a h_i != 1 at each kept a u_i (de Rham flavor alike).
        steps.append(KatzStep(rows, current, h, v, aim.defect, output))
        current = output
    raise MaxStepsExceeded(f"no terminal state after {max_steps} steps")

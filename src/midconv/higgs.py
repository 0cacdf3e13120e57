"""Degree-zero cyclotomic parabolic Higgs bundles from circle weights.

In the nonnegative-defect range a rank-r local monodromy vector with
eigenvalues on the unit circle is realized by a chain of r parabolic
line bundles E^1 .. E^r with maps E^j -> E^{j+1} (cyclically) that
vanish at every point where the source weight is >= the target weight.
The data are, for every point, an ordering of its weights (an
"arrangement") with the least possible number of cyclic descents, the
extra-zero counts z_j (summing to the defect) and the line-bundle
degrees k_j.

The construction is closed form.  With k_1 = 0 the parabolic degree is,
modulo r, the total weight plus (2 - n) r(r-1)/2, minus S, minus
sum_j j z_j, where S sums the descent positions of all arrangements.
A positive defect clears that residue by where it puts one extra zero;
at defect zero one point with unequal multiplicities is rearranged
instead (``shifted_arrangement``).  k_1 then makes the degree exactly
zero.

Everything is exact integer arithmetic, no tolerances: weights are
numerators over a common denominator, and ``Fraction`` appears only in
the public views (``Arrangement.seq``, ``parabolic_degree``).
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .divisors import EigDivisor, MonodromyVector
from .errors import (CyclicClosureViolation, DefectPrecondition, DegreeNotIntegral,
                     ModeMismatch, PreconditionDim2, SizeMismatch)
from .katz import defect
from .moduli import DimensionReport, dimension_report
from .scalars import GroupMode, _ratio

__all__ = [
    "Arrangement",
    "HiggsData",
    "good_arrangement",
    "shifted_arrangement",
    "taus",
    "derive_k",
    "parabolic_degree",
    "degree_closed_forms",
    "construct",
    "verify",
    "HiggsReport",
]


class Arrangement:
    """A sequence listing a circle divisor's weights with multiplicity,
    as numerators ``nums`` over ``den``, the lcm of their lowest-terms
    denominators (one representation each; ``seq`` is the Fraction view).

    Descent positions are the cyclic indices t with a_t >= a_{t+1}
    (index r+1 wrapping to 1).  The arrangement is *good* when the
    number of descents equals the divisor's maximal multiplicity, which
    is the least possible.
    """

    __slots__ = ("nums", "den", "_ds")

    def __new__(cls, seq: Sequence[Fraction]):
        seq = [Fraction(a) for a in seq]
        den = lcm(*(a.denominator for a in seq))
        return cls._from_ints([a.numerator * (den // a.denominator) for a in seq], den)

    @classmethod
    def _from_ints(cls, nums: Sequence[int], den: int) -> "Arrangement":
        """The arrangement of the weights nums[t] / den, for any den > 0."""
        if not nums:
            raise ValueError("empty arrangement")
        if any(not (0 <= x < den) for x in nums):
            raise ValueError("weights must lie in [0, 1)")
        g = gcd(den, *nums)
        nums = tuple([x // g for x in nums])
        arr = object.__new__(cls)
        object.__setattr__(arr, "nums", nums)
        object.__setattr__(arr, "den", den // g)
        # the descents, computed once: construct and verify read them many times
        object.__setattr__(arr, "_ds", tuple(
            [t for t, (a, b) in enumerate(zip(nums, nums[1:] + nums[:1]), 1) if a >= b]))
        return arr

    def __setattr__(self, name, value):
        raise AttributeError("Arrangement is immutable")

    @property
    def seq(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    @property
    def r(self) -> int:
        return len(self.nums)

    def descents(self) -> tuple[int, ...]:
        """1-based cyclic descent positions."""
        return self._ds

    def parts(self) -> list[tuple[Fraction, ...]]:
        """Maximal strictly increasing cyclic runs, split at the descents.

        Every arrangement has at least one descent (the weights cannot
        ascend strictly all the way around the circle).  When position r
        is not a descent the final run wraps past it and is returned as
        one piece; concatenating the parts then reconstructs a rotation
        of the sequence, not the sequence itself.
        """
        return self._runs(self.seq)

    def _runs(self, items: tuple) -> list[tuple]:
        """``items`` (one per position) cut into the runs of ``parts``."""
        ds = self.descents()
        out = []
        prev = ds[-1]
        for t in ds:
            out.append(items[prev:t] if prev < t else items[prev:] + items[:t])
            prev = t
        return out

    def max_multiplicity(self) -> int:
        return max(Counter(self.nums).values())

    @property
    def is_good(self) -> bool:
        return len(self.descents()) == self.max_multiplicity()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Arrangement):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        return f"Arrangement({', '.join(str(a) for a in self.seq)})"

    def sawtooth(self) -> str:
        """Human-readable rendering of the ascending runs."""
        texts = tuple(_ratio(x, self.den) for x in self.nums)
        return " | ".join(" < ".join(part) for part in self._runs(texts))


def _circle_weights(g: EigDivisor) -> tuple[list[tuple[int, int]], int]:
    """(numerator, multiplicity) pairs over the lcm of the denominators, and that lcm."""
    if g.mode is not GroupMode.CIRCLE:
        raise ModeMismatch("arrangements need circle-mode divisors")
    den = lcm(*(e.expr._d for e, _ in g.entries))
    return [(e.expr._c * (den // e.expr._d), m) for e, m in g.entries], den


def good_arrangement(g: EigDivisor) -> Arrangement:
    """Greedy minimal-descent arrangement: ``shifted_arrangement(g, 0)``."""
    return shifted_arrangement(g, 0)


def shifted_arrangement(g: EigDivisor, shift: int) -> Arrangement:
    """A good arrangement whose descent positions sum to the greedy
    arrangement's minus ``shift``, modulo r.

    The greedy arrangement is nu layers, layer j holding in increasing
    order the weights of multiplicity >= j; concatenating the layers puts
    one descent at each layer boundary, which meets the lower bound nu.
    Every layer holds the weights of multiplicity nu, so every layer ends
    in a descent, and any placement of the other weights, at most one
    copy per layer, is good.  Moving a copy of a weight of multiplicity
    m < nu one layer later lowers the descent sum by 1, and its copies
    allow m (nu - m) >= nu - 1 such moves; a left rotation by one
    position lowers the sum by nu modulo r.  Needs unequal multiplicities
    when a move is needed (ValueError otherwise).
    """
    weights, den = _circle_weights(g)
    if not g.is_effective or not weights:
        raise ValueError("need a nonempty effective divisor")
    nu = max(m for _, m in weights)
    layers = [sorted([a for a, m in weights if m >= j]) for j in range(1, nu + 1)]
    rotate, moves = divmod(shift % g.degree(), nu) if shift else (0, 0)
    if moves:
        if all(m == nu for _, m in weights):
            raise ValueError("all multiplicities are equal; no weight can move")
        alpha, m = min((a, m) for a, m in weights if m < nu)
        for j in reversed(range(m)):  # the copy in layer j, the last copy first
            step = min(moves, nu - m)
            moves -= step
            layers[j].remove(alpha)
            insort(layers[j + step], alpha)
    seq = [a for layer in layers for a in layer]
    arr = Arrangement._from_ints(seq[rotate:] + seq[:rotate] if rotate else seq, den)
    assert len(arr.descents()) == nu, "layer placements and rotations keep arrangements good"
    return arr


def taus(arrangements: Sequence[Arrangement]) -> list[int]:
    """tau_j = number of points with a descent at position j (cyclic).

    Also asserts the counting identity sum(tau) = sum of the per-point
    descent counts.
    """
    r = arrangements[0].r
    if any(a.r != r for a in arrangements):
        raise SizeMismatch("all arrangements must have the same length")
    out = [0] * r
    total = 0
    for arr in arrangements:
        ds = arr.descents()
        total += len(ds)
        for t in ds:
            out[t - 1] += 1
    assert sum(out) == total
    return out


def derive_k(tau: Sequence[int], z: Sequence[int], k1: int, n: int) -> list[int]:
    """Solve k_{j+1} = k_j + tau_j + z_j + 2 - n forward from k1.

    The cyclic closure k_{r+1} = k_1 forces sum(z) + sum(tau) + r(2-n)
    = 0; a violation raises CyclicClosureViolation.
    """
    r = len(tau)
    if len(z) != r:
        raise SizeMismatch("tau and z must have the same length")
    if sum(z) + sum(tau) + r * (2 - n) != 0:
        raise CyclicClosureViolation(
            f"sum(z)={sum(z)} does not close the cycle; expected "
            f"{r * (n - 2) - sum(tau)}")
    k = [k1]
    for j in range(r - 1):
        k.append(k[-1] + tau[j] + z[j] + 2 - n)
    # closure, by the guard above
    assert k[0] == k[-1] + tau[r - 1] + z[r - 1] + 2 - n
    return k


@dataclass(frozen=True)
class HiggsData:
    """Arrangements, line-bundle degrees and extra-zero counts of a
    rank-r cyclotomic parabolic Higgs bundle."""

    arrangements: tuple
    k: tuple
    z: tuple
    tau: tuple

    @property
    def n(self) -> int:
        return len(self.arrangements)

    @property
    def r(self) -> int:
        return self.arrangements[0].r

    def to_json(self) -> dict:
        return {
            "arrangements": [[_ratio(x, arr.den) for x in arr.nums]
                             for arr in self.arrangements],
            "k": list(self.k),
            "z": list(self.z),
            "tau": list(self.tau),
            "degree_check": _ratio(*_degree(self)),
            "sawtooth": [arr.sawtooth() for arr in self.arrangements],
        }


def _degree(data: HiggsData) -> tuple[int, int]:
    """The parabolic degree over the lcm of the arrangements' denominators."""
    den = lcm(*(arr.den for arr in data.arrangements))
    return sum(data.k) * den + sum(sum(arr.nums) * (den // arr.den)
                                   for arr in data.arrangements), den


def parabolic_degree(data: HiggsData) -> Fraction:
    """sum k_j + sum of all weights; the direct sum is the ground truth
    (the closed forms are cross-checks, see degree_closed_forms)."""
    return Fraction(*_degree(data))


def degree_closed_forms(data: HiggsData) -> dict:
    """The direct degree next to the two closed-form candidates.

    Both closed forms share the tail k_1 r + sum (r-j)(z_j + tau_j) and
    differ in the arrangement-independent constant: the first uses
    sum_j j(r-j)(2-n), the second the coefficient (2-n) r(r-1)/2 that
    forward-substituting the k recursion actually produces.  The report
    states which (if either) matches the direct sum.
    """
    r, n = data.r, data.n
    direct, den = _degree(data)  # numerators over den from here on
    weight_sum = direct - sum(data.k) * den
    tail = data.k[0] * r + sum((r - (j + 1)) * (data.z[j] + data.tau[j])
                               for j in range(r))
    const_a = sum(j * (r - j) * (2 - n) for j in range(1, r + 1))
    const_b = (2 - n) * r * (r - 1) // 2
    form_a = weight_sum + (const_a + tail) * den
    form_b = weight_sum + (const_b + tail) * den
    return {
        "direct": Fraction(direct, den),
        "form_with_j_r_minus_j_constant": Fraction(form_a, den),
        "form_with_substituted_constant": Fraction(form_b, den),
        "matches_direct": {
            "form_with_j_r_minus_j_constant": form_a == direct,
            "form_with_substituted_constant": form_b == direct,
        },
    }


def _degree_for(arrs: Sequence[Arrangement], z: Sequence[int], n: int,
                k1: int = 0) -> tuple[int, HiggsData]:
    """The data that k1 gives and its degree, an integer as the total weight is."""
    tau = taus(arrs)
    data = HiggsData(arrangements=tuple(arrs), k=tuple(derive_k(tau, z, k1, n)),
                     z=tuple(z), tau=tuple(tau))
    num, den = _degree(data)
    assert num % den == 0, "the total weight is integral"
    return num // den, data


def _check_preconditions(vector: MonodromyVector) -> DimensionReport:
    if vector.mode is not GroupMode.CIRCLE:
        raise ModeMismatch("the construction needs circle-mode weights")
    den = lcm(*(e.expr._d for g in vector for e, _ in g.entries))
    total = sum(m * e.expr._c * (den // e.expr._d) for g in vector for e, m in g.entries)
    if total % den:
        raise DegreeNotIntegral(
            f"total weight {_ratio(total, den)} is not an integer; no degree-zero bundle exists")
    report = dimension_report(vector)
    if report.defect < 0:
        raise DefectPrecondition(f"defect {report.defect} < 0")
    if report.defect == 0 and report.superdefect == 0:
        raise PreconditionDim2(
            "defect and superdefect both vanish (a dimension-2 family); "
            "this construction does not apply")
    return report


def construct(vector: MonodromyVector) -> HiggsData:
    """Build degree-zero Higgs data for a circle-mode vector.

    Preconditions: integral total weight, defect d >= 0 and, when d = 0,
    positive superdefect.  Start from the greedy arrangements with all d
    extra zeros at index r; with k_1 = 0 the degree falls short of a
    multiple of r by shift = -degree mod r.  A positive defect moves one
    extra zero to index r - shift, which adds shift to the degree.  At
    defect zero z is forced to 0, and the first point with positive
    superdefect (hence unequal multiplicities) takes the arrangement
    whose descent sum is lower by shift, which adds shift modulo r.
    k_1 = -degree / r then makes the degree exactly zero.
    """
    report = _check_preconditions(vector)
    n, r, d = vector.n, vector.rank, report.defect
    arrs = [good_arrangement(g) for g in vector]
    z = [0] * r
    z[r - 1] = d
    shift = -_degree_for(arrs, z, n)[0] % r
    if shift and d:
        z[r - 1] -= 1
        z[r - 1 - shift] += 1
    elif shift:
        i = next(i for i, s in enumerate(report.superdefects) if s)
        arrs[i] = shifted_arrangement(vector[i], shift)
    deg0, _ = _degree_for(arrs, z, n)
    assert deg0 % r == 0
    deg, data = _degree_for(arrs, z, n, k1=-deg0 // r)
    assert deg == 0
    return data


@dataclass(frozen=True)
class HiggsReport:
    """Independent re-checks of a HiggsData against its vector."""

    checks: dict

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        return {"checks": dict(self.checks), "ok": self.ok}


def verify(data: HiggsData, vector: MonodromyVector) -> HiggsReport:
    """Re-derive every invariant from raw data.

    Checks: per-point weight multisets equal the divisors; arrangements
    good; tau recomputed matches; z recomputed from the k-sequence
    matches and is nonnegative (the chain maps exist); sum(z) equals the
    defect; parabolic degree exactly zero; and the per-index map bound
    tau_j <= k_{j+1} - k_j + n - 2 with equality exactly when z_j = 0.
    """
    n, r = data.n, data.r
    checks = {}
    checks["point_count"] = n == vector.n and r == vector.rank
    checks["weights_match"] = vector.mode is GroupMode.CIRCLE and all(
        (arr.den, Counter(arr.nums)) == (den, dict(w))
        for arr, (w, den) in zip(data.arrangements, map(_circle_weights, vector)))
    checks["arrangements_good"] = all(arr.is_good for arr in data.arrangements)
    tau = taus(data.arrangements)
    checks["tau_matches"] = tuple(tau) == tuple(data.tau)
    k = list(data.k)
    z_re = [k[(j + 1) % r] - (tau[j] + k[j] + 2 - n) for j in range(r)]
    checks["z_matches"] = tuple(z_re) == tuple(data.z)
    checks["theta_maps_exist"] = all(zj >= 0 for zj in z_re)
    checks["z_sums_to_defect"] = sum(z_re) == defect(vector)
    checks["degree_zero"] = _degree(data)[0] == 0
    checks["map_bounds"] = all(
        tau[j] <= k[(j + 1) % r] - k[j] + n - 2
        and ((tau[j] == k[(j + 1) % r] - k[j] + n - 2) == (z_re[j] == 0))
        for j in range(r))
    return HiggsReport(checks=checks)

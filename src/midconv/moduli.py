"""Integer dimension analytics for the moduli spaces.

Only numerical invariants of the polymultiplicity vector (PMV), the
multiplicities at each point, are computed here: conjugacy-class
dimensions, the naive dimension count, its defect/superdefect
decomposition, and the classification of the dimension-2 PMVs.  No
moduli geometry is modeled, and nothing here reads an eigenvalue.

With nu_i the largest multiplicity at point i, the superdefect
sigma_i = class_dim_i - r (r - nu_i) = sum_j m_j (nu_i - m_j) is >= 0,
zero exactly when the point's parts are equal, and
naive_dim = 2 + r d + sum_i sigma_i.  Dimension 2 with defect d >= 0 is
therefore the equation d = 0 over equal-part points, which
``dim2_census`` solves directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Optional, Sequence

from .errors import DefectPrecondition

__all__ = [
    "DimensionReport",
    "dimension_report",
    "classify_dim2",
    "dim2_census",
    "FAMILY_TAGS",
]

# The four dimension-2 families, keyed by the multiset of part counts of
# the (all-equal-multiplicity) partitions at the points.
FAMILY_TAGS = {
    (2, 2, 2, 2): "Quad_dd_x4",
    (3, 3, 3): "Tri_ddd_x3",
    (2, 4, 4): "Tri_2d2d_d4_d4",
    (2, 3, 6): "Tri_3d3d_2d3_d6",
}


def class_dim(r: int, partition: Sequence[int]) -> int:
    """Dimension of the semisimple conjugacy class with these multiplicities."""
    return r * r - sum(m * m for m in partition)


@dataclass(frozen=True)
class DimensionReport:
    """All integer invariants of one polymultiplicity vector.

    ``naive_dim`` is computed both as sum(class_dims) - 2 r^2 + 2 and as
    2 + r * defect + superdefect; construction asserts the two agree.
    """

    r: int
    n: int
    class_dims: tuple[int, ...]
    naive_dim: int
    defect: int
    superdefects: tuple[int, ...]
    superdefect: int

    def to_json(self) -> dict:
        return {
            "rank": self.r,
            "points": self.n,
            "class_dims": list(self.class_dims),
            "naive_dim": self.naive_dim,
            "defect": self.defect,
            "superdefects": list(self.superdefects),
            "superdefect": self.superdefect,
        }


def dimension_report(pmv: Sequence[Sequence[int]]) -> DimensionReport:
    """The invariants of the multiplicities ``pmv``; r is their sum at a point."""
    n, r = len(pmv), sum(pmv[0])
    dims = tuple(class_dim(r, p) for p in pmv)
    naive = sum(dims) - 2 * r * r + 2
    nus = [max(p) for p in pmv]
    d = (n - 2) * r - sum(nus)
    sigmas = tuple(dim - r * (r - nu) for dim, nu in zip(dims, nus))
    sigma = sum(sigmas)
    assert all(s >= 0 for s in sigmas), "superdefects are nonnegative"
    assert naive == 2 + r * d + sigma, "the two dimension formulas agree"
    return DimensionReport(r=r, n=n, class_dims=dims, naive_dim=naive,
                           defect=d, superdefects=sigmas, superdefect=sigma)


def classify_dim2(pmv: Sequence[Sequence[int]]) -> Optional[str]:
    """Family tag for a PMV with naive dimension 2, else None.

    Precondition defect >= 0 (raises DefectPrecondition otherwise).
    Matching is on the PMV only, up to reordering of points and parts;
    eigenvalue values are irrelevant.
    """
    return _family(dimension_report(pmv), pmv)


def _family(report: DimensionReport, pmv: Sequence[Sequence[int]]) -> Optional[str]:
    """``classify_dim2`` of ``pmv`` given its ``dimension_report``."""
    if report.defect < 0:
        raise DefectPrecondition(f"defect {report.defect} < 0")
    if report.naive_dim != 2:
        return None
    # dimension 2 with d >= 0 forces d = 0 and all superdefects zero,
    # i.e. every point has all multiplicities equal
    assert report.defect == 0 and report.superdefect == 0
    assert all(len(set(p)) == 1 for p in pmv)
    # a scalar point changes neither the defect nor the naive dimension
    key = tuple(sorted(len(p) for p in pmv if len(p) > 1))
    tag = FAMILY_TAGS.get(key)
    assert tag is not None, f"unlisted dimension-2 shape {pmv}"
    return tag


# ---------------------------------------------------------------------------
# The dimension-2 census
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _partitions(r: int, cap: Optional[int] = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of r with parts at most cap (default r), parts in
    descending order, listed in descending lexicographic order."""
    if r == 0:
        return ((),)
    return tuple((part, *rest) for part in range(min(cap or r, r), 0, -1)
                 for rest in _partitions(r - part, part))


def dim2_census(max_rank: int, max_points: int,
                allow_scalar_points: bool = False) -> list[tuple[int, int, tuple]]:
    """All PMV multisets with defect >= 0 and naive dimension exactly 2.

    Scans every rank r <= max_rank and point count 3 <= n <= max_points.
    Scalar classes (the one-part partition, i.e. a puncture that is not
    a genuine singularity) are excluded by default: adding one to any
    solution yields another with the same invariants, so the census is
    stated for honest singularities.

    No search: as sigma_i = sum_j m_j (nu_i - m_j) >= 0 is zero exactly
    at equal parts, naive dimension 2 with d >= 0 means k_i | r equal
    parts r / k_i at point i and d = 0, i.e. sum_i r / k_i = (n - 2) r.

    Returns (r, n, pmv) triples with the pmv sorted as a canonical
    multiset of partitions, by rank, then points, then the part counts
    k_1 >= k_2 >= ... in descending lexicographic order.
    """
    solutions = []
    for r in range(1, max_rank + 1):
        ks = [k for k in range(r, 0 if allow_scalar_points else 1, -1) if r % k == 0]
        for n in range(3, max_points + 1):
            for combo in combinations_with_replacement(ks, n):
                if sum(r // k for k in combo) == (n - 2) * r:
                    solutions.append((r, n, tuple(sorted((r // k,) * k for k in combo))))
    return solutions

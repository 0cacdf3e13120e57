"""Dimension analytics and the dimension-2 census."""

import itertools

import numpy as np
import pytest

from helpers import centre_reflection_ranks, random_beta, random_vector, tits_form
from midconv import (EigDivisor, GroupElement, GroupMode, MonodromyVector,
                     classify_dim2, defect, dim2_census, dimension_report,
                     kappa, run_algorithm)
from midconv.errors import DefectPrecondition
from midconv.katz import max_mult_convoluter
from midconv.moduli import _partitions, _report_from_pmv, class_dim, classify_dim2_pmv

MULT = GroupMode.MULTIPLICATIVE


def gen(name):
    return GroupElement.generator(name, MULT)


def vector_with_pmv(pmv):
    divisors = []
    for i, part in enumerate(pmv):
        divisors.append(EigDivisor(MULT, [(gen(f"v{i}_{j}"), m)
                                          for j, m in enumerate(part)]))
    return MonodromyVector(divisors)


class TestDimensionReport:
    def test_quad_dd_with_d_one(self):
        rep = dimension_report(vector_with_pmv([(1, 1)] * 4))
        assert rep.class_dims == (2, 2, 2, 2)
        assert rep.naive_dim == 8 - 8 + 2 == 2
        assert rep.defect == 0 and rep.superdefect == 0

    def test_rank_one_rigid(self):
        rep = dimension_report(vector_with_pmv([(1,)] * 3))
        assert rep.class_dims == (0, 0, 0)
        assert rep.naive_dim == 0 - 2 + 2 == 0

    def test_2244_family_with_d_one(self):
        rep = dimension_report(vector_with_pmv([(2, 2), (1, 1, 1, 1), (1, 1, 1, 1)]))
        assert rep.class_dims == (8, 12, 12)
        assert rep.naive_dim == 32 - 32 + 2 == 2

    def test_formulas_cross_checked_on_random_pmvs(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            r = int(rng.integers(1, 13))
            n = int(rng.integers(3, 7))
            pmv = []
            for _ in range(n):
                parts = _partitions(r)
                pmv.append(parts[int(rng.integers(0, len(parts)))])
            rep = _report_from_pmv(r, pmv)  # asserts both identities inside
            assert rep.naive_dim == 2 + r * rep.defect + rep.superdefect

    def test_superdefect_zero_iff_equal_multiplicities(self):
        for r in range(1, 13):
            for p in _partitions(r):
                sigma = class_dim(r, p) - r * (r - p[0])
                assert sigma >= 0
                assert (sigma == 0) == (len(set(p)) == 1)


class TestClassifyDim2:
    def test_3d3d_family(self):
        v = vector_with_pmv([(3, 3), (2, 2, 2), (1, 1, 1, 1, 1, 1)])
        assert classify_dim2(v) == "Tri_3d3d_2d3_d6"

    def test_negative_defect_rejected(self):
        v = vector_with_pmv([(2, 2), (2, 2), (2, 2)])
        assert defect(v) == (3 - 2) * 4 - 6 == -2
        with pytest.raises(DefectPrecondition):
            classify_dim2(v)

    def test_tri_ddd_family(self):
        v = vector_with_pmv([(1, 1, 1)] * 3)
        assert classify_dim2(v) == "Tri_ddd_x3"

    def test_scalar_point_is_ignored(self):
        v = vector_with_pmv([(1, 1, 1)] * 3 + [(3,)])
        assert defect(v) == 0 and dimension_report(v).naive_dim == 2
        assert classify_dim2(v) == "Tri_ddd_x3"

    def test_not_dimension_two(self):
        v = vector_with_pmv([(1, 1, 1)] * 4)
        assert defect(v) == 2
        assert classify_dim2(v) is None

    def test_scaled_families(self):
        assert classify_dim2_pmv(4, [(2, 2)] * 4) == "Quad_dd_x4"
        assert classify_dim2_pmv(8, [(4, 4), (2, 2, 2, 2), (2, 2, 2, 2)]) \
            == "Tri_2d2d_d4_d4"


class TestMiddleH1:
    def test_transform_rank_via_identity_multiplicities(self):
        # shift each class by its twist and add the diagonal point: the
        # middle-H1 dimension over the n+1 points, r (n+1-2) minus the
        # identity multiplicities, equals r + defect
        rng = np.random.default_rng(4)
        for trial in range(15):
            r = int(rng.integers(1, 6))
            n = int(rng.integers(3, 6))
            vec = random_vector(rng, MULT, r, n, f"mh{trial}")
            beta = (max_mult_convoluter(vec) if trial % 2
                    else random_beta(rng, vec, "fresh", "same", f"mh{trial}"))
            shifted = [EigDivisor(MULT, [(e.combine(h), m) for e, m in g.entries])
                       for g, h in zip(vec, beta.h)]
            diag = EigDivisor(MULT, [(beta.t, r)])
            extended = MonodromyVector(shifted + [diag])
            one = GroupElement.identity(MULT)
            assert not diag.multiplicity(one)  # a point free of fixed vectors
            h1 = r * (extended.n - 2) - sum(g.multiplicity(one) for g in extended)
            assert h1 == r + defect(vec, beta)


def brute_force_dim2(max_rank, max_points, allow_scalar_points=False):
    """Plain enumeration over partition multisets, for cross-checking the
    census, which solves the defect-zero equation instead, on a small range."""
    out = []
    for r in range(1, max_rank + 1):
        parts = [p for p in _partitions(r) if allow_scalar_points or len(p) > 1]
        for n in range(3, max_points + 1):
            for combo in itertools.combinations_with_replacement(parts, n):
                nus = [p[0] for p in combo]
                if (n - 2) * r - sum(nus) < 0:
                    continue
                dims = [class_dim(r, p) for p in combo]
                if sum(dims) - 2 * r * r + 2 == 2:
                    out.append((r, n, tuple(sorted(combo))))
    return out


class TestCensus:
    def test_census_matches_brute_force_small(self):
        for scalars in (False, True):
            assert sorted(dim2_census(8, 5, scalars)) == sorted(brute_force_dim2(8, 5, scalars))

    def test_census_order(self):
        # rank, then points, then the part counts k_1 >= k_2 >= ... in
        # descending lexicographic order
        for scalars in (False, True):
            found = dim2_census(12, 6, scalars)
            assert found == sorted(found, key=lambda row: (
                row[0], row[1], sorted(-len(p) for p in row[2])))

    def test_census_families_only(self):
        found = dim2_census(12, 6)
        tags = {}
        for r, n, pmv in found:
            tag = classify_dim2_pmv(r, pmv)
            assert tag is not None
            tags.setdefault(tag, []).append((r, n))
        assert set(tags) == {"Quad_dd_x4", "Tri_ddd_x3", "Tri_2d2d_d4_d4",
                             "Tri_3d3d_2d3_d6"}
        assert sorted(tags["Quad_dd_x4"]) == [(2 * d, 4) for d in range(1, 7)]
        assert sorted(tags["Tri_ddd_x3"]) == [(3 * d, 3) for d in range(1, 5)]
        assert sorted(tags["Tri_2d2d_d4_d4"]) == [(4 * d, 3) for d in range(1, 4)]
        assert sorted(tags["Tri_3d3d_2d3_d6"]) == [(6 * d, 3) for d in range(1, 3)]

    def test_scalar_points_extend_families(self):
        # with scalar punctures allowed, every solution is a listed family
        # plus scalar points; spot-check one such extension exists
        found = dim2_census(4, 5, allow_scalar_points=True)
        assert (4, 5, tuple(sorted([(4,), (4,), (2, 2), (1, 1, 1, 1),
                                    (1, 1, 1, 1)]))) in found
        for r, n, pmv in found:
            core = [p for p in pmv if len(p) > 1]
            key = tuple(sorted(len(p) for p in core))
            assert key in {(2, 2, 2, 2), (3, 3, 3), (2, 4, 4), (2, 3, 6)}
            assert classify_dim2_pmv(r, pmv) is not None


class TestTitsForm:
    def test_sweep_against_the_star_quiver(self):
        # naive_dim = 2 - 2 q(alpha), and the reduction loop is the
        # reflection at the centre of the star quiver
        rng = np.random.default_rng(2003)
        for trial in range(600):
            mode = (MULT, GroupMode.ADDITIVE)[trial % 2]
            vec = random_vector(rng, mode, int(rng.integers(1, 13)),
                                int(rng.integers(3, 6)), f"tf{trial}")
            r, pmv = vec.rank, vec.pmv()
            assert dimension_report(vec).naive_dim == 2 - 2 * tits_form(r, pmv)
            assert run_algorithm(vec).ranks == centre_reflection_ranks(r, pmv), pmv

    @pytest.mark.parametrize("scalars", [False, True])
    def test_census_rows_are_isotropic(self, scalars):
        # the dimension-2 families are multiples of the minimal imaginary
        # roots of the affine star diagrams D4, E6, E7 and E8
        for r, _, pmv in dim2_census(12, 6, scalars):
            assert tits_form(r, pmv) == 0, pmv


class TestTransformInvariance:
    def test_virtual_dimension_preserved(self):
        rng = np.random.default_rng(21)
        checked = 0
        trial = 0
        while checked < 15:
            trial += 1
            vec = random_vector(rng, MULT, int(rng.integers(2, 6)),
                                int(rng.integers(3, 6)), f"tv{trial}")
            beta = random_beta(rng, vec, "maxmult", "same", f"tv{trial}")
            out = kappa(beta, vec)
            if not isinstance(out, MonodromyVector):
                continue
            assert dimension_report(out).naive_dim == dimension_report(vec).naive_dim
            checked += 1

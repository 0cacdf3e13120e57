"""Moduli dimensions from multiplicity data alone.

The expected dimension of the moduli space of local systems with fixed
semisimple local classes is a pure multiplicity count, and it decomposes
as 2 + rank * defect + superdefect.  In the nonnegative-defect range the
dimension-2 locus is a short, fully classifiable list.
"""

from midconv import classify_dim2, dim2_census, dimension_report


print("=== dimension reports ===")
for pmv in [[(1, 1)] * 4,
            [(2, 2), (1, 1, 1, 1), (1, 1, 1, 1)],
            [(3, 2, 1), (2, 2, 2), (4, 2)],
            [(1,) * 5] * 3]:
    rep = dimension_report(pmv)
    print(f"pmv={pmv}")
    print(f"  class dims {rep.class_dims}  naive {rep.naive_dim} "
          f"= 2 + {rep.r}*{rep.defect} + {rep.superdefect}")

print("\n=== the dimension-2 census, ranks <= 12, up to 6 points ===")
for r, n, pmv in dim2_census(12, 6):
    tag = classify_dim2(pmv)
    print(f"  r={r:2d} n={n}  {pmv}  ->  {tag}")

print("""
Scalar punctures (a single eigenvalue of full multiplicity) are excluded
above: they impose no condition beyond a determinant twist, and allowing
them just pads each family with extra trivial points:""")
for r, n, pmv in dim2_census(4, 5, allow_scalar_points=True):
    if any(len(p) == 1 for p in pmv):
        print(f"  r={r} n={n}  {pmv}")

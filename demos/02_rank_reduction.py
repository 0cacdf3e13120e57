"""Driving the rank down: the reduction loop on random monodromy data.

While the defect is negative, each transformation step strictly lowers
the rank.  The loop stops at scalar classes (the rigid endgame), at a
nonnegative defect (construct directly from there), at a noneffective
output (the moduli space was empty), or at a convention failure.
"""

import numpy as np

from midconv import EigDivisor, GroupElement, GroupMode, MonodromyVector, \
    dimension_report, run_algorithm

MULT = GroupMode.MULTIPLICATIVE
rng = np.random.default_rng(2)


def random_vector(r, n, tag, max_part=None):
    divisors = []
    for i in range(n):
        left, parts = r, []
        while left > 0:
            p = int(rng.integers(1, min(max_part or r, left) + 1))
            parts.append(p)
            left -= p
        divisors.append(EigDivisor(MULT, [
            (GroupElement.generator(f"{tag}e{i}_{j}", MULT), m)
            for j, m in enumerate(sorted(parts, reverse=True))]))
    return MonodromyVector(divisors)


print("=== a hypergeometric example: rank 2, three points, distinct ===")
vec = random_vector(2, 3, "hg", max_part=1)
trace = run_algorithm(vec)
print("rank trajectory:", trace.ranks, "->", trace.status.value)
for step in trace.steps:
    print(f"  rank {step.input.rank} --(defect {step.defect})--> "
          f"rank {step.output.rank}")

print("\n=== a defect-zero family stops immediately ===")
quad = MonodromyVector([
    EigDivisor(MULT, [(GroupElement.generator(f"p{i}", MULT), 1),
                      (GroupElement.generator(f"q{i}", MULT), 1)])
    for i in range(4)])
trace = run_algorithm(quad)
rep = dimension_report(quad.pmv())
print("status:", trace.status.value, "| defect:", rep.defect,
      "| moduli dimension:", rep.naive_dim)

print("\n=== random ranks 3..6 ===")
for trial in range(6):
    vec = random_vector(int(rng.integers(3, 7)), int(rng.integers(3, 6)),
                        f"t{trial}")
    trace = run_algorithm(vec)
    print(f"n={vec.n} pmv={vec.pmv()}  ranks {trace.ranks} -> "
          f"{trace.status.value}")
    if trace.certificate is not None:
        c = trace.certificate
        print(f"    witness at point {c.point}: sum of corank bounds "
              f"{c.lhs} < rank {c.rank}")

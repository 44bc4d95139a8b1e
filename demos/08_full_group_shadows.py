"""Finite shadows of the topological full group of the Fibonacci subshift.

Table elements act as powers of the shift on clopen pieces.  On a tower
partition tall and fine enough for a generator ball, each element permutes
the atoms; the embedding report certifies injectivity, multiplicativity on
the ball, and the equivalence of pointwise and atom-level fixation.  Pushing
tower masses through atom stabilizers then computes the stabilizer IRS, and
the answer is independent of the partition level up to measure tolerance.
"""

from stabilitylab.fullgroup import (adapted_partition, ball_elements,
                                    fullgroup_irs, fullgroup_irs_limit_check,
                                    local_embedding, sample_points,
                                    tower_gadgets)
from stabilitylab.subshift import ErgodicMeasure, fibonacci

fib = fibonacci()
g1, g2 = tower_gadgets(fib, "aa", 2)
print("gadget 1:", g1)
print("gadget 2:", g2)
print("they commute:", g1 * g2 == g2 * g1, " and cube to the identity:",
      (g1 * g1 * g1).is_identity)

# The cocycle relation, checked on sampled points.
point = sample_points(fib, 1, margin=20, seed=1)[0]
g, h = g1, g2 * g1
print("cocycle relation at a sample point:",
      point.cocycle(g * h) == point.apply(h).cocycle(g) + point.cocycle(h))

# Ball growth matches the direct product of two order-3 cycles.
for radius in (1, 2):
    ball = ball_elements([g1, g2], radius)
    print(f"ball radius {radius}: {len(ball.representatives)} distinct elements")

# An adapted partition and the embedding report.
part = adapted_partition(fib, [g1, g2], 2, "aa")
print("adapted partition: atoms", len(part.atoms()),
      " min height", part.min_height)
report = local_embedding([g1, g2], 2, part)
print("embedding:", report.recommendation)

# The stabilizer IRS, at two partition levels and two tuple sizes.
measure = ErgodicMeasure(fib)
irs = fullgroup_irs(part, [g1, g2], 1, 1, measure,
                    local_embedding([g1, g2], 1, part))
print("\nstabilizer IRS at radius 1:")
for fp in irs.support():
    print(f"   {fp}  mass {irs.masses[fp]:.6f}")

check = fullgroup_irs_limit_check(fib, [g1, g2], 2, 1, ["aa", "ab"], measure)
print("two-level agreement (k=2): max TV =",
      max(max(row) for row in check.tv_matrix))
print("per ball word, P_2(w in W) vs P_1(w in W)^2, same support:",
      check.marginal_supports_match,
      f"(gap {check.marginal_max_gap:.2e})")

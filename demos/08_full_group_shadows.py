"""Finite shadows of the topological full group of the Fibonacci subshift.

Table elements act as powers of the shift on clopen pieces.  Products follow
the cocycle relation: the ball's product table, read off the elements'
cocycle rows, agrees with composing their tables.  On a tower partition tall
and fine enough for a generator ball, each element permutes the atoms; the
embedding report certifies injectivity, multiplicativity on the ball, and
that each element fixes exactly the atoms where its exponent is zero.
Pushing tower masses through atom stabilizers then computes the stabilizer
IRS, and the answer is independent of the partition level up to measure
tolerance.
"""

from stabilitylab.fullgroup import (adapted_partition, ball_elements,
                                    fullgroup_irs, fullgroup_irs_limit_check,
                                    local_embedding, tower_gadgets)
from stabilitylab.subshift import ErgodicMeasure, fibonacci

fib = fibonacci()
g1, g2 = tower_gadgets(fib, "aa", 2)
print("gadget 1:", g1)
print("gadget 2:", g2)
print("they commute:", g1 * g2 == g2 * g1, " and cube to the identity:",
      (g1 * g1 * g1).is_identity)

# The cocycle relation: products read off cocycle rows are table products.
ball = ball_elements([g1, g2], 2)
elems = [e for _, e in ball.representatives]
table = tuple(tuple(elems.index(g * h) if g * h in elems else -1 for h in elems)
              for g in elems)
print("cocycle relation on the radius-2 ball's products:", ball.products == table)

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

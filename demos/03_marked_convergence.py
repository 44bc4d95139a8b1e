"""Convergence in the space of marked groups, watched through kernels.

Two markings sit at distance 2^-nu when nu is the largest radius on which
their kernels agree.  The alternating groups with their standard 2-markings
converge to the alternating enrichment of the integers; a truncated diagonal
product of them converges as well, and words that die in the limit can only
survive in finitely many shallow factors.
"""

from stabilitylab.harness import random_az_trivial_words
from stabilitylab.marked import (alt_oracle, az_oracle, convergence_table, marked_nu,
                                 neumann_truncation, tail_defect)
from stabilitylab.words import word_to_string

target = az_oracle()

print("nu against the enrichment of Z (scanned to radius 8):")
rows = convergence_table([alt_oracle(r) for r in range(2, 9)], target, 8)
for name, nu in rows:
    print(f"  {name:6s} nu = {str(nu):>4s}   distance <= {float(nu.distance):.5f}")

# The shortest witness separating alt:2 from the limit is a^5.
print("witness radius alt:2 vs az:", marked_nu(alt_oracle(2), target, 5))

# Tail defects: random words trivial in the limit, evaluated coordinatewise
# in six alternating factors of growing rank.  Nontrivial coordinates only
# ever appear in the shallowest factors, where the cycle wraps around.
product = neumann_truncation(0, 6)
print("\ntail defects over factors of ranks",
      [f.degree // 2 for f in product.factors])
for word in random_az_trivial_words(6, seed=2):
    rep = tail_defect(word, product, target)
    print(f"  {word_to_string(word)[:36]:38s} defect factors: {rep.defect or '-'}")

"""How far apart are two finite actions of the free group?

The distance is the minimal average equivariance defect over bijections of
the point sets, a quadratic-assignment-flavored minimum.  At desk scale the
library keeps an exhaustive oracle alongside a greedy + 2-swap heuristic and
measures the gap instead of assuming it away.
"""

import random

from stabilitylab.challenges import (challenge_defect, d_gen_bound, d_gen_exact,
                                     gen_norm, is_m_good)
from stabilitylab.irs import FiniteGSet, trivial_gset
from stabilitylab.perms import GenTuple, Perm
from stabilitylab.words import WordSet, identity, word_from_string

rng = random.Random(5)


def random_gset(size):
    perms = []
    for _ in range(2):
        images = list(range(size))
        rng.shuffle(images)
        perms.append(Perm(tuple(images)))
    return FiniteGSet(GenTuple(tuple(perms)))


# A cycle against the trivial action: every bijection has defect 1/2.
cycle = FiniteGSet(GenTuple((Perm((1, 2, 3, 4, 0)), Perm((0, 1, 2, 3, 4)))))
print("cycle vs trivial, identity bijection:",
      gen_norm(range(5), cycle, trivial_gset(2, 5)))
print("exhaustive minimum:", d_gen_exact(cycle, trivial_gset(2, 5)))

# Oracle vs heuristic on random instances; the exhaustive minimum is a proven
# floor, so the restarts stop as soon as the heuristic meets it.
agreements = 0
for i in range(20):
    x, y = random_gset(6), random_gset(6)
    exact = d_gen_exact(x, y)
    bound = d_gen_bound(x, y, restarts=30, seed=i, floor=exact)
    agreements += bound.value == exact
    if i < 5:
        print(f"instance {i}: exact {exact}  heuristic {bound.value}")
print(f"heuristic met the oracle on {agreements}/20 random instances")

# The m-goodness certificate: small defect bound plus trivially-acting kernel.
kernel = WordSet(3, frozenset({identity(2), word_from_string("bbb", 2)}))
x = random_gset(6)
report = is_m_good(x, x, WordSet(1, frozenset({identity(2)})), m=3)
print("a set is always 3-good against itself:", report.passed)
print("per-word challenge defects:",
      [(str(w), str(f)) for w, f in challenge_defect(cycle, [word_from_string("a", 2) ** 5])])

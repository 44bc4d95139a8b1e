"""Invariant random subgroups of finite actions, observed through fingerprints.

The stabilizer of a uniformly random point, intersected with a word ball, is
a random fingerprint; its distribution is the computable face of the IRS of
the action.  Disjoint unions mix these distributions convexly, padding with
fixed points mixes in the full-ball atom, and any atomic IRS of a finite
group is realized exactly by a disjoint union of coset actions.
"""

from fractions import Fraction

from stabilitylab.irs import (FiniteGSet, disjoint_union, irs_distance,
                              irs_of_gset, mixture, pad_gset, point_mass_irs,
                              realize_irs_as_gset, trivial_gset)
from stabilitylab.perms import GenTuple, Perm, alt_marking, generate_closure


def show(tag, irs):
    parts = ", ".join(f"{fp}: {m}" for fp, m in
                      sorted(irs.masses.items(), key=lambda kv: kv[0].sort_key()))
    print(f"{tag:28s} {parts}")


# A 5-point union: 2 fixed points plus a free 3-point orbit.
free3 = FiniteGSet(GenTuple((Perm((1, 2, 0)), Perm((1, 2, 0)))))
union = disjoint_union(trivial_gset(2, 2), free3)
show("union of trivial+free", irs_of_gset(union, 1))

# The same distribution as a mixture, exactly.
mixed = mixture([(irs_of_gset(trivial_gset(2, 2), 1), Fraction(2, 5)),
                 (irs_of_gset(free3, 1), Fraction(3, 5))])
print("mixture reproduces the union:", mixed == irs_of_gset(union, 1))

# Padding to 7 points adds a fixed-point atom of mass 1/7.
show("padded to 7 points", irs_of_gset(pad_gset(free3, 7), 1))

# Atomic IRS of Alt(5): one third on the conjugates of <beta>, two thirds on
# the trivial subgroup, realized by coset actions with cleared denominators.
marking = alt_marking(2)
elements = list(generate_closure(marking))
atoms = [([1], Fraction(1, 3)), ([], Fraction(2, 3))]
gset = realize_irs_as_gset(elements, marking, atoms)
print(f"realization uses {gset.size} points")
show("realized atomic IRS (r=1)", irs_of_gset(gset, 1))
print("TV to the pure point mass on the trivial subgroup:",
      float(irs_distance(irs_of_gset(gset, 1), point_mass_irs(2, 1, full=False))))

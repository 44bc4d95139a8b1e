"""Independent oracles shared by module and acceptance tests.

Everything here recomputes expectations by brute force along a different
route than the library code it checks.
"""

import itertools
from fractions import Fraction

from stabilitylab.irs import CylinderFingerprint, EmpiricalIRS
from stabilitylab.perms import GenTuple, Perm, generate_closure, identity_perm, word_eval
from stabilitylab.words import enumerate_ball


def expected_atomic_irs(elements, marking, atoms, radius) -> EmpiricalIRS:
    """Fingerprint distribution of an atomic IRS, via conjugacy-class enumeration.

    Each atom (subgroup H, weight) contributes weight spread uniformly over the
    conjugates of H; fingerprints read off which ball words evaluate into each
    conjugate.
    """
    ball = enumerate_ball(marking.rank, radius)
    ball_perms = [word_eval(w, marking) for w in ball.words]
    masses: dict = {}
    for gen_indices, weight in atoms:
        gens = [elements[i] for i in gen_indices] or [identity_perm(marking.degree)]
        closure = generate_closure(GenTuple(tuple(gens)))
        assert not closure.truncated
        subgroup = closure.elements
        conjugates = set()
        for g in elements:
            g_inv = g.inverse()
            conjugates.add(frozenset(g * h * g_inv for h in subgroup))
        share = Fraction(weight) / len(conjugates)
        for conj in conjugates:
            fp = CylinderFingerprint.from_words(
                radius,
                [w for w, p in zip(ball.words, ball_perms) if p in conj])
            masses[fp] = masses.get(fp, Fraction(0)) + share
    return EmpiricalIRS(radius, masses, exact=True)


def expected_fullgroup_irs(partition, report, k, radius, measure) -> dict:
    """Fingerprint masses of k independent tower-mass-random atoms, tuple by tuple.

    Loops over every k-tuple of atoms in ``itertools.product`` order,
    intersects per-atom fixing sets of ball words, and multiplies the atom
    masses in coordinate order.
    """
    ball = enumerate_ball(report.entries[0].word.rank, radius)
    atoms = partition.atoms()
    atom_mass = [measure.measure(partition.towers[a.tower].base) for a in atoms]
    perms = [report.image_of(w).perm for w in ball.words]
    fixing = [frozenset(w for w, p in zip(ball.words, perms) if p(idx) == idx)
              for idx in range(len(atoms))]
    masses: dict = {}
    for combo in itertools.product(range(len(atoms)), repeat=k):
        words = fixing[combo[0]]
        for idx in combo[1:]:
            words = words & fixing[idx]
        mass = 1.0
        for idx in combo:
            mass *= atom_mass[idx]
        fp = CylinderFingerprint.from_words(radius, words)
        masses[fp] = masses.get(fp, 0.0) + mass
    return masses


def random_gset(rng, size: int, rank: int = 2):
    """A uniformly random finite action of the rank-d free group."""
    from stabilitylab.irs import FiniteGSet

    perms = []
    for _ in range(rank):
        images = list(range(size))
        rng.shuffle(images)
        perms.append(Perm(tuple(images)))
    return FiniteGSet(GenTuple(tuple(perms)))


def random_subgroup_atom(rng, elements, max_gens: int = 2):
    """Indices of a few random elements, as subgroup generators."""
    count = rng.randint(1, max_gens)
    return [rng.randrange(len(elements)) for _ in range(count)]

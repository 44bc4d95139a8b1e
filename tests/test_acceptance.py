"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Each criterion states its own tolerance; everything is pinned here.  The
suite is oracle-based: exact rational identities where the library promises
them, independent brute-force recomputations where it does not.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from oracles import (expected_atomic_irs, random_gset, random_subgroup_atom,
                     sample_points)

from stabilitylab.challenges import d_gen_bound, d_gen_exact
from stabilitylab.fullgroup import (adapted_partition, ball_elements,
                                    fullgroup_irs_limit_check, local_embedding,
                                    tower_gadgets)
from stabilitylab.harness import random_az_trivial_words
from stabilitylab.irs import (irs_distance, irs_of_gset, mixture, pad_gset,
                              point_mass_irs, realize_irs_as_gset,
                              tv_standard_error, vershik_irs)
from stabilitylab.marked import (alt_oracle, az_oracle, convergence_table,
                                 neumann_truncation, tail_defect)
from stabilitylab.perms import (Perm, alt_marking, generate_closure,
                                hamming_distance)
from stabilitylab.subshift import (ErgodicMeasure, cylinder, fibonacci,
                                   kr_partition, refine_kr, thue_morse)

HALF = Fraction(1, 2)


@contextmanager
def criterion(number: int, label: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL ({time.time() - start:5.1f}s): {label}")
        raise
    print(f"criterion {number:2d} PASS ({time.time() - start:5.1f}s): {label}")


def random_perm(rng, k) -> Perm:
    images = list(range(k))
    rng.shuffle(images)
    return Perm(tuple(images))


def test_criterion_01_hamming_is_a_biinvariant_metric():
    with criterion(1, "normalized Hamming distance is a bi-invariant metric"):
        rng = random.Random(101)
        for k in (5, 20, 50):
            for _ in range(1000):
                p, q, r = (random_perm(rng, k) for _ in range(3))
                d_pq = hamming_distance(p, q)
                assert hamming_distance(p, p) == 0
                assert (d_pq == 0) == (p == q)
                assert d_pq == hamming_distance(q, p)
                assert hamming_distance(p, r) <= d_pq + hamming_distance(q, r)
                assert hamming_distance(r * p, r * q) == d_pq
                assert hamming_distance(p * r, q * r) == d_pq


def test_criterion_02_closure_sizes():
    with criterion(2, "alternating closures have size (2r+1)!/2 for r in {2,3}"):
        for r, expected in ((2, 60), (3, 2520)):
            res = generate_closure(alt_marking(r))
            assert len(res) == expected == math.factorial(2 * r + 1) // 2


def test_criterion_03_marked_convergence():
    with criterion(3, "kernel agreement radius grows along the alternating family"):
        oracles = [alt_oracle(r) for r in range(2, 9)]
        rows = convergence_table(oracles, az_oracle(), 8)
        values = [nu.value for _, nu in rows]
        assert values == sorted(values)
        assert values[-1] > values[0]


def test_criterion_04_tail_defects_are_shallow():
    with criterion(4, "tail defects of limit-trivial words avoid deep factors"):
        product = neumann_truncation(0, 6)
        target = az_oracle()
        words = random_az_trivial_words(20, seed=401)
        for word in words:
            rep = tail_defect(word, product, target)
            assert rep.trivial_in_target
            assert set(rep.defect) <= {0, 1}  # factors 2..5 always excluded


def test_criterion_05_irs_mixture_and_padding_identities():
    with criterion(5, "disjoint unions and padding obey the exact mixture formulas"):
        rng = random.Random(105)
        from stabilitylab.irs import disjoint_union

        for _ in range(100):
            nx, ny = rng.randint(1, 6), rng.randint(1, 6)
            x, y = random_gset(rng, nx), random_gset(rng, ny)
            radius = rng.randint(1, 2)
            lhs = irs_of_gset(disjoint_union(x, y), radius)
            rhs = mixture([(irs_of_gset(x, radius), Fraction(nx, nx + ny)),
                           (irs_of_gset(y, radius), Fraction(ny, nx + ny))])
            assert lhs == rhs
            target = rng.randint(nx, 3 * nx)
            remainder = target % nx
            padded = irs_of_gset(pad_gset(x, target), radius)
            formula = mixture([
                (irs_of_gset(x, radius), Fraction(target - remainder, target)),
                (point_mass_irs(2, radius, full=True), Fraction(remainder, target))])
            assert padded == formula


def test_criterion_06_coset_realization_round_trip():
    with criterion(6, "coset realizations reproduce atomic IRS at radii 1..3"):
        marking = alt_marking(2)
        elements = list(generate_closure(marking))
        rng = random.Random(106)
        for _ in range(20):
            q = rng.randint(2, 4)
            atoms = [(random_subgroup_atom(rng, elements), Fraction(1, q)),
                     (random_subgroup_atom(rng, elements), Fraction(q - 1, q))]
            gset = realize_irs_as_gset(elements, marking, atoms)
            for radius in (1, 2, 3):
                assert irs_of_gset(gset, radius) == expected_atomic_irs(
                    elements, marking, atoms, radius)


def test_criterion_07_vershik_convergence():
    with criterion(7, "coloring-stabilizer IRS approach the window-sampled limit"):
        alpha = [HALF, HALF]
        samples = 10**5
        limit = vershik_irs(alpha, "az", radius=2, mode="sampled", window=40,
                            n_samples=samples, seed=700)
        tvs, errs = [], []
        for i, n in enumerate((20, 40, 80)):
            finite = vershik_irs(alpha, f"alt:{n}", radius=2, mode="sampled",
                                 n_samples=samples, seed=701 + i)
            tvs.append(float(irs_distance(finite, limit)))
            errs.append(tv_standard_error(finite, limit))
        assert tvs[1] <= tvs[0] + 3 * max(errs[0], errs[1])
        assert tvs[2] <= tvs[1] + 3 * max(errs[1], errs[2])
        assert tvs[2] < 0.05


def test_criterion_08_dgen_oracle_discipline():
    with criterion(8, "heuristic defect bound never beats and mostly meets the oracle"):
        rng = random.Random(108)
        agreements = 0
        for i in range(100):
            x, y = random_gset(rng, 6), random_gset(rng, 6)
            assert d_gen_exact(x, x) == 0
            exact = d_gen_exact(x, y)
            bound = d_gen_bound(x, y, restarts=30, seed=i).value
            assert bound >= exact
            agreements += bound == exact
        assert agreements >= 90


def test_criterion_09_kr_partition_invariants():
    with criterion(9, "tower partitions partition exactly and carry full mass"):
        for sub in (fibonacci(), thue_morse()):
            measure = ErgodicMeasure(sub)
            letters = [cylinder(sub, ch) for ch in sub.alphabet]
            for length in (1, 2, 3):
                for seed_word in sub.factors(length):
                    part = kr_partition(sub, seed_word)
                    part.validate()  # atoms partition X; shifted roof is the base
                    total = sum(t.height * measure.measure(t.base)
                                for t in part.towers)
                    assert abs(total - 1) <= len(part.atoms()) * 1e-9
                    refined = refine_kr(part, letters)
                    assert refined.base() == part.base()
                    assert refined.roof() == part.roof()
                    assert refined.min_height == part.min_height


def test_criterion_10_cocycle_relation():
    with criterion(10, "products of table elements satisfy the cocycle relation"):
        sub = fibonacci()
        gadgets = tower_gadgets(sub, "aa", 2)
        ball = ball_elements(gadgets, 2)
        elems = [e for _, e in ball.representatives]
        margin = max(c.resolution for e in elems for c, _ in e.parts) \
            + 2 * max(e.max_exponent() for e in elems) + 2
        points = sample_points(sub, 10, margin=margin, seed=1010)
        rng = random.Random(1010)
        for _ in range(500):
            g, h = rng.choice(elems), rng.choice(elems)
            gh = g * h
            for point in points:
                assert point.cocycle(gh) == \
                    point.apply(h).cocycle(g) + point.cocycle(h)


def test_criterion_11_local_embedding():
    with criterion(11, "adapted partitions yield verified local embeddings"):
        sub = fibonacci()
        gadgets = tower_gadgets(sub, "aa", 2)
        for radius in (1, 2):
            part = adapted_partition(sub, gadgets, radius, "aa")
            ball = ball_elements(gadgets, radius)
            max_exp = max(e.max_exponent() for _, e in ball.representatives)
            assert part.min_height >= 2 * max_exp + 2
            report = local_embedding(gadgets, radius, part)
            assert report.passed
            assert not report.injectivity_collisions
            assert not report.multiplicativity_failures
            assert not report.blockstab_failures


def test_criterion_12_pushforward_level_independence():
    with criterion(12, "stabilizer pushforwards agree across partition levels"):
        sub = fibonacci()
        gadgets = tower_gadgets(sub, "aa", 2)
        measure = ErgodicMeasure(sub)
        for k in (1, 2):
            report = fullgroup_irs_limit_check(sub, gadgets, k, 1,
                                               ["aa", "ab"], measure)
            atoms = max(level.atom_count for level in report.levels)
            bound = 2 * k * atoms * 1e-9
            for i in range(len(report.levels)):
                for j in range(len(report.levels)):
                    assert report.tv_matrix[i][j] <= bound
            assert report.marginal_supports_match
            assert report.marginal_max_gap <= bound

import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import (expected_atom_exponents, expected_fullgroup_irs,
                     expected_multiplicativity, point_inside, sample_points)
from stabilitylab import fullgroup
from stabilitylab.fullgroup import (TableElement, adapted_partition,
                                    ball_elements, fullgroup_irs,
                                    fullgroup_irs_limit_check, identity_element,
                                    local_embedding, three_cycle, tower_gadgets)
from stabilitylab.irs import CylinderFingerprint, EmpiricalIRS
from stabilitylab.subshift import (ClopenSet, ErgodicMeasure, KRPartition, chacon,
                                   cylinder, fibonacci, full_set, kr_partition,
                                   thue_morse)
from stabilitylab.words import (ReducedWord, ResourceLimitError, enumerate_ball,
                                identity, word_from_string)

FIB = fibonacci()


@pytest.fixture(scope="module")
def gadgets():
    return tower_gadgets(FIB, "aa", 2)


@pytest.fixture(scope="module")
def measure():
    return ErgodicMeasure(FIB)


def _gadgets(sub, *words):
    return [three_cycle(cylinder(sub, w)) for w in words]


def _nonabelian():
    return _gadgets(FIB, "aa", "baa")


class TestTableElement:
    def test_identity(self):
        e = identity_element(FIB)
        assert e.is_identity
        assert e.parts[0][1] == 0

    def test_shift_itself_is_an_element(self):
        t = TableElement(FIB, [(full_set(FIB), 1)])
        assert not t.is_identity
        assert t.max_exponent() == 1

    def test_non_covering_parts_rejected(self):
        with pytest.raises(ValueError, match="partition"):
            TableElement(FIB, [(cylinder(FIB, "a"), 0)])

    def test_overlapping_images_rejected(self):
        # domains partition, but [a] and T([b]) overlap (the word "ba" happens)
        with pytest.raises(ValueError, match="bijection"):
            TableElement(FIB, [(cylinder(FIB, "a"), 0), (cylinder(FIB, "b"), 1)])

    def test_equal_exponent_parts_merge(self):
        split = TableElement(FIB, [(cylinder(FIB, "a"), 0), (cylinder(FIB, "b"), 0)])
        assert split == identity_element(FIB)
        assert hash(split) == hash(identity_element(FIB))
        # the same element with its parts split by the letter at 0, or lifted
        g = three_cycle(cylinder(FIB, "aa"))
        halves = [(c.intersect(cylinder(FIB, ch)), a) for c, a in g.parts for ch in "ab"]
        lifted = [(c.at_resolution(c.resolution + 2), a) for c, a in g.parts]
        for parts in (halves, lifted):
            rebuilt = TableElement(FIB, parts)
            assert rebuilt == g and hash(rebuilt) == hash(g)

    def test_group_laws(self, gadgets):
        g1, g2 = gadgets
        e = identity_element(FIB)
        assert g1 * g1.inverse() == e
        assert e * g1 == g1 and g1 * e == g1
        assert (g1 * g2) * g1 == g1 * (g2 * g1)

    def test_three_cycle_has_order_three(self, gadgets):
        g1, _ = gadgets
        assert not (g1 * g1).is_identity
        assert (g1 * g1 * g1).is_identity

    def test_three_cycle_disjointness_guard(self):
        with pytest.raises(ValueError, match="disjoint"):
            three_cycle(cylinder(FIB, "a"))  # "aa" happens, so [a] meets T[a]

    def test_three_cycle_of_empty_set(self):
        assert three_cycle(ClopenSet(FIB, 0, ())).is_identity

    def test_gadgets_commute(self, gadgets):
        g1, g2 = gadgets
        assert g1 * g2 == g2 * g1

    def test_not_enough_towers(self):
        with pytest.raises(ValueError, match="towers"):
            tower_gadgets(FIB, "a", 2)  # heights 1 and 2 only

    def test_no_gadgets_requested(self):
        with pytest.raises(ValueError, match="at least one gadget, got count=0"):
            tower_gadgets(FIB, "aa", 0)


class TestCocycle:
    # the pointwise reference in oracles.py: table exponents read at points
    def test_identity_cocycle_everywhere_zero(self):
        for point in sample_points(FIB, 5, margin=4, seed=0):
            assert point.cocycle(identity_element(FIB)) == 0

    def test_apply_moves_origin(self, gadgets):
        g1, _ = gadgets
        point = point_inside(cylinder(FIB, "aabaa"), margin=10)
        c = point.cocycle(g1)
        assert c == 1
        assert point.apply(g1).origin == point.origin + 1

    def test_cocycle_relation_on_random_pairs(self, gadgets):
        ball = ball_elements(gadgets, 2)
        elems = [e for _, e in ball.representatives]
        margin = max(c.resolution for e in elems for c, _ in e.parts) \
            + max(e.max_exponent() for e in elems) + 2
        points = sample_points(FIB, 20, margin=margin, seed=3)
        rng = random.Random(4)
        for _ in range(100):
            g, h = rng.choice(elems), rng.choice(elems)
            gh = g * h
            for point in points:
                assert point.cocycle(gh) == \
                    point.apply(h).cocycle(g) + point.cocycle(h)


class TestBallElements:
    def test_radius_zero(self, gadgets):
        ball = ball_elements(gadgets, 0)
        assert len(ball.representatives) == 1
        assert ball.representatives[0][1].is_identity

    def test_order_three_generator_saturates(self, gadgets):
        g1, _ = gadgets
        for radius in (2, 3, 4):
            ball = ball_elements([g1], radius)
            assert len(ball.representatives) == 3

    def test_two_commuting_gadgets_grow_like_z3_squared(self, gadgets):
        # direct-product oracle: elements are pairs of exponents mod 3
        sizes = [len(ball_elements(gadgets, n).representatives) for n in (1, 2, 3)]
        oracle = []
        for n in (1, 2, 3):
            seen = set()
            for i in (-1, 0, 1):
                for j in (-1, 0, 1):
                    if abs(i) + abs(j) <= n:
                        seen.add((i % 3, j % 3))
            oracle.append(len(seen))
        assert sizes == oracle == [5, 9, 9]

    def test_word_map_covers_whole_ball(self, gadgets):
        ball = ball_elements(gadgets, 2)
        assert set(ball.word_to_index) == set(enumerate_ball(2, 2).words)
        assert ball.ball == enumerate_ball(2, 2)

    # generator makers and radii; the Fibonacci gadgets keep the plain radius
    # ids.  T^5 at radius 14 reaches exponent 70, whose table sits at
    # resolution 0 while a word-length bound rho + 13M would put it at 65
    LETTER_FOLD_CASES = (
        [pytest.param(_nonabelian, r, id=str(r)) for r in range(4)]
        + [pytest.param(lambda: _gadgets(thue_morse(), "aa", "bab"), r,
                        id=f"thue_morse-{r}") for r in range(4)]
        + [pytest.param(lambda: _gadgets(chacon(), "aa", "bca"), r,
                        id=f"chacon-{r}") for r in range(4)]
        + [pytest.param(lambda: [TableElement(FIB, [(full_set(FIB), 5)])], 14,
                        id="shift5-14")])

    @pytest.mark.parametrize("make_gens, radius", LETTER_FOLD_CASES)
    def test_matches_letter_by_letter_products(self, make_gens, radius):
        # fold every ball word into a product letter by letter; an element is
        # represented by the shortlex-least word reaching it
        gens = make_gens()
        words_of: dict = {}
        for word in enumerate_ball(len(gens), radius).words:
            elem = identity_element(gens[0].sub)
            for letter in word.letters:
                g = gens[abs(letter) - 1]
                elem = elem * (g if letter > 0 else g.inverse())
            words_of.setdefault(elem, []).append(word)
        reps = sorted(((min(ws, key=ReducedWord.sort_key), e)
                       for e, ws in words_of.items()),
                      key=lambda we: we[0].sort_key())
        ball = ball_elements(gens, radius)
        assert ball.representatives == tuple(reps)
        for word, i in ball.word_to_index.items():
            assert word in words_of[reps[i][1]]

    def test_generators_over_different_subshifts(self):
        gens = [three_cycle(cylinder(FIB, "aa")), three_cycle(cylinder(thue_morse(), "aa"))]
        with pytest.raises(ValueError, match="elements over different subshifts"):
            ball_elements(gens, 1)

    def test_element_cap(self, monkeypatch):
        monkeypatch.setattr(fullgroup, "_ELEMENT_CAP", 5)
        assert len(ball_elements(_nonabelian(), 1).representatives) == 5
        monkeypatch.setattr(fullgroup, "_ELEMENT_CAP", 4)
        with pytest.raises(ResourceLimitError, match="element cap"):
            ball_elements(_nonabelian(), 1)


class TestAtomAction:
    # the atom permutations local_embedding reports for ball elements

    def test_identity_action(self):
        report = local_embedding([identity_element(FIB)], 1, kr_partition(FIB, "aa"))
        assert [e.image.is_identity for e in report.entries] == [True]

    def test_nonabelian_ball_stays_in_towers(self):
        gens = _nonabelian()
        part = adapted_partition(FIB, gens, 2, "abaab")
        atoms = part.atoms()
        report = local_embedding(gens, 2, part)
        assert len(report.entries) == len(ball_elements(gens, 2).representatives)
        for e in report.entries:
            assert sorted(e.image.images) == list(range(len(atoms)))
            for idx, atom in enumerate(atoms):
                assert atoms[e.image(idx)].tower == atom.tower

    def test_pure_shift_rotates_towers(self):
        part = kr_partition(FIB, "aa")  # heights 3 and 5
        t = TableElement(FIB, [(full_set(FIB), 1)])
        action = local_embedding([t], 1, part).image_of(word_from_string("a", 1))
        atoms = part.atoms()
        for idx, atom in enumerate(atoms):
            target = atoms[action(idx)]
            assert target.tower == atom.tower
            height = part.towers[atom.tower].height
            assert target.level == (atom.level + 1) % height

    def test_gadget_action_within_towers(self, gadgets):
        part = adapted_partition(FIB, gadgets, 1, "aa")
        g1, _ = gadgets
        report = local_embedding(gadgets, 1, part)
        entry = report.entries[report.word_to_index[word_from_string("a", 2)]]
        assert entry.element == g1
        exps, action = entry.exponents, entry.image
        assert exps == expected_atom_exponents(g1, part)
        atoms = part.atoms()
        for idx, atom in enumerate(atoms):
            if exps[idx] != 0:
                target = atoms[action(idx)]
                assert target.tower == atom.tower
                assert target.level == atom.level + exps[idx]

    def test_partition_over_another_subshift(self):
        with pytest.raises(ValueError, match="different subshifts"):
            local_embedding(_nonabelian(), 1, kr_partition(thue_morse(), "aa"))


class TestAtomExponents:
    # (substitution, gadget words, seed word); the seed's own tower partition
    # is under-refined for every ball of radius >= 1, so cocycle failures show
    SUBS = ((fibonacci, ("aa", "baa"), "abaab"), (thue_morse, ("aa", "bab"), "abba"),
            (chacon, ("aa", "bca"), "abc"))
    # the Chacon partition adapted at radius 3 passes the resolution cap
    CASES = [pytest.param(*sub, radius, adapted,
                          id=f"{sub[0].__name__}-{radius}-{'adapted' if adapted else 'kr'}")
             for sub in SUBS for radius in range(4) for adapted in (False, True)
             if not (sub[0] is chacon and radius == 3 and adapted)]

    @pytest.mark.parametrize("make_sub, gadget_words, seed, radius, adapted", CASES)
    def test_entries_and_failures_match_subset_scan(self, make_sub, gadget_words,
                                                    seed, radius, adapted):
        sub = make_sub()
        gens = _gadgets(sub, *gadget_words)
        part = (adapted_partition(sub, gens, radius, seed) if adapted
                else kr_partition(sub, seed))
        entries, failures = [], []
        for word, elem in ball_elements(gens, radius).representatives:
            exps = expected_atom_exponents(elem, part)
            if None in exps:
                failures.append((word, exps.index(None)))
            else:
                entries.append((word, elem, exps))
        report = local_embedding(gens, radius, part)
        assert [(e.word, e.element, e.exponents) for e in report.entries] == entries
        assert list(report.cocycle_failures) == failures
        assert bool(failures) == (radius >= 1 and not adapted)
        if adapted:  # each atom exponent is the element's exponent at a point inside
            margin = 1 + max(c.resolution for e in report.entries
                             for c, _ in e.element.parts)
            points = [point_inside(atom.part, margin) for atom in part.atoms()]
            for e in report.entries:
                assert [p.cocycle(e.element) for p in points] == list(e.exponents)


class TestAdaptedPartition:
    def test_height_rule(self, gadgets):
        part = adapted_partition(FIB, gadgets, 2, "aa")
        ball = ball_elements(gadgets, 2)
        max_exp = max(e.max_exponent() for _, e in ball.representatives)
        assert max_exp == 2
        assert part.min_height >= 2 * max_exp + 2 == 6

    def test_cocycles_constant_on_atoms(self, gadgets):
        part = adapted_partition(FIB, gadgets, 2, "aa")
        report = local_embedding(gadgets, 2, part)
        assert not report.cocycle_failures
        for e in report.entries:
            assert e.exponents == expected_atom_exponents(e.element, part)

    def test_identity_generators_need_no_depth(self):
        part = adapted_partition(FIB, [identity_element(FIB)], 1, "aa")
        assert part.min_height >= 2
        assert sorted(t.height for t in part.towers) == [3, 5]

    def test_depth_cap_failure_names_the_deficit(self, monkeypatch):
        monkeypatch.setattr(fullgroup, "_SEED_CAP", 3)
        shift_by_five = TableElement(FIB, [(full_set(FIB), 5)])
        with pytest.raises(ResourceLimitError,
                           match="seed 'aab' reaches min height 3, need 12"):
            adapted_partition(FIB, [shift_by_five], 1, "aa")

    def test_builds_and_validates_only_the_chosen_partition(self, monkeypatch):
        calls = []
        validate = KRPartition.validate
        monkeypatch.setattr(KRPartition, "validate",
                            lambda self: calls.append(self) or validate(self))
        part = adapted_partition(FIB, _nonabelian(), 3, "abaab")
        assert len(calls) == 2 and calls[-1] is part  # the seed's towers, then refined


class TestLocalEmbedding:
    def test_radius_zero_trivially_passes(self, gadgets):
        part = adapted_partition(FIB, gadgets, 0, "aa")
        report = local_embedding(gadgets, 0, part)
        assert report.passed and len(report.entries) == 1

    @pytest.mark.parametrize("radius", [1, 2])
    def test_gadgets_pass(self, gadgets, radius):
        part = adapted_partition(FIB, gadgets, radius, "aa")
        report = local_embedding(gadgets, radius, part)
        assert report.passed
        assert not report.injectivity_collisions
        assert not report.multiplicativity_failures
        assert not report.blockstab_failures

    def test_images_are_disjoint_atom_cycles(self, gadgets):
        part = adapted_partition(FIB, gadgets, 1, "aa")
        report = local_embedding(gadgets, 1, part)
        w1 = word_from_string("a", 2)
        w2 = word_from_string("b", 2)
        moved1 = {i for i in range(report.atom_count)
                  if report.image_of(w1)(i) != i}
        moved2 = {i for i in range(report.atom_count)
                  if report.image_of(w2)(i) != i}
        assert moved1 and moved2 and not (moved1 & moved2)

    def test_injectivity_collisions_pair_each_image_with_its_first_word(self):
        # on towers of heights 3 and 5, T^k fixes every atom once |k| >= 5
        t = TableElement(FIB, [(full_set(FIB), 1)])
        report = local_embedding([t], 8, kr_partition(FIB, "aa"))
        assert len(report.entries) == 17 and not report.passed
        assert [(str(a), str(b)) for a, b in report.injectivity_collisions] == [
            ("e", ch * k) for k in range(5, 9) for ch in "aA"]

    @pytest.mark.parametrize("seed, radius", [("aa", 8), ("a", 1)])
    def test_blockstab_failures_are_the_atoms_a_moving_power_fixes(self, seed, radius):
        # T^k moves every point, yet its tower permutation fixes each atom of a
        # tower no taller than |k|: heights 3 and 5 over "aa", 1 and 2 over "a"
        t = TableElement(FIB, [(full_set(FIB), 1)])
        part = kr_partition(FIB, seed)
        heights = [part.towers[atom.tower].height for atom in part.atoms()]
        report = local_embedding([t], radius, part)
        expected = [(ch * k, i) for k in range(1, radius + 1) for ch in "aA"
                    for i, h in enumerate(heights) if h <= k]
        assert len(expected) == {"aa": 76, "a": 2}[seed]
        if seed == "a":
            assert expected == [("a", 0), ("A", 0)]
        assert [(str(w), i) for w, i in report.blockstab_failures] == expected
        assert all(type(i) is int for _, i in report.blockstab_failures)
        assert not report.cocycle_failures
        assert json.loads(report.to_json())["blockstab_failures"] == [
            {"word": w, "atom": i} for w, i in expected]

    def test_under_refined_reported_not_bogus(self, gadgets):
        report = local_embedding(gadgets, 1, kr_partition(FIB, "a"))
        assert not report.passed
        assert report.cocycle_failures
        assert "deepen" in report.recommendation

    def test_report_carries_the_ball(self, gadgets):
        part = adapted_partition(FIB, gadgets, 2, "aa")
        report = local_embedding(gadgets, 2, part)
        ball = ball_elements(gadgets, 2)
        assert report.ball == ball.ball and report.radius == 2
        assert report.word_to_index == ball.word_to_index
        for word, i in ball.word_to_index.items():
            exps = expected_atom_exponents(ball.representatives[i][1], part)
            assert report.image_of(word) == fullgroup._tower_perm(exps, part)

    def test_json_report(self, gadgets):
        part = adapted_partition(FIB, gadgets, 1, "aa")
        report = local_embedding(gadgets, 1, part)
        data = json.loads(report.to_json())
        assert data["passed"] is True and data["atoms"] == report.atom_count


class TestCocycleProducts:
    # (substitution, gadget words, seed word, radius, multiplicativity failures);
    # seed abba leaves Thue-Morse tower tops at exponent +1, so products break
    CASES = ([(fibonacci, ("aa", "baa"), "abaab", r, 0) for r in (3, 4)]
             + [(thue_morse, ("aa", "bab"), "abba", r, n)
                for r, n in ((1, 4), (2, 14), (3, 90))]
             + [(thue_morse, ("aa",), "abba", r, 2) for r in (1, 2)]
             + [(chacon, ("aa", "bca"), "abc", r, n) for r, n in ((1, 2), (2, 14))])

    @pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(
        [c[0].__name__, *c[1], c[2], str(c[3])]))
    def test_matches_table_products(self, case):
        make_sub, gadget_words, seed, radius, failure_count = case
        sub = make_sub()
        gens = _gadgets(sub, *gadget_words)
        report = local_embedding(gens, radius, adapted_partition(sub, gens, radius, seed))
        assert not report.cocycle_failures
        products = ball_elements(gens, radius).products
        triples, failures = expected_multiplicativity(report.entries)
        assert {(a, b, c) for a, row in enumerate(products)
                for b, c in enumerate(row) if c >= 0} == triples
        assert list(report.multiplicativity_failures) == failures
        assert len(failures) == failure_count
        expected = dataclasses.replace(report, multiplicativity_failures=tuple(failures))
        assert report.to_json() == expected.to_json()


class TestFullgroupIRS:
    def test_identity_generators_full_ball(self, measure):
        gens = [identity_element(FIB)]
        part = adapted_partition(FIB, gens, 1, "aa")
        irs = fullgroup_irs(part, gens, 2, 1, measure, local_embedding(gens, 1, part))
        [fp] = irs.support()
        assert len(fp.words) == 3  # e, a, A with rank 1
        assert irs.masses[fp] == pytest.approx(1.0, abs=1e-8)

    def test_shift_generator_fixes_nothing(self, measure):
        t = TableElement(FIB, [(full_set(FIB), 1)])
        part = adapted_partition(FIB, [t], 1, "aa")
        irs = fullgroup_irs(part, [t], 1, 1, measure, local_embedding([t], 1, part))
        [fp] = irs.support()
        assert fp.words == (identity(1),)
        assert irs.masses[fp] == pytest.approx(1.0, abs=1e-8)

    def test_failed_embedding_propagates(self, gadgets):
        part = kr_partition(FIB, "a")
        report = local_embedding(gadgets, 1, part)
        with pytest.raises(ValueError, match="deepen"):
            fullgroup_irs(part, gadgets, 1, 1, ErgodicMeasure(FIB), report)

    def test_masses_sum_to_one(self, gadgets, measure):
        part = adapted_partition(FIB, gadgets, 1, "aa")
        report = local_embedding(gadgets, 1, part)
        for k in (1, 2):
            irs = fullgroup_irs(part, gadgets, k, 1, measure, report)
            total = sum(irs.masses.values())
            assert abs(total - 1) <= k * len(part.atoms()) * 1e-9 + 1e-9

    def test_fingerprints_satisfy_invariants(self, gadgets, measure):
        part = adapted_partition(FIB, gadgets, 1, "aa")
        irs = fullgroup_irs(part, gadgets, 2, 1, measure, local_embedding(gadgets, 1, part))
        for fp in irs.support():
            fp.validate()

    # (3, 3) is the benchmark's full-group configuration
    @pytest.mark.parametrize("radius,k", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1),
                                          (2, 2), (3, 3)])
    def test_nonabelian_ball_matches_tuple_enumeration(self, measure, radius, k):
        gens = _nonabelian()
        assert gens[0] * gens[1] != gens[1] * gens[0]
        part = adapted_partition(FIB, gens, radius, "abaab")
        assert len(part.atoms()) == {1: 21, 2: 55, 3: 55}[radius]
        report = local_embedding(gens, radius, part)
        irs = fullgroup_irs(part, gens, k, radius, measure, embedding=report)
        expected = expected_fullgroup_irs(part, report, k, radius, measure)
        assert irs.masses == expected
        assert list(irs.masses) == list(expected)  # insertion order too

    def test_one_shot_generators(self, gadgets, measure):
        part = adapted_partition(FIB, gadgets, 1, "aa")
        assert ball_elements(iter(gadgets), 2) == ball_elements(gadgets, 2)
        assert adapted_partition(FIB, iter(gadgets), 1, "aa").atoms() == part.atoms()
        report = local_embedding(gadgets, 1, part)
        for k in (1, 2):
            assert fullgroup_irs(part, iter(gadgets), k, 1, measure, report).masses == \
                fullgroup_irs(part, gadgets, k, 1, measure, report).masses

    def test_tuple_cap(self, gadgets, measure, monkeypatch):
        part = adapted_partition(FIB, gadgets, 1, "aa")
        assert len(part.atoms()) == 21
        report = local_embedding(gadgets, 1, part)
        with pytest.raises(ResourceLimitError, match=r"21\^6 atom tuples"):
            fullgroup_irs(part, gadgets, 6, 1, measure, report)
        monkeypatch.setattr(fullgroup, "_TUPLE_CAP", 21 ** 2)
        fullgroup_irs(part, gadgets, 2, 1, measure, report)
        monkeypatch.setattr(fullgroup, "_TUPLE_CAP", 21 ** 2 - 1)
        with pytest.raises(ResourceLimitError, match="exceed the cap"):
            fullgroup_irs(part, gadgets, 2, 1, measure, report)
        with pytest.raises(ResourceLimitError, match="exceed the cap"):
            fullgroup_irs_limit_check(FIB, gadgets, 2, 1, ["aa"], measure)

    def test_report_of_another_partition_rejected(self, measure):
        gens = _nonabelian()
        coarse = adapted_partition(FIB, gens, 1, "abaab")
        fine = adapted_partition(FIB, gens, 2, "abaab")
        assert (len(coarse.atoms()), len(fine.atoms())) == (21, 55)
        fine_report = local_embedding(gens, 2, fine)
        for radius in (1, 2):
            with pytest.raises(ValueError, match="does not match"):
                fullgroup_irs(coarse, gens, 1, radius, measure, embedding=fine_report)

    def test_report_of_other_generators_rejected(self, gadgets, measure):
        part = adapted_partition(FIB, gadgets, 1, "aa")
        report = local_embedding(gadgets, 1, part)
        with pytest.raises(ValueError, match="rank 2 does not match 1 generators"):
            fullgroup_irs(part, gadgets[:1], 1, 1, measure, embedding=report)

    def test_report_of_smaller_radius_rejected(self, measure):
        gens = _nonabelian()
        part = adapted_partition(FIB, gens, 2, "abaab")
        small_report = local_embedding(gens, 1, part)
        assert small_report.passed
        with pytest.raises(ValueError, match="radius 1 on 55 atoms"):
            fullgroup_irs(part, gens, 2, 2, measure, embedding=small_report)


class TestOtherSubstitutions:
    def test_thue_morse_end_to_end(self):
        from stabilitylab.subshift import thue_morse

        tm = thue_morse()
        gadget = tower_gadgets(tm, "aa", 1)[0]
        part = adapted_partition(tm, [gadget], 1, "aa")
        report = local_embedding([gadget], 1, part)
        assert report.passed
        irs = fullgroup_irs(part, [gadget], 1, 1, ErgodicMeasure(tm),
                            embedding=report)
        total = sum(irs.masses.values())
        assert abs(total - 1) <= len(part.atoms()) * 1e-9 + 1e-9

    def test_chacon_partitions_validate(self):
        from stabilitylab.subshift import chacon

        sub = chacon()
        meas = ErgodicMeasure(sub)
        part = kr_partition(sub, "aa")
        part.validate()
        total = sum(t.height * meas.measure(t.base) for t in part.towers)
        assert abs(total - 1) <= len(part.atoms()) * 1e-9


class TestLimitCheck:
    def test_no_levels(self, gadgets, measure):
        with pytest.raises(ValueError, match="at least one partition level"):
            fullgroup_irs_limit_check(FIB, gadgets, 1, 1, [], measure)

    def test_identical_levels(self, gadgets, measure):
        report = fullgroup_irs_limit_check(FIB, gadgets, 1, 1, ["aa", "aa"], measure)
        assert report.tv_matrix[0][1] == 0.0

    def test_distinct_levels_agree(self, gadgets, measure):
        report = fullgroup_irs_limit_check(FIB, gadgets, 1, 1, ["aa", "ab"], measure)
        atoms = max(l.atom_count for l in report.levels)
        assert report.tv_matrix[0][1] <= 2 * atoms * 1e-9
        assert report.marginal_supports_match

    def test_one_shot_generators(self, gadgets, measure):
        once = fullgroup_irs_limit_check(FIB, iter(gadgets), 2, 1, ["aa", "ab"], measure)
        listed = fullgroup_irs_limit_check(FIB, gadgets, 2, 1, ["aa", "ab"], measure)
        assert [l.irs.masses for l in once.levels] == [l.irs.masses for l in listed.levels]
        assert (once.tv_matrix, once.marginal_max_gap, once.marginal_supports_match) == \
            (listed.tv_matrix, listed.marginal_max_gap, listed.marginal_supports_match)

    def test_k2_marginal(self, gadgets, measure):
        report = fullgroup_irs_limit_check(FIB, gadgets, 2, 1, ["aa"], measure)
        atoms = report.levels[0].atom_count
        assert report.marginal_supports_match
        assert report.marginal_max_gap <= 2 * 2 * atoms * 1e-9

    def test_corrupted_tuple_mass_widens_the_marginal_gap(self, gadgets, measure,
                                                          monkeypatch):
        # move mass off the heaviest nontrivial pair fingerprint onto the trivial
        # one: P_2(w in W) drops by delta for each nontrivial word w of it
        delta = 1e-3
        clean = fullgroup_irs_limit_check(FIB, gadgets, 2, 1, ["aa"], measure)

        def corrupted(partition, generators, k, radius, measure, embedding):
            irs = fullgroup_irs(partition, generators, k, radius, measure, embedding)
            if k == 1:
                return irs
            heavy = max((fp for fp in irs.masses if len(fp) > 1), key=irs.masses.get)
            trivial = CylinderFingerprint.from_words(radius, [identity(2)])
            masses = dict(irs.masses)
            masses[heavy] -= delta
            masses[trivial] = masses.get(trivial, 0.0) + delta
            return EmpiricalIRS(radius, masses, exact=False, sum_tolerance=1e-6)

        monkeypatch.setattr(fullgroup, "fullgroup_irs", corrupted)
        report = fullgroup_irs_limit_check(FIB, gadgets, 2, 1, ["aa"], measure)
        assert clean.marginal_max_gap < 1e-12
        assert report.marginal_max_gap == pytest.approx(delta, rel=1e-6)


def test_demo_08_verdicts():
    # CI runs the demos for their exit code only; their verdict lines must hold
    root = Path(__file__).resolve().parents[1]
    src = str(Path(fullgroup.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, str(root / "demos" / "08_full_group_shadows.py")],
                         env=env, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    for prefix, verdict in (("they commute:", "True  and cube to the identity: True"),
                            ("cocycle relation on", "ball's products: True"),
                            ("embedding:", "embedding verified"),
                            ("per ball word,", "same support: True")):
        [line] = [l for l in lines if l.startswith(prefix)]
        assert verdict in line
    assert "False" not in out

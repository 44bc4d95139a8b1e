import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (expected_atomic_irs, expected_fingerprint_masses,
                     expected_fixation_rows, expected_sampled_vershik, random_gset)

from stabilitylab.irs import (CylinderFingerprint, EmpiricalIRS, FiniteGSet,
                              coset_action, disjoint_union, fingerprint,
                              fingerprint_masses, irs_distance, irs_of_gset,
                              mixture, pad_gset, point_mass_irs,
                              realize_irs_as_gset, relabel, trivial_gset,
                              vershik_irs)
from stabilitylab.irs import _SAMPLE_BLOCK, _fixation_rows
from stabilitylab.perms import (GenTuple, Perm, alt_marking, generate_closure,
                                identity_perm, word_eval)
from stabilitylab.words import (ResourceLimitError, enumerate_ball, identity,
                                word_from_string)

HALF = Fraction(1, 2)


def w(text):
    return word_from_string(text, 2)


def free_transitive_3() -> FiniteGSet:
    c3 = Perm((1, 2, 0))
    return FiniteGSet(GenTuple((c3, c3)))


def regular_alt5() -> FiniteGSet:
    marking = alt_marking(2)
    elements = generate_closure(marking)
    return coset_action(elements, marking,
                        frozenset({identity_perm(marking.degree)}))


class TestFingerprint:
    def test_trivial_action_gives_full_ball(self):
        ball = enumerate_ball(2, 2)
        X = trivial_gset(2, 4)
        fp = fingerprint(X.action, 0, ball)
        assert fp.words == ball.words

    def test_free_point_gives_identity_only(self):
        ball = enumerate_ball(2, 1)
        fp = fingerprint(free_transitive_3().action, 1, ball)
        assert fp.words == (identity(2),)

    def test_alt2_center_at_radius_one(self):
        # neither generator fixes the center point, so only e remains
        ball = enumerate_ball(2, 1)
        fp = fingerprint(alt_marking(2), 2, ball)
        assert fp.words == (identity(2),)

    def test_out_of_range_point(self):
        with pytest.raises(ValueError):
            fingerprint(alt_marking(2), 7, enumerate_ball(2, 1))

    def test_masses_reject_misshapen_blocks(self):
        ball = enumerate_ball(2, 1)  # 5 words
        rows = np.ones((3, len(ball)), dtype=bool)
        assert fingerprint_masses(ball, [(rows, [1, 2, 3])]) == {
            CylinderFingerprint.from_words(1, ball.words): 6}
        for bad in [(rows, [1, 2]), (rows[:, :4], [1, 2, 3])]:
            with pytest.raises(ValueError, match="does not match"):
                fingerprint_masses(ball, [(rows, [1, 2, 3]), bad])

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_masses_match_dict_grouping(self, data):
        # rows repeat a few patterns across blocks; every row fixes the empty word
        ball = enumerate_ball(data.draw(st.integers(1, 2)), data.draw(st.integers(0, 2)))
        pattern = st.lists(st.booleans(), min_size=len(ball) - 1,
                           max_size=len(ball) - 1).map(lambda bits: [True] + bits)
        patterns = data.draw(st.lists(pattern, min_size=1, max_size=4))
        weight = data.draw(st.sampled_from([
            st.integers(0, 10**6), st.floats(0, 1),
            st.fractions(0, 1, max_denominator=60)]))
        blocks = []
        for _ in range(data.draw(st.integers(1, 3))):
            picks = data.draw(st.lists(st.sampled_from(patterns), min_size=1, max_size=20))
            weights = data.draw(st.lists(weight, min_size=len(picks), max_size=len(picks)))
            blocks.append((np.array(picks, dtype=bool), weights))
        masses = fingerprint_masses(ball, blocks)
        expected = expected_fingerprint_masses(ball, blocks)
        assert [(fp, type(m), m) for fp, m in masses.items()] == \
               [(fp, type(m), m) for fp, m in expected.items()]

    def test_invariants_on_random_actions(self):
        rng = random.Random(0)
        ball = enumerate_ball(2, 3)
        for _ in range(10):
            X = random_gset(rng, 6)
            for x in range(X.size):
                fingerprint(X.action, x, ball).validate()

    def test_matches_scalar_evaluation(self):
        rng = random.Random(1)
        for rank, radius in ((1, 4), (2, 3), (3, 2)):
            ball = enumerate_ball(rank, radius)
            X = random_gset(rng, 9, rank)
            perms = [word_eval(word, X.action) for word in ball.words]
            for x in range(X.size):
                expected = [word for word, p in zip(ball.words, perms) if p(x) == x]
                assert fingerprint(X.action, x, ball).words == tuple(expected)

    def test_membership_is_cached_without_changing_equality(self):
        ball = enumerate_ball(2, 2)
        fp = fingerprint(trivial_gset(2, 1).action, 0, ball)
        fresh = CylinderFingerprint(fp.radius, fp.words)
        assert all(word in fp for word in ball.words)
        assert w("aaa") not in fp
        assert fp._members is fp._members
        assert fp == fresh and hash(fp) == hash(fresh)
        assert repr(fp) == repr(fresh)


class TestIrsOfGSet:
    def test_rejects_action_without_points(self):
        with pytest.raises(ValueError, match="at least one point"):
            irs_of_gset(trivial_gset(2, 0), 1)

    def test_matches_scalar_evaluation(self):
        rng = random.Random(2)
        ball = enumerate_ball(2, 3)
        for size in (1, 7, 40):
            X = random_gset(rng, size)
            perms = [word_eval(word, X.action) for word in ball.words]
            masses: dict = {}
            for x in range(size):
                fp = CylinderFingerprint.from_words(
                    3, [word for word, p in zip(ball.words, perms) if p(x) == x])
                masses[fp] = masses.get(fp, Fraction(0)) + Fraction(1, size)
            assert irs_of_gset(X, 3).masses == masses

    def test_trivial_action(self):
        irs = irs_of_gset(trivial_gset(2, 5), 2)
        [fp] = irs.support()
        assert len(fp.words) == len(enumerate_ball(2, 2))
        assert irs.mass(fp) == 1

    def test_free_transitive_action(self):
        irs = irs_of_gset(regular_alt5(), 2)
        [fp] = irs.support()
        assert fp.words == (identity(2),)
        assert irs.mass(fp) == 1

    def test_disjoint_union_weights(self):
        union = disjoint_union(trivial_gset(2, 2), free_transitive_3())
        irs = irs_of_gset(union, 1)
        full = point_mass_irs(2, 1, full=True)
        assert irs.mass(full.support()[0]) == Fraction(2, 5)
        triv = point_mass_irs(2, 1, full=False)
        assert irs.mass(triv.support()[0]) == Fraction(3, 5)

    def test_masses_sum_exactly_to_one(self):
        rng = random.Random(1)
        for _ in range(5):
            irs = irs_of_gset(random_gset(rng, 7), 2)
            assert sum(irs.masses.values()) == 1

    def test_relabel_invariance(self):
        rng = random.Random(2)
        for _ in range(5):
            X = random_gset(rng, 6)
            images = list(range(6))
            rng.shuffle(images)
            assert irs_of_gset(X, 2) == irs_of_gset(relabel(X, Perm(tuple(images))), 2)

    def test_restriction_consistency(self):
        rng = random.Random(3)
        for _ in range(5):
            X = random_gset(rng, 6)
            assert irs_of_gset(X, 3).restrict(1) == irs_of_gset(X, 1)


class TestMixture:
    def test_single_part(self):
        irs = irs_of_gset(free_transitive_3(), 1)
        assert mixture([(irs, 1)]) == irs

    def test_two_equal_parts(self):
        irs = irs_of_gset(free_transitive_3(), 1)
        assert mixture([(irs, HALF), (irs, HALF)]) == irs

    def test_reproduces_disjoint_union(self):
        a, b = trivial_gset(2, 2), free_transitive_3()
        lhs = irs_of_gset(disjoint_union(a, b), 1)
        rhs = mixture([(irs_of_gset(a, 1), Fraction(2, 5)),
                       (irs_of_gset(b, 1), Fraction(3, 5))])
        assert lhs == rhs

    def test_bad_weights(self):
        irs = irs_of_gset(free_transitive_3(), 1)
        with pytest.raises(ValueError):
            mixture([(irs, HALF)])

    def test_radius_mismatch(self):
        with pytest.raises(ValueError):
            mixture([(irs_of_gset(free_transitive_3(), 1), HALF),
                     (irs_of_gset(free_transitive_3(), 2), HALF)])


class TestPadGSet:
    def test_same_size_is_identity(self):
        X = free_transitive_3()
        assert irs_of_gset(pad_gset(X, 3), 2) == irs_of_gset(X, 2)

    def test_exact_multiple_keeps_irs(self):
        X = free_transitive_3()
        assert irs_of_gset(pad_gset(X, 6), 2) == irs_of_gset(X, 2)

    def test_padding_formula(self):
        X = free_transitive_3()
        lhs = irs_of_gset(pad_gset(X, 7), 1)
        rhs = mixture([(irs_of_gset(X, 1), Fraction(6, 7)),
                       (point_mass_irs(2, 1, full=True), Fraction(1, 7))])
        assert lhs == rhs

    def test_too_small_target(self):
        with pytest.raises(ValueError):
            pad_gset(free_transitive_3(), 2)

    def test_rejects_action_without_points(self):
        with pytest.raises(ValueError, match="at least one point"):
            pad_gset(trivial_gset(2, 0), 4)

    def test_formula_on_random_gsets(self):
        rng = random.Random(4)
        for _ in range(20):
            size = rng.randint(2, 7)
            X = random_gset(rng, size)
            target = rng.randint(size, 4 * size)
            q, r = divmod(target, size)
            lhs = irs_of_gset(pad_gset(X, target), 2)
            rhs = mixture([(irs_of_gset(X, 2), Fraction(target - r, target)),
                           (point_mass_irs(2, 2, full=True), Fraction(r, target))])
            assert lhs == rhs


class TestRealization:
    def setup_method(self):
        self.marking = alt_marking(2)
        self.elements = list(generate_closure(self.marking))

    def test_whole_group_atom(self):
        # the subgroup generated by both markings is all of Alt(5)
        idx_a = self.elements.index(self.marking.perms[0])
        idx_b = self.elements.index(self.marking.perms[1])
        X = realize_irs_as_gset(self.elements, self.marking, [([idx_a, idx_b], 1)])
        assert X.size == 1

    def test_trivial_atom_gives_regular_action(self):
        X = realize_irs_as_gset(self.elements, self.marking, [([], 1)])
        assert X.size == 60
        assert irs_of_gset(X, 2) == irs_of_gset(regular_alt5(), 2)

    def test_two_atom_round_trip(self):
        atoms = [([1], Fraction(1, 3)), ([], Fraction(2, 3))]
        X = realize_irs_as_gset(self.elements, self.marking, atoms)
        for radius in (1, 2, 3):
            assert irs_of_gset(X, radius) == expected_atomic_irs(
                self.elements, self.marking, atoms, radius)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            realize_irs_as_gset(self.elements, self.marking, [([], HALF)])

    def test_size_cap(self, monkeypatch):
        monkeypatch.setattr("stabilitylab.irs._REALIZATION_CAP", 100)
        atoms = [([], Fraction(1, 7)), ([1], Fraction(6, 7))]
        with pytest.raises(ResourceLimitError, match="points, cap 100"):
            realize_irs_as_gset(self.elements, self.marking, atoms)

    def test_subgroup_closure_cap(self, monkeypatch):
        monkeypatch.setattr("stabilitylab.perms._CLOSURE_CAP", 59)
        with pytest.raises(ResourceLimitError, match="closure exceeds cap 59"):
            realize_irs_as_gset(self.elements, self.marking, [([0, 1, 2], 1)])


class TestDistance:
    def test_zero_on_equal(self):
        irs = irs_of_gset(free_transitive_3(), 1)
        assert irs_distance(irs, irs) == 0

    def test_one_on_disjoint_support(self):
        a = point_mass_irs(2, 1, full=True)
        b = point_mass_irs(2, 1, full=False)
        assert irs_distance(a, b) == 1

    def test_mixture_halfway(self):
        a = point_mass_irs(2, 1, full=True)
        b = point_mass_irs(2, 1, full=False)
        mid = mixture([(a, HALF), (b, HALF)])
        assert irs_distance(mid, a) <= HALF
        assert irs_distance(mid, b) <= HALF


class TestVershik:
    def test_single_color_fixes_everything(self):
        irs = vershik_irs([1], "alt:2", radius=1, mode="exact")
        [fp] = irs.support()
        assert len(fp.words) == len(enumerate_ball(2, 1))

    def test_alt1_exact_against_enumeration(self):
        # independent oracle: enumerate all 8 colorings of 3 points by hand
        irs = vershik_irs([HALF, HALF], "alt:1", radius=1, mode="exact")
        three = Perm((1, 2, 0))
        marking = GenTuple((three, three))
        ball = enumerate_ball(2, 1)
        perms = [word_eval(word, marking) for word in ball.words]
        masses = {}
        for coloring in itertools.product((0, 1), repeat=3):
            key = tuple(all(coloring[p(x)] == coloring[x] for x in range(3))
                        for p in perms)
            masses[key] = masses.get(key, 0) + 1
        expected = {}
        for key, count in masses.items():
            fp = CylinderFingerprint.from_words(
                1, [word for word, keep in zip(ball.words, key) if keep])
            expected[fp] = expected.get(fp, Fraction(0)) + Fraction(count, 8)
        assert irs == EmpiricalIRS(1, expected, exact=True)

    def test_exact_matches_sampling(self):
        exact = vershik_irs([HALF, HALF], "alt:2", radius=1, mode="exact")
        sampled = vershik_irs([HALF, HALF], "alt:2", radius=1, mode="sampled",
                              n_samples=20000, seed=3)
        assert irs_distance(exact, sampled) < 0.02

    def test_az_shift_words_need_constant_windows(self):
        irs = vershik_irs([HALF, HALF], "az", radius=2, mode="sampled",
                          window=16, n_samples=20000, seed=7)
        ball = enumerate_ball(2, 2)
        shifty = {word for word in ball.words
                  if sum(1 if l == 1 else -1 if l == -1 else 0 for l in word.letters)}
        for fp in irs.support():
            if shifty & set(fp.words):
                assert len(fp.words) == len(ball.words)  # constant coloring

    def test_az_window_validity(self):
        with pytest.raises(ValueError):
            vershik_irs([HALF, HALF], "az", radius=3, mode="sampled",
                        window=1, n_samples=10, seed=0)

    @pytest.mark.parametrize("target", ["alt:2", "az"])
    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_sampled_needs_a_positive_sample_count(self, target, n_samples):
        with pytest.raises(ValueError, match=f"need n_samples >= 1, got {n_samples}"):
            vershik_irs([HALF, HALF], target, radius=1, mode="sampled",
                        n_samples=n_samples, seed=0)

    def test_az_exact_small_window(self):
        irs = vershik_irs([HALF, HALF], "az", radius=1, mode="exact", window=2)
        assert sum(irs.masses.values()) == 1
        # the center 3-cycle condition c(-1)=c(0)=c(1) has probability 1/4
        beta_fixing = sum(m for fp, m in irs.masses.items() if w("b") in fp.words)
        assert beta_fixing == Fraction(1, 4)
        # analytic cross-check: only the two constant colorings of the 5-cell
        # window survive the shift constraints, and they fix everything
        full = [fp for fp in irs.support() if w("a") in fp.words]
        assert len(full) == 1 and len(full[0].words) == 5
        assert irs.mass(full[0]) == Fraction(2, 2 ** 5)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            vershik_irs([HALF], "alt:2", radius=1, mode="exact")

    @pytest.mark.parametrize("alpha", [
        [1], [HALF, HALF], [Fraction(1, 3)] * 3,
        [Fraction(1, 5), 0, Fraction(4, 5)],
        [Fraction(1, 10), Fraction(2, 10), Fraction(3, 10), Fraction(4, 10)]],
        ids=["1", "halves", "thirds", "zero-weight", "four"])
    @pytest.mark.parametrize("target", ["alt:2", "alt:20", "az"])
    def test_sampled_matches_choice_oracle(self, alpha, target):
        window = 6 if target == "az" else None
        for seed in range(4):
            for n_samples in (1, 3000):
                irs = vershik_irs(alpha, target, radius=2, mode="sampled",
                                  window=window, n_samples=n_samples, seed=seed)
                expected = expected_sampled_vershik(alpha, target, 2, n_samples,
                                                    seed, window=window)
                assert irs == expected
                assert irs.to_json_lines() == expected.to_json_lines()

    @pytest.mark.parametrize("n_samples", [
        1, _SAMPLE_BLOCK - 1, _SAMPLE_BLOCK, _SAMPLE_BLOCK + 1, 2 * _SAMPLE_BLOCK + 3])
    @pytest.mark.parametrize("target", ["alt:20", "az"])
    def test_blockwise_draw_matches_one_draw(self, target, n_samples):
        # the colorings are drawn _SAMPLE_BLOCK rows at a time, the oracle's at once
        alpha = [Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)]
        window = 6 if target == "az" else None
        irs = vershik_irs(alpha, target, radius=2, mode="sampled", window=window,
                          n_samples=n_samples, seed=11)
        expected = expected_sampled_vershik(alpha, target, 2, n_samples, 11,
                                            window=window)
        assert irs.n_samples == n_samples
        assert irs.to_json_lines() == expected.to_json_lines()

    def test_word_moving_no_pair_fixes_every_coloring(self):
        colorings = np.random.default_rng(6).integers(0, 2, size=(50, 5)).astype(np.uint8)
        pairs = [(np.arange(5), np.array([1, 0, 2, 3, 4])), (np.arange(5), np.arange(5)),
                 (np.array([2, 3]), np.array([2, 3]))]
        rows = _fixation_rows(colorings, pairs)
        assert np.array_equal(rows, expected_fixation_rows(colorings, pairs))
        assert rows[:, 1].all() and rows[:, 2].all()
        assert not rows[:, 0].all()

    def test_word_with_no_pairs_fixes_every_coloring(self):
        colorings = np.random.default_rng(7).integers(0, 2, size=(50, 5)).astype(np.uint8)
        empty = np.array([], dtype=np.intp)
        pairs = [(np.arange(5), np.array([0, 2, 1, 3, 4])), (empty, empty)]
        rows = _fixation_rows(colorings, pairs)
        assert rows.shape == (50, 2)
        assert np.array_equal(rows, expected_fixation_rows(colorings, pairs))
        assert rows[:, 1].all()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_packed_rows_match_oracle(self, data):
        # 1-6 colors (1-3 bit planes), counts off a multiple of 8, and words
        # with no pair, only fixed pairs, or random pairs
        n_colors = data.draw(st.integers(1, 6))
        size = data.draw(st.integers(1, 12))
        palette = data.draw(st.lists(st.integers(0, n_colors - 1), min_size=1, max_size=3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        colorings = rng.choice(palette, size=(data.draw(st.integers(1, 70)), size))
        colorings = colorings.astype(np.min_scalar_type(n_colors - 1))
        point = st.integers(0, size - 1)
        fixed = st.lists(point, max_size=4).map(lambda xs: (np.array(xs, dtype=np.intp),) * 2)
        moved = st.lists(st.tuples(point, point), max_size=4).map(
            lambda xy: tuple(np.array([p[i] for p in xy], dtype=np.intp) for i in (0, 1)))
        pairs = data.draw(st.lists(st.one_of(fixed, moved), min_size=1, max_size=6))
        rows = _fixation_rows(colorings, pairs)
        assert rows.dtype == bool and rows.flags.c_contiguous
        assert np.array_equal(rows, expected_fixation_rows(colorings, pairs))

    def test_enumeration_cap(self, monkeypatch):
        monkeypatch.setattr("stabilitylab.irs._ENUMERATION_CAP", 2 ** 5)
        assert vershik_irs([HALF, HALF], "alt:2", radius=1, mode="exact").exact
        monkeypatch.setattr("stabilitylab.irs._ENUMERATION_CAP", 2 ** 5 - 1)
        with pytest.raises(ResourceLimitError, match="enumeration cap"):
            vershik_irs([HALF, HALF], "alt:2", radius=1, mode="exact")


class TestSerialization:
    def test_irs_json_lines_round_trip(self):
        irs = irs_of_gset(disjoint_union(trivial_gset(2, 2), free_transitive_3()), 1)
        text = irs.to_json_lines()
        back = EmpiricalIRS.from_json_lines(text)
        assert back == irs

    def test_sampled_rows_carry_counts_and_errors(self):
        import json

        irs = vershik_irs([HALF, HALF], "alt:2", radius=1, mode="sampled",
                          n_samples=500, seed=1)
        for line in irs.to_json_lines().splitlines():
            entry = json.loads(line)
            assert entry["n_samples"] == 500
            p = entry["mass"]
            assert entry["stderr"] == math.sqrt(p * (1 - p) / 500)

    def test_sampled_json_lines_round_trip_byte_for_byte(self):
        irs = vershik_irs([HALF, HALF], "alt:2", radius=2, mode="sampled",
                          n_samples=300, seed=4)
        text = irs.to_json_lines()
        assert EmpiricalIRS.from_json_lines(text).to_json_lines() == text
        small = irs.restrict(1)
        assert (EmpiricalIRS.from_json_lines(small.to_json_lines()).to_json_lines()
                == small.to_json_lines())

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (expected_d_gen_bound, expected_d_gen_exact, involution_gset,
                     random_gset, sparse_gset)

from stabilitylab import challenges
from stabilitylab.challenges import (challenge_defect, d_gen_bound, d_gen_exact,
                                     gen_norm, is_m_good)
from stabilitylab.irs import FiniteGSet, relabel, trivial_gset
from stabilitylab.perms import GenTuple, Perm, alt_marking, identity_perm
from stabilitylab.words import (InvariantError, ResourceLimitError, WordSet, identity,
                                word_from_string)


def w(text):
    return word_from_string(text, 2)


def cycle_gset(k):
    c = Perm(tuple((i + 1) % k for i in range(k)))
    return FiniteGSet(GenTuple((c, identity_perm(k))))


class TestGenNorm:
    def test_identity_on_identical_actions(self):
        X = cycle_gset(5)
        assert gen_norm(range(5), X, X) == 0

    def test_trivial_actions_any_bijection(self):
        X, Y = trivial_gset(2, 4), trivial_gset(2, 4)
        rng = random.Random(0)
        for _ in range(5):
            f = list(range(4))
            rng.shuffle(f)
            assert gen_norm(f, X, Y) == 0

    def test_cycle_versus_trivial(self):
        # first generator moves all k points, second none: defect is 1/2
        k = 5
        X, Y = cycle_gset(k), trivial_gset(2, k)
        rng = random.Random(1)
        for _ in range(5):
            f = list(range(k))
            rng.shuffle(f)
            moved_fraction = sum(
                Fraction(sum(1 for p in range(k)
                             if f[X.action.perms[s](p)] != Y.action.perms[s](f[p])), k)
                for s in range(2)) / 2
            assert gen_norm(f, X, Y) == moved_fraction == Fraction(1, 2)

    def test_zero_iff_equivariant(self):
        rng = random.Random(2)
        for _ in range(20):
            X = random_gset(rng, 5)
            f = list(range(5))
            rng.shuffle(f)
            value = gen_norm(f, X, X)
            equivariant = all(
                f[X.action.perms[s](p)] == X.action.perms[s](f[p])
                for s in range(2) for p in range(5))
            assert (value == 0) == equivariant

    def test_rejects_non_bijection(self):
        X = cycle_gset(3)
        with pytest.raises(ValueError):
            gen_norm([0, 0, 1], X, X)

    @pytest.mark.parametrize("y, message", [
        (cycle_gset(4), "the two actions must have the same size"),
        (trivial_gset(3, 3), "the two actions must share a rank")],
        ids=["size", "rank"])
    @pytest.mark.parametrize("call", [
        lambda x, y: gen_norm(range(3), x, y), d_gen_exact, d_gen_bound,
        lambda x, y: is_m_good(x, y, WordSet(1, frozenset({identity(2)})), 1)],
        ids=["gen_norm", "d_gen_exact", "d_gen_bound", "is_m_good"])
    def test_rejects_mismatched_actions(self, call, y, message):
        with pytest.raises(ValueError, match=message):
            call(cycle_gset(3), y)


def per_generator_average(f, X, Y):
    """Mean over generators of each generator's own mismatch fraction."""
    fractions = [Fraction(sum(f[sx(p)] != sy(f[p]) for p in range(X.size)), X.size)
                 for sx, sy in zip(X.action.perms, Y.action.perms)]
    return sum(fractions) / len(fractions)


@pytest.mark.parametrize("rank", [1, 3])
class TestOtherRanks:
    def test_gen_norm(self, rank):
        rng = random.Random(20 + rank)
        for size in (1, 4, 7):
            X, Y = random_gset(rng, size, rank), random_gset(rng, size, rank)
            for _ in range(5):
                f = list(range(size))
                rng.shuffle(f)
                assert gen_norm(f, X, Y) == per_generator_average(f, X, Y)

    def test_d_gen_exact(self, rank):
        rng = random.Random(30 + rank)
        for size in (1, 3, 5):
            X, Y = random_gset(rng, size, rank), random_gset(rng, size, rank)
            expected = min(per_generator_average(f, X, Y)
                           for f in itertools.permutations(range(size)))
            assert d_gen_exact(X, Y) == expected

    def test_d_gen_bound(self, rank):
        rng = random.Random(40 + rank)
        for size in (1, 5, 8):
            X, Y = random_gset(rng, size, rank), random_gset(rng, size, rank)
            res = d_gen_bound(X, Y, restarts=5, seed=rank)
            assert res == expected_d_gen_bound(X, Y, restarts=5, seed=rank)
            assert res.value == per_generator_average(res.bijection, X, Y)


class TestDGenExact:
    def test_identical_gsets(self):
        rng = random.Random(3)
        for _ in range(5):
            X = random_gset(rng, 5)
            assert d_gen_exact(X, X) == 0

    def test_single_point(self):
        assert d_gen_exact(trivial_gset(2, 1), trivial_gset(2, 1)) == 0

    def test_below_any_bijection(self):
        rng = random.Random(4)
        for _ in range(10):
            X, Y = random_gset(rng, 6), random_gset(rng, 6)
            exact = d_gen_exact(X, Y)
            f = list(range(6))
            rng.shuffle(f)
            assert exact <= gen_norm(f, X, Y)

    def test_symmetric(self):
        rng = random.Random(5)
        for _ in range(5):
            X, Y = random_gset(rng, 5), random_gset(rng, 5)
            assert d_gen_exact(X, Y) == d_gen_exact(Y, X)

    def test_cap(self):
        rng = random.Random(6)
        X, Y = random_gset(rng, 8), random_gset(rng, 8)
        assert 0 <= d_gen_exact(X, Y) <= 1
        X, Y = random_gset(rng, 9), random_gset(rng, 9)
        with pytest.raises(ResourceLimitError, match="d_gen_bound"):
            d_gen_exact(X, Y)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_matches_permutation_loop(self, rank):
        rng = random.Random(50 + rank)
        for size in range(1, 9):
            X, Y = random_gset(rng, size, rank), random_gset(rng, size, rank)
            assert d_gen_exact(X, Y) == expected_d_gen_exact(X, Y)
            # a relabelling has defect 0, where the loop stops early
            rho = list(range(size))
            rng.shuffle(rho)
            Z = relabel(X, Perm(tuple(rho)))
            assert d_gen_exact(X, Z) == expected_d_gen_exact(X, Z) == 0


@st.composite
def action_pairs(draw, max_size=12):
    """Two equal-size actions: random permutations, sparse cycles, involutions,
    or an action and a relabelling of it (defect 0, so the starts stop early)."""
    size, rank = draw(st.integers(1, max_size)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["permutations", "sparse", "involution", "relabelling"]))
    if kind in ("sparse", "involution"):
        make = sparse_gset if kind == "sparse" else involution_gset
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        return make(rng, size, rank), make(rng, size, rank)
    perm = st.permutations(range(size)).map(lambda xs: Perm(tuple(xs)))
    x = FiniteGSet(GenTuple(tuple(draw(perm) for _ in range(rank))))
    if kind == "relabelling":
        return x, relabel(x, draw(perm))
    return x, FiniteGSet(GenTuple(tuple(draw(perm) for _ in range(rank))))


class TestDGenBound:
    @settings(max_examples=60, deadline=None)
    @given(action_pairs(), st.sampled_from([1, 3]), st.integers(0, 2**16))
    def test_matches_fraction_descent_on_drawn_pairs(self, pair, restarts, seed):
        x, y = pair
        assert (d_gen_bound(x, y, restarts, seed)
                == expected_d_gen_bound(x, y, restarts, seed))

    @settings(max_examples=40, deadline=None)
    @given(action_pairs(max_size=7), st.sampled_from([1, 5, 30]),
           st.integers(0, 2**16))
    def test_floor_at_the_exact_minimum_changes_nothing(self, pair, restarts, seed):
        x, y = pair
        floored = d_gen_bound(x, y, restarts, seed, floor=d_gen_exact(x, y))
        assert floored == d_gen_bound(x, y, restarts, seed)
        assert floored == expected_d_gen_bound(x, y, restarts, seed)

    @settings(max_examples=40, deadline=None)
    @given(action_pairs(max_size=7),
           st.one_of(st.just(Fraction(1)), st.fractions(0, 1)), st.integers(0, 2**16))
    def test_floor_above_the_minimum_keeps_a_witness(self, pair, floor, seed):
        x, y = pair
        res = d_gen_bound(x, y, 5, seed, floor=floor)
        assert gen_norm(res.bijection, x, y) == res.value >= d_gen_exact(x, y)
        # the stop only cuts the search short once the floor is met
        full = d_gen_bound(x, y, 5, seed).value
        assert res.value == full or full <= res.value <= floor

    @pytest.mark.parametrize("floor", [Fraction(-1, 10), Fraction(11, 10)])
    def test_rejects_floor_outside_unit_interval(self, floor):
        # the floor is checked before the pair: a size mismatch is not reached
        with pytest.raises(ValueError, match="floor must lie in"):
            d_gen_bound(cycle_gset(4), cycle_gset(5), floor=floor)

    @pytest.mark.parametrize("pair", ["cycle-vs-trivial", "random-7"])
    def test_floor_met_by_the_greedy_start_runs_one_descent(self, pair, monkeypatch):
        if pair == "cycle-vs-trivial":
            X, Y = cycle_gset(4), trivial_gset(2, 4)
        else:
            rng = random.Random(7)
            X, Y = random_gset(rng, 6), random_gset(rng, 6)
        exact = d_gen_exact(X, Y)
        assert exact > 0 and d_gen_bound(X, Y, restarts=1).value == exact
        calls = []
        honest = challenges._mismatches

        def counted(f, xs, ys):
            calls.append(f)
            return honest(f, xs, ys)

        # each descent counts its start and recounts its end
        monkeypatch.setattr(challenges, "_mismatches", counted)
        floored = d_gen_bound(X, Y, restarts=30, floor=exact)
        assert len(calls) == 2
        del calls[:]
        assert d_gen_bound(X, Y, restarts=30) == floored
        assert len(calls) == 60

    def test_identical_sets(self):
        rng = random.Random(7)
        X = random_gset(rng, 6)
        res = d_gen_bound(X, X)
        assert res.value == 0
        assert gen_norm(res.bijection, X, X) == 0

    def test_never_beats_exact_often_matches(self):
        rng = random.Random(8)
        hits = 0
        for i in range(20):
            X, Y = random_gset(rng, 6), random_gset(rng, 6)
            exact = d_gen_exact(X, Y)
            bound = d_gen_bound(X, Y, restarts=30, seed=i)
            assert bound.value >= exact
            assert gen_norm(bound.bijection, X, Y) == bound.value
            hits += bound.value == exact
        assert hits >= 18

    def test_monotone_in_restarts(self):
        rng = random.Random(9)
        for i in range(5):
            X, Y = random_gset(rng, 7), random_gset(rng, 7)
            few = d_gen_bound(X, Y, restarts=2, seed=0).value
            many = d_gen_bound(X, Y, restarts=12, seed=0).value
            assert many <= few


    @pytest.mark.parametrize("restarts", [1, 5, 30])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_fraction_descent(self, restarts, seed):
        rng = random.Random(100 * restarts + seed)
        pairs = []
        for size in range(5, 13):
            pairs.append((random_gset(rng, size), random_gset(rng, size)))
        # fixed points and involutions make a swap's touched points repeat
        for rank in (1, 2, 3):
            for make in (sparse_gset, involution_gset):
                for size in (3, 20):
                    pairs.append((make(rng, size, rank), make(rng, size, rank)))
        for X, Y in pairs:
            res = d_gen_bound(X, Y, restarts=restarts, seed=seed)
            assert res == expected_d_gen_bound(X, Y, restarts=restarts, seed=seed)

    @pytest.mark.parametrize("call", [
        lambda x: d_gen_bound(x, x, restarts=-1),
        lambda x: d_gen_bound(x, x, restarts=0),
        lambda x: is_m_good(x, x, WordSet(1, frozenset({identity(2)})), 1,
                            restarts=-3),
        lambda x: is_m_good(x, x, WordSet(1, frozenset({identity(2)})), 1,
                            restarts=0)],
        ids=["d_gen_bound", "d_gen_bound-0", "is_m_good", "is_m_good-0"])
    def test_rejects_negative_restarts(self, call):
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            call(cycle_gset(4))

    def test_recount_disagreeing_with_deltas_raises(self, monkeypatch):
        # the first count of the start is honest, the recount after the
        # descent is off by one
        calls = []
        honest = challenges._mismatches

        def off_by_one_recount(f, xs, ys):
            calls.append(f)
            return honest(f, xs, ys) + (len(calls) == 2)

        monkeypatch.setattr(challenges, "_mismatches", off_by_one_recount)
        rng = random.Random(11)
        X, Y = random_gset(rng, 6), random_gset(rng, 6)
        with pytest.raises(InvariantError, match="recount"):
            d_gen_bound(X, Y, restarts=1)


class TestChallengeDefect:
    def test_identity_word(self):
        X = cycle_gset(5)
        assert challenge_defect(X, [identity(2)]) == [(identity(2), Fraction(0))]

    def test_trivial_action(self):
        X = trivial_gset(2, 4)
        ws = WordSet(2, frozenset({w("a"), w("ab")}))
        assert all(frac == 0 for _, frac in challenge_defect(X, ws))

    def test_full_cycle_power(self):
        X = FiniteGSet(alt_marking(2))
        [(word, frac)] = challenge_defect(X, [w("a") ** 5])
        assert frac == 0
        [(word, frac)] = challenge_defect(X, [w("a")])
        assert frac == 1


class TestMGood:
    def test_good_pair(self):
        X = cycle_gset(4)
        kernel = WordSet(4, frozenset({identity(2), w("b")}))
        rep = is_m_good(X, X, kernel, m=1)
        assert rep.passed and rep.bound == 0 and not rep.violations

    def test_kernel_violation_named(self):
        X = cycle_gset(4)
        kernel = WordSet(4, frozenset({identity(2), w("a")}))
        rep = is_m_good(X, X, kernel, m=2)
        assert not rep.passed
        assert rep.violations == (w("a"),)

    def test_kernel_of_wrong_rank_fails_before_the_descent(self, monkeypatch):
        def no_descent(*args, **kwargs):
            raise AssertionError("d_gen_bound ran before the kernel check")

        monkeypatch.setattr(challenges, "d_gen_bound", no_descent)
        X = cycle_gset(4)
        kernel = WordSet(1, frozenset({identity(3)}))
        with pytest.raises(ValueError, match="rank mismatch: word 3 vs tuple 2"):
            is_m_good(X, X, kernel, m=1)

    def test_boundary_is_strict(self):
        # defect exactly 1/2 fails the m = 2 test: strict inequality
        X, Y = cycle_gset(4), trivial_gset(2, 4)
        kernel = WordSet(1, frozenset({identity(2)}))
        rep = is_m_good(X, Y, kernel, m=2)
        assert rep.bound == Fraction(1, 2)
        assert not rep.bound_ok and not rep.passed

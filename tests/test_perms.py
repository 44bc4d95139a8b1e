from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import expected_word_eval

from stabilitylab import perms
from stabilitylab.perms import (GenTuple, Perm, alt_marking, ball_images,
                                check_almost_solution, check_separating,
                                generate_closure, hamming_distance, identity_perm,
                                moved_fractions, perm_from_cycles, word_eval)
from stabilitylab.words import (ResourceLimitError, WordSet, enumerate_ball, identity,
                                reduce, word_from_string)

perm5 = st.permutations(range(5)).map(lambda xs: Perm(tuple(xs)))


def w(text, rank=2):
    return word_from_string(text, rank)


class TestPerm:
    def test_not_bijection(self):
        with pytest.raises(ValueError):
            Perm((0, 0, 1))

    def test_compose_right_factor_first(self):
        p = perm_from_cycles(3, [(0, 1)])
        q = perm_from_cycles(3, [(1, 2)])
        assert (p * q)(1) == p(q(1))

    def test_inverse_and_order(self):
        c = perm_from_cycles(6, [(0, 1, 2), (3, 4)])
        assert (c * c.inverse()).is_identity
        assert [n for n in range(1, 7) if (c ** n).is_identity] == [6]


class TestHamming:
    def test_zero_on_equal(self):
        p = perm_from_cycles(5, [(0, 4, 2)])
        assert hamming_distance(p, p) == 0

    def test_transposition(self):
        assert hamming_distance(perm_from_cycles(5, [(0, 1)]),
                                identity_perm(5)) == Fraction(2, 5)

    def test_five_cycle(self):
        assert hamming_distance(perm_from_cycles(5, [(0, 1, 2, 3, 4)]),
                                identity_perm(5)) == 1

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance(identity_perm(4), identity_perm(5))

    def test_rejects_permutations_of_no_points(self):
        empty = identity_perm(0)
        with pytest.raises(ValueError, match="at least one point"):
            hamming_distance(empty, empty)

    @given(perm5, perm5, perm5)
    def test_metric_and_biinvariance(self, p, q, r):
        d = hamming_distance
        assert d(p, q) == d(q, p)
        assert (d(p, q) == 0) == (p == q)
        assert d(p, r) <= d(p, q) + d(q, r)
        assert d(r * p, r * q) == d(p, q) == d(p * r, q * r)


class TestWordEval:
    def test_identity_word(self):
        gt = alt_marking(2)
        assert word_eval(identity(2), gt).is_identity
        assert word_eval(w("aA"), gt).is_identity

    def test_a5_dies_in_alt2(self):
        # oracle: exponentiate the 5-cycle directly
        gt = alt_marking(2)
        alpha = gt.perms[0]
        direct = alpha * alpha * alpha * alpha * alpha
        assert direct.is_identity
        assert word_eval(w("aaaaa"), gt).is_identity

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            word_eval(word_from_string("c", 3), alt_marking(2))

    @given(st.lists(st.integers(-2, 2).filter(bool), max_size=8),
           st.lists(st.integers(-2, 2).filter(bool), max_size=8))
    def test_multiplicative(self, a, b):
        gt = alt_marking(2)
        u, v = reduce(2, a), reduce(2, b)
        assert word_eval(u * v, gt) == word_eval(u, gt) * word_eval(v, gt)


class TestCheckers:
    def test_identity_relator_passes(self):
        rep = check_almost_solution(alt_marking(2), [identity(2)], Fraction(1, 100))
        assert rep.passed and rep.max_distance == 0

    def test_exact_solution_passes_every_delta(self):
        gt = alt_marking(2)
        relators = WordSet(5, frozenset({w("aaaaa"), w("bbb")}))
        for delta in [Fraction(1, 1000), Fraction(1, 10), 1]:
            assert check_almost_solution(gt, relators, delta).passed

    def test_a7_fails(self):
        # a**7 = a**2 on a 5-cycle: moves all 5 points, distance 1
        rep = check_almost_solution(alt_marking(2), [w("a") ** 7], Fraction(1, 10))
        assert not rep.passed
        assert rep.max_distance == 1

    def test_separating_vacuous(self):
        assert check_separating(alt_marking(2), [], Fraction(1, 2)).passed

    def test_full_cycle_separates(self):
        rep = check_separating(alt_marking(2), [w("a")], Fraction(1, 100))
        assert rep.passed and rep.min_distance == 1

    def test_beta_on_boundary(self):
        # beta fixes 2 of 5 points: distance 3/5 > 1 - 1/2, so this passes
        rep = check_separating(alt_marking(2), [w("b")], Fraction(1, 2))
        assert rep.passed and rep.min_distance == Fraction(3, 5)
        assert not check_separating(alt_marking(2), [w("b")], Fraction(2, 5)).passed

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            check_almost_solution(alt_marking(2), [], 0)

    @pytest.mark.parametrize("check", [
        lambda gt: moved_fractions(gt, [w("a")]),
        lambda gt: check_almost_solution(gt, [w("a")], 1),
        lambda gt: check_separating(gt, [w("a")], 1)],
        ids=["moved_fractions", "almost_solution", "separating"])
    def test_rejects_action_without_points(self, check):
        empty = GenTuple((identity_perm(0), identity_perm(0)))
        with pytest.raises(ValueError, match="at least one point"):
            check(empty)

    def test_moved_fractions_are_hamming_distances(self):
        gt = alt_marking(2)
        ball = enumerate_ball(2, 3)
        expected = tuple((u, hamming_distance(word_eval(u, gt), identity_perm(5)))
                         for u in ball.words)
        assert moved_fractions(gt, ball.words) == expected
        # a WordSet is read in shortlex order, whatever its set order
        assert moved_fractions(gt, WordSet(3, frozenset(ball.words))) == expected
        assert check_almost_solution(gt, ball.words, 1).distances == expected
        assert check_separating(gt, ball.words, 1).distances == expected


class TestClosure:
    def test_identity_tuple(self):
        gt = GenTuple((identity_perm(4),))
        assert generate_closure(gt) == (identity_perm(4),)

    def test_alt5_size(self):
        assert len(generate_closure(alt_marking(2))) == 60

    def test_alt7_size(self):
        assert len(generate_closure(alt_marking(3))) == 2520

    def test_cycle_above_byte_degree(self):
        # image values past 255 do not fit a byte; the closure still dedups
        # them exactly and lists the powers in BFS order
        cycle = Perm(tuple((i + 1) % 300 for i in range(300)))
        closure = generate_closure(GenTuple((cycle,)))
        assert len(closure) == 300
        assert closure == tuple(Perm(tuple((i + n) % 300 for i in range(300)))
                                for n in range(300))

    def test_cap_raises(self, monkeypatch):
        monkeypatch.setattr(perms, "_CLOSURE_CAP", 59)
        with pytest.raises(ResourceLimitError, match="closure exceeds cap 59"):
            generate_closure(alt_marking(2))

    def test_exact_cap_not_truncated(self, monkeypatch):
        monkeypatch.setattr(perms, "_CLOSURE_CAP", 60)
        assert len(generate_closure(alt_marking(2))) == 60


class TestAltMarking:
    def test_degree_and_orders(self):
        gt = alt_marking(2)
        assert gt.degree == 5
        assert [n for n in range(1, 6) if (gt.perms[0] ** n).is_identity] == [5]
        assert [n for n in range(1, 4) if (gt.perms[1] ** n).is_identity] == [3]

    def test_degree_seven(self):
        assert alt_marking(3).degree == 7

    def test_beta_sits_at_center(self):
        for r in (2, 3, 4):
            beta = alt_marking(r).perms[1]
            moved = [x for x in range(beta.degree) if beta(x) != x]
            assert moved == [r - 1, r, r + 1]

    def test_rejects_small_r(self):
        with pytest.raises(ValueError):
            alt_marking(1)


@st.composite
def actions(draw):
    degree = draw(st.integers(1, 12))
    rank = draw(st.integers(1, 3))
    perm = st.permutations(range(degree)).map(lambda xs: Perm(tuple(xs)))
    return GenTuple(tuple(draw(perm) for _ in range(rank)))


class TestWordEvalOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_letter_by_letter_product(self, data):
        gens = data.draw(actions())
        letter = st.integers(-gens.rank, gens.rank).filter(bool)
        word = data.draw(st.lists(letter, max_size=8).map(
            lambda ls: reduce(gens.rank, ls)))
        assert word_eval(word, gens) == expected_word_eval(word, gens)
        assert word_eval(identity(gens.rank), gens) == identity_perm(gens.degree)
        with pytest.raises(ValueError):
            word_eval(identity(gens.rank % 3 + 1), gens)


class TestBallImages:
    @settings(max_examples=40, deadline=None)
    @given(actions(), st.integers(0, 4))
    def test_rows_match_word_eval(self, gens, radius):
        ball = enumerate_ball(gens.rank, radius)
        images = ball_images(gens, ball)
        assert images.shape == (len(ball), gens.degree)
        assert [tuple(row) for row in images.tolist()] == [
            word_eval(word, gens).images for word in ball.words]

    def test_narrow_dtype(self):
        assert ball_images(alt_marking(2), enumerate_ball(2, 2)).dtype == np.uint8
        wide = GenTuple((identity_perm(300), identity_perm(300)))
        assert ball_images(wide, enumerate_ball(2, 1)).dtype == np.uint16

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            ball_images(alt_marking(2), enumerate_ball(3, 1))

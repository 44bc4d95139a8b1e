import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import FreeGroupOracle, TrivialGroupOracle

from stabilitylab import words
from stabilitylab.marked import alt_oracle, az_oracle
from stabilitylab.words import (Ball, ReducedWord, ResourceLimitError, WordSet,
                                ball_size, enumerate_ball, identity,
                                kernel_fingerprint, reduce, word_from_string,
                                word_to_string)

letters_st = st.lists(
    st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0), max_size=12)


def w(text, rank=2):
    return word_from_string(text, rank)


class TestReduce:
    def test_cancellation(self):
        assert reduce(2, [1, -1]) == identity(2)

    def test_inner_cancellation(self):
        assert reduce(2, [1, 2, -2, 1]).letters == (1, 1)

    def test_single_survivor(self):
        assert reduce(2, [1, -1, 1]).letters == (1,)

    def test_invalid_letter_rejected(self):
        with pytest.raises(ValueError):
            reduce(2, [3])
        with pytest.raises(ValueError):
            reduce(2, [0])

    def test_unreduced_constructor_rejected(self):
        with pytest.raises(ValueError):
            ReducedWord(2, (1, -1))

    @given(letters_st)
    def test_reduce_is_reduced(self, letters):
        word = reduce(2, letters)
        for x, y in zip(word.letters, word.letters[1:]):
            assert x != -y


class TestMultiply:
    def test_identity(self):
        assert identity(2) * w("ab") == w("ab")
        assert w("ab") * identity(2) == w("ab")

    def test_inverse(self):
        word = w("abAAb")
        assert word * word.inverse() == identity(2)
        assert word.inverse() * word == identity(2)

    def test_inverse_reverses_and_flips(self):
        assert reduce(2, [1, 2]).inverse().letters == (-2, -1)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            w("a", 2) * w("a", 3)

    def test_product_inverse_rule(self):
        u, v = w("ab"), w("ba")
        assert (u * v).inverse() == v.inverse() * u.inverse()

    @given(letters_st, letters_st, letters_st)
    def test_associativity(self, a, b, c):
        u, v, x = reduce(2, a), reduce(2, b), reduce(2, c)
        assert (u * v) * x == u * (v * x)

    def test_powers(self):
        assert w("a") ** 5 == w("aaaaa")
        assert w("a") ** -2 == w("AA")
        assert w("ab") ** 0 == identity(2)


class TestBall:
    def test_radius_zero(self):
        ball = enumerate_ball(2, 0)
        assert len(ball) == 1 and ball.words[0].is_identity

    def test_small_sizes(self):
        assert len(enumerate_ball(2, 1)) == 5
        assert len(enumerate_ball(2, 3)) == 53  # 2 * 3**r - 1

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("radius", range(7))
    def test_closed_form(self, rank, radius):
        assert len(enumerate_ball(rank, radius)) == ball_size(rank, radius)

    def test_no_duplicates_and_order(self):
        ball = enumerate_ball(2, 4)
        assert len(set(ball.words)) == len(ball)
        keys = [word.sort_key() for word in ball.words]
        assert keys == sorted(keys)

    def test_closed_under_inversion(self):
        ball = enumerate_ball(2, 3)
        members = set(ball.words)
        assert all(word.inverse() in members for word in ball.words)

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(words, "_BALL_CAP", 1000)
        with pytest.raises(ResourceLimitError, match="exceeds cap 1000"):
            enumerate_ball(3, 10)

    def test_every_ball_is_checked(self):
        with pytest.raises(ResourceLimitError, match="exceeds cap"):
            Ball(2, 13)
        for rank, radius in ((0, 1), (2, -1)):
            with pytest.raises(ValueError):
                Ball(rank, radius)

    def test_size_builds_no_words(self):
        ball = Ball(2, 8)
        assert len(ball) == 13121
        assert "words" not in vars(ball)
        assert len(ball.words) == 13121 and "words" in vars(ball)


class TestSerialization:
    def test_round_trip(self):
        for text in ["e", "a", "A", "abA", "BBa"]:
            assert word_to_string(word_from_string(text, 2)) == text

    def test_parse_reduces(self):
        assert word_from_string("aA", 2) == identity(2)

    def test_bad_character(self):
        with pytest.raises(ValueError):
            word_from_string("a!b", 2)


class TestWordSet:
    def test_radius_enforced(self):
        with pytest.raises(ValueError):
            WordSet(1, frozenset({w("ab")}))

    def test_restrict(self):
        ws = WordSet(2, frozenset({identity(2), w("a"), w("ab")}))
        assert ws.restrict(1).members == frozenset({identity(2), w("a")})


class TestKernelFingerprint:
    def test_trivial_oracle_kills_everything(self):
        ball = enumerate_ball(2, 2)
        ws = kernel_fingerprint(TrivialGroupOracle(2), 2)
        assert ws.members == frozenset(ball.words)

    def test_free_oracle_kills_nothing(self):
        ws = kernel_fingerprint(FreeGroupOracle(2), 2)
        assert ws.members == frozenset({identity(2)})

    def test_alt2_contains_a5(self):
        # alpha_2 is a 5-cycle, so a**5 must die in the degree-5 oracle
        ws = kernel_fingerprint(alt_oracle(2), 5)
        assert w("aaaaa") in ws
        assert w("bbb") in ws
        assert w("a") not in ws

    @pytest.mark.parametrize("oracle", [alt_oracle(2), alt_oracle(3), az_oracle()])
    def test_fingerprint_invariants(self, oracle):
        radius = 4
        ws = kernel_fingerprint(oracle, radius)
        assert identity(2) in ws
        for word in ws.members:
            assert word.inverse() in ws.members
        for u in ws.members:
            for v in ws.members:
                prod = u * v
                if len(prod) <= radius:
                    assert prod in ws.members

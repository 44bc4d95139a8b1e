import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (FreeGroupOracle, TrivialGroupOracle, expected_kernel_mask,
                     expected_nu)

from stabilitylab import words
from stabilitylab.marked import (AZ_IDENTITY, DiagonalOracle, alt_oracle,
                                 az_from_cycles, az_oracle, az_shift, convergence_table,
                                 marked_nu, neumann_truncation, tail_defect)
from stabilitylab.perms import GenTuple, alt_marking
from stabilitylab.words import (ResourceLimitError, ball_size, enumerate_ball,
                                identity, kernel_fingerprint, reduce,
                                word_from_string)

words_st = st.lists(st.integers(-2, 2).filter(bool), max_size=10).map(
    lambda ls: reduce(2, ls))


def w(text):
    return word_from_string(text, 2)


class TestAZElement:
    def test_identity(self):
        az = az_oracle()
        assert az.evaluate(identity(2)) == AZ_IDENTITY

    def test_conjugating_by_shift_translates_support(self):
        az = az_oracle()
        assert az.evaluate(w("abA")) == az_from_cycles([(0, 1, 2)])

    def test_beta_has_order_three(self):
        az = az_oracle()
        assert az.evaluate(w("bbb")).is_identity
        assert not az.evaluate(w("bb")).is_identity

    def test_shift_has_infinite_order_at_small_powers(self):
        az = az_oracle()
        for n in range(1, 9):
            assert az.evaluate(w("a") ** n) == az_shift(n)

    def test_action_on_integers(self):
        g = az_oracle().evaluate(w("ab"))
        # (1 . beta, 1) acts by x -> (1.beta)(x + 1)
        assert g.apply(-1) == 1
        assert g.apply(0) == 2
        assert g.apply(1) == 0
        assert g.apply(5) == 6

    @given(words_st, words_st)
    def test_evaluation_is_a_homomorphism(self, u, v):
        az = az_oracle()
        assert az.evaluate(u * v) == az.evaluate(u) * az.evaluate(v)

    @given(words_st, words_st, words_st)
    @settings(max_examples=50)
    def test_group_axioms(self, u, v, x):
        az = az_oracle()
        a, b, c = az.evaluate(u), az.evaluate(v), az.evaluate(x)
        assert (a * b) * c == a * (b * c)
        assert a * a.inverse() == AZ_IDENTITY
        assert a.inverse() * a == AZ_IDENTITY

    @given(words_st)
    def test_sigma_stays_even(self, u):
        assert az_oracle().evaluate(u).sigma_parity() == 0

    @given(words_st)
    def test_support_bound(self, u):
        elem = az_oracle().evaluate(u)
        bound = len(u) + 1
        assert all(abs(n) <= bound for n, _ in elem.sigma)

    def test_odd_sigma_rejected(self):
        with pytest.raises(ValueError):
            az_from_cycles([(0, 1)])


class TestAltOracle:
    def test_full_cycle_order(self):
        for r in (2, 3):
            assert alt_oracle(r).word_is_identity(w("a") ** (2 * r + 1))
            assert alt_oracle(r).word_is_identity(w("bbb"))

    def test_fingerprints_distinguish_ranks(self):
        k2 = kernel_fingerprint(alt_oracle(2), 5)
        k3 = kernel_fingerprint(alt_oracle(3), 5)
        assert k2.members != k3.members
        assert w("aaaaa") in k2 and w("aaaaa") not in k3


class TestMarkedNu:
    def test_equal_oracles_saturate(self):
        res = marked_nu(alt_oracle(2), alt_oracle(2), 5)
        assert res.saturated and res.value == 5
        assert str(res) == ">= 5"

    def test_alt2_vs_az(self):
        # a**5 dies in the degree-5 factor but is a genuine shift in the limit
        res = marked_nu(alt_oracle(2), az_oracle(), 5)
        assert not res.saturated and res.value == 4

    def test_alt2_vs_alt3(self):
        res = marked_nu(alt_oracle(2), alt_oracle(3), 5)
        assert not res.saturated and res.value == 4

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            marked_nu(TrivialGroupOracle(3), az_oracle(), 2)

    def test_symmetry_and_ultrametric(self):
        oracles = [alt_oracle(2), alt_oracle(3), alt_oracle(4), az_oracle()]
        r_max = 5
        nus = {}
        for i, a in enumerate(oracles):
            for j, b in enumerate(oracles):
                nus[i, j] = marked_nu(a, b, r_max).value
        for i in range(len(oracles)):
            for j in range(len(oracles)):
                assert nus[i, j] == nus[j, i]
                for k in range(len(oracles)):
                    assert nus[i, k] >= min(nus[i, j], nus[j, k])


class TestConvergenceTable:
    def test_constant_sequence(self):
        rows = convergence_table([az_oracle()] * 3, az_oracle(), 4)
        assert all(nu.saturated for _, nu in rows)

    def test_ball_cap_bounds_both_scans(self, monkeypatch):
        monkeypatch.setattr(words, "_BALL_CAP", ball_size(2, 3))
        assert convergence_table([alt_oracle(2)], az_oracle(), 3) == [
            ("alt:2", marked_nu(alt_oracle(2), az_oracle(), 3))]
        monkeypatch.setattr(words, "_BALL_CAP", ball_size(2, 3) - 1)
        with pytest.raises(ResourceLimitError, match="exceeds cap"):
            marked_nu(alt_oracle(2), az_oracle(), 3)
        with pytest.raises(ResourceLimitError, match="exceeds cap"):
            convergence_table([alt_oracle(2)], az_oracle(), 3)

    def test_singleton_matches_marked_nu(self):
        [(_, nu)] = convergence_table([alt_oracle(2)], az_oracle(), 5)
        assert nu == marked_nu(alt_oracle(2), az_oracle(), 5)

    def test_alt_sequence_nondecreasing(self):
        rows = convergence_table([alt_oracle(r) for r in range(2, 5)], az_oracle(), 6)
        values = [nu.value for _, nu in rows]
        assert values == sorted(values)
        assert values[-1] > values[0]

    def test_radius_ten(self):
        # nu(alt:n, az) = 2n until the radius-10 ball saturates, from n = 5
        rows = convergence_table([alt_oracle(r) for r in range(2, 7)], az_oracle(), 10)
        assert [(name, nu.value, nu.saturated) for name, nu in rows] == [
            ("alt:2", 4, False), ("alt:3", 6, False), ("alt:4", 8, False),
            ("alt:5", 10, True), ("alt:6", 10, True)]


# the trivial and free oracles put the first kernel difference at length 1,
# which makes nu = 0
oracles_st = st.sampled_from(
    [alt_oracle(r) for r in range(2, 8)]
    + [neumann_truncation(o, l) for o in range(3) for l in range(1, 4)]
    + [az_oracle(), TrivialGroupOracle(), FreeGroupOracle()])


class TestNuOracle:
    """nu read off the kernel masks equals nu from the word-set kernels."""

    @settings(max_examples=25, deadline=None)
    @given(oracles_st, oracles_st, st.integers(0, 6))
    def test_marked_nu(self, o1, o2, r_max):
        assert marked_nu(o1, o2, r_max) == expected_nu(o1, o2, r_max)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(oracles_st, min_size=1, max_size=4), oracles_st,
           st.integers(0, 6))
    def test_convergence_table(self, oracles, target, r_max):
        assert convergence_table(oracles, target, r_max) == [
            (o.name, expected_nu(o, target, r_max)) for o in oracles]


class TestKernelMask:
    """Each override agrees with the word-by-word scalar reference."""

    @pytest.mark.parametrize("r", range(2, 9))
    def test_alt(self, r):
        ball = enumerate_ball(2, 6)
        oracle = alt_oracle(r)
        assert (oracle.kernel_mask(ball) == expected_kernel_mask(oracle, ball)).all()

    @pytest.mark.parametrize("radius", range(9))
    def test_az(self, radius):
        ball = enumerate_ball(2, radius)
        oracle = az_oracle()
        assert (oracle.kernel_mask(ball) == expected_kernel_mask(oracle, ball)).all()

    def test_neumann_truncation(self):
        ball = enumerate_ball(2, 6)
        oracle = neumann_truncation(0, 4)
        mask = oracle.kernel_mask(ball)
        assert (mask == expected_kernel_mask(oracle, ball)).all()
        assert mask.sum() > 1  # the factors share kernel words beyond e

    def test_rank_mismatch(self):
        for oracle in (alt_oracle(2), az_oracle(), neumann_truncation(0, 2)):
            with pytest.raises(ValueError):
                oracle.kernel_mask(enumerate_ball(3, 1))


class TestDiagonal:
    def test_identity_word_trivial_everywhere(self):
        product = neumann_truncation(0, 3)
        rep = tail_defect(identity(2), product, az_oracle())
        assert rep.trivial_in_target and rep.defect == ()

    def test_a5_defect_excludes_first_factor(self):
        product = DiagonalOracle((alt_marking(2), alt_marking(3), alt_marking(4)))
        rep = tail_defect(w("a") ** 5, product, az_oracle())
        assert not rep.trivial_in_target
        assert rep.defect == (1, 2)

    def test_b3_trivial_in_all_factors(self):
        product = neumann_truncation(0, 4)
        rep = tail_defect(w("bbb"), product, az_oracle())
        assert rep.trivial_in_target and rep.defect == ()

    def test_factors_must_share_a_rank(self):
        with pytest.raises(ValueError, match="share a rank"):
            DiagonalOracle([alt_marking(3), GenTuple(alt_marking(3).perms[:1])])

    def test_truncation_length_one_is_alt(self):
        product = neumann_truncation(1, 1)
        k_prod = kernel_fingerprint(product, 5)
        k_alt = kernel_fingerprint(alt_oracle(3), 5)
        assert k_prod.members == k_alt.members

    def test_offset_zero_length_zero_rejected(self):
        with pytest.raises(ValueError):
            neumann_truncation(0, 0)

    def test_consecutive_offsets_agree_on_small_balls(self):
        # experimental record: at this scale consecutive truncations agree on
        # the whole radius-6 ball, so nu saturates (and is thus nondecreasing)
        values = []
        for n in range(3):
            a = neumann_truncation(n, 2)
            b = neumann_truncation(n + 1, 2)
            values.append(marked_nu(a, b, 6))
        assert all(v.saturated for v in values)
        assert [v.value for v in values] == sorted(v.value for v in values)


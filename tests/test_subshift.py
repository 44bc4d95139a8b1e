import gc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import expected_frequency_table, expected_refine_kr
from stabilitylab import subshift
from stabilitylab.fullgroup import ball_elements, three_cycle
from stabilitylab.subshift import (ClopenSet, ErgodicMeasure, KRPartition,
                                   Substitution, chacon, cylinder, fibonacci,
                                   full_set, is_partition, kr_partition,
                                   refine_kr, return_words,
                                   substitution_by_name, thue_morse)
from stabilitylab.words import InvariantError, ResourceLimitError

_FIB = fibonacci()


@st.composite
def fib_clopen(draw):
    resolution = draw(st.integers(min_value=0, max_value=2))
    lang = _FIB.factors(2 * resolution + 1)
    members = draw(st.sets(st.sampled_from(lang)))
    return ClopenSet(_FIB, resolution, members)

GOLDEN = (5 ** 0.5 - 1) / 2


def scan_factors(sub, length, level=12):
    """Direct-scan oracle: windows of a deep iterate of the first letter."""
    s = sub.expansion(sub.alphabet[0], level)
    return set(s[i:i + length] for i in range(len(s) - length + 1))


class TestSubstitution:
    def test_parse_and_names(self):
        assert substitution_by_name("fibonacci") == fibonacci()
        assert substitution_by_name("a->ab;b->a") == fibonacci()
        assert substitution_by_name("thue-morse") == thue_morse()

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Substitution.parse("a->")

    def test_parse_rejects_a_repeated_letter(self):
        with pytest.raises(ValueError, match="letter 'a' has more than one rule"):
            Substitution.parse("a->ab;b->a;a->aab")
        with pytest.raises(ValueError, match="letter 'b' has more than one rule"):
            substitution_by_name("a->ab;b->a;b->a")

    def test_nonprimitive_rejected(self):
        with pytest.raises(ValueError, match="primitive"):
            Substitution("ab", {"a": "aaba", "b": "b"})

    def test_periodic_rejected(self):
        with pytest.raises(ValueError, match="periodic"):
            Substitution("ab", {"a": "ab", "b": "ab"})
        with pytest.raises(ValueError, match="periodic"):
            Substitution("a", {"a": "aa"})

    def test_images_must_cover_alphabet(self):
        with pytest.raises(ValueError):
            Substitution("ab", {"a": "ab"})

    @pytest.mark.parametrize("sub", [fibonacci(), thue_morse(), chacon()])
    def test_long_word_is_the_first_long_enough_iterate(self, sub):
        for min_length in (1, 2, 7, 64, 4096):
            s = sub.alphabet[0]
            while len(s) < min_length:
                s = sub.apply(s)
            assert sub.long_word(min_length) == s
            assert sub.long_word(min_length) == s  # served again from the cache

    def test_long_word_cap(self, monkeypatch):
        sub = fibonacci()  # iterate lengths 1, 2, 3, 5, 8, 13, ...
        monkeypatch.setattr(subshift, "_STRING_CAP", 10)
        with pytest.raises(ResourceLimitError):
            sub.long_word(100)
        monkeypatch.setattr(subshift, "_STRING_CAP", 3)
        assert sub.long_word(5) == "abaab"


class TestLanguage:
    def test_fibonacci_pairs(self):
        assert fibonacci().factors(2) == ("aa", "ab", "ba")

    def test_thue_morse_pairs(self):
        assert thue_morse().factors(2) == ("aa", "ab", "ba", "bb")

    def test_length_one_is_alphabet(self):
        assert fibonacci().factors(1) == ("a", "b")
        assert chacon().factors(1) == ("a", "b", "c")

    @pytest.mark.parametrize("sub", [fibonacci(), thue_morse(), chacon()])
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 6])
    def test_against_direct_scan(self, sub, length):
        assert set(sub.factors(length)) == scan_factors(sub, length)

    @pytest.mark.parametrize("sub", [fibonacci(), thue_morse()])
    def test_factorial_and_extendable(self, sub):
        for length in (2, 3, 4):
            shorter = set(sub.factors(length - 1))
            longer = sub.factors(length)
            for w in longer:
                assert w[1:] in shorter and w[:-1] in shorter
            for w in sub.factors(length - 1):
                assert any(w + ch in set(longer) for ch in sub.alphabet)


class TestClopenAlgebra:
    def setup_method(self):
        self.sub = fibonacci()
        self.full = full_set(self.sub)
        self.a = cylinder(self.sub, "a")
        self.b = cylinder(self.sub, "b")

    def test_idempotent_intersection(self):
        assert self.a.intersect(self.a) == self.a

    def test_complement_laws(self):
        not_a = self.full.minus(self.a)
        assert self.a.union(not_a) == self.full
        assert self.a.intersect(not_a).is_empty
        assert not_a == self.b

    def test_full_is_shift_invariant(self):
        assert self.full.shift_pow(1) == self.full
        assert self.full.shift_pow(-1) == self.full

    def test_shift_round_trip(self):
        c = cylinder(self.sub, "aab")
        assert c.shift_pow(1).shift_pow(-1) == c
        assert c.shift_pow(3).shift_pow(-3) == c

    def test_resolution_independence(self):
        wide = self.a.at_resolution(4)
        assert wide == self.a
        assert hash(wide) == hash(self.a)
        assert wide.reduce().resolution == 0

    def test_empty_set(self):
        assert ClopenSet(self.sub, 0, ()).is_empty
        assert self.a.minus(self.a).is_empty

    def test_inadmissible_window_rejected(self):
        # "bbb" never occurs; "ab" occurs but has the wrong width for resolution 1
        for word in ("bbb", "ab"):
            with pytest.raises(ValueError, match=f"{word!r} is not admissible"):
                ClopenSet(self.sub, 1, {"aba", word})

    def test_inadmissible_cylinder(self):
        with pytest.raises(ValueError):
            cylinder(self.sub, "bb")

    def test_resolution_cap(self):
        with pytest.raises(ResourceLimitError):
            self.a.at_resolution(1000)

    def test_is_partition(self):
        assert is_partition(self.sub, [self.a, self.b])
        assert not is_partition(self.sub, [self.a, self.full])
        assert not is_partition(self.sub, [self.a])

    @given(fib_clopen(), fib_clopen())
    @settings(max_examples=40, deadline=None)
    def test_boolean_laws(self, c, d):
        full = full_set(_FIB)
        assert full.minus(full.minus(c)) == c
        assert full.minus(c.intersect(d)) == full.minus(c).union(full.minus(d))
        assert c.union(d) == d.union(c)
        assert c.minus(d) == c.intersect(full.minus(d))
        assert c.union(full.minus(c)) == full

    @given(fib_clopen(), fib_clopen())
    @settings(max_examples=60, deadline=None)
    def test_operations_agree_with_lifted_member_sets(self, c, d):
        level = max(c.resolution, d.resolution)
        a, b = c.at_resolution(level).members, d.at_resolution(level).members
        meet = c.intersect(d)
        assert (meet.resolution, meet.members) == (level, a & b)
        assert d.intersect(c).members == a & b
        join = c.union(d)
        assert (join.resolution, join.members) == (level, a | b)
        assert d.union(c).members == a | b
        assert c.minus(d).at_resolution(level).members == a - b
        assert c.minus(d).is_empty == (a <= b)
        assert d.minus(c).is_empty == (b <= a)
        assert c.is_disjoint(d) == d.is_disjoint(c) == (not a & b)

    def test_operands_over_different_subshifts_rejected(self):
        other = cylinder(thue_morse(), "ab")
        for x, y in ((self.a, other), (other, self.a)):
            for op in (x.intersect, x.union, x.minus, x.is_disjoint):
                with pytest.raises(ValueError, match="different subshifts"):
                    op(y)

    def test_reduce_and_shift_leave_no_reference_cycles(self):
        gc.collect()
        gc.disable()
        try:
            c = cylinder(self.sub, "aab").at_resolution(4)
            c.reduce()
            c.shift_pow(5).reduce()
            c.shift_pow(-5).shift_pow(2)
            del c
            assert gc.collect() == 0
        finally:
            gc.enable()

    @given(fib_clopen())
    @settings(max_examples=40, deadline=None)
    def test_shift_is_a_boolean_automorphism(self, c):
        assert c.shift_pow(1).shift_pow(-1) == c
        full = full_set(_FIB)
        assert full.minus(c).shift_pow(1) == full.minus(c.shift_pow(1))

    @given(fib_clopen(), st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_shift_powers_add(self, c, m, n):
        assert c.shift_pow(m).shift_pow(n) == c.shift_pow(m + n)

    @given(fib_clopen(), st.integers(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_unit_steps_match_one_slice(self, c, n):
        # y is in T^n(C) iff y[-L-n..L-n] is a member: one slice, at offset
        # |n| - n, of the windows at resolution L + |n|
        span = 2 * c.resolution + 1
        off = abs(n) - n
        level = c.resolution + abs(n)
        members = (w for w in _FIB.factors(2 * level + 1)
                   if w[off:off + span] in c.members)
        assert c.shift_pow(n) == ClopenSet(_FIB, level, members).reduce()


class TestMeasure:
    def setup_method(self):
        self.sub = fibonacci()
        self.meas = ErgodicMeasure(self.sub)

    def test_full_and_empty(self):
        assert self.meas.measure(full_set(self.sub)) == pytest.approx(1.0, abs=1e-9)
        assert self.meas.measure(ClopenSet(self.sub, 0, ())) == 0.0

    def test_golden_ratio_cylinder(self):
        assert self.meas.measure(cylinder(self.sub, "a")) == pytest.approx(
            GOLDEN, abs=1e-9)

    def test_shift_invariance(self):
        for word in ("a", "b", "ab", "aab"):
            c = cylinder(self.sub, word)
            assert abs(self.meas.measure(c.shift_pow(1)) - self.meas.measure(c)) \
                <= 2 * max(len(c.members) * self.meas.tolerance, 1e-12)

    def test_additivity(self):
        a, b = cylinder(self.sub, "a"), cylinder(self.sub, "b")
        assert self.meas.measure(a) + self.meas.measure(b) == pytest.approx(
            1.0, abs=1e-9)

    @pytest.mark.parametrize("sub", [fibonacci(), thue_morse()])
    def test_marginal_consistency(self, sub):
        meas = ErgodicMeasure(sub)
        for length in (1, 2, 3):
            for w in sub.factors(length):
                extended = sum(meas.frequency(w + ch) for ch in sub.alphabet)
                assert extended == pytest.approx(meas.frequency(w), abs=1e-9)

    @pytest.mark.parametrize("length", list(range(1, 22)) + [71])
    @pytest.mark.parametrize("sub", [fibonacci(), thue_morse(), chacon()],
                             ids=["fibonacci", "thue-morse", "chacon"])
    def test_integer_settling_matches_fraction_iterates(self, sub, length):
        threshold = Fraction(ErgodicMeasure.tolerance).limit_denominator(10**15) / 1000
        assert subshift._frequency_table(sub, length, threshold) == \
            expected_frequency_table(sub, length, threshold)

    def test_thue_morse_letters_balanced(self):
        meas = ErgodicMeasure(thue_morse())
        assert meas.frequency("a") == pytest.approx(0.5, abs=1e-12)

    def test_inadmissible_frequency_is_zero(self):
        assert self.meas.frequency("bb") == 0.0


class TestReturnWords:
    def test_fibonacci_a(self):
        assert return_words(fibonacci(), "a") == ("a", "ab")

    def test_fibonacci_b(self):
        assert return_words(fibonacci(), "b") == ("ba", "baa")

    def test_inadmissible(self):
        with pytest.raises(ValueError):
            return_words(fibonacci(), "bb")

    def test_scan_cap(self, monkeypatch):
        # the first scanned iterate (length 89) fits under the cap, the next does not
        monkeypatch.setattr(subshift, "_STRING_CAP", 64)
        with pytest.raises(ResourceLimitError, match="string cap"):
            return_words(fibonacci(), "a")

    @pytest.mark.parametrize("sub", [fibonacci(), thue_morse()])
    def test_definition_restated(self, sub):
        # each gap word w: w+u is admissible and contains u exactly at 0, len(w)
        for length in (1, 2, 3):
            for u in sub.factors(length):
                for w in return_words(sub, u):
                    witness = w + u
                    assert sub.is_admissible(witness)
                    hits = [i for i in range(len(witness) - len(u) + 1)
                            if witness[i:i + len(u)] == u]
                    assert hits[0] == 0 and hits[-1] == len(w)
                    assert not [h for h in hits if 0 < h < len(w)]


class TestKRPartition:
    def test_fibonacci_a_two_towers(self):
        part = kr_partition(fibonacci(), "a")
        assert sorted(t.height for t in part.towers) == [1, 2]
        assert part.min_height == 1
        assert len(part.atoms()) == 3

    def test_base_is_the_cylinder(self):
        sub = fibonacci()
        part = kr_partition(sub, "a")
        assert part.base() == cylinder(sub, "a")

    def test_roof_shifts_to_base(self):
        part = kr_partition(fibonacci(), "aa")
        assert part.roof().shift_pow(1) == part.base()

    @pytest.mark.parametrize("sub", [fibonacci(), thue_morse(), chacon()],
                             ids=["fibonacci", "thue-morse", "chacon"])
    @pytest.mark.parametrize("word", ["a", "b", "ab", "aab"])
    def test_roof_is_the_union_of_shifted_bases(self, sub, word):
        part = kr_partition(sub, word)
        expected = ClopenSet(sub, 0, ())
        for tower in part.towers:
            expected = expected.union(tower.base.shift_pow(tower.height - 1))
        assert part.roof() == expected

    def test_tower_masses_sum_to_cylinder(self):
        sub = fibonacci()
        meas = ErgodicMeasure(sub)
        part = kr_partition(sub, "a")
        bases = sum(meas.measure(t.base) for t in part.towers)
        assert bases == pytest.approx(meas.measure(cylinder(sub, "a")), abs=1e-9)

    @pytest.mark.parametrize("sub", [fibonacci(), thue_morse()])
    def test_full_mass_and_validity(self, sub):
        meas = ErgodicMeasure(sub)
        for length in (1, 2, 3):
            for u in sub.factors(length):
                part = kr_partition(sub, u)
                part.validate()
                total = sum(t.height * meas.measure(t.base) for t in part.towers)
                assert abs(total - 1) <= len(part.atoms()) * 1e-9

    def test_inadmissible_seed(self):
        with pytest.raises(ValueError):
            kr_partition(fibonacci(), "bb")

    @pytest.mark.parametrize("sub", [fibonacci(), thue_morse(), chacon()])
    def test_min_height_is_the_shortest_return_word(self, sub):
        for length in (1, 2, 3):
            for u in sub.factors(length):
                assert kr_partition(sub, u).min_height == len(return_words(sub, u)[0])


class TestRefine:
    def setup_method(self):
        self.sub = fibonacci()
        self.part = kr_partition(self.sub, "aa")

    def test_refine_by_whole_space(self):
        refined = refine_kr(self.part, [full_set(self.sub)])
        assert refined.base() == self.part.base()
        assert refined.roof() == self.part.roof()
        assert sorted(t.height for t in refined.towers) == \
            sorted(t.height for t in self.part.towers)

    def test_refine_by_own_atoms(self):
        refined = refine_kr(self.part, [a.part for a in self.part.atoms()])
        assert refined.min_height == self.part.min_height
        assert refined.base() == self.part.base()

    def test_refine_by_letter_partition(self):
        pieces = [cylinder(self.sub, "a"), cylinder(self.sub, "b")]
        refined = refine_kr(self.part, pieces)
        assert refined.base() == self.part.base()
        assert refined.roof() == self.part.roof()
        assert refined.min_height == self.part.min_height
        for atom in refined.atoms():
            assert any(atom.part.minus(p).is_empty for p in pieces)

    def test_rejects_non_partition(self):
        with pytest.raises(ValueError):
            refine_kr(self.part, [cylinder(self.sub, "a")])

    @pytest.mark.parametrize("words,match", [(["a"], "no piece"),
                                             (["a", "b", "ab"], "two pieces")])
    def test_pieces_missing_or_sharing_a_window_raise(self, monkeypatch, words, match):
        # past a partition check that lets them through, pieces that miss a
        # base window or claim one twice are an invariant failure
        monkeypatch.setattr(subshift, "is_partition", lambda sub, pieces: True)
        with pytest.raises(InvariantError, match=match):
            refine_kr(self.part, [cylinder(self.sub, w) for w in words])


def _towers(partition):
    return [(t.label, t.height, t.base.reduce().resolution, t.base.reduce().members)
            for t in partition.towers]


class TestRefineMatchesPullAndLift:
    """``refine_kr`` reads itineraries off one window-to-piece map per stage;
    the oracle pulls every piece back and lifts it to the tower's resolution."""

    @pytest.mark.parametrize("sub,word", [
        (fibonacci(), "aa"), (fibonacci(), "abaab"), (thue_morse(), "ab"),
        (thue_morse(), "aab"), (chacon(), "a"), (chacon(), "ab")])
    def test_atoms_and_letters(self, sub, word):
        part = kr_partition(sub, word)
        for pieces in ([a.part for a in part.atoms()],
                       [cylinder(sub, ch) for ch in sub.alphabet]):
            assert _towers(refine_kr(part, pieces)) == \
                _towers(expected_refine_kr(part, pieces))

    @pytest.mark.parametrize("seed", ["aa", "abaab"])
    def test_nonabelian_ball_elements(self, seed):
        sub = fibonacci()
        gens = [three_cycle(cylinder(sub, "aa")), three_cycle(cylinder(sub, "baa"))]
        start = kr_partition(sub, seed)
        stages = [[c for c, _ in elem.parts]
                  for _, elem in ball_elements(gens, 2).representatives]
        part = expected = start
        for pieces in stages:
            part = refine_kr(part, pieces)
            expected = expected_refine_kr(expected, pieces)
            assert _towers(part) == _towers(expected)
        # all stages in one call: same labels, heights and bases in the same order
        assert _towers(refine_kr(start, *stages)) == _towers(expected)

    def test_several_stages_validate_once(self, monkeypatch):
        sub = fibonacci()
        part = kr_partition(sub, "abaab")
        stages = [[cylinder(sub, ch) for ch in sub.alphabet],
                  [a.part for a in part.atoms()],
                  [cylinder(sub, w) for w in sub.factors(3)]]
        calls = []
        validate = KRPartition.validate
        monkeypatch.setattr(KRPartition, "validate",
                            lambda self: calls.append(self) or validate(self))
        refined = refine_kr(part, *stages)
        assert calls == [refined]

"""Reduced words in a finite-rank free group, metric balls, kernel fingerprints.

A letter is a nonzero integer: ``i`` (with ``1 <= i <= rank``) is the i-th
generator and ``-i`` its inverse.  Words serialize as strings: generator ``i``
prints as the i-th lowercase latin letter, its inverse as the uppercase one,
and the empty word as ``"e"``.  All values here are immutable and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

MAX_RANK = 26
_BALL_CAP = 10**6         # words in one enumerated ball


class ResourceLimitError(RuntimeError):
    """A configured size cap (ball size, closure size, depth, ...) would be exceeded."""


class InvariantError(RuntimeError):
    """A library invariant failed: a bug in stabilitylab, not bad input."""


def reduce_letters(letters) -> tuple[int, ...]:
    """Freely reduce a letter sequence (cancel adjacent inverse pairs)."""
    out: list[int] = []
    for letter in letters:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _letter_key(letter: int) -> int:
    # a < A < b < B < ...
    return 2 * abs(letter) - (1 if letter > 0 else 0)


@dataclass(frozen=True)
class ReducedWord:
    """A freely reduced word over the free group of the given rank."""

    rank: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.rank <= MAX_RANK:
            raise ValueError(f"rank must be in 1..{MAX_RANK}, got {self.rank}")
        for letter in self.letters:
            if letter == 0 or abs(letter) > self.rank:
                raise ValueError(f"invalid letter {letter} for rank {self.rank}")
        for x, y in zip(self.letters, self.letters[1:]):
            if x == -y:
                raise ValueError(f"letter sequence {self.letters} is not freely reduced")

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        return ReducedWord(self.rank, reduce_letters(self.letters + other.letters))

    def inverse(self) -> "ReducedWord":
        return ReducedWord(self.rank, tuple(-l for l in reversed(self.letters)))

    def __pow__(self, n: int) -> "ReducedWord":
        base = self if n >= 0 else self.inverse()
        out = identity(self.rank)
        for _ in range(abs(n)):
            out = out * base
        return out

    def sort_key(self):
        """Length-lexicographic key; generators sort before their inverses."""
        return (len(self.letters), tuple(_letter_key(l) for l in self.letters))

    def __str__(self) -> str:
        return word_to_string(self)

    def __repr__(self) -> str:
        return f"ReducedWord({self.rank}, {word_to_string(self)!r})"


def identity(rank: int) -> ReducedWord:
    return ReducedWord(rank, ())


def reduce(rank: int, letters) -> ReducedWord:
    """Build the reduced word represented by an arbitrary letter sequence."""
    for letter in letters:
        if letter == 0 or abs(letter) > rank:
            raise ValueError(f"invalid letter {letter} for rank {rank}")
    return ReducedWord(rank, reduce_letters(letters))


def word_to_string(word: ReducedWord) -> str:
    if word.is_identity:
        return "e"
    chars = []
    for letter in word.letters:
        i = abs(letter) - 1
        chars.append(chr(ord("a") + i) if letter > 0 else chr(ord("A") + i))
    return "".join(chars)


def word_from_string(text: str, rank: int) -> ReducedWord:
    """Parse a word string (``"abA"``-style, ``"e"`` for the identity) and reduce it."""
    text = text.strip()
    if text in ("", "e"):
        return identity(rank)
    letters = []
    for ch in text:
        if "a" <= ch <= "z":
            letters.append(ord(ch) - ord("a") + 1)
        elif "A" <= ch <= "Z":
            letters.append(-(ord(ch) - ord("A") + 1))
        else:
            raise ValueError(f"invalid word character {ch!r}")
    return reduce(rank, letters)


def ball_size(rank: int, radius: int) -> int:
    """Number of reduced words of length <= radius: 1 + sum 2d(2d-1)^(k-1)."""
    d = rank
    return 1 + sum(2 * d * (2 * d - 1) ** (k - 1) for k in range(1, radius + 1))


@dataclass(frozen=True)
class Ball:
    """All reduced words of length <= radius, in length-lexicographic order.

    The words are built on the first read of ``words``; the size and the
    level-wise evaluators need only ``rank`` and ``radius``.  Raises
    ResourceLimitError if the closed-form size would exceed ``_BALL_CAP``.
    """

    rank: int
    radius: int

    def __post_init__(self):
        if self.rank < 1 or self.radius < 0:
            raise ValueError("need rank >= 1 and radius >= 0")
        size = ball_size(self.rank, self.radius)
        if size > _BALL_CAP:
            raise ResourceLimitError(f"ball of size {size} exceeds cap {_BALL_CAP}")

    @cached_property
    def words(self) -> tuple[ReducedWord, ...]:
        words: list[ReducedWord] = [identity(self.rank)]
        level: list[tuple[int, ...]] = [()]
        for parents, letters in ball_levels(self.rank, self.radius):
            level = [level[p] + (l,) for p, l in zip(parents.tolist(), letters.tolist())]
            words.extend(ReducedWord(self.rank, ls) for ls in level)
        size = len(self)
        if len(words) != size:
            raise InvariantError(f"enumerated {len(words)} words, closed form says {size}")
        return tuple(words)

    def __len__(self) -> int:
        return ball_size(self.rank, self.radius)

    def __iter__(self):
        return iter(self.words)


def ball_levels(rank: int, radius: int):
    """Parent index and last letter of every word of the ball, level by level.

    Yields, for k = 1..radius, integer arrays ``(parents, letters)``: word i
    of level k is word ``parents[i]`` of level k-1 followed by the letter
    ``letters[i]``.  Within a level the words come parent by parent, each
    parent's children in the letter order a, A, b, B, ..., which is the order
    of :func:`enumerate_ball` and of :meth:`ReducedWord.sort_key`.
    """
    order = np.array([l for i in range(1, rank + 1) for l in (i, -i)])
    last = np.zeros(1, dtype=order.dtype)
    for _ in range(radius):
        parents, columns = np.nonzero(order[None, :] != -last[:, None])
        last = order[columns]
        yield parents, last


def evaluate_levels(rank: int, radius: int, root, columns):
    """Evaluate every word of the ball as a row of values, one level at a time.

    ``root`` is the row of the empty word.  A word's row is its parent's row
    gathered through an index array of its last letter, ``columns(k)[letter]``
    for a word of level k; for a permutation action that array is the
    letter's image array, because the right-most letter acts first.  Yields
    one array per level k = 0..radius, rows in :func:`enumerate_ball` order.
    Only the previous level is kept alive.
    """
    rows = np.asarray(root)[None, :]
    yield rows
    for k, (parents, letters) in enumerate(ball_levels(rank, radius), start=1):
        cols = columns(k)
        child = np.empty((len(parents), len(cols[1])), dtype=rows.dtype)
        for letter, col in cols.items():
            sel = letters == letter
            child[sel] = rows[np.ix_(parents[sel], col)]
        rows = child
        yield rows


def enumerate_ball(rank: int, radius: int) -> Ball:
    """The closed ball of the given radius in the rank-d free group.

    Raises ResourceLimitError if the closed-form size would exceed ``_BALL_CAP``.
    """
    return Ball(rank, radius)


@dataclass(frozen=True)
class WordSet:
    """A set of reduced words, all of length <= radius."""

    radius: int
    members: frozenset

    def __post_init__(self):
        for w in self.members:
            if len(w) > self.radius:
                raise ValueError(f"word {w} longer than radius {self.radius}")

    def __contains__(self, word) -> bool:
        return word in self.members

    def __len__(self) -> int:
        return len(self.members)

    def sorted_words(self) -> tuple[ReducedWord, ...]:
        return tuple(sorted(self.members, key=ReducedWord.sort_key))

    def restrict(self, radius: int) -> "WordSet":
        if radius > self.radius:
            raise ValueError("can only restrict to a smaller radius")
        return WordSet(radius, frozenset(w for w in self.members if len(w) <= radius))


def kernel_fingerprint(oracle, radius: int) -> WordSet:
    """Ball words that the marked-group oracle evaluates to the identity.

    ``oracle`` needs ``rank`` and ``kernel_mask(ball)``, a boolean array over
    ``ball.words`` that is true where the word dies (see
    :class:`stabilitylab.marked.MarkedGroupOracle`).  The result contains the
    empty word and is closed under inversion and under products that stay
    inside the ball.
    """
    ball = enumerate_ball(oracle.rank, radius)
    mask = oracle.kernel_mask(ball)
    return WordSet(radius, frozenset(w for w, dead in zip(ball.words, mask.tolist())
                                     if dead))

"""Finite permutations, the normalized Hamming metric, and almost-solution checkers.

Permutations act on ``{0, ..., k-1}`` and compose like functions:
``(p * q)(x) == p(q(x))``, i.e. the right factor acts first.  All distances
are exact :class:`fractions.Fraction` values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .words import Ball, ReducedWord, ResourceLimitError, WordSet, evaluate_levels

_CLOSURE_CAP = 10**6      # elements of one generated group


@dataclass(frozen=True)
class Perm:
    images: tuple[int, ...]

    def __post_init__(self):
        k = len(self.images)
        seen = [False] * k
        for i in self.images:
            if not 0 <= i < k or seen[i]:
                raise ValueError(f"not a bijection of range({k}): {self.images}")
            seen[i] = True

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Perm") -> "Perm":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        im = self.images
        return Perm(tuple(im[x] for x in other.images))

    def inverse(self) -> "Perm":
        inv = [0] * self.degree
        for x, y in enumerate(self.images):
            inv[y] = x
        return Perm(tuple(inv))

    def __pow__(self, n: int) -> "Perm":
        base = self if n >= 0 else self.inverse()
        out = identity_perm(self.degree)
        for _ in range(abs(n)):
            out = base * out
        return out

    @property
    def is_identity(self) -> bool:
        return all(i == x for x, i in enumerate(self.images))

    def fixed_count(self) -> int:
        return sum(1 for x, i in enumerate(self.images) if i == x)

    def __repr__(self) -> str:
        return f"Perm({list(self.images)})"


def identity_perm(degree: int) -> Perm:
    return Perm(tuple(range(degree)))


def perm_from_cycles(degree: int, cycles) -> Perm:
    images = list(range(degree))
    for cyc in cycles:
        for i, x in enumerate(cyc):
            images[x] = cyc[(i + 1) % len(cyc)]
    return Perm(tuple(images))


def hamming_distance(p: Perm, q: Perm) -> Fraction:
    """Normalized Hamming distance: the fraction of points where p and q differ."""
    if p.degree != q.degree:
        raise ValueError("degree mismatch")
    if p.degree == 0:
        raise ValueError("the permutations need at least one point")
    agree = sum(1 for a, b in zip(p.images, q.images) if a == b)
    return Fraction(p.degree - agree, p.degree)


@dataclass(frozen=True)
class GenTuple:
    """A d-tuple of permutations of a common finite set: a point of Sym(k)^d."""

    perms: tuple[Perm, ...]

    def __post_init__(self):
        if not self.perms:
            raise ValueError("need at least one generator")
        k = self.perms[0].degree
        if any(p.degree != k for p in self.perms):
            raise ValueError("generators must share a degree")

    @property
    def degree(self) -> int:
        return self.perms[0].degree

    @property
    def rank(self) -> int:
        return len(self.perms)


def word_eval(word: ReducedWord, gens: GenTuple) -> Perm:
    """Evaluate a free-group word at the tuple; the result of the unique
    homomorphism extending the tuple."""
    if word.rank != gens.rank:
        raise ValueError(f"rank mismatch: word {word.rank} vs tuple {gens.rank}")
    n = gens.degree
    out = list(range(n))
    for letter in word.letters:
        p = gens.perms[abs(letter) - 1].images
        if letter > 0:  # (out * p)(x) = out(p(x))
            out = [out[x] for x in p]
        else:  # (out * p^-1)(p(x)) = out(x)
            prev, out = out, [0] * n
            for x, y in enumerate(p):
                out[y] = prev[x]
    return Perm(tuple(out))


def ball_images(gens: GenTuple, ball: Ball) -> np.ndarray:
    """Image arrays of every ball word at the tuple: row j is
    ``word_eval(ball.words[j], gens).images``.

    Built one radius level at a time (each row is its parent's row gathered
    through the image array of the last letter) in the narrowest unsigned
    dtype that holds the degree.  :func:`word_eval` is the reference.
    """
    if ball.rank != gens.rank:
        raise ValueError(f"rank mismatch: ball {ball.rank} vs tuple {gens.rank}")
    images = {}
    for i, p in enumerate(gens.perms, start=1):
        images[i] = np.array(p.images, dtype=np.intp)
        images[-i] = np.argsort(images[i])
    root = np.arange(gens.degree, dtype=np.min_scalar_type(max(gens.degree - 1, 0)))
    return np.concatenate(list(evaluate_levels(ball.rank, ball.radius, root,
                                               lambda k: images)))


@dataclass(frozen=True)
class AlmostSolutionReport:
    distances: tuple[tuple[ReducedWord, Fraction], ...]
    max_distance: Fraction | None
    threshold: Fraction
    passed: bool


@dataclass(frozen=True)
class SeparationReport:
    distances: tuple[tuple[ReducedWord, Fraction], ...]
    min_distance: Fraction | None
    threshold: Fraction
    passed: bool


def moved_fractions(gens: GenTuple, words) -> tuple[tuple[ReducedWord, Fraction], ...]:
    """Each word with the fraction of points its evaluation moves, which is its
    Hamming distance from the identity; a WordSet is read in shortlex order.
    An action on no points raises ``ValueError``."""
    n = gens.degree
    if n == 0:
        raise ValueError("the action needs at least one point")
    if isinstance(words, WordSet):
        words = words.sorted_words()
    return tuple((w, Fraction(n - word_eval(w, gens).fixed_count(), n)) for w in words)


def check_almost_solution(gens: GenTuple, relators, delta) -> AlmostSolutionReport:
    """Check that every relator evaluates within Hamming distance < delta of the identity."""
    delta = Fraction(delta)
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    dists = moved_fractions(gens, relators)
    max_d = max((d for _, d in dists), default=None)
    passed = all(d < delta for _, d in dists)
    return AlmostSolutionReport(dists, max_d, delta, passed)


def check_separating(gens: GenTuple, witnesses, delta) -> SeparationReport:
    """Check that every witness word evaluates at Hamming distance > 1 - delta
    from the identity; vacuously true on the empty set."""
    delta = Fraction(delta)
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    dists = moved_fractions(gens, witnesses)
    min_d = min((d for _, d in dists), default=None)
    passed = all(d > 1 - delta for _, d in dists)
    return SeparationReport(dists, min_d, delta, passed)


def generate_closure(gens: GenTuple) -> tuple[Perm, ...]:
    """BFS closure of the generated permutation group, in a deterministic order.

    Raises ResourceLimitError when the group has more than ``_CLOSURE_CAP``
    elements.
    """
    start = identity_perm(gens.degree)
    seen = {start.images}
    elements = [start]
    frontier = [start]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens.perms:
                h = g * s
                if h.images not in seen:
                    if len(elements) >= _CLOSURE_CAP:
                        raise ResourceLimitError(f"closure exceeds cap {_CLOSURE_CAP}")
                    seen.add(h.images)
                    elements.append(h)
                    nxt.append(h)
        frontier = nxt
    return tuple(elements)


def alt_marking(r: int) -> GenTuple:
    """The 2-marking of the alternating group on the 2r+1 integers of absolute
    value <= r: a full forward cycle together with the 3-cycle at the center.

    Points are relabeled to 0..2r (integer n maps to index n + r).
    """
    if r < 2:
        raise ValueError("need r >= 2")
    k = 2 * r + 1
    alpha = Perm(tuple((i + 1) % k for i in range(k)))
    beta = perm_from_cycles(k, [(r - 1, r, r + 1)])
    return GenTuple((alpha, beta))

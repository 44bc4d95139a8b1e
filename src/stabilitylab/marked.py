"""The space of marked groups at desk scale.

A *marked-group oracle* is anything with a ``rank``, an ``evaluate(word)``
method returning an opaque element handle, ``is_identity(handle)``, and
``kernel_mask(ball)``, which says for a whole ball at once which words die.
Evaluation is the homomorphism from the rank-d free group fixed by the
marking.  Concrete oracles here: finite alternating groups with their
standard 2-marking, the alternating enrichment of the integers (finitely
supported even permutations extended by the shift), and truncated diagonal
products of finite factors.

Two markings are compared through their ball-restricted kernels: nu is the
largest radius on which the kernels agree, and 2**-nu is the marked-group
distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .perms import GenTuple, Perm, alt_marking, ball_images, word_eval
from .words import Ball, ReducedWord, ball_size, enumerate_ball, evaluate_levels


# ---------------------------------------------------------------------------
# elements of the alternating enrichment of Z

@dataclass(frozen=True)
class AZElement:
    """(sigma, t): a finitely supported even permutation of Z and a shift.

    ``sigma`` is stored as a sorted tuple of (source, image) pairs with fixed
    points dropped, so equality and hashing are structural.  The pair acts on
    Z by x -> sigma(x + t).
    """

    sigma: tuple[tuple[int, int], ...]
    shift: int

    def as_dict(self) -> dict[int, int]:
        return dict(self.sigma)

    @property
    def is_identity(self) -> bool:
        return not self.sigma and self.shift == 0

    def sigma_parity(self) -> int:
        """Parity of the finitely supported permutation (0 even / 1 odd)."""
        s = self.as_dict()
        seen = set()
        parity = 0
        for start in s:
            if start in seen:
                continue
            length = 0
            x = start
            while x not in seen:
                seen.add(x)
                x = s[x]
                length += 1
            parity ^= (length - 1) % 2
        return parity

    def __mul__(self, other: "AZElement") -> "AZElement":
        # (sigma, t)(tau, s) = (sigma o (t.tau), t + s), (t.tau)(n) = tau(n-t)+t
        sig = self.as_dict()
        tau = other.as_dict()
        t = self.shift
        moved = {}
        for n in set(sig) | {m + t for m in tau}:
            mid = tau.get(n - t, n - t) + t
            out = sig.get(mid, mid)
            if out != n:
                moved[n] = out
        return AZElement(tuple(sorted(moved.items())), t + other.shift)

    def inverse(self) -> "AZElement":
        # (sigma, t)^{-1} = (sigma', -t) with sigma'(n) = sigma^{-1}(n + t) - t
        inv = {v: k for k, v in self.sigma}
        t = self.shift
        moved = {}
        for n in {k - t for k in inv}:
            out = inv.get(n + t, n + t) - t
            if out != n:
                moved[n] = out
        return AZElement(tuple(sorted(moved.items())), -t)

    def apply(self, x: int) -> int:
        """Action on the integers: x -> sigma(x + t)."""
        sig = self.as_dict()
        y = x + self.shift
        return sig.get(y, y)

    def __repr__(self) -> str:
        return f"AZElement(sigma={dict(self.sigma)}, shift={self.shift})"


AZ_IDENTITY = AZElement((), 0)


def az_shift(t: int) -> AZElement:
    return AZElement((), t)


def az_from_cycles(cycles) -> AZElement:
    moved = {}
    for cyc in cycles:
        for i, x in enumerate(cyc):
            y = cyc[(i + 1) % len(cyc)]
            if y != x:
                moved[x] = y
    elem = AZElement(tuple(sorted(moved.items())), 0)
    if elem.sigma_parity() != 0:
        raise ValueError("finitely supported part must be an even permutation")
    return elem


# ---------------------------------------------------------------------------
# oracles

def _identity_mask(gens: GenTuple, ball: Ball) -> np.ndarray:
    return (ball_images(gens, ball) == np.arange(gens.degree)).all(axis=1)


class MarkedGroupOracle:
    """Base class; subclasses fix rank, evaluate, is_identity and kernel_mask."""

    rank: int
    name: str

    def evaluate(self, word: ReducedWord):
        raise NotImplementedError

    def is_identity(self, handle) -> bool:
        raise NotImplementedError

    def word_is_identity(self, word: ReducedWord) -> bool:
        return self.is_identity(self.evaluate(word))

    def kernel_mask(self, ball: Ball) -> np.ndarray:
        """Boolean array over ``ball.words``: true where the word dies."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<oracle {self.name}>"


class AltOracle(MarkedGroupOracle):
    """Alt on the integers of absolute value <= r with its standard 2-marking."""

    def __init__(self, r: int):
        self.r = r
        self.gens = alt_marking(r)
        self.rank = self.gens.rank
        self.name = f"alt:{r}"

    def evaluate(self, word) -> Perm:
        return word_eval(word, self.gens)

    def is_identity(self, handle) -> bool:
        return handle.is_identity

    def kernel_mask(self, ball: Ball) -> np.ndarray:
        return _identity_mask(self.gens, ball)


class AZOracle(MarkedGroupOracle):
    """The alternating enrichment of Z, marked by (shift, center 3-cycle)."""

    def __init__(self):
        self.rank = 2
        self.name = "az"
        self._gens = (az_shift(1), az_from_cycles([(-1, 0, 1)]))

    def letter_element(self, letter: int) -> AZElement:
        g = self._gens[abs(letter) - 1]
        return g if letter > 0 else g.inverse()

    def evaluate(self, word) -> AZElement:
        if word.rank != self.rank:
            raise ValueError("rank mismatch")
        out = AZ_IDENTITY
        for letter in word.letters:
            out = out * self.letter_element(letter)
        return out

    def is_identity(self, handle) -> bool:
        return handle.is_identity

    def window_levels(self, radius: int, half: int):
        """Images of integer windows under the words of the radius-R ball.

        Yields one array per level k = 0..R, rows in :func:`enumerate_ball`
        order: row i holds w(x) for |x| <= half + R - k, where w is word i of
        level k, so column j is the point x = j - (half + R - k).  A level-k
        word is its parent followed by one letter, and w(x) = parent(letter(x))
        with |letter(x)| <= |x| + 1, so the parent's window covers the child's.
        Every level holds the window |x| <= half at columns R - k onwards.
        """
        top = half + radius
        letters = {l: self.letter_element(l) for l in (1, -1, 2, -2)}

        def columns(k):
            width = top - k  # the parent's window has half-width width + 1
            return {l: np.array([g.apply(x) + width + 1 for x in range(-width, width + 1)])
                    for l, g in letters.items()}

        root = np.arange(-top, top + 1, dtype=np.min_scalar_type(-3 * top))
        return evaluate_levels(self.rank, radius, root, columns)

    def kernel_mask(self, ball: Ball) -> np.ndarray:
        """Kernel on a ball of radius R, evaluated on windows of integers.

        A word w of length <= R dies iff it fixes every x with |x| <= R + 1.
        Before a point can meet the 3-cycle's support {-1, 0, 1} it must be
        shifted to within distance 1 of 0; from |x| > R that takes at least R
        shift letters and leaves none for the 3-cycle, so such a point is only
        shifted: w(x) = x + t, where t is the shift of w.  Fixing R + 1 forces
        t = 0, and then w fixes every |x| > R as well.
        """
        if ball.rank != self.rank:
            raise ValueError(f"rank mismatch: ball {ball.rank} vs oracle {self.rank}")
        r = ball.radius
        test = np.arange(-(r + 1), r + 2)
        return np.concatenate([(rows[:, r - k:r - k + len(test)] == test).all(axis=1)
                               for k, rows in enumerate(self.window_levels(r, r + 1))])


class DiagonalOracle(MarkedGroupOracle):
    """Finitely many marked finite factors with the diagonal marking.

    Stands in for an infinite diagonal product; the factor list is the
    truncation and evaluation is coordinatewise.
    """

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ValueError("need at least one factor")
        rank = factors[0].rank
        if any(f.rank != rank for f in factors):
            raise ValueError("factors must share a rank")
        self.factors = factors
        self.rank = rank
        self.name = f"diagonal[{len(factors)}]"

    def evaluate(self, word) -> tuple[Perm, ...]:
        return tuple(word_eval(word, f) for f in self.factors)

    def is_identity(self, handle) -> bool:
        return all(p.is_identity for p in handle)

    def kernel_mask(self, ball: Ball) -> np.ndarray:
        return np.logical_and.reduce([_identity_mask(f, ball) for f in self.factors])


def az_oracle() -> AZOracle:
    return AZOracle()


def alt_oracle(r: int) -> AltOracle:
    return AltOracle(r)


# ---------------------------------------------------------------------------
# the marked-group metric

@dataclass(frozen=True)
class NuResult:
    """Largest radius (up to the scanned maximum) on which two kernels agree."""

    value: int
    saturated: bool  # true when the kernels agree on the whole scanned ball

    @property
    def distance(self) -> Fraction:
        """2**-value; an upper bound on the distance when saturated."""
        return Fraction(1, 2 ** self.value)

    def __str__(self) -> str:
        return f">= {self.value}" if self.saturated else str(self.value)


def _nu_from_masks(mask1: np.ndarray, mask2: np.ndarray, ball: Ball) -> NuResult:
    differ = mask1 != mask2
    if not differ.any():
        return NuResult(ball.radius, True)
    first = int(differ.argmax())  # the ball is in length order
    level = next(k for k in range(ball.radius + 1) if first < ball_size(ball.rank, k))
    return NuResult(level - 1, False)


def marked_nu(o1: MarkedGroupOracle, o2: MarkedGroupOracle, r_max: int) -> NuResult:
    """Compare two oracles' kernels on the ball of radius r_max.

    The kernels always agree at radius 0, so the result is >= 0.  Agreement
    at radius n implies agreement at every smaller radius, so nu is one less
    than the length of the first ball word on which the kernel masks differ.
    """
    if o1.rank != o2.rank:
        raise ValueError("rank mismatch")
    ball = enumerate_ball(o1.rank, r_max)
    return _nu_from_masks(o1.kernel_mask(ball), o2.kernel_mask(ball), ball)


def convergence_table(oracles, target: MarkedGroupOracle,
                      r_max: int) -> list[tuple[str, NuResult]]:
    """nu against a fixed target for each oracle in a sequence.

    The ball and the target kernel mask are computed once and shared.
    """
    oracles = list(oracles)
    if not oracles:
        return []
    ball = enumerate_ball(target.rank, r_max)
    target_mask = target.kernel_mask(ball)
    rows = []
    for o in oracles:
        if o.rank != target.rank:
            raise ValueError("rank mismatch")
        rows.append((o.name, _nu_from_masks(o.kernel_mask(ball), target_mask, ball)))
    return rows


# ---------------------------------------------------------------------------
# diagonal products and the tail homomorphism

def neumann_truncation(offset: int, length: int) -> DiagonalOracle:
    """Truncated diagonal product of alternating factors with shifted rates.

    Factor m (for m < length) is the alternating group at rate m + 2, shifted
    by the offset: ``alt_marking(m + offset + 2)``.
    """
    if offset < 0:
        raise ValueError("offset must be >= 0")
    return DiagonalOracle(alt_marking(m + offset + 2) for m in range(length))


@dataclass(frozen=True)
class TailDefectReport:
    word: ReducedWord
    trivial_in_target: bool
    defect: tuple[int, ...]  # factor indices where the word is nontrivial


def tail_defect(word: ReducedWord, product: DiagonalOracle,
                target: MarkedGroupOracle) -> TailDefectReport:
    """Factor indices of a truncated diagonal product where a word survives.

    For words that die in the limit oracle the defect set is the computable
    shadow of the tail-homomorphism kernel: it must avoid all sufficiently
    deep factors.
    """
    if word.rank != product.rank or word.rank != target.rank:
        raise ValueError("rank mismatch")
    trivial = target.word_is_identity(word)
    defect = tuple(i for i, p in enumerate(product.evaluate(word))
                   if not p.is_identity)
    return TailDefectReport(word, trivial, defect)

"""Stability challenges: equivariance defects between finite actions.

The central quantity is the generator defect of a bijection f between two
equal-size finite actions: the average over generators of the fraction of
points where f fails to intertwine them.  Its minimum over all bijections is
a quadratic-assignment-flavored problem, so alongside the exhaustive oracle
(tiny sizes only) there is a measured heuristic: greedy matching on local
fixation signatures followed by 2-swap descent.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .irs import FiniteGSet
from .perms import GenTuple, Perm, ball_images, word_eval
from .words import Ball, ReducedWord, ResourceLimitError, WordSet, enumerate_ball


@dataclass(frozen=True)
class FSetPair:
    x: FiniteGSet
    y: FiniteGSet

    def __post_init__(self):
        if self.x.size != self.y.size:
            raise ValueError("the two actions must have the same size")
        if self.x.rank != self.y.rank:
            raise ValueError("the two actions must share a rank")


def _check_bijection(f, size: int) -> tuple[int, ...]:
    f = tuple(f)
    if sorted(f) != list(range(size)):
        raise ValueError("f is not a bijection between the point sets")
    return f


def gen_norm(f, x: FiniteGSet, y: FiniteGSet) -> Fraction:
    """Average over generators of Prob[f(s(p)) != s(f(p))]; zero iff equivariant."""
    pair = FSetPair(x, y)
    f = _check_bijection(f, pair.x.size)
    size, rank = pair.x.size, pair.x.rank
    total = Fraction(0)
    for s in range(rank):
        sx = pair.x.action.perms[s]
        sy = pair.y.action.perms[s]
        mism = sum(1 for p in range(size) if f[sx(p)] != sy(f[p]))
        total += Fraction(mism, size)
    return total / rank


def d_gen_exact(x: FiniteGSet, y: FiniteGSet, cap: int = 8) -> Fraction:
    """Exhaustive minimum of the generator defect over all |X|! bijections."""
    pair = FSetPair(x, y)
    if pair.x.size > cap:
        raise ResourceLimitError(
            f"exhaustive search over {pair.x.size}! bijections exceeds the cap "
            f"({cap}); use d_gen_bound")
    best = Fraction(1)
    for f in itertools.permutations(range(pair.x.size)):
        value = gen_norm(f, x, y)
        if value < best:
            best = value
            if best == 0:
                break
    return best


def _signatures(gset: FiniteGSet, ball: Ball) -> list[tuple[bool, ...]]:
    fixed = ball_images(gset.action, ball) == np.arange(gset.size)
    return [tuple(row) for row in fixed.T.tolist()]


@dataclass(frozen=True)
class BoundResult:
    value: Fraction
    bijection: tuple[int, ...]


def d_gen_bound(x: FiniteGSet, y: FiniteGSet, restarts: int = 30,
                seed: int = 0) -> BoundResult:
    """Heuristic upper bound on the minimal generator defect, with witness.

    Start from a greedy match on radius-2 fixation signatures (plus random
    restarts), then descend by 2-swaps to a local minimum.  The value is the
    defect of an actual bijection, hence never below the exhaustive minimum;
    more restarts never increase it.
    """
    pair = FSetPair(x, y)
    size = pair.x.size
    rng = random.Random(seed)
    ball = enumerate_ball(pair.x.rank, 2)
    sig_x = _signatures(x, ball)
    sig_y = _signatures(y, ball)

    def greedy(order):
        free = list(range(size))
        f = [0] * size
        for p in order:
            match = max(free, key=lambda q: (sum(a == b for a, b in zip(sig_x[p], sig_y[q]))))
            free.remove(match)
            f[p] = match
        return f

    def descend(f):
        value = gen_norm(f, x, y)
        improved = True
        while improved and value > 0:
            improved = False
            for p, q in itertools.combinations(range(size), 2):
                f[p], f[q] = f[q], f[p]
                trial = gen_norm(f, x, y)
                if trial < value:
                    value = trial
                    improved = True
                else:
                    f[p], f[q] = f[q], f[p]
        return value, f

    starts = [greedy(range(size))]
    for _ in range(max(restarts - 1, 0)):
        f = list(range(size))
        rng.shuffle(f)
        starts.append(f)
    best, best_f = None, None
    for f in starts:
        value, f = descend(list(f))
        if best is None or value < best:
            best, best_f = value, tuple(f)
        if best == 0:
            break
    return BoundResult(best, best_f)


def challenge_defect(x: FiniteGSet, relators) -> list[tuple[ReducedWord, Fraction]]:
    """Per-relator fraction of non-fixed points; a challenge drives these to 0."""
    words = relators.sorted_words() if isinstance(relators, WordSet) else tuple(relators)
    out = []
    for w in words:
        p = word_eval(w, x.action)
        moved = x.size - p.fixed_count()
        out.append((w, Fraction(moved, x.size)))
    return out


@dataclass(frozen=True)
class MGoodReport:
    m: int
    bound: Fraction
    bound_ok: bool
    violations: tuple[ReducedWord, ...]
    passed: bool


def is_m_good(x: FiniteGSet, y: FiniteGSet, kernel: WordSet, m: int,
              restarts: int = 30, seed: int = 0) -> MGoodReport:
    """Goodness to order m: defect bound strictly below 1/m and every kernel
    word of length at most m acting trivially on the second action."""
    if m < 1:
        raise ValueError("m must be >= 1")
    bound = d_gen_bound(x, y, restarts=restarts, seed=seed).value
    bound_ok = bound < Fraction(1, m)
    violations = tuple(
        w for w, frac in challenge_defect(y, kernel.restrict(min(m, kernel.radius)))
        if frac != 0)
    return MGoodReport(m, bound, bound_ok, violations,
                       bound_ok and not violations)


def pair_to_json(pair: FSetPair) -> str:
    return json.dumps({
        "size": pair.x.size,
        "x": [list(p.images) for p in pair.x.action.perms],
        "y": [list(p.images) for p in pair.y.action.perms],
    })


def pair_from_json(text: str) -> FSetPair:
    data = json.loads(text)
    x = FiniteGSet(GenTuple(tuple(Perm(tuple(im)) for im in data["x"])))
    y = FiniteGSet(GenTuple(tuple(Perm(tuple(im)) for im in data["y"])))
    pair = FSetPair(x, y)
    if pair.x.size != data["size"]:
        raise ValueError("size field disagrees with the generator degrees")
    return pair

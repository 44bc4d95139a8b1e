"""Stability challenges: equivariance defects between finite actions.

The central quantity is the generator defect of a bijection f between two
equal-size finite actions: the average over generators of the fraction of
points where f fails to intertwine them, kept as an integer count of
(generator, point) mismatches and divided by |X|·rank once.  Its minimum over
all bijections is a quadratic-assignment-flavored problem, so alongside the
exhaustive oracle (tiny sizes only, every bijection scored in one numpy pass)
there is a measured heuristic: greedy matching on local fixation signatures
followed by 2-swap descent.  The descent scores each trial swap in closed
form, reading f without writing to it: with τ = (p q), swapping f(p) and f(q)
gives the count Σ_s Σ_b [f(τsτ(b)) != s_Y(f(b))], and τsτ differs from s only
at b in {p, q, s⁻¹(p), s⁻¹(q)}, so a trial costs O(rank) instead of a recount
of all |X|·rank terms.  The p side of those terms is computed once per row of
trials and again only after a swap in that row is taken.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .irs import FiniteGSet
from .perms import ball_images, moved_fractions
from .words import (InvariantError, ReducedWord, ResourceLimitError, WordSet,
                    enumerate_ball)

_EXACT_CAP = 8           # points of the actions d_gen_exact searches exhaustively


def _check_bijection(f, size: int) -> tuple[int, ...]:
    f = tuple(f)
    if sorted(f) != list(range(size)):
        raise ValueError("f is not a bijection between the point sets")
    return f


def _pair_images(x: FiniteGSet, y: FiniteGSet):
    """Validate the pair once; its size, rank and generator image tuples."""
    if x.size != y.size:
        raise ValueError("the two actions must have the same size")
    if x.rank != y.rank:
        raise ValueError("the two actions must share a rank")
    return (x.size, x.rank, [s.images for s in x.action.perms],
            [s.images for s in y.action.perms])


def _mismatches(f, x_images, y_images) -> int:
    """Number of (generator s, point p) with f(s(p)) != s(f(p))."""
    return sum(f[sp] != sy[fp]
               for sx, sy in zip(x_images, y_images) for sp, fp in zip(sx, f))


def gen_norm(f, x: FiniteGSet, y: FiniteGSet) -> Fraction:
    """Average over generators of Prob[f(s(p)) != s(f(p))]; zero iff equivariant."""
    size, rank, xs, ys = _pair_images(x, y)
    return Fraction(_mismatches(_check_bijection(f, size), xs, ys), size * rank)


def d_gen_exact(x: FiniteGSet, y: FiniteGSet) -> Fraction:
    """Exhaustive minimum of the generator defect over all |X|! bijections."""
    size, rank, xs, ys = _pair_images(x, y)
    if size > _EXACT_CAP:
        raise ResourceLimitError(
            f"exhaustive search over {size}! bijections exceeds the cap "
            f"({_EXACT_CAP}); use d_gen_bound")
    # one row per bijection f; per generator, compare f(s(p)) with s(f(p))
    perms = np.fromiter(itertools.chain.from_iterable(
        itertools.permutations(range(size))), dtype=np.intp).reshape(-1, size)
    counts = sum((perms[:, np.asarray(sx)] != np.asarray(sy)[perms]).sum(axis=1)
                 for sx, sy in zip(xs, ys))
    return Fraction(int(counts.min()), size * rank)


@dataclass(frozen=True)
class BoundResult:
    value: Fraction
    bijection: tuple[int, ...]


def d_gen_bound(x: FiniteGSet, y: FiniteGSet, restarts: int = 30,
                seed: int = 0, floor: Fraction = Fraction(0)) -> BoundResult:
    """Heuristic upper bound on the minimal generator defect, with witness.

    Start from a greedy match on radius-2 fixation signatures (plus random
    restarts), then descend by 2-swaps to a local minimum, taking each swap
    that lowers the mismatch count.  The value is the defect of an actual
    bijection, hence never below the exhaustive minimum; more restarts never
    increase it.  ``restarts`` counts the starts, the greedy one included, so
    ``restarts < 1`` raises ``ValueError``.

    ``floor`` is a defect the caller has proved no bijection beats, such as
    ``d_gen_exact(x, y)``: the starts and sweeps stop once the best defect is
    at most ``floor``, and the random starts after the stop are never drawn.
    With ``floor`` at most the exact minimum the result equals that of
    ``floor=0``; a higher floor still returns a valid upper bound with its
    witness, only a weaker one.  A floor outside [0, 1] raises ``ValueError``.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if not 0 <= floor <= 1:
        raise ValueError(f"floor must lie in [0, 1], got {floor}")
    size, rank, xs, ys = _pair_images(x, y)
    # the largest mismatch count whose defect is at most the floor
    stop = math.floor(floor * size * rank)
    rng = random.Random(seed)
    ball = enumerate_ball(rank, 2)
    # agree[p][q]: ball words whose fixation of p in x and of q in y agree
    fx, fy = ((ball_images(g.action, ball) == np.arange(size)).astype(np.int64)
              for g in (x, y))
    agree = (fx.T @ fy + (1 - fx).T @ (1 - fy)).tolist()
    free = list(range(size))
    greedy = []
    for row in agree:
        match = max(free, key=row.__getitem__)
        free.remove(match)
        greedy.append(match)

    gens = [(sx, sy, s.inverse().images)
            for sx, sy, s in zip(xs, ys, x.action.perms)]

    def row_terms(f, p):
        """The p side of every trial swap in row p, per generator s: s, s_Y,
        s⁻¹, s(p), f(s(p)), gp = s_Y(f(p)), [f(s(p)) != gp], s⁻¹(p) and
        hp = s_Y(f(s⁻¹(p))), with [f(p) != hp]."""
        fp = f[p]
        terms = []
        for sx, sy, inv in gens:
            sp, ip = sx[p], inv[p]
            fsp, gp, hp = f[sp], sy[fp], sy[f[ip]]
            terms.append((sx, sy, inv, sp, fsp, gp, fsp != gp, ip, hp, fp != hp))
        return terms

    def swap_delta(f, p, q, terms):
        """Change in the mismatch count if f(p) and f(q) were swapped; reads
        f and never writes to it.  With τ = (p q), the count after the swap
        is the sum over s and b of [f(τsτ(b)) != s_Y(f(b))], and τsτ differs
        from s only at b in {p, q, s⁻¹(p), s⁻¹(q)}."""
        fp, fq = f[p], f[q]
        delta = 0
        for sx, sy, inv, sp, fsp, gp, miss_p, ip, hp, miss_ip in terms:
            sq, gq = sx[q], sy[fq]
            fsq = f[sq]
            # b = p: f(τ(s(q))) against gp; b = q: f(τ(s(p))) against gq
            delta += (((fq if sq == p else fp if sq == q else fsq) != gp) - miss_p
                      + ((fq if sp == p else fp if sp == q else fsp) != gq)
                      - (fsq != gq))
            # b = s⁻¹(p) other than p, q (s⁻¹(p) = q iff s(q) = p): s(b) = p
            # becomes q
            if ip != p and sq != p:
                delta += (fq != hp) - miss_ip
            # b = s⁻¹(q) other than p, q: s(b) = q becomes p
            iq = inv[q]
            if iq != p and iq != q:
                hq = sy[f[iq]]
                delta += (fp != hq) - (fq != hq)
        return delta

    def descend(f):
        count = _mismatches(f, xs, ys)
        improved = True
        while improved and count > stop:
            improved = False
            for p in range(size - 1):
                terms = row_terms(f, p)
                for q in range(p + 1, size):
                    delta = swap_delta(f, p, q, terms)
                    if delta < 0:
                        f[p], f[q] = f[q], f[p]
                        count += delta
                        improved = True
                        terms = row_terms(f, p)
        recount = _mismatches(f, xs, ys)
        if recount != count:
            raise InvariantError(f"swap deltas summed to {count} mismatches, "
                                 f"a recount gives {recount}")
        return count, f

    def starts():
        """The greedy start, then shuffles drawn only when asked for."""
        yield greedy
        for _ in range(restarts - 1):
            f = list(range(size))
            rng.shuffle(f)
            yield f

    best, best_f = None, None
    for f in starts():
        count, f = descend(f)
        if best is None or count < best:
            best, best_f = count, tuple(f)
        if best <= stop:
            break
    return BoundResult(Fraction(best, size * rank), best_f)


def challenge_defect(x: FiniteGSet, relators) -> list[tuple[ReducedWord, Fraction]]:
    """Per-relator fraction of non-fixed points; a challenge drives these to 0."""
    return list(moved_fractions(x.action, relators))


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
    # the pair and kernel checks first: a kernel of the wrong rank fails
    # before the descent runs
    _pair_images(x, y)
    violations = tuple(
        w for w, frac in challenge_defect(y, kernel.restrict(min(m, kernel.radius)))
        if frac != 0)
    bound = d_gen_bound(x, y, restarts=restarts, seed=seed).value
    bound_ok = bound < Fraction(1, m)
    return MGoodReport(m, bound, bound_ok, violations,
                       bound_ok and not violations)

"""Invariant random subgroups of finite actions, made computable.

An IRS is observed only through its radius-r marginal: the distribution of
*cylinder fingerprints* W = (stabilizer) intersected with the ball B(r) of the
free group.  Exact distributions carry Fraction masses; sampled ones carry
float masses with a sample count, from which per-fingerprint standard errors
are derived.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .perms import (GenTuple, Perm, alt_marking, ball_images, generate_closure,
                    identity_perm)
from .words import (Ball, InvariantError, ReducedWord, ResourceLimitError,
                    enumerate_ball, identity, word_from_string, word_to_string)

_REALIZATION_CAP = 10**6     # points of one coset realization
_ENUMERATION_CAP = 2 * 10**6  # colorings enumerated by the exact Vershik IRS
_SAMPLE_BLOCK = 4096          # colorings drawn at once by the sampled Vershik IRS


@dataclass(frozen=True)
class CylinderFingerprint:
    """The ball words lying in a subgroup (equivalently fixing a point)."""

    radius: int
    words: tuple[ReducedWord, ...]

    def __post_init__(self):
        if not self.words or not self.words[0].is_identity:
            raise ValueError("a fingerprint must contain the empty word first")
        for word in self.words:
            if len(word) > self.radius:
                raise ValueError(f"word {word} exceeds radius {self.radius}")

    @classmethod
    def from_words(cls, radius: int, words) -> "CylinderFingerprint":
        return cls(radius, tuple(sorted(set(words), key=ReducedWord.sort_key)))

    @cached_property
    def _members(self) -> frozenset:
        return frozenset(self.words)

    def __contains__(self, word) -> bool:
        return word in self._members

    def __len__(self) -> int:
        return len(self.words)

    def restrict(self, radius: int) -> "CylinderFingerprint":
        if radius > self.radius:
            raise ValueError("can only restrict to a smaller radius")
        return CylinderFingerprint(
            radius, tuple(w for w in self.words if len(w) <= radius))

    def validate(self) -> None:
        """Check closure invariants: inverses, and products staying in the ball."""
        members = set(self.words)
        for w in members:
            if w.inverse() not in members:
                raise ValueError(f"fingerprint not inverse-closed at {w}")
        for u in members:
            for v in members:
                prod = u * v
                if len(prod) <= self.radius and prod not in members:
                    raise ValueError(f"fingerprint not product-closed at {u}*{v}")

    def sort_key(self):
        return (len(self.words), tuple(w.sort_key() for w in self.words))

    def __repr__(self) -> str:
        return "Fingerprint{%s}" % ",".join(word_to_string(w) for w in self.words)


class EmpiricalIRS:
    """A probability distribution over cylinder fingerprints at one radius."""

    def __init__(self, radius: int, masses: dict, exact: bool,
                 n_samples: int | None = None, sum_tolerance: float = 1e-12):
        for fp in masses:
            if fp.radius != radius:
                raise ValueError("fingerprint radius mismatch")
        if any(m < 0 for m in masses.values()):
            raise ValueError("masses must be nonnegative")
        total = sum(masses.values())
        if exact:
            if total != 1:
                raise ValueError(f"exact masses must sum to 1, got {total}")
        elif abs(total - 1) > sum_tolerance:
            raise ValueError(f"masses sum to {total}, off by more than {sum_tolerance}")
        self.radius = radius
        self.masses = dict(masses)
        self.exact = exact
        self.n_samples = n_samples

    def mass(self, fp: CylinderFingerprint):
        return self.masses.get(fp, Fraction(0) if self.exact else 0.0)

    def support(self) -> list[CylinderFingerprint]:
        return sorted((fp for fp, m in self.masses.items() if m > 0),
                      key=CylinderFingerprint.sort_key)

    def restrict(self, radius: int) -> "EmpiricalIRS":
        merged: dict = {}
        for fp, m in self.masses.items():
            small = fp.restrict(radius)
            merged[small] = merged.get(small, Fraction(0) if self.exact else 0.0) + m
        return EmpiricalIRS(radius, merged, self.exact, self.n_samples,
                            sum_tolerance=math.inf if not self.exact else 1e-12)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmpiricalIRS):
            return NotImplemented
        mine = {fp: m for fp, m in self.masses.items() if m > 0}
        theirs = {fp: m for fp, m in other.masses.items() if m > 0}
        return self.radius == other.radius and mine == theirs

    def to_json_lines(self) -> str:
        lines = []
        for fp in self.support():
            m = self.masses[fp]
            entry = {
                "r": self.radius,
                "W": [word_to_string(w) for w in fp.words],
                "mass": f"{m.numerator}/{m.denominator}" if self.exact else float(m),
            }
            if self.n_samples is not None:
                entry["stderr"] = _stderr(float(m), self.n_samples)
                entry["n_samples"] = self.n_samples
            lines.append(json.dumps(entry))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_json_lines(cls, text: str, rank: int = 2) -> "EmpiricalIRS":
        masses: dict = {}
        radius = None
        n_samples = None
        exact = True
        for line in text.splitlines():
            if not line.strip():
                continue
            entry = json.loads(line)
            radius = entry["r"]
            fp = CylinderFingerprint.from_words(
                radius, [word_from_string(t, rank) for t in entry["W"]])
            mass = entry["mass"]
            if isinstance(mass, str):
                num, den = mass.split("/")
                masses[fp] = Fraction(int(num), int(den))
            else:
                masses[fp] = float(mass)
                exact = False
            n_samples = entry.get("n_samples", n_samples)
        if radius is None:
            raise ValueError("no fingerprints in input")
        return cls(radius, masses, exact, n_samples, sum_tolerance=math.inf)


def _stderr(p: float, n: int) -> float:
    return math.sqrt(max(p * (1 - p), 0.0) / n)


# ---------------------------------------------------------------------------
# finite F-sets and their associated IRS

@dataclass(frozen=True)
class FiniteGSet:
    """A finite set with a free-group action given by a permutation tuple."""

    action: GenTuple

    def __post_init__(self):
        if self.action.degree == 0:
            raise ValueError("the action needs at least one point")

    @property
    def size(self) -> int:
        return self.action.degree

    @property
    def rank(self) -> int:
        return self.action.rank


def trivial_gset(rank: int, size: int) -> FiniteGSet:
    return FiniteGSet(GenTuple(tuple(identity_perm(size) for _ in range(rank))))


def disjoint_union(*gsets: FiniteGSet) -> FiniteGSet:
    if not gsets:
        raise ValueError("need at least one part")
    rank = gsets[0].rank
    if any(g.rank != rank for g in gsets):
        raise ValueError("parts must share a rank")
    total = sum(g.size for g in gsets)
    perms = []
    for i in range(rank):
        images = []
        offset = 0
        for g in gsets:
            images.extend(offset + y for y in g.action.perms[i].images)
            offset += g.size
        perms.append(Perm(tuple(images)))
    if offset != total:
        raise InvariantError(f"union has {offset} points, parts sum to {total}")
    return FiniteGSet(GenTuple(tuple(perms)))


def relabel(gset: FiniteGSet, rho: Perm) -> FiniteGSet:
    """Conjugate the action by a relabeling of the points."""
    if rho.degree != gset.size:
        raise ValueError("degree mismatch")
    rho_inv = rho.inverse()
    return FiniteGSet(GenTuple(tuple(rho * p * rho_inv for p in gset.action.perms)))


def fingerprint_masses(ball: Ball, blocks) -> dict:
    """Summed weight of each fingerprint over blocks of fixation rows.

    Each block is a pair (rows, weights): ``rows`` is a boolean array with one
    row per point and one column per word of ``ball``, true where the word
    fixes the point, and ``weights`` holds one weight per row.  Equal rows are
    grouped by one ``np.unique`` over their packed bytes per block; fingerprints
    are listed in the order their rows first occur, and weights are added one
    by one in block and row order into an array of their own dtype, so float
    sums are reproducible.  A block whose shape does not match its weights and
    the ball raises ``ValueError``.
    """
    slot: dict = {}
    sums = np.zeros(0, dtype=bool)  # bool promotes to every weight dtype
    for rows, weights in blocks:
        weights = np.asarray(weights)
        if rows.shape != (len(weights), len(ball)):
            raise ValueError(f"fixation block of shape {rows.shape} does not match "
                             f"{len(weights)} weights and {len(ball)} ball words")
        packed = np.ascontiguousarray(np.packbits(rows, axis=1))
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)
        slot_of = np.empty(len(uniq), dtype=np.intp)
        slot_of[order] = [slot.setdefault(key, len(slot)) for key in uniq[order].tolist()]
        sums = np.concatenate([sums, np.zeros(len(slot) - len(sums), weights.dtype)])
        np.add.at(sums, slot_of[inverse], weights)
    masses = {}
    for key, weight in zip(slot, sums.tolist()):
        row = np.unpackbits(np.frombuffer(key, np.uint8), count=len(ball))
        fixed = itertools.compress(ball.words, row.tolist())
        masses[CylinderFingerprint.from_words(ball.radius, fixed)] = weight
    return masses


def fingerprint(action: GenTuple, x: int, ball: Ball) -> CylinderFingerprint:
    """Stabilizer fingerprint of one point: the ball words fixing it."""
    if not 0 <= x < action.degree:
        raise ValueError(f"point {x} outside range({action.degree})")
    fixed = ball_images(action, ball)[:, x] == x
    (fp,) = fingerprint_masses(ball, [(fixed[None, :], [1])])
    return fp


def irs_of_gset(gset: FiniteGSet, radius: int) -> EmpiricalIRS:
    """Exact stabilizer-fingerprint distribution of the uniform point measure."""
    ball = enumerate_ball(gset.rank, radius)
    fixed = ball_images(gset.action, ball) == np.arange(gset.size)
    counts = fingerprint_masses(ball, [(fixed.T, np.ones(gset.size, dtype=np.int64))])
    masses = {fp: Fraction(count, gset.size) for fp, count in counts.items()}
    return EmpiricalIRS(radius, masses, exact=True)


def mixture(parts) -> EmpiricalIRS:
    """Convex combination of fingerprint distributions of a common radius."""
    parts = [(irs, Fraction(weight)) for irs, weight in parts]
    if not parts:
        raise ValueError("need at least one part")
    radius = parts[0][0].radius
    if any(irs.radius != radius for irs, _ in parts):
        raise ValueError("radius mismatch between mixture parts")
    weights = [wt for _, wt in parts]
    if any(wt < 0 for wt in weights) or sum(weights) != 1:
        raise ValueError("weights must be nonnegative and sum to 1")
    exact = all(irs.exact for irs, _ in parts)
    zero = Fraction(0) if exact else 0.0
    masses: dict = {}
    for irs, wt in parts:
        if wt == 0:
            continue
        for fp, m in irs.masses.items():
            masses[fp] = masses.get(fp, zero) + (wt if exact else float(wt)) * m
    return EmpiricalIRS(radius, masses, exact,
                        sum_tolerance=1e-9 if not exact else 1e-12)


def pad_gset(gset: FiniteGSet, target_size: int) -> FiniteGSet:
    """Grow a finite action to a prescribed size without moving its IRS far:
    q whole copies plus a trivial remainder, target = q*|X| + remainder."""
    if target_size < gset.size:
        raise ValueError(f"target size {target_size} below |X| = {gset.size}")
    q, r = divmod(target_size, gset.size)
    parts = [gset] * q
    if r:
        parts.append(trivial_gset(gset.rank, r))
    return disjoint_union(*parts)


def point_mass_irs(rank: int, radius: int, full: bool) -> EmpiricalIRS:
    """Point mass on the whole group (full ball) or on the trivial subgroup."""
    words = enumerate_ball(rank, radius).words if full else (identity(rank),)
    fp = CylinderFingerprint.from_words(radius, words)
    return EmpiricalIRS(radius, {fp: Fraction(1)}, exact=True)


# ---------------------------------------------------------------------------
# atomic IRS realized by coset actions

def coset_action(elements, marking: GenTuple, subgroup: frozenset) -> FiniteGSet:
    """Left-coset action of the marked finite group on G/H."""
    coset_of: dict[Perm, int] = {}
    reps: list[Perm] = []
    for g in elements:
        if g not in coset_of:
            idx = len(reps)
            reps.append(g)
            for h in subgroup:
                coset_of[g * h] = idx
    perms = []
    for s in marking.perms:
        perms.append(Perm(tuple(coset_of[s * g] for g in reps)))
    return FiniteGSet(GenTuple(tuple(perms)))


def realize_irs_as_gset(elements, marking: GenTuple, atoms) -> FiniteGSet:
    """A finite action whose stabilizer distribution is a prescribed atomic IRS.

    ``elements`` is the deterministic closure list of the ambient finite group,
    ``marking`` its generator tuple, and each atom is a pair (indices of
    subgroup generators into ``elements``, rational weight).  Weights must sum
    to 1; denominators are cleared by repeating coset spaces.  More than
    ``_REALIZATION_CAP`` points raise ResourceLimitError.
    """
    elements = list(elements)
    parsed = []
    for gen_indices, weight in atoms:
        weight = Fraction(weight)
        if weight < 0:
            raise ValueError("weights must be nonnegative")
        for idx in gen_indices:
            if not 0 <= idx < len(elements):
                raise ValueError(f"generator index {idx} outside the closure list")
        gens = [elements[i] for i in gen_indices] or [identity_perm(marking.degree)]
        subgroup = generate_closure(GenTuple(tuple(gens)))
        if len(elements) % len(subgroup):
            raise ValueError("input does not generate a subgroup of the closure")
        parsed.append((subgroup, weight))
    if sum(wt for _, wt in parsed) != 1:
        raise ValueError("weights must sum to 1")

    # smallest total size N with every weight*N divisible by the coset count
    n_total = 1
    for subgroup, weight in parsed:
        if weight == 0:
            continue
        index = len(elements) // len(subgroup)
        need = (weight / index).denominator
        n_total = n_total * need // math.gcd(n_total, need)
    if n_total > _REALIZATION_CAP:
        raise ResourceLimitError(
            f"realization needs {n_total} points, cap {_REALIZATION_CAP}")

    parts = []
    for subgroup, weight in parsed:
        if weight == 0:
            continue
        index = len(elements) // len(subgroup)
        copies = int(weight * n_total / index)
        action = coset_action(elements, marking, subgroup)
        parts.extend([action] * copies)
    return disjoint_union(*parts)


# ---------------------------------------------------------------------------
# distances and sampling

def irs_distance(mu: EmpiricalIRS, nu: EmpiricalIRS):
    """Total variation distance between fingerprint distributions."""
    if mu.radius != nu.radius:
        raise ValueError("radius mismatch")
    keys = sorted(set(mu.masses) | set(nu.masses), key=CylinderFingerprint.sort_key)
    if mu.exact and nu.exact:
        return sum((abs(mu.mass(fp) - nu.mass(fp)) for fp in keys),
                   start=Fraction(0)) / 2
    return sum(abs(float(mu.mass(fp)) - float(nu.mass(fp))) for fp in keys) / 2


def tv_standard_error(mu: EmpiricalIRS, nu: EmpiricalIRS) -> float:
    """Conservative standard error for the TV distance of two sampled IRS."""
    keys = sorted(set(mu.masses) | set(nu.masses), key=CylinderFingerprint.sort_key)
    var = 0.0
    for fp in keys:
        if mu.n_samples:
            var += _stderr(float(mu.mass(fp)), mu.n_samples) ** 2
        if nu.n_samples:
            var += _stderr(float(nu.mass(fp)), nu.n_samples) ** 2
    return math.sqrt(var) / 2


def _sampled_irs(ball: Ball, rows) -> EmpiricalIRS:
    """Empirical distribution of fixation rows, one row per sample."""
    n_samples = len(rows)
    counts = fingerprint_masses(ball, [(rows, np.ones(n_samples, dtype=np.int64))])
    masses = {fp: count / n_samples for fp, count in counts.items()}
    return EmpiricalIRS(ball.radius, masses, exact=False, n_samples=n_samples,
                        sum_tolerance=1e-9)


# ---------------------------------------------------------------------------
# the coloring-stabilizer IRS

def _alt_like_marking(n: int) -> GenTuple:
    """The standard 2-marking for any n >= 1 (degree 3 duplicates the 3-cycle)."""
    if n >= 2:
        return alt_marking(n)
    if n == 1:
        three = Perm((1, 2, 0))
        return GenTuple((three, three))
    raise ValueError("need n >= 1")


def _parse_alpha(alpha):
    weights = [Fraction(a) for a in alpha]
    if len(weights) < 1 or any(a < 0 for a in weights) or sum(weights) != 1:
        raise ValueError("alpha must be a probability vector")
    return weights


def vershik_irs(alpha, target: str, radius: int = 2, mode: str = "exact",
                window: int | None = None, n_samples: int | None = None,
                seed: int | None = None) -> EmpiricalIRS:
    """Stabilizer IRS of a random coloring.

    Points of the target's natural set are independently colored by ``alpha``;
    a group element fixes a coloring iff the coloring is constant on each of
    its orbits.  Targets: ``alt:n`` (n >= 1, the finite set of 2n+1 points) or
    ``az`` (colorings of the integers restricted to a window, which must cover
    everything the ball elements can move: radius + 1 suffices).
    """
    weights = _parse_alpha(alpha)
    ball = enumerate_ball(2, radius)
    if target == "az":
        pairs, size = _az_window_pairs(ball, window)
    elif target.startswith("alt:"):
        marking = _alt_like_marking(int(target.split(":")[1]))
        size = marking.degree
        pairs = [(np.arange(size), row) for row in ball_images(marking, ball)]
    else:
        raise ValueError(f"unknown vershik target {target!r}")
    return _vershik(weights, pairs, size, ball, mode, n_samples, seed)


def _az_window_pairs(ball: Ball, window: int | None):
    """Per ball word, the window indices (x, g(x)) with both ends inside."""
    from .marked import az_oracle

    oracle = az_oracle()
    elements = [oracle.evaluate(w) for w in ball.words]
    needed = 0
    for el in elements:
        pts = [abs(el.shift)]
        pts += [abs(n) for n, m in el.sigma] + [abs(m) for n, m in el.sigma]
        needed = max(needed, max(pts))
    if window is None:
        window = needed
    if window < needed:
        raise ValueError(
            f"window half-width {window} too small: ball elements reach {needed}")
    pairs = []
    for el in elements:
        src, dst = [], []
        for x in range(-window, window + 1):
            y = el.apply(x)
            if -window <= y <= window:
                src.append(x + window)
                dst.append(y + window)
        pairs.append((np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp)))
    return pairs, 2 * window + 1


def _fixation_rows(colorings, pairs) -> np.ndarray:
    """Row per coloring, column per word: is the coloring constant along
    every (x, g(x)) pair of the word?  The colorings are transposed once to
    one row per point and cut into bit planes of the color index, each packed
    eight colorings to a byte; a word ORs, over every plane and every pair it
    moves (none for the identity), the XOR of the pair's two ends."""
    by_point = np.ascontiguousarray(colorings.T)
    planes = [np.packbits(by_point & (1 << b), axis=1)
              for b in range(max(1, int(colorings.max(initial=0)).bit_length()))]
    differs = np.zeros((len(pairs), planes[0].shape[1]), dtype=np.uint8)
    for j, (src, dst) in enumerate(pairs):
        moved = src != dst
        if moved.any():
            for plane in planes:
                differs[j] |= np.bitwise_or.reduce(plane[src[moved]] ^ plane[dst[moved]])
    fixed = np.unpackbits(~differs, axis=1, count=len(colorings)).view(bool)
    return np.ascontiguousarray(fixed.T)


def _vershik(weights, pairs, size, ball, mode, n_samples, seed) -> EmpiricalIRS:
    """Fingerprint distribution of colorings of ``size`` points by ``weights``;
    ``pairs[j]`` holds the (x, g(x)) index arrays of ball word j."""
    n_colors = len(weights)
    dtype = np.min_scalar_type(n_colors - 1)
    if mode == "exact":
        if n_colors ** size > _ENUMERATION_CAP:
            raise ResourceLimitError(
                f"{n_colors}**{size} colorings exceed the enumeration cap")
        # colorings using a weight-0 color have mass 0 and are skipped; the
        # rest stream in chunks so memory stays bounded up to the cap
        colors = [c for c, a in enumerate(weights) if a]
        colorings = itertools.product(colors, repeat=size)

        def blocks():
            while chunk := list(itertools.islice(colorings, 1 << 14)):
                masses = [math.prod(weights[c] for c in coloring)
                          for coloring in chunk]
                yield _fixation_rows(np.array(chunk, dtype=dtype), pairs), masses

        masses = fingerprint_masses(ball, blocks())
        return EmpiricalIRS(ball.radius, masses, exact=True)
    if mode == "sampled":
        if n_samples is None or seed is None:
            raise ValueError("sampled mode needs n_samples and seed")
        if n_samples < 1:
            raise ValueError(f"need n_samples >= 1, got {n_samples}")
        # inverse-CDF draw, as Generator.choice makes it: a coloring's color
        # is the number of interior CDF edges at or below its uniform draw
        rng = np.random.default_rng(seed)
        p = np.array([float(a) for a in weights])
        cdf = (p / p.sum()).cumsum()
        cdf /= cdf[-1]
        # drawn in row blocks, which continue one stream, to bound memory
        rows = np.empty((n_samples, len(pairs)), dtype=bool)
        for start in range(0, n_samples, _SAMPLE_BLOCK):
            u = rng.random((min(_SAMPLE_BLOCK, n_samples - start), size))
            colorings = np.zeros(u.shape, dtype=dtype)
            for edge in cdf[:-1]:
                colorings += u >= edge
            rows[start:start + len(u)] = _fixation_rows(colorings, pairs)
        return _sampled_irs(ball, rows)
    raise ValueError(f"unknown mode {mode!r}")

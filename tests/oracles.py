"""Independent oracles shared by module and acceptance tests.

Everything here recomputes expectations by brute force along a different
route than the library code it checks.
"""

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from stabilitylab.challenges import BoundResult, gen_norm
from stabilitylab.irs import (CylinderFingerprint, EmpiricalIRS, _alt_like_marking,
                              _parse_alpha)
from stabilitylab.marked import MarkedGroupOracle, NuResult, az_oracle
from stabilitylab.perms import (GenTuple, Perm, ball_images, generate_closure,
                                identity_perm, word_eval)
from stabilitylab.subshift import ClopenSet, KRPartition, Tower, is_partition
from stabilitylab.words import InvariantError
from stabilitylab.words import enumerate_ball


def expected_word_eval(word, gens) -> Perm:
    """The letter-by-letter ``Perm`` product: the identity times the
    permutation of each letter in turn, inverses by ``Perm.inverse``."""
    out = identity_perm(gens.degree)
    for letter in word.letters:
        p = gens.perms[abs(letter) - 1]
        out = out * (p if letter > 0 else p.inverse())
    return out


def expected_kernel_mask(oracle, ball) -> np.ndarray:
    """The kernel over ``ball.words``, one ``word_is_identity`` per word."""
    return np.fromiter((oracle.word_is_identity(w) for w in ball.words),
                       dtype=bool, count=len(ball))


class TrivialGroupOracle(MarkedGroupOracle):
    """The one-element group: every word dies."""

    name = "trivial"

    def __init__(self, rank: int = 2):
        self.rank = rank

    def evaluate(self, word):
        return None

    def is_identity(self, handle) -> bool:
        return True

    def kernel_mask(self, ball) -> np.ndarray:
        return np.ones(len(ball), dtype=bool)


class FreeGroupOracle(MarkedGroupOracle):
    """The free group marked by its own basis: only the empty word dies."""

    name = "free"

    def __init__(self, rank: int = 2):
        self.rank = rank

    def evaluate(self, word):
        return word

    def is_identity(self, handle) -> bool:
        return handle.is_identity

    def kernel_mask(self, ball) -> np.ndarray:
        return np.arange(len(ball)) == 0


def expected_nu(o1, o2, r_max) -> NuResult:
    """nu from the symmetric difference of the two kernels as word sets, each
    kernel found by evaluating the ball one word at a time."""
    ball = enumerate_ball(o1.rank, r_max)
    k1, k2 = (frozenset(itertools.compress(ball.words, expected_kernel_mask(o, ball)))
              for o in (o1, o2))
    diff = k1 ^ k2
    if not diff:
        return NuResult(r_max, True)
    return NuResult(min(len(w) for w in diff) - 1, False)


def expected_atomic_irs(elements, marking, atoms, radius) -> EmpiricalIRS:
    """Fingerprint distribution of an atomic IRS, via conjugacy-class enumeration.

    Each atom (subgroup H, weight) contributes weight spread uniformly over the
    conjugates of H; fingerprints read off which ball words evaluate into each
    conjugate.
    """
    ball = enumerate_ball(marking.rank, radius)
    ball_perms = [word_eval(w, marking) for w in ball.words]
    masses: dict = {}
    for gen_indices, weight in atoms:
        gens = [elements[i] for i in gen_indices] or [identity_perm(marking.degree)]
        subgroup = generate_closure(GenTuple(tuple(gens)))
        conjugates = set()
        for g in elements:
            g_inv = g.inverse()
            conjugates.add(frozenset(g * h * g_inv for h in subgroup))
        share = Fraction(weight) / len(conjugates)
        for conj in conjugates:
            fp = CylinderFingerprint.from_words(
                radius,
                [w for w, p in zip(ball.words, ball_perms) if p in conj])
            masses[fp] = masses.get(fp, Fraction(0)) + share
    return EmpiricalIRS(radius, masses, exact=True)


def expected_fullgroup_irs(partition, report, k, radius, measure) -> dict:
    """Fingerprint masses of k independent tower-mass-random atoms, tuple by tuple.

    Loops over every k-tuple of atoms in ``itertools.product`` order,
    intersects per-atom fixing sets of ball words, and multiplies the atom
    masses in coordinate order.
    """
    ball = enumerate_ball(report.entries[0].word.rank, radius)
    atoms = partition.atoms()
    atom_mass = [measure.measure(partition.towers[a.tower].base) for a in atoms]
    perms = [report.image_of(w) for w in ball.words]
    fixing = [frozenset(w for w, p in zip(ball.words, perms) if p(idx) == idx)
              for idx in range(len(atoms))]
    masses: dict = {}
    for combo in itertools.product(range(len(atoms)), repeat=k):
        words = fixing[combo[0]]
        for idx in combo[1:]:
            words = words & fixing[idx]
        mass = 1.0
        for idx in combo:
            mass *= atom_mass[idx]
        fp = CylinderFingerprint.from_words(radius, words)
        masses[fp] = masses.get(fp, 0.0) + mass
    return masses


def expected_atom_exponents(element, partition) -> tuple:
    """The table exponent on each atom, by testing the atom against every part
    as clopen sets; None where no single part holds the whole atom."""
    return tuple(next((a for part, a in element.parts if atom.part.minus(part).is_empty),
                      None)
                 for atom in partition.atoms())


@dataclass(frozen=True)
class SymbolicPoint:
    """A point of the subshift known on a long finite window of coordinates:
    exponents read pointwise off the table parts, not off cocycle rows."""

    text: str
    origin: int

    def window(self, resolution: int) -> str:
        lo, hi = self.origin - resolution, self.origin + resolution + 1
        if lo < 0 or hi > len(self.text):
            raise ValueError("sampled text too short for this resolution")
        return self.text[lo:hi]

    def cocycle(self, g) -> int:
        for part, exponent in g.parts:
            if self.window(part.resolution) in part.members:
                return exponent
        raise InvariantError("table parts failed to cover a point")

    def apply(self, g) -> "SymbolicPoint":
        return SymbolicPoint(self.text, self.origin + self.cocycle(g))


def sample_points(sub, count: int, margin: int, seed: int) -> list:
    """``count`` seeded points of one long word, each ``margin`` from its ends."""
    text = sub.long_word(max(4 * margin + 8 * count, 4096))
    rng = random.Random(seed)
    return [SymbolicPoint(text, rng.randrange(margin, len(text) - margin))
            for _ in range(count)]


def point_inside(part: ClopenSet, margin: int) -> SymbolicPoint:
    """Some point of a nonempty clopen set, with room to move around it."""
    if part.is_empty:
        raise ValueError("empty set has no points")
    member = min(part.members)
    text = part.sub.long_word(4096)
    while True:
        idx = text.find(member, margin)
        if idx != -1 and idx + len(member) + margin <= len(text):
            return SymbolicPoint(text, idx + part.resolution)
        text = part.sub.long_word(len(text) + 1)


def expected_multiplicativity(entries):
    """Products of embedding entries as ``TableElement`` products.

    Returns the (a, b, c) index triples with entries[a] * entries[b] equal to
    entries[c], and the (a.word, b.word) pairs whose images fail to multiply,
    in row-major pair order.
    """
    elem_index = {e.element: i for i, e in enumerate(entries)}
    triples, failures = set(), []
    for ia, a in enumerate(entries):
        for ib, b in enumerate(entries):
            i = elem_index.get(a.element * b.element)
            if i is None:
                continue
            triples.add((ia, ib, i))
            if entries[i].image != a.image * b.image:
                failures.append((a.word, b.word))
    return triples, failures


def expected_frequency_table(sub, length: int, threshold: Fraction) -> dict:
    """Block frequencies of deepening iterates of the first letter, as
    ``Fraction`` dicts, until consecutive dicts differ by under the threshold
    everywhere and the iterate shows every admissible block."""
    letters = sub.alphabet
    k = length
    level = sub.least_level(k)
    counts, pre, suf, total = {}, {}, {}, {}
    for x in letters:
        s = sub.expansion(x, level)
        counts[x] = Counter(s[i:i + k] for i in range(len(s) - k + 1))
        pre[x] = s[:k - 1]
        suf[x] = s[len(s) - (k - 1):] if k > 1 else ""
        total[x] = len(s)
    want_keys = sub.factor_set(k)
    prev = None
    for _ in range(400):
        windows = total[letters[0]] - k + 1
        freq = {w: Fraction(c, windows) for w, c in counts[letters[0]].items()}
        if prev is not None and set(freq) == want_keys:
            worst = max(abs(freq.get(w, Fraction(0)) - prev.get(w, Fraction(0)))
                        for w in set(freq) | set(prev))
            if worst < threshold:
                return freq
        prev = freq
        new_counts, new_pre, new_suf, new_total = {}, {}, {}, {}
        for x in letters:
            ys = sub.images[x]
            acc = Counter()
            for y in ys:
                acc.update(counts[y])
            for left, right in zip(ys, ys[1:]):
                junction = suf[left] + pre[right]
                acc.update(junction[i:i + k]
                           for i in range(len(junction) - k + 1))
            new_counts[x] = acc
            new_pre[x] = pre[ys[0]]
            new_suf[x] = suf[ys[-1]]
            new_total[x] = sum(total[y] for y in ys)
        counts, pre, suf, total = new_counts, new_pre, new_suf, new_total
    raise InvariantError("frequencies did not settle")


def expected_fixation_rows(colorings, pairs) -> np.ndarray:
    """Fixation rows gathered column by column from sample-major colorings:
    a coloring is fixed by a word when it agrees at every (x, g(x)) pair."""
    rows = np.empty((len(colorings), len(pairs)), dtype=bool)
    for j, (src, dst) in enumerate(pairs):
        rows[:, j] = (colorings[:, dst] == colorings[:, src]).all(axis=1)
    return rows


def expected_fingerprint_masses(ball, blocks) -> dict:
    """``fingerprint_masses`` by a dict keyed on each row's packed bytes:
    weights are added one by one in block and row order, and fingerprints
    are listed in the order their rows first occur."""
    sums: dict = {}
    for rows, weights in blocks:
        packed = np.ascontiguousarray(np.packbits(rows, axis=1))
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()
        for key, weight in zip(keys, weights):
            sums[key] = sums.get(key, 0) + weight
    masses = {}
    for key, weight in sums.items():
        row = np.unpackbits(np.frombuffer(key, np.uint8), count=len(ball))
        fixed = itertools.compress(ball.words, row.tolist())
        masses[CylinderFingerprint.from_words(ball.radius, fixed)] = weight
    return masses


def expected_az_reach(ball) -> int:
    """The largest |shift|, moved point or image among the ``AZElement``
    products of the ball words."""
    oracle, reach = az_oracle(), 0
    for word in ball.words:
        el = oracle.evaluate(word)
        reach = max([reach, abs(el.shift)] + [abs(n) for pair in el.sigma for n in pair])
    return reach


def expected_az_window_pairs(ball, window):
    """Per ball word, the window indices (x, g(x)) with both ends inside, with
    g the word's ``AZElement`` product applied one point at a time; the
    window defaults to the reach and may not be smaller."""
    needed = expected_az_reach(ball)
    if window is None:
        window = needed
    if window < needed:
        raise ValueError(
            f"window half-width {window} too small: ball elements reach {needed}")
    oracle, pairs = az_oracle(), []
    for word in ball.words:
        el = oracle.evaluate(word)
        src, dst = [], []
        for x in range(-window, window + 1):
            y = el.apply(x)
            if -window <= y <= window:
                src.append(x + window)
                dst.append(y + window)
        pairs.append((np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp)))
    return pairs, 2 * window + 1


def expected_sampled_vershik(alpha, target, radius, n_samples, seed,
                             window=None) -> EmpiricalIRS:
    """The sampled coloring-stabilizer IRS with colorings drawn by
    ``Generator.choice``, AZ pairs from ``expected_az_window_pairs``, rows
    from ``expected_fixation_rows`` and counts from
    ``expected_fingerprint_masses``."""
    weights = _parse_alpha(alpha)
    ball = enumerate_ball(2, radius)
    if target == "az":
        pairs, size = expected_az_window_pairs(ball, window)
    else:
        marking = _alt_like_marking(int(target.split(":")[1]))
        size = marking.degree
        pairs = [(np.arange(size), row) for row in ball_images(marking, ball)]
    dtype = np.min_scalar_type(len(weights) - 1)
    rng = np.random.default_rng(seed)
    p = np.array([float(a) for a in weights])
    colorings = rng.choice(len(weights), size=(n_samples, size),
                           p=p / p.sum()).astype(dtype)
    rows = expected_fixation_rows(colorings, pairs)
    counts = expected_fingerprint_masses(ball, [(rows, [1] * n_samples)])
    masses = {fp: count / n_samples for fp, count in counts.items()}
    return EmpiricalIRS(radius, masses, exact=False, n_samples=n_samples,
                        sum_tolerance=1e-9)


def expected_d_gen_exact(x, y) -> Fraction:
    """The exhaustive minimum of the generator defect, one bijection at a time.

    Counts the mismatches of each bijection in ``itertools.permutations``
    order and stops early once a bijection has none.
    """
    size, rank = x.size, x.rank
    gens = [(sx.images, sy.images) for sx, sy in zip(x.action.perms, y.action.perms)]
    best = size * rank
    for f in itertools.permutations(range(size)):
        count = sum(f[sx[p]] != sy[f[p]] for sx, sy in gens for p in range(size))
        if count < best:
            best = count
            if best == 0:
                break
    return Fraction(best, size * rank)


def expected_d_gen_bound(x, y, restarts: int = 30, seed: int = 0) -> BoundResult:
    """The greedy start and 2-swap descent of ``d_gen_bound``, in Fractions.

    Signatures are per-point tuples of radius-2 fixation flags, the greedy
    match sums agreements pair by pair, and every trial swap calls
    ``gen_norm`` afresh.
    """
    size = x.size
    rng = random.Random(seed)
    ball = enumerate_ball(x.rank, 2)
    sig_x, sig_y = ([tuple(row) for row in (ball_images(g.action, ball)
                                            == np.arange(size)).T.tolist()]
                    for g in (x, y))
    free = list(range(size))
    greedy = [0] * size
    for p in range(size):
        match = max(free, key=lambda q: sum(a == b for a, b in zip(sig_x[p], sig_y[q])))
        free.remove(match)
        greedy[p] = match

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

    starts = [greedy]
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


def expected_refine_kr(partition, pieces) -> KRPartition:
    """``refine_kr`` by pulling and lifting sets.

    Each piece is pulled back level by level with ``shift_pow(-1)``, every
    pulled set is lifted to the tower's resolution with ``at_resolution``, and
    a base window's itinerary is read off by set membership.
    """
    pieces = [p for p in pieces if not p.is_empty]
    sub = partition.sub
    if not is_partition(sub, pieces):
        raise ValueError("the pieces do not partition the subshift")
    new_towers = []
    for tower in partition.towers:
        height = tower.height
        level = max([tower.base.resolution]
                    + [p.resolution + height - 1 for p in pieces])
        base = tower.base.at_resolution(level)
        pulled, shifted = [], pieces
        for i in range(height):
            if i:
                shifted = [p.shift_pow(-1) for p in shifted]
            pulled.append([p.at_resolution(level).members for p in shifted])
        groups: dict[tuple, set] = {}
        for member in base.members:
            itinerary = []
            for i in range(height):
                hits = [j for j, members in enumerate(pulled[i]) if member in members]
                if len(hits) != 1:
                    raise InvariantError(
                        f"base window lies in {len(hits)} pulled pieces at level {i}")
                itinerary.append(hits[0])
            groups.setdefault(tuple(itinerary), set()).add(member)
        for j, key in enumerate(sorted(groups)):
            sub_base = ClopenSet(sub, level, groups[key]).reduce()
            label = f"{tower.label}/{j}" if tower.label else str(j)
            new_towers.append(Tower(sub_base, height, label=label))
    return KRPartition(sub, new_towers)


def random_gset(rng, size: int, rank: int = 2):
    """A uniformly random finite action of the rank-d free group."""
    from stabilitylab.irs import FiniteGSet

    perms = []
    for _ in range(rank):
        images = list(range(size))
        rng.shuffle(images)
        perms.append(Perm(tuple(images)))
    return FiniteGSet(GenTuple(tuple(perms)))


def involution_gset(rng, size: int, rank: int = 2):
    """Each generator a random involution: disjoint transpositions on a random
    share of the points, fixing the rest."""
    from stabilitylab.irs import FiniteGSet

    perms = []
    for _ in range(rank):
        images = list(range(size))
        points = rng.sample(range(size), 2 * rng.randint(0, size // 2))
        for a, b in zip(points[::2], points[1::2]):
            images[a], images[b] = b, a
        perms.append(Perm(tuple(images)))
    return FiniteGSet(GenTuple(tuple(perms)))


def sparse_gset(rng, size: int, rank: int = 2, moved: int = 3):
    """Each generator a random cycle on at most ``moved`` points, fixing the rest."""
    from stabilitylab.irs import FiniteGSet

    perms = []
    for _ in range(rank):
        images = list(range(size))
        cycle = rng.sample(range(size), rng.randint(0, min(moved, size)))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
        perms.append(Perm(tuple(images)))
    return FiniteGSet(GenTuple(tuple(perms)))


def random_subgroup_atom(rng, elements, max_gens: int = 2):
    """Indices of a few random elements, as subgroup generators."""
    count = rng.randint(1, max_gens)
    return [rng.randrange(len(elements)) for _ in range(count)]

"""Full-group elements of a subshift as cocycle tables, and their finite shadows.

An element is a table of clopen parts with integer exponents: on each part it
acts as that power of the shift.  Products follow the cocycle rule (the
exponent of a product at x is the exponent of the right factor at x plus the
exponent of the left factor at the image).  On a tower partition whose atoms
make every table exponent constant, each element induces a permutation of the
atoms; checking that this assignment is injective and multiplicative on a
ball, and that an element fixes exactly the atoms where its exponent is zero,
certifies a local embedding into a finite symmetric group.  Pushing tower masses through atom
stabilizers then computes invariant-random-subgroup marginals exactly.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .irs import EmpiricalIRS, fingerprint_masses, irs_distance
from .perms import Perm
from .subshift import (ClopenSet, ErgodicMeasure, KRPartition, Substitution,
                       full_set, is_partition, kr_partition, refine_kr,
                       return_words)
from .words import (Ball, InvariantError, ReducedWord, ResourceLimitError,
                    enumerate_ball, evaluate_levels)

_ELEMENT_CAP = 4096      # distinct elements in a generator ball
_TUPLE_CAP = 10**7       # atom k-tuples behind one stabilizer pushforward
_SEED_CAP = 64           # length of the seed word adapted_partition deepens


class TableElement:
    """A full-group element: clopen parts with shift exponents."""

    __slots__ = ("sub", "parts")

    def __init__(self, sub: Substitution, parts, _validated: bool = False):
        merged: dict[int, ClopenSet] = {}
        for part, exponent in parts:
            if part.is_empty:
                continue
            if exponent in merged:
                merged[exponent] = merged[exponent].union(part)
            else:
                merged[exponent] = part
        table = tuple(sorted(((c.reduce(), a) for a, c in merged.items()),
                             key=lambda pa: pa[1]))
        if not table:
            raise ValueError("a table element needs at least one nonempty part")
        self.sub = sub
        self.parts = table
        if not _validated:
            self._validate()

    def _validate(self):
        domains = [c for c, _ in self.parts]
        if not is_partition(self.sub, domains):
            raise ValueError("table parts do not partition the space")
        images = [c.shift_pow(a) for c, a in self.parts]
        if not is_partition(self.sub, images):
            raise ValueError("images of the parts overlap or fail to cover the "
                             "space: the table is not a bijection")

    @property
    def is_identity(self) -> bool:
        return len(self.parts) == 1 and self.parts[0][1] == 0

    def max_exponent(self) -> int:
        return max(abs(a) for _, a in self.parts)

    def __mul__(self, other: "TableElement") -> "TableElement":
        """Composition, right factor first; exponents add along the cocycle rule."""
        if self.sub != other.sub:
            raise ValueError("elements over different subshifts")
        pieces = []
        for ch, bh in other.parts:
            for cg, ag in self.parts:
                piece = ch.intersect(cg.shift_pow(-bh))
                if not piece.is_empty:
                    pieces.append((piece, ag + bh))
        return TableElement(self.sub, pieces, _validated=True)

    def inverse(self) -> "TableElement":
        return TableElement(self.sub, [(c.shift_pow(a), -a) for c, a in self.parts],
                            _validated=True)

    def __eq__(self, other):
        if not isinstance(other, TableElement):
            return NotImplemented
        # parts are reduced clopen sets in exponent order: a canonical form
        return self.sub == other.sub and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "Table(%s)" % ", ".join(f"T^{a} on {len(c.members)}w" for c, a in self.parts)


def identity_element(sub: Substitution) -> TableElement:
    return TableElement(sub, [(full_set(sub), 0)], _validated=True)


def three_cycle(part: ClopenSet) -> TableElement:
    """The order-3 element cycling a clopen set through its first two shifts.

    Requires the set and its two forward shifts to be pairwise disjoint; acts
    as the identity elsewhere.
    """
    sub = part.sub
    if part.is_empty:
        return identity_element(sub)
    first = part.shift_pow(1)
    stages = [part, first, first.shift_pow(1)]
    for a, b in itertools.combinations(stages, 2):
        if not a.is_disjoint(b):
            raise ValueError("the set and its first two shifts must be disjoint")
    rest = full_set(sub)
    for s in stages:
        rest = rest.minus(s)
    return TableElement(sub, [(stages[0], 1), (stages[1], 1), (stages[2], -2),
                              (rest, 0)])


def tower_gadgets(sub: Substitution, word: str, count: int = 2) -> list[TableElement]:
    """Disjointly supported three-cycles built from tower bases over a word.

    Bases of towers of height >= 3 have disjoint first shifts by the tower
    property, and distinct towers never meet, so the gadgets commute.
    """
    if count < 1:
        raise ValueError(f"need at least one gadget, got count={count}")
    partition = kr_partition(sub, word)
    gadgets = []
    for tower in sorted(partition.towers, key=lambda t: (t.height, t.label)):
        if tower.height >= 3:
            gadgets.append(three_cycle(tower.base))
        if len(gadgets) == count:
            return gadgets
    raise ValueError(
        f"only {len(gadgets)} towers of height >= 3 over {word!r}; need {count}")


# ---------------------------------------------------------------------------
# balls in the generated group

@dataclass(frozen=True)
class BallElements:
    """Ball of a finite symmetric generating set, with shortlex representatives."""

    ball: Ball              # the free-group ball that was walked
    representatives: tuple  # (ReducedWord, TableElement) per distinct element
    word_to_index: dict     # every ball word -> index into representatives
    products: tuple         # [a][b]: index of rep a * rep b (b first), or -1
    windows: tuple          # the radius-R windows of the walk, sorted
    cocycles: np.ndarray = field(compare=False)  # [a][u]: rep a's exponent on windows[u]


def ball_elements(generators, radius: int) -> BallElements:
    """Walk the ball on the points of one window length, with exact dedup.

    With rho the largest part resolution of a letter (inverses included), M
    the largest |exponent| and R = rho + (2r - 1)M, each admissible window u
    of radius R stands for a point x_u.  A level-k word's row holds, for each
    |j| <= (2r - k)M, the offset its element sends T^j x_u to: its parent's
    row gathered through its last letter's index array
    (:func:`words.evaluate_levels`).  Offset 0, the cocycle, is read off the
    radius-R window and dedups elements exactly, as the subshift is aperiodic;
    an element's first shortlex word represents it, and its cocycle is kept.
    A product of representatives is the left one's row read at the right
    one's cocycle.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    sub = gens[0].sub
    if any(g.sub != sub for g in gens):
        raise ValueError("elements over different subshifts")
    letters = {l: g if l > 0 else g.inverse() for i, g in enumerate(gens, 1) for l in (i, -i)}
    rho = max(c.resolution for g in letters.values() for c, _ in g.parts)
    reach = max(g.max_exponent() for g in gens)
    keep = radius * reach  # the offsets a representative's row keeps
    big = rho + max(2 * keep - reach, 0)
    windows = sub.factors(2 * big + 1)
    n = len(windows)
    position = {w: i for i, w in enumerate(sub.factors(2 * rho + 1))}
    pi = np.array([[position[u[s:s + 2 * rho + 1]] for u in windows]
                   for s in range(2 * big - 2 * rho + 1)])
    # steps[l][s, u]: the exponent of letter l at T^(s + rho - big) x_u, read
    # off the one part holding the central subwindow of the radius-rho window
    steps = {l: np.array([next(a for c, a in g.parts
                               if w[rho - c.resolution:rho + c.resolution + 1] in c.members)
                          for w in position])[pi]
             for l, g in letters.items()}

    def columns(k):  # rows are offset-major: offset j of x_u sits at (j + h) * n + u
        h = (2 * radius - k) * reach
        lo, span = big - rho - h, np.arange(2 * h + 1)[:, None] + reach
        return {l: ((span + s[lo:lo + 2 * h + 1]) * n + np.arange(n)).ravel()
                for l, s in steps.items()}

    root = np.repeat(np.arange(-2 * keep, 2 * keep + 1,
                               dtype=np.min_scalar_type(-2 * keep - 1)), n)
    rows = itertools.chain.from_iterable(  # each word's offsets |j| <= keep
        level[:, (radius - k) * reach * n:((3 * radius - k) * reach + 1) * n]
        for k, level in enumerate(evaluate_levels(len(gens), radius, root, columns)))
    ball = enumerate_ball(len(gens), radius)
    reps, index_of, word_to_index, kept = [], {}, {}, []
    for word, row in zip(ball.words, rows):
        i = index_of.setdefault(row[keep * n:(keep + 1) * n].tobytes(), len(kept))
        if i == len(kept):
            if i == _ELEMENT_CAP:
                raise ResourceLimitError("ball exceeds the element cap")
            reps.append(word)
            kept.append(row.copy())
        word_to_index[word] = i
    cocycles = np.stack([row[keep * n:(keep + 1) * n] for row in kept])
    frame = (cocycles.astype(np.intp) + keep) * n + np.arange(n)
    products = tuple(tuple(index_of.get(p.tobytes(), -1) for p in row[frame])
                     for row in kept)
    elements = (_table(sub, windows, big, c) for c in cocycles.tolist())
    return BallElements(ball, tuple(zip(reps, elements)), word_to_index, products,
                        windows, cocycles)


def _table(sub, windows, big, cocycle):
    """The table element with this cocycle on the radius-big windows, its parts
    at the least radius whose central subwindow determines the cocycle."""
    for t in range(big + 1):
        pairs = set(zip((u[big - t:big + t + 1] for u in windows), cocycle))
        if len(pairs) == len(dict(pairs)):  # each subwindow has one exponent
            parts = [(ClopenSet(sub, t, [w for w, b in pairs if b == a]), a)
                     for a in set(cocycle)]
            return TableElement(sub, parts, _validated=True)


# ---------------------------------------------------------------------------
# atom actions and local embeddings

def _tower_perm(exps, partition: KRPartition) -> Perm:
    """The tower-preserving atom permutation of per-atom exponents: atoms whose
    shifted level stays in their tower map there, and each tower's leftover
    sources and targets are matched in increasing height order."""
    images = [None] * len(exps)
    start = 0
    for tower in partition.towers:
        h = tower.height
        taken = set()
        unmapped_src = []
        for i in range(h):
            j = i + exps[start + i]
            if 0 <= j < h:
                if j in taken:
                    raise InvariantError(f"atom {start + j} has two preimages")
                taken.add(j)
                images[start + i] = start + j
            else:
                unmapped_src.append(i)
        unmapped_tgt = [j for j in range(h) if j not in taken]
        for i, j in zip(unmapped_src, unmapped_tgt):
            images[start + i] = start + j
        start += h
    return Perm(tuple(images))


@dataclass(frozen=True)
class EmbeddingEntry:
    word: ReducedWord
    element: TableElement
    image: Perm
    exponents: tuple[int, ...]


@dataclass(frozen=True)
class EmbeddingReport:
    """Verification record for a candidate local embedding on a ball."""

    ball: Ball
    atom_count: int
    entries: tuple[EmbeddingEntry, ...]
    word_to_index: dict     # ball word -> entry; empty unless every image exists
    injectivity_collisions: tuple
    multiplicativity_failures: tuple
    blockstab_failures: tuple
    cocycle_failures: tuple

    @property
    def radius(self) -> int:
        return self.ball.radius

    @property
    def passed(self) -> bool:
        return not (self.injectivity_collisions or self.multiplicativity_failures
                    or self.blockstab_failures or self.cocycle_failures)

    @property
    def recommendation(self) -> str:
        if self.passed:
            return "embedding verified"
        return "embedding failed; deepen the partition and retry"

    def image_of(self, word: ReducedWord) -> Perm:
        return self.entries[self.word_to_index[word]].image

    def to_json(self) -> str:
        return json.dumps({
            "radius": self.radius,
            "atoms": self.atom_count,
            "elements": len(self.entries),
            "passed": self.passed,
            "injectivity_collisions": [
                [str(a), str(b)] for a, b in self.injectivity_collisions],
            "multiplicativity_failures": [
                [str(a), str(b)] for a, b in self.multiplicativity_failures],
            "blockstab_failures": [
                {"word": str(w), "atom": i} for w, i in self.blockstab_failures],
            "cocycle_failures": [
                {"word": str(w), "atom": i} for w, i in self.cocycle_failures],
            "recommendation": self.recommendation,
        }, indent=1)


def local_embedding(generators, radius: int, partition: KRPartition) -> EmbeddingReport:
    """Map a generator ball to atom permutations and verify it behaves.

    Checks: distinct elements get distinct permutations; products inside the
    ball map to products; and for every element and atom, having exponent
    zero and fixing the atom are equivalent.  Failures are report outcomes,
    not exceptions.

    An element's exponents are its :attr:`BallElements.cocycles` row read at
    the radius-R windows each atom covers; the first atom where the row is not
    constant is its cocycle failure.  Products read the ball's product table.
    """
    ball = ball_elements(generators, radius)
    if ball.representatives[0][1].sub != partition.sub:
        raise ValueError("partition and generators over different subshifts")
    atoms = partition.atoms()
    big = len(ball.windows[0]) // 2
    column = {w: i for i, w in enumerate(ball.windows)}
    cols, starts = [], []
    for atom in atoms:
        lifted = atom.part.at_resolution(max(atom.part.resolution, big))
        off = lifted.resolution - big
        starts.append(len(cols))
        cols.extend({column[w[off:off + 2 * big + 1]] for w in lifted.members})
    values = ball.cocycles[:, cols]
    exponents = np.minimum.reduceat(values, starts, axis=1)
    constant = exponents == np.maximum.reduceat(values, starts, axis=1)
    entries, cocycle_failures = [], []
    rows = zip(ball.representatives, constant, map(tuple, exponents.tolist()))
    for (word, elem), ok, exps in rows:
        if ok.all():
            entries.append(EmbeddingEntry(word, elem, _tower_perm(exps, partition), exps))
        else:
            cocycle_failures.append((word, int(ok.argmin())))
    if cocycle_failures:
        return EmbeddingReport(ball.ball, len(atoms), tuple(entries),
                               {}, (), (), (), tuple(cocycle_failures))

    first = {e.image: e.word for e in reversed(entries)}  # each image's first word
    collisions = [(first[e.image], e.word) for e in entries if first[e.image] != e.word]

    # failed[a][b]: rep a * rep b is in the ball, its image not a's after b's
    images = np.array([e.image.images for e in entries])
    failed = [(row >= 0) & (images[a][images] != images[row]).any(axis=1)
              for a, row in enumerate(np.array(ball.products))]
    mult_failures = [(entries[a].word, entries[b].word)
                     for a, b in zip(*np.nonzero(failed))]

    # an element must fix exactly the atoms where its exponent is 0
    mismatched = (exponents == 0) != (images == np.arange(len(atoms)))
    blockstab_failures = [(entries[a].word, int(i))
                          for a, i in zip(*np.nonzero(mismatched))]

    return EmbeddingReport(ball.ball, len(atoms), tuple(entries), ball.word_to_index,
                           tuple(collisions), tuple(mult_failures),
                           tuple(blockstab_failures), tuple(cocycle_failures))


# ---------------------------------------------------------------------------
# stabilizer pushforwards

def adapted_partition(sub: Substitution, generators, radius: int,
                      seed_word: str) -> KRPartition:
    """A tower partition tall enough for a ball and constant on its cocycles.

    Deepens the seed word until the minimal tower height, the length of its
    shortest return word, reaches twice the largest table exponent plus two,
    then refines by every ball element's cocycle partition.  Heights, base
    and roof survive the refinement.
    """
    ball = ball_elements(generators, radius)
    max_exp = max(e.max_exponent() for _, e in ball.representatives)
    required = 2 * max_exp + 2
    word = seed_word
    while (height := len(return_words(sub, word)[0])) < required:
        extensions = [word + ch for ch in sub.alphabet
                      if sub.is_admissible(word + ch)]
        if not extensions or len(word) >= _SEED_CAP:
            raise ResourceLimitError(
                f"seed {word!r} reaches min height {height}, need {required}")
        word = extensions[0]
    return refine_kr(kr_partition(sub, word),
                     *([c for c, _ in elem.parts] for _, elem in ball.representatives
                       if len(elem.parts) > 1))


def fullgroup_irs(partition: KRPartition, generators, k: int, radius: int,
                  measure: ErgodicMeasure, embedding: EmbeddingReport) -> EmpiricalIRS:
    """Stabilizer distribution of k independent tower-mass-random atoms.

    For every k-tuple of atoms the fingerprint collects the ball words whose
    atom permutation fixes each coordinate; the tuple carries the product of
    atom masses (each atom weighs as much as its tower base).  The
    ``embedding`` must be the passed :func:`local_embedding` report for these
    generators on this partition at this radius.

    The masses are summed by atom class, in tuple order.  Atoms with equal
    fixation rows form a class, and a tuple's fingerprint depends only on its
    tuple of classes, so each class tuple is looked up once.  Then, one block
    per first atom, the tuples' weights are built coordinate by coordinate in
    ``itertools.product`` order and added into their fingerprint's sum in that
    order: every float mass equals the tuple-by-tuple left-to-right sum.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(partition.atoms()) ** k > _TUPLE_CAP:
        raise ResourceLimitError(f"{len(partition.atoms())}^{k} atom tuples "
                                 f"exceed the cap {_TUPLE_CAP}")
    rank = len(list(generators))
    if embedding.ball.rank != rank:
        raise ValueError(f"embedding report of rank {embedding.ball.rank} does not "
                         f"match {rank} generators")
    if not embedding.passed:
        raise ValueError(embedding.recommendation)
    ball, fixed, atom_mass = _atom_fixation(partition, radius, measure, embedding)
    # classes numbered by first occurrence: class tuples in product order meet
    # each fingerprint first where the atom tuples do
    first: dict = {}
    cls = np.array([first.setdefault(row.tobytes(), len(first)) for row in fixed])
    class_rows = fixed[np.unique(cls, return_index=True)[1]]
    slot: dict = {}
    slots = []  # per first class: the fingerprint slot of each class tuple
    for row in class_rows:
        for _ in range(k - 1):
            row = row[..., None, :] & class_rows
        tuple_rows = np.ascontiguousarray(row.reshape(-1, len(ball)))
        keys = tuple_rows.view(np.dtype((np.void, len(ball)))).ravel().tolist()
        slots.append([slot.setdefault(key, len(slot)) for key in keys])
    slot_of = np.array(slots).reshape((len(class_rows),) * k)

    mass = np.array(atom_mass, dtype=float)
    rest = np.ix_(*[cls] * (k - 1))
    sums = np.zeros(len(slot))
    for i in range(len(mass)):  # tuples (i, ...) in product order
        weights = mass[i]
        for _ in range(k - 1):
            weights = np.multiply.outer(weights, mass)
        np.add.at(sums, np.ravel(slot_of[cls[i]][rest]), np.ravel(weights))
    rows = np.frombuffer(b"".join(slot), bool).reshape(len(slot), len(ball))
    masses = fingerprint_masses(ball, [(rows, sums.tolist())])
    slack = k * len(atom_mass) * measure.tolerance + 1e-9
    return EmpiricalIRS(radius, masses, exact=False, sum_tolerance=slack)


def _atom_fixation(partition, radius, measure, report):
    """The ball, its (atoms x ball) fixation matrix read off the embedding's
    atom permutations, and each atom's mass (that of its tower base)."""
    if report.radius != radius or report.atom_count != len(partition.atoms()):
        raise ValueError(
            f"embedding report of radius {report.radius} on {report.atom_count} "
            f"atoms does not match radius {radius} on {len(partition.atoms())} atoms")
    images = np.array([report.image_of(w).images for w in report.ball.words])
    fixed = (images == np.arange(images.shape[1])).T
    atom_mass = [measure.measure(partition.towers[a.tower].base)
                 for a in partition.atoms()]
    return report.ball, fixed, atom_mass


@dataclass(frozen=True)
class LimitLevel:
    seed: str
    atom_count: int
    min_height: int
    irs: EmpiricalIRS


@dataclass(frozen=True)
class LimitCheckReport:
    k: int
    radius: int
    levels: tuple[LimitLevel, ...]
    tv_matrix: tuple[tuple[float, ...], ...]
    marginal_max_gap: float
    marginal_supports_match: bool


def fullgroup_irs_limit_check(sub: Substitution, generators, k: int, radius: int,
                              seeds, measure: ErgodicMeasure) -> LimitCheckReport:
    """Compute the pushforward at several partition levels and compare.

    The distributions agree up to measure tolerance.  The report's marginal
    fields read, for each ball word w, the mass p_k(w) of the fingerprints
    containing w in the first level's k-tuple distribution and p_1(w) in the
    1-point distribution on the same atoms.  A k-tuple's fingerprint holds w
    iff w fixes every coordinate, and tuple weights are products of atom
    masses, so p_k(w) = p_1(w)**k up to rounding: the gap is the largest
    |p_k(w) - p_1(w)**k|, and the supports are the words with p > 0.
    """
    gens = list(generators)
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one partition level")
    levels = []
    partitions = []
    for seed in seeds:
        partition = adapted_partition(sub, gens, radius, seed)
        report = local_embedding(gens, radius, partition)
        irs = fullgroup_irs(partition, gens, k, radius, measure, embedding=report)
        levels.append(LimitLevel(seed, len(partition.atoms()),
                                 partition.min_height, irs))
        partitions.append((partition, report))
    tv = tuple(tuple(float(irs_distance(a.irs, b.irs)) for b in levels)
               for a in levels)

    # per ball word, P_k(w in W) against P_1(w in W)**k (see the docstring)
    partition, report = partitions[0]
    one = fullgroup_irs(partition, gens, 1, radius, measure, embedding=report)
    p_k, p_1 = (_word_marginals(irs, report.ball) for irs in (levels[0].irs, one))
    gap = max(abs(a - b ** k) for a, b in zip(p_k, p_1))
    supports = [a > 0 for a in p_k] == [b > 0 for b in p_1]
    return LimitCheckReport(k, radius, tuple(levels), tv, gap, supports)


def _word_marginals(irs: EmpiricalIRS, ball) -> list[float]:
    """Per ball word, the summed mass of the fingerprints containing it."""
    return [sum(m for fp, m in irs.masses.items() if word in fp) for word in ball.words]

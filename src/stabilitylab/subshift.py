"""Primitive substitution subshifts: language, clopen algebra, measure, towers.

Clopen sets are finite unions of symmetric-window cylinders: a set at
resolution L is a collection of admissible words of length 2L+1, and a point
belongs to it iff its window x[-L..L] is one of them.  All equality,
disjointness and partition checks are exact set algebra over admissible
words; only the invariant measure carries a (tiny, tracked) tolerance.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .words import InvariantError, ResourceLimitError

_RESOLUTION_CAP = 64
_STRING_CAP = 4_000_000
_MAX_LEVEL = 400         # substitution iterates tried before frequencies must settle


class Substitution:
    """A primitive aperiodic substitution on a finite alphabet.

    Immutable by convention; language and expansion caches live inside.
    """

    def __init__(self, alphabet: str, images: dict):
        if len(set(alphabet)) != len(alphabet) or not alphabet:
            raise ValueError("alphabet must be distinct nonempty letters")
        if set(images) != set(alphabet):
            raise ValueError("images must cover exactly the alphabet")
        for letter, image in images.items():
            if not image or any(ch not in alphabet for ch in image):
                raise ValueError(f"bad image {image!r} for letter {letter!r}")
        self.alphabet = alphabet
        self.images = {letter: images[letter] for letter in alphabet}
        self._factors: dict[int, tuple] = {}
        self._factor_sets: dict[int, frozenset] = {}
        self._pairs: frozenset | None = None
        self._expansions: dict[tuple[str, int], str] = {}
        if not self._is_primitive():
            raise ValueError("substitution is not primitive")
        if not self._is_aperiodic():
            raise ValueError("substitution generates a finite (periodic) subshift")

    # -- construction -------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Substitution":
        """Compact format: ``a->ab;b->a``."""
        images = {}
        for rule in text.split(";"):
            rule = rule.strip()
            if not rule:
                continue
            m = re.fullmatch(r"(\w)\s*->\s*(\w+)", rule)
            if not m:
                raise ValueError(f"cannot parse rule {rule!r}")
            if m.group(1) in images:
                raise ValueError(f"letter {m.group(1)!r} has more than one rule")
            images[m.group(1)] = m.group(2)
        return cls("".join(images), images)

    def __eq__(self, other):
        return (isinstance(other, Substitution)
                and self.alphabet == other.alphabet and self.images == other.images)

    def __hash__(self):
        return hash((self.alphabet, tuple(sorted(self.images.items()))))

    def __repr__(self):
        rules = ";".join(f"{k}->{v}" for k, v in self.images.items())
        return f"Substitution({rules})"

    # -- basic machinery ----------------------------------------------------

    def apply(self, word: str) -> str:
        return "".join(self.images[ch] for ch in word)

    def incidence_matrix(self) -> np.ndarray:
        """M[i, j] = occurrences of letter i in the image of letter j."""
        n = len(self.alphabet)
        m = np.zeros((n, n), dtype=np.int64)
        for j, letter in enumerate(self.alphabet):
            for ch in self.images[letter]:
                m[self.alphabet.index(ch), j] += 1
        return m

    def perron_vector(self) -> np.ndarray:
        """Letter-frequency vector: the normalized Perron eigenvector."""
        m = self.incidence_matrix().astype(float)
        values, vectors = np.linalg.eig(m)
        lead = np.argmax(values.real)
        v = np.abs(vectors[:, lead].real)
        return v / v.sum()

    def _is_primitive(self) -> bool:
        n = len(self.alphabet)
        reach = self.incidence_matrix() > 0
        power = reach.copy()
        for _ in range(2 * n * n):
            if power.all():
                return True
            power = (power @ reach) > 0
        return bool(power.all())

    def _is_aperiodic(self) -> bool:
        # bounded complexity means periodic: demand p(n) >= n + 1 on a prefix
        limit = max(8, 2 * len(self.alphabet) ** 2 + 2)
        for n in range(1, limit + 1):
            if len(self.factors(n)) < n + 1:
                return False
        return True

    def expansion(self, letter: str, level: int) -> str:
        key = (letter, level)
        if key not in self._expansions:
            if level == 0:
                self._expansions[key] = letter
            else:
                self._expansions[key] = self.apply(self.expansion(letter, level - 1))
        return self._expansions[key]

    def least_level(self, length: int) -> int:
        """Least level at which every letter's expansion has the given length."""
        level = 0
        while min(len(self.expansion(x, level)) for x in self.alphabet) < length:
            level += 1
        return level

    def long_word(self, min_length: int) -> str:
        """An admissible word of at least the requested length (an iterate of
        the first letter)."""
        level = 0
        while len(s := self.expansion(self.alphabet[0], level)) < min_length:
            if len(s) > _STRING_CAP:
                raise ResourceLimitError("iterate exceeds the string cap")
            level += 1
        return s

    # -- the language -------------------------------------------------------

    def _stable_pairs(self) -> frozenset:
        if self._pairs is not None:
            return self._pairs
        seed = self.long_word(2)
        pairs = {seed[i:i + 2] for i in range(len(seed) - 1)}
        while True:
            grown = set(pairs)
            for p in pairs:
                s = self.apply(p)
                grown.update(s[i:i + 2] for i in range(len(s) - 1))
            if grown == pairs:
                break
            pairs = grown
        self._pairs = frozenset(pairs)
        return self._pairs

    def factors(self, length: int) -> tuple:
        """All admissible words of exactly the given length, sorted."""
        if length < 1:
            raise ValueError("length must be >= 1")
        if length not in self._factors:
            if length == 1:
                found = set(self.alphabet)
            else:
                level = self.least_level(length)
                found = set()
                for pair in self._stable_pairs():
                    s = self.expansion(pair[0], level) + self.expansion(pair[1], level)
                    found.update(s[i:i + length] for i in range(len(s) - length + 1))
            self._factors[length] = tuple(sorted(found))
            self._factor_sets[length] = frozenset(found)
        return self._factors[length]

    def factor_set(self, length: int) -> frozenset:
        self.factors(length)
        return self._factor_sets[length]

    def is_admissible(self, word: str) -> bool:
        return bool(word) and word in self.factor_set(len(word))


def fibonacci() -> Substitution:
    return Substitution("ab", {"a": "ab", "b": "a"})


def thue_morse() -> Substitution:
    return Substitution("ab", {"a": "ab", "b": "ba"})


def chacon() -> Substitution:
    """Ternary form of the rule a -> aaba (extra letters restore primitivity)."""
    return Substitution("abc", {"a": "aabc", "b": "bc", "c": "abc"})


def substitution_by_name(text: str) -> Substitution:
    named = {"fibonacci": fibonacci, "thue-morse": thue_morse,
             "thue_morse": thue_morse, "chacon": chacon}
    if text in named:
        return named[text]()
    return Substitution.parse(text)


# ---------------------------------------------------------------------------
# clopen sets

class ClopenSet:
    """A clopen subset of the subshift, as admissible window words."""

    __slots__ = ("sub", "resolution", "members", "_minimal")

    def __init__(self, sub: Substitution, resolution: int, members):
        if resolution < 0:
            raise ValueError("resolution must be >= 0")
        if resolution > _RESOLUTION_CAP:
            raise ResourceLimitError(f"resolution {resolution} exceeds cap {_RESOLUTION_CAP}")
        members = frozenset(members)
        width = 2 * resolution + 1
        lang = sub.factor_set(width)
        if not members <= lang:
            raise ValueError(f"window word {min(members - lang)!r} is not "
                             f"admissible at width {width}")
        self.sub = sub
        self.resolution = resolution
        self.members = members
        self._minimal = False

    # -- canonical form -----------------------------------------------------

    def reduce(self) -> "ClopenSet":
        """Equivalent set at the least possible resolution (canonical form)."""
        if self._minimal:
            return self
        cur = self
        while cur.resolution > 0:
            projected = frozenset(w[1:-1] for w in cur.members)
            width = 2 * cur.resolution + 1
            pullback = frozenset(w for w in cur.sub.factors(width)
                                 if w[1:-1] in projected)
            if pullback == cur.members:
                cur = ClopenSet(cur.sub, cur.resolution - 1, projected)
            else:
                break
        cur._minimal = True
        return cur

    def at_resolution(self, resolution: int) -> "ClopenSet":
        if resolution == self.resolution:
            return self
        if resolution < self.resolution:
            raise ValueError("use reduce() to lower the resolution")
        width = 2 * resolution + 1
        off = resolution - self.resolution
        span = 2 * self.resolution + 1
        members = frozenset(w for w in self.sub.factors(width)
                            if w[off:off + span] in self.members)
        return ClopenSet(self.sub, resolution, members)

    def __eq__(self, other):
        if not isinstance(other, ClopenSet) or self.sub != other.sub:
            return NotImplemented
        a, b = self.reduce(), other.reduce()
        return a.resolution == b.resolution and a.members == b.members

    def __hash__(self):
        r = self.reduce()
        return hash((r.resolution, r.members))

    def __repr__(self):
        r = self.reduce()
        shown = ",".join(sorted(r.members)[:4])
        more = "..." if len(r.members) > 4 else ""
        return f"Clopen(L={r.resolution}; {shown}{more})"

    # -- boolean algebra ----------------------------------------------------

    def _common(self, other: "ClopenSet"):
        if self.sub != other.sub:
            raise ValueError("clopen sets over different subshifts")
        level = max(self.resolution, other.resolution)
        return self.at_resolution(level), other.at_resolution(level)

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        a, b = self._common(other)
        return ClopenSet(self.sub, a.resolution, a.members & b.members)

    def union(self, other: "ClopenSet") -> "ClopenSet":
        a, b = self._common(other)
        return ClopenSet(self.sub, a.resolution, a.members | b.members)

    def minus(self, other: "ClopenSet") -> "ClopenSet":
        a, b = self._common(other)
        return ClopenSet(self.sub, a.resolution, a.members - b.members)

    @property
    def is_empty(self) -> bool:
        return not self.members

    def is_disjoint(self, other: "ClopenSet") -> bool:
        a, b = self._common(other)
        return a.members.isdisjoint(b.members)

    # -- dynamics -----------------------------------------------------------

    def shift_pow(self, n: int) -> "ClopenSet":
        """Image under the n-th power of the shift, one unit step at a time.

        y is in T(C) iff y[-L-1..L-1] is a member, and in T^-1(C) iff
        y[-L+1..L+1] is: each step slices the windows of width 2L+3 at offset
        0 or 2 and reduces the result, which keeps the resolution at or below
        the L+|n| that one slice of the n-th power would need.
        """
        out, off = self, 0 if n > 0 else 2
        for _ in range(abs(n)):
            span = 2 * out.resolution + 1
            members = frozenset(w for w in out.sub.factors(span + 2)
                                if w[off:off + span] in out.members)
            out = ClopenSet(out.sub, out.resolution + 1, members).reduce()
        return out


def full_set(sub: Substitution) -> ClopenSet:
    return ClopenSet(sub, 0, sub.factors(1))


def cylinder(sub: Substitution, word: str) -> ClopenSet:
    """Points whose coordinates 0..len-1 read the given admissible word."""
    if not sub.is_admissible(word):
        raise ValueError(f"word {word!r} is not admissible")
    level = len(word) - 1
    width = 2 * level + 1
    members = (w for w in sub.factors(width)
               if w[level:level + len(word)] == word)
    return ClopenSet(sub, level, members)


def is_partition(sub: Substitution, pieces) -> bool:
    """Exact check that clopen pieces are pairwise disjoint and cover."""
    pieces = list(pieces)
    if not pieces:
        return False
    level = max(p.resolution for p in pieces)
    lang = sub.factor_set(2 * level + 1)
    seen: set = set()
    total = 0
    for p in pieces:
        members = p.at_resolution(level).members
        total += len(members)
        seen.update(members)
    return total == len(lang) and seen == lang


# ---------------------------------------------------------------------------
# the invariant measure

class ErgodicMeasure:
    """Word frequencies of the unique invariant measure, with a tracked tolerance.

    Frequencies are read off iterates of the substitution: the table at each
    word length is the exact rational frequency vector of a deep iterate,
    accepted once consecutive iterates agree well below the advertised
    tolerance (and the iterate exhibits every admissible word).  Iterates are
    compared by their integer window counts, cross-multiplied, so Fractions
    are made only for the accepted one.  Length-1 frequencies are
    cross-checked against the Perron eigenvector.
    """

    tolerance = 1e-9

    def __init__(self, sub: Substitution):
        self.sub = sub
        self._tables: dict[int, dict[str, float]] = {}

    def _table(self, length: int) -> dict[str, float]:
        if length not in self._tables:
            threshold = Fraction(self.tolerance).limit_denominator(10**15) / 1000
            exact = _frequency_table(self.sub, length, threshold)
            table = {w: float(f) for w, f in exact.items()}
            if length == 1:
                perron = self.sub.perron_vector()
                for i, letter in enumerate(self.sub.alphabet):
                    if abs(table.get(letter, 0.0) - perron[i]) > 100 * self.tolerance:
                        raise InvariantError(
                            "letter frequencies disagree with the Perron vector")
            self._tables[length] = table
        return self._tables[length]

    def frequency(self, word: str) -> float:
        if not self.sub.is_admissible(word):
            return 0.0
        return self._table(len(word)).get(word, 0.0)

    def measure(self, clopen: ClopenSet) -> float:
        """Sum of member-window frequencies; exact up to len(members)*tolerance.

        The table is read at the set's stored resolution, so equal sets stored
        at different resolutions can measure differently within that slack:
        on Fibonacci, ``cylinder("aab")`` (resolution 2) measures
        0.2360679775001667 and its reduced form (resolution 1)
        0.2360679774994487.
        """
        if clopen.sub != self.sub:
            raise ValueError("clopen set over a different subshift")
        table = self._table(2 * clopen.resolution + 1)
        return sum(table.get(w, 0.0) for w in clopen.members)


def _frequency_table(sub: Substitution, length: int,
                     threshold: Fraction) -> dict[str, Fraction]:
    """Exact block frequencies in a deep substitution iterate of the first letter.

    Counts per level satisfy an exact recursion: blocks of the next iterate
    are blocks of the current images plus the windows straddling each image
    junction, which are determined by (length-1)-prefixes and suffixes.
    """
    letters = sub.alphabet
    seed = letters[0]
    k = length
    level = sub.least_level(k)
    counts: dict[str, Counter] = {}
    pre: dict[str, str] = {}
    suf: dict[str, str] = {}
    total: dict[str, int] = {}
    for x in letters:
        s = sub.expansion(x, level)
        if len(s) > _STRING_CAP:
            raise ResourceLimitError("base expansion exceeds the string cap")
        counts[x] = Counter(s[i:i + k] for i in range(len(s) - k + 1))
        pre[x] = s[:k - 1]
        suf[x] = s[len(s) - (k - 1):] if k > 1 else ""
        total[x] = len(s)
    want_keys = sub.factor_set(k)
    prev = None
    while True:
        cur, windows = counts[seed], total[seed] - k + 1
        if sum(cur.values()) != windows:
            raise InvariantError("a factor window was lost or doubled")
        if prev is not None and cur.keys() == want_keys:
            # |c/n - c0/n0| < p/q, cleared of denominators
            old, n0 = prev
            worst = max(abs(cur[w] * n0 - old[w] * windows) for w in cur.keys() | old)
            if worst * threshold.denominator < threshold.numerator * n0 * windows:
                return {w: Fraction(c, windows) for w, c in cur.items()}
        prev = cur, windows
        level += 1
        if level > _MAX_LEVEL:
            raise ResourceLimitError(
                f"frequencies did not stabilize within {_MAX_LEVEL} levels")
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


# ---------------------------------------------------------------------------
# return words and Kakutani-Rokhlin partitions

def return_words(sub: Substitution, word: str) -> tuple[str, ...]:
    """Gap words between consecutive occurrences of an admissible word.

    For each returned w, the witness w+word is admissible and contains the
    word exactly at positions 0 and len(w).  Scans deepening iterates until
    the gap set repeats; completeness is certified downstream when the towers
    built from these gaps are checked to partition the space.
    """
    if not sub.is_admissible(word):
        raise ValueError(f"word {word!r} is not admissible")
    s = sub.long_word(max(4 * len(word), 64))
    prev: frozenset | None = None
    while True:
        occurrences = []
        i = s.find(word)
        while i != -1:
            occurrences.append(i)
            i = s.find(word, i + 1)
        gaps = frozenset(s[a:b] for a, b in zip(occurrences, occurrences[1:]))
        if gaps and gaps == prev:
            return tuple(sorted(gaps, key=lambda w: (len(w), w)))
        prev = gaps
        s = sub.long_word(len(s) + 1)


@dataclass(frozen=True)
class Tower:
    """A clopen base and its pairwise-disjoint forward shifts up to a height."""

    base: ClopenSet
    height: int
    label: str = ""


@dataclass(frozen=True)
class KRAtom:
    tower: int
    level: int
    part: ClopenSet


class KRPartition:
    """A clopen partition of the subshift into shift towers."""

    def __init__(self, sub: Substitution, towers):
        self.sub = sub
        self.towers = tuple(towers)
        if not self.towers:
            raise ValueError("need at least one tower")
        self._atoms: list[KRAtom] | None = None
        self.validate()

    def atoms(self) -> list[KRAtom]:
        if self._atoms is None:
            out = []
            for v, tower in enumerate(self.towers):
                part = tower.base
                for i in range(tower.height):
                    out.append(KRAtom(v, i, part))
                    if i + 1 < tower.height:
                        part = part.shift_pow(1)
            self._atoms = out
        return self._atoms

    @property
    def min_height(self) -> int:
        return min(t.height for t in self.towers)

    def base(self) -> ClopenSet:
        out = self.towers[0].base
        for tower in self.towers[1:]:
            out = out.union(tower.base)
        return out

    def roof(self) -> ClopenSet:
        """Union of the towers' top atoms, read off the cached atoms."""
        out = None
        for atom in self.atoms():
            if atom.level == self.towers[atom.tower].height - 1:
                out = atom.part if out is None else out.union(atom.part)
        return out

    def validate(self) -> None:
        """Exact checks: atoms partition the space and the shifted roof is the base."""
        if not is_partition(self.sub, [a.part for a in self.atoms()]):
            raise ValueError("tower atoms do not partition the space")
        if not self.roof().shift_pow(1) == self.base():
            raise ValueError("shift of the roof does not equal the base")


def kr_partition(sub: Substitution, word: str) -> KRPartition:
    """Towers over the cylinder of a word, one per return word.

    The base of the tower for return word w collects the points entering the
    cylinder whose next return happens after exactly len(w) steps; its height
    is len(w).  The union of the bases is the cylinder itself.
    """
    towers = []
    for gap in return_words(sub, word):
        towers.append(Tower(cylinder(sub, gap + word), len(gap), label=gap))
    return KRPartition(sub, towers)


def refine_kr(partition: KRPartition, *stages) -> KRPartition:
    """Common refinement of a tower partition with clopen partitions, in turn.

    Each stage of pieces splits every base by the itinerary of its levels
    through them; subtowers keep their height, so base, roof and minimal
    height survive, and each refined atom lies inside one piece per stage.
    Each stage lifts its pieces once to their largest resolution (reach) and
    maps every window of that width to its piece; a point lies in T^-i(p)
    exactly when its window around coordinate i maps to p, so itineraries are
    read off the base windows by one lookup per coordinate.  Only the final
    partition is built and validated.
    """
    sub, towers = partition.sub, partition.towers
    for pieces in stages:
        pieces = [p for p in pieces if not p.is_empty]
        if not is_partition(sub, pieces):
            raise ValueError("the refining pieces do not form a clopen partition")
        reach = max(p.resolution for p in pieces)
        piece_of: dict[str, int] = {}
        for j, p in enumerate(pieces):
            for window in p.at_resolution(reach).members:
                if piece_of.setdefault(window, j) != j:
                    raise InvariantError("two pieces claim one window")
        split = []
        for tower in towers:
            height = tower.height
            level = max(tower.base.resolution, reach + height - 1)
            groups: dict[tuple, set] = {}
            for member in tower.base.at_resolution(level).members:
                itinerary = []
                for mid in range(level, level + height):  # coordinates 0..height-1
                    j = piece_of.get(member[mid - reach:mid + reach + 1])
                    if j is None:
                        raise InvariantError("no piece holds a base window")
                    itinerary.append(j)
                groups.setdefault(tuple(itinerary), set()).add(member)
            for j, key in enumerate(sorted(groups)):
                sub_base = ClopenSet(sub, level, groups[key]).reduce()
                label = f"{tower.label}/{j}" if tower.label else str(j)
                split.append(Tower(sub_base, height, label=label))
        towers = split
    return KRPartition(sub, towers)


def partition_to_json(partition: KRPartition) -> str:
    towers = []
    for tower in partition.towers:
        base = tower.base.reduce()
        towers.append({
            "label": tower.label,
            "height": tower.height,
            "resolution": base.resolution,
            "base": sorted(base.members),
        })
    return json.dumps({"towers": towers}, indent=1)

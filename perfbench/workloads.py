"""The four benchmark workloads: seeded inputs, timed operations, checks.

Each workload is a fixed list of operations.  An operation is one top-level
public call into ``stabilitylab`` (a ``harness.main`` job or a module
function) plus a check of its result by exact invariants that hold for any
seed.  ``build(name, seed, out)`` makes the inputs; it is the benchmark's
set-up and is rebuilt before every pass, so no pass reuses caches that the
previous pass filled (substitutions keep language caches inside).

Library functions are always looked up as module attributes at call time, so
that the span recorder's wrappers see every call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from stabilitylab import challenges, fullgroup, harness, irs, perms, subshift, words

# Input sizes; README.md gives the reasons.
VERSHIK_SAMPLES = 20_000
GSET_ACTIONS = 5
GSET_POINTS = 4_000  # per action; a 20,000-point action is memory-bound, see README.md
GSET_RADIUS = 3
SPOT_POINTS = 200  # points per action whose fingerprints the check recomputes
DGEN_INSTANCES = 50
BOUND_PAIRS = 10
BOUND_SIZE = 30
BOUND_RESTARTS = 5
MGOOD_SIZE = 30
MGOOD_M = 2
FULLGROUP_RADIUS = 3
FULLGROUP_SEED_WORD = "abaab"
FULLGROUP_K = 3
KR_WORDS = 3
# Thue-Morse factors of length 1..3; a seed picks the subshift-kr words.
THUE_MORSE_WORDS = ("a", "b", "aa", "ab", "ba", "bb", "aab", "aba", "abb",
                    "baa", "bab", "bba")


@dataclass
class Op:
    """One timed call and its check.

    ``run()`` returns the result; ``check(result)`` returns a list of
    problems; ``digest(result)`` hashes the output bytes.  ``seeded`` says
    whether the output depends on the workload seed.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    digest: Callable[[object], str]
    seeded: bool
    counters: dict = field(default_factory=dict)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files_digest(out: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            h.update(name.encode() + b"\0" + _sha(fh.read()).encode() + b"\n")
    return h.hexdigest()


def _read_csv(path: str) -> tuple[str, list[dict]]:
    with open(path) as fh:
        comment = fh.readline()
        return comment, list(csv.DictReader(fh))


def _read_jsonl(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _cli(name: str, out: str, argv: list, check, seeded: bool) -> Op:
    """A ``harness.main`` job writing into its own fresh directory."""
    def run():
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        return harness.main([name, "--out", out] + argv)

    def checked(code):
        if code != 0:
            return [f"exit code {code}"]
        return check(out)

    return Op(name, run, checked, lambda _: _files_digest(out), seeded)


def _random_action(rng: random.Random, size: int, rank: int = 2):
    gens = []
    for _ in range(rank):
        images = list(range(size))
        rng.shuffle(images)
        gens.append(perms.Perm(tuple(images)))
    return irs.FiniteGSet(perms.GenTuple(tuple(gens)))


# ---------------------------------------------------------------------------
# kernel-scan

def _check_alt_convergence(out: str) -> list:
    comment, rows = _read_csv(os.path.join(out, "alt_convergence.csv"))
    r_max = harness.COMMANDS["alt-convergence"][1]["nu_radius"]
    problems = []
    if [int(r["n"]) for r in rows] != list(range(2, 9)):
        problems.append("alt-convergence rows are not n = 2..8")
    for r in rows:
        nu, saturated = int(r["nu"]), int(r["saturated"])
        if not 0 <= nu <= r_max:
            problems.append(f"nu {nu} outside 0..{r_max}")
        if saturated != int(nu == r_max):
            problems.append(f"saturated flag {saturated} disagrees with nu {nu}")
        if float(r["distance"]) != 2.0 ** -nu:
            problems.append(f"distance {r['distance']} is not 2**-{nu}")
    return problems


def _check_neumann(out: str) -> list:
    _, rows = _read_csv(os.path.join(out, "neumann_tail_defects.csv"))
    length = harness.COMMANDS["neumann"][1]["length"]
    problems = []
    if len(rows) != harness.COMMANDS["neumann"][1]["words"]:
        problems.append(f"{len(rows)} neumann rows")
    for r in rows:
        if r["trivial_in_limit"] != "1":
            problems.append(f"word {r['word']} not trivial in the limit")
        if any(not 0 <= int(i) < length for i in r["defect_factors"].split()):
            problems.append(f"defect factor out of range for {r['word']}")
    return problems


def kernel_scan(seed: int, out: str) -> list[Op]:
    return [
        _cli("alt-convergence", os.path.join(out, "alt-convergence"), [],
             _check_alt_convergence, seeded=False),
        _cli("neumann", os.path.join(out, "neumann"), ["--seed", str(seed)],
             _check_neumann, seeded=True),
    ]


# ---------------------------------------------------------------------------
# stabilizer-irs

def _check_vershik(out: str) -> list:
    problems = []
    ns = [int(n) for n in harness.COMMANDS["vershik"][1]["ns"].split(",")]
    dists = {}
    for stem in ["window_limit"] + [f"alt_{n}" for n in ns]:
        lines = _read_jsonl(os.path.join(out, f"vershik_{stem}.jsonl"))
        total = sum(e["mass"] for e in lines)
        if abs(total - 1) > 1e-9:  # the sampled IRS's sum_tolerance
            problems.append(f"{stem} masses sum to {total}")
        for e in lines:
            if e["n_samples"] != VERSHIK_SAMPLES or not e["mass"] > 0:
                problems.append(f"{stem}: bad entry {e}")
            if e["W"][0] != "e":
                problems.append(f"{stem}: fingerprint without the empty word")
            count = e["mass"] * VERSHIK_SAMPLES
            if abs(count - round(count)) > 1e-6:
                problems.append(f"{stem}: mass {e['mass']} is not a sample frequency")
        dists[stem] = {tuple(e["W"]): e["mass"] for e in lines}
    _, rows = _read_csv(os.path.join(out, "vershik_tv.csv"))
    if [int(r["n"]) for r in rows] != ns:
        problems.append("vershik_tv rows do not match ns")
    limit = dists["window_limit"]
    for r in rows:
        tv = float(r["tv"])
        if not 0 <= tv <= 1:
            problems.append(f"tv {tv} outside [0, 1]")
        finite = dists[f"alt_{r['n']}"]
        again = sum(abs(finite.get(k, 0.0) - limit.get(k, 0.0))
                    for k in set(finite) | set(limit)) / 2
        if abs(again - tv) > 1e-12:
            problems.append(f"tv {tv} for n={r['n']} but the files give {again}")
    return problems


def _spot_fingerprints(gset, radius: int, points) -> list[frozenset]:
    """Letter tuples of the reduced words of length <= radius fixing each
    point, evaluated without the package (the right-most letter acts first)."""
    images = {}
    for i, p in enumerate(gset.action.perms, start=1):
        images[i] = p.images
        inverse = [0] * len(p.images)
        for x, y in enumerate(p.images):
            inverse[y] = x
        images[-i] = inverse
    ball, level = [()], [()]
    for _ in range(radius):
        level = [w + (a,) for w in level for a in images if not w or w[-1] != -a]
        ball += level
    out = []
    for x in points:
        fixed = set()
        for w in ball:
            y = x
            for letter in reversed(w):
                y = images[letter][y]
            if y == x:
                fixed.add(w)
        out.append(frozenset(fixed))
    return out


def _check_exact_irs(result, gset, radius: int, points) -> list:
    size = gset.size
    problems = []
    if not result.exact:
        return ["irs_of_gset returned a sampled distribution"]
    if sum(result.masses.values()) != Fraction(1):
        problems.append("irs_of_gset masses do not sum to exactly 1")
    for fp, m in result.masses.items():
        if m <= 0 or (m * size).denominator != 1:
            problems.append(f"mass {m} is not a positive multiple of 1/{size}")
        try:
            fp.validate()
        except ValueError as err:
            problems.append(str(err))
    support = {frozenset(w.letters for w in fp.words) for fp in result.masses}
    if not set(_spot_fingerprints(gset, radius, points)) <= support:
        problems.append("a spot-checked point's fingerprint is missing")
    return problems


def _gset_op(i: int, gset, spots) -> Op:
    return Op(f"irs_of_gset[{i}]", lambda: irs.irs_of_gset(gset, GSET_RADIUS),
              lambda r: _check_exact_irs(r, gset, GSET_RADIUS, spots),
              lambda r: _sha(r.to_json_lines().encode()), seeded=True)


def stabilizer_irs(seed: int, out: str) -> list[Op]:
    rng = random.Random(seed)
    ops = [_cli("vershik", os.path.join(out, "vershik"),
                ["--samples", str(VERSHIK_SAMPLES), "--seed", str(seed)],
                _check_vershik, seeded=True)]
    for i in range(GSET_ACTIONS):
        gset = _random_action(rng, GSET_POINTS)
        ops.append(_gset_op(i, gset, rng.sample(range(GSET_POINTS), SPOT_POINTS)))
    return ops


# ---------------------------------------------------------------------------
# equivariance

def _check_dgen(out: str, counters: dict) -> list:
    comment, rows = _read_csv(os.path.join(out, "dgen.csv"))
    problems = []
    agree = 0
    for r in rows:
        exact, bound = Fraction(r["exact"]), Fraction(r["bound"])
        if not 0 <= exact <= bound <= 1:
            problems.append(f"instance {r['instance']}: bound {bound} < exact {exact}")
        if int(r["equal"]) != int(bound == exact):
            problems.append(f"instance {r['instance']}: equal flag is wrong")
        agree += bound == exact
    if len(rows) != DGEN_INSTANCES or f"agreement={agree}/{len(rows)}" not in comment:
        problems.append("dgen agreement count disagrees with its rows")
    counters["challenges.bound_exact_agreement"] = Fraction(agree, max(len(rows), 1))
    return problems


def _reference_defect(f, x, y) -> Fraction:
    """The generator defect of a bijection, written out independently of
    ``challenges.gen_norm``."""
    total = Fraction(0)
    for sx, sy in zip(x.action.perms, y.action.perms):
        total += Fraction(sum(f[sx.images[p]] != sy.images[f[p]] for p in range(x.size)),
                          x.size)
    return total / x.rank


def _check_bound(result, x, y) -> list:
    problems = []
    if sorted(result.bijection) != list(range(x.size)):
        problems.append("d_gen_bound witness is not a bijection")
    elif challenges.gen_norm(result.bijection, x, y) != result.value:
        problems.append("gen_norm of the witness differs from the bound")
    elif _reference_defect(result.bijection, x, y) != result.value:
        problems.append("the witness's defect differs from the bound")
    if not 0 <= result.value <= 1:
        problems.append(f"bound {result.value} outside [0, 1]")
    return problems


def _bound_op(i: int, x, y, seed: int) -> Op:
    return Op(f"d_gen_bound[{i}]",
              lambda: challenges.d_gen_bound(x, y, restarts=BOUND_RESTARTS, seed=seed),
              lambda r: _check_bound(r, x, y),
              lambda r: _sha(f"{r.value}|{r.bijection}".encode()), seeded=True)


def _check_m_good(report, m: int) -> list:
    problems = []
    if report.bound_ok != (report.bound < Fraction(1, m)):
        problems.append("bound_ok disagrees with the bound")
    if report.violations:
        problems.append("the identity word was reported as a violation")
    if report.passed != (report.bound_ok and not report.violations):
        problems.append("passed disagrees with its parts")
    if not 0 <= report.bound <= 1:
        problems.append(f"bound {report.bound} outside [0, 1]")
    return problems


def equivariance(seed: int, out: str) -> list[Op]:
    rng = random.Random(seed)
    agreement = {}
    dgen = _cli("dgen", os.path.join(out, "dgen"),
                ["--instances", str(DGEN_INSTANCES), "--seed", str(seed)],
                lambda d: _check_dgen(d, agreement), seeded=True)
    dgen.counters = agreement
    ops = [dgen]
    for i in range(BOUND_PAIRS):
        x, y = _random_action(rng, BOUND_SIZE), _random_action(rng, BOUND_SIZE)
        ops.append(_bound_op(i, x, y, seed + i))
    # y is a relabelling of x, so the exact defect is 0 and the identity word
    # is a kernel word that must act trivially on y.
    x = _random_action(rng, MGOOD_SIZE)
    rho = list(range(MGOOD_SIZE))
    rng.shuffle(rho)
    y = irs.relabel(x, perms.Perm(tuple(rho)))
    kernel = words.WordSet(2, frozenset([words.identity(2)]))
    ops.append(Op("is_m_good",
                  lambda: challenges.is_m_good(x, y, kernel, MGOOD_M,
                                               restarts=BOUND_RESTARTS, seed=seed),
                  lambda r: _check_m_good(r, MGOOD_M),
                  lambda r: _sha(f"{r.bound}|{r.bound_ok}|{r.passed}".encode()),
                  seeded=True))
    return ops


# ---------------------------------------------------------------------------
# full-group

def _check_partition(partition) -> list:
    try:
        partition.validate()
    except ValueError as err:
        return [str(err)]
    return []


def _check_fullgroup_irs(result, partition, measure) -> list:
    atoms = sum(t.height for t in partition.towers)
    slack = FULLGROUP_K * atoms * measure.tolerance + 1e-9
    total = sum(result.masses.values())
    problems = []
    if abs(total - 1) > slack:
        problems.append(f"fullgroup_irs masses sum to {total}")
    if any(m < 0 for m in result.masses.values()):
        problems.append("negative fullgroup_irs mass")
    return problems


def _check_subshift_kr(out: str, seeds: list) -> list:
    _, rows = _read_csv(os.path.join(out, "kr_checks.csv"))
    problems = []
    if [r["seed"] for r in rows] != seeds:
        problems.append("kr_checks rows do not match the seed words")
    for r in rows:
        with open(os.path.join(out, f"kr_{r['seed']}.json")) as fh:
            towers = json.load(fh)["towers"]
        heights = [t["height"] for t in towers]
        if r["valid"] != "1" or float(r["mass_defect"]) > 1e-6:
            problems.append(f"seed {r['seed']}: invalid or heavy partition")
        if (int(r["towers"]), int(r["atoms"]), int(r["min_height"])) != (
                len(towers), sum(heights), min(heights)):
            problems.append(f"seed {r['seed']}: summary disagrees with kr json")
    return problems


def full_group(seed: int, out: str) -> list[Op]:
    sub = subshift.fibonacci()
    gadgets = [fullgroup.three_cycle(subshift.cylinder(sub, "aa")),
               fullgroup.three_cycle(subshift.cylinder(sub, "baa"))]
    measure = subshift.ErgodicMeasure(sub)
    kr_seeds = random.Random(seed).sample(THUE_MORSE_WORDS, KR_WORDS)
    state = {}

    def partition():
        state["partition"] = fullgroup.adapted_partition(
            sub, gadgets, FULLGROUP_RADIUS, FULLGROUP_SEED_WORD)
        return state["partition"]

    def embedding():
        state["report"] = fullgroup.local_embedding(
            gadgets, FULLGROUP_RADIUS, state["partition"])
        return state["report"]

    def pushforward():
        return fullgroup.fullgroup_irs(state["partition"], gadgets, FULLGROUP_K,
                                       FULLGROUP_RADIUS, measure,
                                       embedding=state["report"])

    return [
        Op("adapted_partition", partition, _check_partition,
           lambda p: _sha(subshift.partition_to_json(p).encode()), seeded=False),
        Op("local_embedding", embedding,
           lambda r: [] if r.passed else [r.recommendation],
           lambda r: _sha(r.to_json().encode()), seeded=False),
        Op("fullgroup_irs", pushforward,
           lambda r: _check_fullgroup_irs(r, state["partition"], measure),
           lambda r: _sha(r.to_json_lines().encode()), seeded=False),
        _cli("subshift-kr", os.path.join(out, "subshift-kr"),
             ["--substitution", "thue-morse", "--seeds", ",".join(kr_seeds)],
             lambda d: _check_subshift_kr(d, kr_seeds), seeded=True),
    ]


WORKLOADS = {
    "kernel-scan": kernel_scan,
    "stabilizer-irs": stabilizer_irs,
    "equivariance": equivariance,
    "full-group": full_group,
}


def build(name: str, seed: int, out: str) -> list[Op]:
    return WORKLOADS[name](seed, os.path.join(out, name))

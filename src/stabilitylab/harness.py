"""Command-line orchestration of the experiments, with reproducible outputs.

Every subcommand reads an optional flat ``key=value`` config file, lets
explicit flags win, seeds all randomness, and writes CSV/JSON-lines files
atomically into the output directory.  Running the same configuration twice
reproduces the outputs byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import random
import sys
from fractions import Fraction

from .challenges import d_gen_bound, d_gen_exact
from .fullgroup import (adapted_partition, fullgroup_irs_limit_check,
                        local_embedding, tower_gadgets)
from .irs import irs_distance, tv_standard_error, vershik_irs
from .marked import (alt_oracle, az_oracle, convergence_table, neumann_truncation,
                     tail_defect)
from .perms import GenTuple, Perm
from .subshift import (ErgodicMeasure, kr_partition, partition_to_json,
                       substitution_by_name)
from .words import ReducedWord, identity, reduce, word_to_string


def atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_csv(path: str, comment: str, header, rows) -> None:
    buf = io.StringIO()
    buf.write(f"# {comment}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write(path, buf.getvalue())


def read_config(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SystemExit(f"config line without '=': {line!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Defaults, overridden by the config file, overridden by explicit flags."""
    merged = dict(defaults)
    if getattr(args, "config", None):
        config = read_config(args.config)
        for key, value in config.items():
            if key not in merged:
                raise SystemExit(f"unknown config field {key!r}")
            try:
                merged[key] = type(defaults[key])(value)
            except ValueError:
                raise SystemExit(f"bad value {value!r} for config field {key!r}") from None
    for key in merged:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    return merged


def _fractions(text: str) -> list[Fraction]:
    try:
        return [Fraction(part) for part in text.split(",")]
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",")]


def _names(text: str) -> list[str]:
    return [part for part in text.split(",") if part]


def random_az_trivial_words(count: int, seed: int) -> list[ReducedWord]:
    """Random words that die in the alternating enrichment of the integers.

    Products of conjugates of the cube of the finite generator and of
    commutators of the finite generator with far translates of itself; both
    die because the 3-cycle has order three and far translates have disjoint
    support.
    """
    rng = random.Random(seed)
    a, b = reduce(2, [1]), reduce(2, [2])
    out = []
    for _ in range(count):
        word = identity(2)
        for _ in range(rng.randint(1, 2)):
            kind = rng.random()
            if kind < 0.5:
                conj = reduce(2, [rng.choice([1, -1, 2, -2])
                                  for _ in range(rng.randint(0, 3))])
                sign = rng.choice([3, -3])
                word = word * (conj * b ** sign * conj.inverse())
            else:
                k = rng.randint(3, 6)
                left = b ** rng.choice([1, -1])
                right = a ** k * b ** rng.choice([1, -1]) * a ** -k
                word = word * (left * right * left.inverse() * right.inverse())
        out.append(word)
    return out


# ---------------------------------------------------------------------------
# subcommands

def run_alt_convergence(opts: dict) -> None:
    if opts["r_min"] > opts["r_max"]:
        raise ValueError(f"r_min must be <= r_max, got {opts['r_min']} > {opts['r_max']}")
    ranks = list(range(opts["r_min"], opts["r_max"] + 1))
    oracles = [alt_oracle(r) for r in ranks]
    rows = []
    table = convergence_table(oracles, az_oracle(), opts["nu_radius"])
    for r, (name, nu) in zip(ranks, table):
        rows.append([r, nu.value, int(nu.saturated), float(nu.distance)])
    write_csv(os.path.join(opts["out"], "alt_convergence.csv"),
              f"experiment: marked-group convergence of alternating markings; "
              f"nu scanned to radius {opts['nu_radius']}",
              ["n", "nu", "saturated", "distance"], rows)


def run_neumann(opts: dict) -> None:
    if opts["words"] < 1:
        raise ValueError(f"words must be >= 1, got {opts['words']}")
    product = neumann_truncation(opts["offset"], opts["length"])
    target = az_oracle()
    words = random_az_trivial_words(opts["words"], opts["seed"])
    rows = []
    for word in words:
        rep = tail_defect(word, product, target)
        rows.append([word_to_string(word), int(rep.trivial_in_target),
                     " ".join(str(i) for i in rep.defect)])
    write_csv(os.path.join(opts["out"], "neumann_tail_defects.csv"),
              f"experiment: tail defects over a truncated diagonal product; "
              f"offset={opts['offset']} length={opts['length']} seed={opts['seed']}",
              ["word", "trivial_in_limit", "defect_factors"], rows)


def run_vershik(opts: dict) -> None:
    alpha, ns = _fractions(opts["alpha"]), _ints(opts["ns"])
    # every sample is drawn, and so every option checked, before a file is written
    limit = vershik_irs(alpha, "az", radius=opts["radius"], mode="sampled",
                        window=opts["window"], n_samples=opts["samples"],
                        seed=opts["seed"])
    finite = [vershik_irs(alpha, f"alt:{n}", radius=opts["radius"], mode="sampled",
                          n_samples=opts["samples"], seed=opts["seed"] + 1 + i)
              for i, n in enumerate(ns)]
    rows = [[n, float(irs_distance(irs, limit)), tv_standard_error(irs, limit),
             opts["samples"]] for n, irs in zip(ns, finite)]
    atomic_write(os.path.join(opts["out"], "vershik_window_limit.jsonl"),
                 limit.to_json_lines())
    for n, irs in zip(ns, finite):
        atomic_write(os.path.join(opts["out"], f"vershik_alt_{n}.jsonl"),
                     irs.to_json_lines())
    write_csv(os.path.join(opts["out"], "vershik_tv.csv"),
              f"experiment: coloring-stabilizer distributions vs the window limit; "
              f"alpha={opts['alpha']} radius={opts['radius']} seed={opts['seed']}",
              ["n", "tv", "stderr", "n_samples"], rows)


def run_subshift_kr(opts: dict) -> None:
    sub = substitution_by_name(opts["substitution"])
    seed_words = _names(opts["seeds"])
    if not seed_words:
        raise ValueError(f"need at least one seed word, got {opts['seeds']!r}")
    # every partition is built and measured before a file is written
    parts = [kr_partition(sub, seed_word) for seed_word in seed_words]
    measure = ErgodicMeasure(sub)
    rows = []
    for seed_word, part in zip(seed_words, parts):
        mass = sum(t.height * measure.measure(t.base) for t in part.towers)
        rows.append([seed_word, len(part.towers), len(part.atoms()),
                     part.min_height, abs(mass - 1.0), 1])
    for seed_word, part in zip(seed_words, parts):
        atomic_write(os.path.join(opts["out"], f"kr_{seed_word}.json"),
                     partition_to_json(part))
    write_csv(os.path.join(opts["out"], "kr_checks.csv"),
              f"experiment: tower partitions of {opts['substitution']}; "
              f"tolerance={measure.tolerance}",
              ["seed", "towers", "atoms", "min_height", "mass_defect",
               "valid"], rows)


def run_fullgroup_embed(opts: dict) -> None:
    sub = substitution_by_name(opts["substitution"])
    gadgets = tower_gadgets(sub, opts["gadget_seed"], opts["gadgets"])
    # every radius's report is built before a file is written
    reports = []
    for radius in _ints(opts["radii"]):
        part = adapted_partition(sub, gadgets, radius, opts["gadget_seed"])
        reports.append(local_embedding(gadgets, radius, part))
    rows = []
    for report in reports:
        atomic_write(os.path.join(opts["out"], f"embed_radius_{report.radius}.json"),
                     report.to_json())
        rows.append([report.radius, report.atom_count, len(report.entries),
                     int(report.passed)])
    write_csv(os.path.join(opts["out"], "embed_summary.csv"),
              f"experiment: finite atom actions of full-group balls on "
              f"{opts['substitution']}; gadget seed {opts['gadget_seed']}",
              ["radius", "atoms", "elements", "passed"], rows)


def run_fullgroup_irs(opts: dict) -> None:
    sub = substitution_by_name(opts["substitution"])
    gadgets = tower_gadgets(sub, opts["gadget_seed"], opts["gadgets"])
    measure = ErgodicMeasure(sub)
    report = fullgroup_irs_limit_check(sub, gadgets, opts["k"], opts["radius"],
                                       _names(opts["levels"]), measure)
    for level in report.levels:
        atomic_write(os.path.join(opts["out"], f"fullgroup_irs_{level.seed}.jsonl"),
                     level.irs.to_json_lines())
    rows = []
    for i, a in enumerate(report.levels):
        for j, b in enumerate(report.levels):
            if i < j:
                rows.append([a.seed, b.seed, report.tv_matrix[i][j]])
    rows.append(["marginal_max_gap", "", report.marginal_max_gap])
    rows.append(["marginal_supports_match", "",
                 int(report.marginal_supports_match)])
    write_csv(os.path.join(opts["out"], "fullgroup_tv.csv"),
              f"experiment: stabilizer pushforwards across partition levels; "
              f"k={opts['k']} radius={opts['radius']}",
              ["level_a", "level_b", "tv"], rows)


def run_dgen(opts: dict) -> None:
    if opts["instances"] < 1:
        raise ValueError(f"instances must be >= 1, got {opts['instances']}")
    rng = random.Random(opts["seed"])
    from .irs import FiniteGSet

    def rand_gset():
        perms = []
        for _ in range(2):
            images = list(range(opts["size"]))
            rng.shuffle(images)
            perms.append(Perm(tuple(images)))
        return FiniteGSet(GenTuple(tuple(perms)))

    rows = []
    agreements = 0
    for i in range(opts["instances"]):
        x, y = rand_gset(), rand_gset()
        exact = d_gen_exact(x, y)
        bound = d_gen_bound(x, y, restarts=opts["restarts"], seed=i,
                            floor=exact).value
        agree = bound == exact
        agreements += agree
        rows.append([i, str(exact), str(bound), int(agree)])
    write_csv(os.path.join(opts["out"], "dgen.csv"),
              f"experiment: exhaustive vs heuristic equivariance defect; "
              f"size={opts['size']} restarts={opts['restarts']} "
              f"seed={opts['seed']} agreement={agreements}/{opts['instances']}",
              ["instance", "exact", "bound", "equal"], rows)


COMMANDS = {
    "alt-convergence": (run_alt_convergence, {
        "r_min": 2, "r_max": 8, "nu_radius": 8, "out": "."}),
    "neumann": (run_neumann, {
        "offset": 0, "length": 6, "words": 20, "out": ".", "seed": 7}),
    "vershik": (run_vershik, {
        "alpha": "1/2,1/2", "ns": "20,40,80", "radius": 2, "samples": 100000,
        "window": 40, "out": ".", "seed": 7}),
    "subshift-kr": (run_subshift_kr, {
        "substitution": "fibonacci", "seeds": "a,b,ab", "out": "."}),
    "fullgroup-embed": (run_fullgroup_embed, {
        "substitution": "fibonacci", "gadget_seed": "aa", "gadgets": 2,
        "radii": "1,2", "out": "."}),
    "fullgroup-irs": (run_fullgroup_irs, {
        "substitution": "fibonacci", "gadget_seed": "aa", "gadgets": 2,
        "k": 1, "radius": 1, "levels": "aa,ab", "out": "."}),
    "dgen": (run_dgen, {
        "size": 6, "instances": 100, "restarts": 30, "out": ".", "seed": 7}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stability-lab",
        description="experiments with permutation metrics, marked groups, "
                    "stabilizer distributions and tower partitions")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, defaults) in COMMANDS.items():
        sp = subparsers.add_parser(name, allow_abbrev=False)
        sp.add_argument("--config", help="flat key=value file; flags win")
        for key, default in defaults.items():
            flag = "--" + key.replace("_", "-")
            if isinstance(default, int):
                sp.add_argument(flag, type=int, default=None)
            else:
                sp.add_argument(flag, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    runner, defaults = COMMANDS[args.command]
    opts = merge_config(args, defaults)
    os.makedirs(opts["out"], exist_ok=True)
    try:
        runner(opts)
    except (ValueError, RuntimeError) as err:
        print(f"error in {args.command}: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

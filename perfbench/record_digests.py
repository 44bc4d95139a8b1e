"""Record the output digests that the benchmark compares against.

    python3 perfbench/record_digests.py --seeds 0-31

Runs every operation of every workload once per seed (operations whose
output does not depend on the seed run once), refuses to record an output
that fails its check, and writes ``perfbench/digests.json``.  Record only on
a commit whose outputs are known good: later runs count any difference as a
failed operation.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import DIGESTS, OUT, SRC, WORKLOAD_NAMES


def parse_seeds(text: str) -> list[int]:
    """Comma-separated seeds: ``7``, an inclusive range ``1-10`` or a repeat
    ``7*10`` (seed 7 ten times)."""
    seeds = []
    for item in text.split(","):
        if "*" in item:
            seed, _, times = item.partition("*")
            seeds += [int(seed)] * int(times)
        else:
            lo, _, hi = item.partition("-")
            seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    import workloads

    digests = {"unseeded": {}, "seeded": {}}
    seeds = parse_seeds(args.seeds)
    for name in WORKLOAD_NAMES:
        for seed in seeds:
            for op in workloads.build(name, seed, str(OUT)):
                key = f"{name}/{op.name}"
                table = (digests["seeded"].setdefault(str(seed), {}) if op.seeded
                         else digests["unseeded"])
                if key in table:
                    continue
                value = op.run()
                problems = op.check(value)
                if problems:
                    print(f"{key} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                table[key] = op.digest(value)
        print(f"recorded {name}", flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run spread of the end-to-end metrics, as the acceptance rule reads it.

    python3 perfbench/spread.py --workload full-group --seeds 1-10
    python3 perfbench/spread.py --workload full-group --seeds 7*10

Runs ``run.py --trace 0`` once per seed, one run after another, and prints
for each end-to-end metric its median, quartiles and interquartile distance
as a share of the median (``statistics.quantiles(values, n=4)``), next to
the metric's bound from ``BENCHMARK.json`` and a third of it, the steadiness
target.  Ten different seeds give host noise plus the seed's effect on the
work; one seed repeated gives host noise alone.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from record_digests import parse_seeds

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10, or 7*10 to repeat seed 7")
    args = parser.parse_args()
    bench = json.loads(BENCHMARK.read_text())
    metrics = bench["end_to_end"]
    values: dict[str, list] = {m["name"]: [] for m in metrics}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} failed operations", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{m['name']}={values[m['name']][-1]:.4f}" for m in metrics[:4])
            + "  |" + "".join(l.split("pass walls")[1] for l in lines if "pass walls" in l),
            flush=True)
    for m in metrics:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = m["bound"]
        verdict = "ok" if spread < bound / 3 else "WIDE"
        print(f"{m['name']:40s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread:.4f}  bound {bound}  target {bound / 3:.4f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

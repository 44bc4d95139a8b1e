"""Benchmark runner for stabilitylab.

    python3 perfbench/run.py --workload kernel-scan --seed 1 --seconds 25 --trace 0

Runs one workload (or ``all`` of them, one fresh process each) from the root
of a source checkout, importing the package from ``src/``.  A run repeats
passes over the workload's fixed, seeded input until ``--seconds`` have gone
by (at least ``MIN_PASSES``), checks every operation's result, and prints one
line per metric followed by a final JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with tracing
off: ``wall_norm_s`` (the median time of one pass), ``setup_s`` (median over
fresh processes of the time from process start to the first timed operation)
and ``peak_rss_mb``.  With ``--trace 1`` the run is made of rounds of one
untraced and one traced pass, which take turns operation by operation, and
the metrics are the per-layer ones, built from the spans of the traced
passes; the spans are written to ``perfbench/out/spans-<workload>.jsonl.gz``.
A traced run also fails a check when the spans account for the untraced
pass time outside ``TRACE_ACCOUNT_BOUND``, or when a count differs between
its traced passes.

The host's speed drifts: over minutes, and from one run to the next, the
same pass can take half as long again.  So while an untraced operation runs,
a ``SIGALRM`` handler times a fixed sliver of pure-Python work
(:func:`probe_work`) every ``SAMPLE_INTERVAL`` seconds.  A pass's time, less
the samples, is scaled to a host on which the sliver takes ``REF_S``: it is
multiplied by ``REF_S`` times the mean of 1/sample over the pass.  Each
set-up process samples its own set-up the same way.  The two
timed metrics, ``wall_norm_s`` and ``setup_s``, are given at that reference
speed; the raw times are printed beside them.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

from spans import LAYERS, SpanRecorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

MIN_PASSES = 3          # untraced passes in a --trace 0 run
MIN_TRACE_ROUNDS = 3    # rounds of one untraced and one traced pass in a --trace 1 run
SETUP_PROBES = 7        # fresh processes timed for setup_s
PROBE_TIMEOUT = 60
# The spans' summed self time must lie within this share of the untraced wall.
TRACE_ACCOUNT_BOUND = 0.25
SAMPLE_INTERVAL = 0.015  # seconds between host speed samples
PROBE_ROUNDS = 1500
PROBE_IMAGES = tuple((5 * i + 3) % 17 for i in range(17))
# Filled in advance, so that probe_work() never grows it: a sample that called
# malloc in the middle of the library's work could change the peak RSS.
PROBE_COUNTS = {(x, j): 0 for x in range(17) for j in range(8)}
# Typical time of probe_work() on the 2-vCPU Xeon VM the benchmark was sized on.
REF_S = 0.0006
WORKLOAD_NAMES = ("kernel-scan", "stabilizer-irs", "equivariance", "full-group")
# glibc mallopt parameters, both fixed at glibc's starting mmap threshold.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD, MALLOC_THRESHOLD = -1, -3, 128 * 1024


def percentile_summary(values: list, noun: str) -> str:
    """Median with its sample count, plus the highest of p90/p99/p99.9 that
    has at least ten samples beyond it."""
    text = f"median of {len(values)} {noun}"
    for p in (99.9, 99, 90, 50):
        if len(values) * (1 - p / 100) >= 10:
            if p != 50:
                q = statistics.quantiles(values, n=1000, method="inclusive")
                text += f", p{p:g} {q[round(p * 10) - 1]:.4f}"
            break
    else:
        text += "; too few for a tail percentile"
    return text


# ---------------------------------------------------------------------------
# host speed

def probe_work(rounds: int = PROBE_ROUNDS) -> int:
    """Fixed pure-Python work in the library's style: permutation lookups,
    small tuples as dict keys and an occasional Fraction sum.  Of the
    probes tried, this one tracked the speed of all four workloads best."""
    images, counts, total, x = PROBE_IMAGES, PROBE_COUNTS, Fraction(0), 0
    for i in range(rounds):
        x = images[images[images[x]]]
        key = (x, i & 7)
        counts[key] = counts.get(key, 0) + 1
        if i % 100 == 0:
            total += Fraction(x + 1, i + 1)
    return x + total.denominator


@dataclass
class Samples:
    """Running totals of host speed samples: their number, their seconds and
    the sum of their rates (1/seconds).  Totals rather than a list, so that
    taking a sample never grows a buffer with malloc in the middle of the
    library's work; that made the peak RSS jump by 20 MB in some runs."""

    count: int = 0
    seconds: float = 0.0
    rates: float = 0.0

    def __add__(self, other: Samples) -> Samples:
        return Samples(self.count + other.count, self.seconds + other.seconds,
                       self.rates + other.rates)

    def __sub__(self, other: Samples) -> Samples:
        return Samples(self.count - other.count, self.seconds - other.seconds,
                       self.rates - other.rates)

    @property
    def scale(self) -> float:
        """Factor from seconds on the host as sampled to seconds at the
        reference host speed: ``REF_S`` times the mean rate.  A mean of
        rates weighs each moment alike, and a sample that a pause stretched
        barely moves it."""
        return REF_S * self.rates / self.count


class HostSampler:
    """Times :func:`probe_work` every ``SAMPLE_INTERVAL`` seconds while
    :meth:`sampling` is active, from a ``SIGALRM`` handler, so the samples
    are spread evenly over an operation's time."""

    def __init__(self) -> None:
        self.total = Samples()
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe_work()
        elapsed = time.perf_counter() - t0
        self.total.count += 1
        self.total.seconds += elapsed
        self.total.rates += 1 / elapsed

    @contextmanager
    def sampling(self):
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)


# ---------------------------------------------------------------------------
# one pass

@dataclass
class Pass:
    """Timings, failures and counters of one pass over a workload."""

    traced: bool
    op_walls: dict = field(default_factory=dict)  # operation name -> seconds
    samples: Samples = field(default_factory=Samples)  # taken during the pass
    cpu: float = 0.0
    attempted: int = 0
    failed: int = 0
    counters: dict = field(default_factory=dict)
    summary: dict | None = None

    @property
    def wall(self) -> float:
        """Seconds the operations took, less the host speed samples."""
        return sum(self.op_walls.values())

    @property
    def scale(self) -> float:
        return self.samples.scale


def run_round(workloads, name, seed, digests, recorders, sampler) -> list[Pass]:
    """One pass per entry of ``recorders`` (``None`` for an untraced pass),
    each over its own freshly built input.  The passes take turns operation
    by operation, so a traced operation and its untraced twin run seconds
    apart and see the host in the same state.  ``sampler`` samples the host
    speed during the untraced operations."""
    lanes = []
    for recorder in recorders:
        lanes.append((workloads.build(name, seed, str(OUT)), Pass(traced=recorder is not None),
                      recorder, recorder.mark() if recorder else None))
    for i in range(len(lanes[0][0])):
        for ops, result, recorder, _ in lanes:
            run_op(ops[i], result, recorder, None if recorder else sampler,
                   name, seed, digests)
    for _, result, recorder, mark in lanes:
        if recorder:
            result.summary = recorder.summary(mark)
    return [result for _, result, _, _ in lanes]


def run_op(op, result: Pass, recorder, sampler, name, seed, digests) -> None:
    if recorder:
        recorder.install()
        span = recorder.open(f"op:{op.name}")
    before = replace(sampler.total) if sampler else Samples()
    try:
        with sampler.sampling() if sampler else nullcontext():
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                value, error = op.run(), None
            except Exception as exc:  # an operation that raises has failed
                value, error = None, exc
        t1, c1 = time.perf_counter(), time.process_time()
    finally:
        if recorder:
            recorder.close(span)
            recorder.uninstall()
    taken = sampler.total - before if sampler else Samples()
    result.samples += taken
    result.op_walls[op.name] = t1 - t0 - taken.seconds
    result.cpu += c1 - c0 - taken.seconds
    result.attempted += 1
    problems = [f"raised {error!r}"] if error else check(op, value, name, seed, digests)
    result.counters.update(op.counters)
    if problems:
        result.failed += 1
        print(f"FAIL {name}/{op.name}: " + "; ".join(problems[:5]), file=sys.stderr)


def check(op, value, name, seed, digests) -> list:
    try:
        problems = list(op.check(value))
        key = f"{name}/{op.name}"
        table = digests["seeded"].get(str(seed), {}) if op.seeded else digests["unseeded"]
        if key in table and op.digest(value) != table[key]:
            problems.append("output differs from the recorded digest")
    except Exception as exc:  # a check that cannot read its output fails the op
        problems = [f"check raised {exc!r}"]
    return problems


# ---------------------------------------------------------------------------
# set-up time

def setup_probe(name: str, seed: int) -> None:
    """Body of a probe process: import, build the inputs, say ready with the
    seconds spent in host speed samples and the host scale they give."""
    sampler = HostSampler()
    with sampler.sampling():
        import workloads

        workloads.build(name, seed, str(OUT))
    print(f"ready {sampler.total.seconds!r} {sampler.total.scale!r}", flush=True)


def time_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes, raw and at the reference host speed.
    The samples taken in a process are taken out of its time."""
    times, scaled = [], []
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", name, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.wait(timeout=PROBE_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        word, *numbers = line.split()
        if word != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        sampled, scale = map(float, numbers)
        times.append(elapsed - sampled)
        scaled.append((elapsed - sampled) * scale)
    return times, scaled


# ---------------------------------------------------------------------------
# per-layer metrics

def layer_metrics(p: Pass) -> dict:
    spans, counts = p.summary["spans"], p.summary["counts"]

    def calls(span):
        return spans[span]["calls"] if span in spans else 0

    def self_s(span):
        return spans[span]["self_s"] if span in spans else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    evaluate = [s for s in spans if s.startswith("marked.") and s.endswith(".evaluate")]
    bound_children = (spans["challenges.gen_norm"]["child_of"]["challenges.d_gen_bound"]
                      if "challenges.gen_norm" in spans else 0)
    library_self = sum(e["self_s"] for s, e in spans.items() if not s.startswith("op:"))
    unaccounted = sum(e["self_s"] for s, e in spans.items() if s.startswith("op:"))
    agreement = p.counters.get("challenges.bound_exact_agreement", Fraction(0))
    m = {}

    def put(metric, value, unit):
        m[metric] = {"value": value, "unit": unit}

    for span in ("words.enumerate_ball", "words.kernel_fingerprint", "perms.word_eval",
                 "marked.convergence_table", "marked.tail_defect", "irs.vershik_irs",
                 "irs.irs_of_gset", "irs.irs_distance", "challenges.gen_norm",
                 "challenges.d_gen_exact", "challenges.d_gen_bound", "challenges.is_m_good",
                 "subshift.kr_partition", "subshift.refine_kr", "subshift.ClopenSet.shift_pow",
                 "subshift.ErgodicMeasure.measure", "fullgroup.ball_elements",
                 "fullgroup.adapted_partition", "fullgroup.local_embedding",
                 "fullgroup.fullgroup_irs", "harness.main", "harness.write_csv"):
        put(f"{span}.self_s", self_s(span), "s")
    for span in ("perms.word_eval", "irs.CylinderFingerprint.from_words",
                 "challenges.gen_norm", "subshift.ClopenSet.shift_pow",
                 "fullgroup.TableElement.mul"):
        put(f"{span}.calls", calls(span), "count")
    put("marked.evaluate.calls", sum(calls(s) for s in evaluate), "count")
    put("marked.evaluate.self_s", sum(self_s(s) for s in evaluate), "s")
    for counter in ("words.enumerate_ball.words", "words.kernel_fingerprint.words_tested",
                    "perms.word_eval.letters", "perms.word_eval.point_images",
                    "irs.vershik_irs.sample_cells", "irs.irs_of_gset.points",
                    "irs.support_size", "subshift.atoms", "fullgroup.ball_elements.elements",
                    "fullgroup.fullgroup_irs.tuples"):
        put(counter, counts.get(counter, 0), "count")
    put("harness.output_bytes", counts.get("harness.output_bytes", 0), "bytes")
    put("challenges.gen_norm_per_bound",
        ratio(bound_children, calls("challenges.d_gen_bound")), "ratio")
    put("challenges.bound_exact_agreement", float(agreement), "ratio")
    put("fullgroup.embedding_pass_ratio",
        ratio(counts.get("fullgroup.local_embedding.passed", 0),
              calls("fullgroup.local_embedding")), "ratio")
    for layer in LAYERS:
        layer_self = sum(e["self_s"] for s, e in spans.items()
                         if s.startswith(layer + "."))
        put(f"{layer}.self_s", layer_self, "s")
        put(f"{layer}.share", ratio(layer_self, library_self), "ratio")
    put("trace.unaccounted_s", unaccounted, "s")
    return m


def covered_walls(p: Pass, span_cost: float) -> dict:
    """Operation name -> the summed self time of the library spans under it,
    which is the part of its traced time that they cover, less what
    recording those spans cost (``span_cost`` seconds each)."""
    return {s[len("op:"):]: e["total_s"] - e["self_s"] - e["nested"] * span_cost
            for s, e in p.summary["spans"].items() if s.startswith("op:")}


def median_metrics(per_pass: list[dict]) -> dict:
    out = {}
    for metric, entry in per_pass[0].items():
        out[metric] = {"value": statistics.median(d[metric]["value"] for d in per_pass),
                       "unit": entry["unit"]}
    return out


def unsteady_counts(per_pass: list[dict]) -> list[str]:
    """Counts that differ between traced passes over the same input."""
    return [metric for metric, entry in per_pass[0].items()
            if entry["unit"] in ("count", "bytes")
            and len({d[metric]["value"] for d in per_pass}) > 1]


# ---------------------------------------------------------------------------
# a run

def fix_malloc_thresholds() -> None:
    """Keep glibc from raising its mmap threshold after the first large free.
    Once raised, large numpy buffers come from the heap, and whether the heap
    then grows by about 20 MB depends on the order of allocations, which
    differs from run to run; stabilizer-irs's peak RSS read 100 or 120 MB.
    With both thresholds fixed, large buffers are always mapped and unmapped."""
    libc = ctypes.CDLL("libc.so.6")
    for param in (M_MMAP_THRESHOLD, M_TRIM_THRESHOLD):
        if libc.mallopt(param, MALLOC_THRESHOLD) != 1:
            raise OSError(f"mallopt({param}, {MALLOC_THRESHOLD}) failed")


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    fix_malloc_thresholds()
    t0 = time.perf_counter()
    import stabilitylab  # noqa: F401  (timed: process.import_s)
    import_s = time.perf_counter() - t0
    import workloads

    digests = {"unseeded": {}, "seeded": {}}
    if DIGESTS.is_file():
        digests = json.loads(DIGESTS.read_text())
    OUT.mkdir(exist_ok=True)
    setup, setup_scaled = ([], []) if trace else time_setup(name, seed)
    recorder = SpanRecorder() if trace else None
    span_cost = recorder.calibrate() if trace else 0.0
    sampler = HostSampler()
    passes: list[Pass] = []
    rounds = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (rounds >= (MIN_TRACE_ROUNDS if trace else MIN_PASSES)
                and elapsed + elapsed / rounds > seconds):
            break
        # A traced round alternates which of its two passes goes first.
        lanes = ([recorder, None] if rounds % 2 == 0 else [None, recorder]) if trace else [None]
        passes += run_round(workloads, name, seed, digests, lanes, sampler)
        rounds += 1

    # In a traced run, untraced[i] and traced[i] come from round i.
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    walls = [p.wall for p in untraced]
    scaled = [p.wall * p.scale for p in untraced]
    wall_norm = statistics.median(scaled)
    scale = statistics.median(p.scale for p in untraced)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if not trace:
        metrics = {
            "wall_norm_s": {"value": wall_norm, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    else:
        per_pass = [layer_metrics(p) for p in traced]
        metrics = median_metrics(per_pass)
        # Each traced pass against the untraced pass it took turns with.
        accounted = statistics.median(sum(covered_walls(t, span_cost).values()) / u.wall
                                      for t, u in zip(traced, untraced))
        metrics["process.cpu_s"] = {"value": statistics.median(p.cpu for p in untraced),
                                    "unit": "s"}
        metrics["process.import_s"] = {"value": import_s, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median((t.wall - u.wall) * u.scale
                                       for t, u in zip(traced, untraced)),
            "unit": "s"}
        metrics["trace.account_error"] = {"value": abs(accounted - 1), "unit": "ratio"}
        recorder.write(str(OUT / f"spans-{name}.jsonl.gz"))
        problems = [f"count {metric} differs between traced passes"
                    for metric in unsteady_counts(per_pass)]
        if abs(accounted - 1) > TRACE_ACCOUNT_BOUND:
            problems.append(f"spans account for {accounted:.3f} of the untraced pass time, "
                            f"outside 1 +/- {TRACE_ACCOUNT_BOUND}")
        for problem in problems:
            print(f"FAIL {name}/trace: {problem}", file=sys.stderr)
        failed += len(problems)

    print(f"workload {name} seed {seed}: {len(passes)} passes in "
          f"{time.perf_counter() - start:.1f} s, trace {int(trace)}")
    print("  pass walls   " + " ".join(f"{p.wall:.3f}{'t' if p.traced else ''}" for p in passes)
          + ("  (t: traced)" if trace else ""))
    print(f"  fail_frac    {failed / attempted:.4f}  ({failed} failed / {attempted} attempted)")
    samples = sum(p.samples.count for p in untraced)
    print(f"  host scale   {scale:.4f}  (median over passes; {samples} samples; "
          f"1 = probe_work takes {REF_S * 1e3:g} ms)")
    if not trace:
        print(f"  wall_s       {statistics.median(walls):.4f} s  "
              f"({percentile_summary(walls, 'passes')})")
        print(f"  wall_norm_s  {wall_norm:.4f} s  (at the reference host speed; "
              f"{percentile_summary(scaled, 'passes')})")
        print(f"  setup_s      {metrics['setup_s']['value']:.4f} s  (at the reference host speed; "
              f"raw {statistics.median(setup):.4f} s, "
              f"{percentile_summary(setup, 'fresh processes')})")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.2f} MB")
    else:
        for metric, entry in metrics.items():
            print(f"  {metric:45s} {entry['value']:.6g} {entry['unit']}")
        print(f"  spans account for {accounted:.4f} of the untraced pass time "
              f"{statistics.median(walls):.4f} s, after {span_cost * 1e6:.3f} us per span "
              f"for recording it")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "stabilitylab" / "__init__.py").is_file():
        print(f"error: no stabilitylab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

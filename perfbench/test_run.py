"""The runner's host-speed scaling, trace accounting and count checks.

Run from the repository root:  python3 -m pytest -q perfbench/test_run.py
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from record_digests import parse_seeds  # noqa: E402
from run import (REF_S, HostSampler, Pass, Samples, covered_walls, run_op,  # noqa: E402
                 unsteady_counts)


def samples(*seconds):
    return Samples(len(seconds), sum(seconds), sum(1 / s for s in seconds))


def test_scale_is_ref_s_times_the_mean_sample_rate():
    p = Pass(traced=False, samples=samples(REF_S, 2 * REF_S))
    assert p.scale == pytest.approx((1 + 0.5) / 2)


def test_scaled_pass_time_cancels_a_uniformly_slower_host():
    fast = Pass(traced=False, op_walls={"a": 2.0, "b": 1.0},
                samples=samples(REF_S, 1.2 * REF_S))
    slow = Pass(traced=False, op_walls={"a": 2.9, "b": 1.45},
                samples=samples(1.45 * REF_S, 1.45 * 1.2 * REF_S))
    assert slow.wall * slow.scale == pytest.approx(fast.wall * fast.scale)


def test_run_op_takes_the_samples_out_of_the_operation_time():
    class Op:
        name, counters, seeded = "spin", {}, False

        @staticmethod
        def run():
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.2:
                pass

        check = staticmethod(lambda value: [])
        digest = staticmethod(lambda value: "")

    sampler = HostSampler()
    p = Pass(traced=False)
    run_op(Op, p, None, sampler, "w", 0, {"unseeded": {}, "seeded": {}})
    assert p.samples.count >= 5 and p.samples == sampler.total
    assert p.op_walls["spin"] == pytest.approx(0.2 - p.samples.seconds, abs=0.01)
    assert p.failed == 0 and p.attempted == 1


def test_covered_walls_is_the_operation_root_minus_its_self_and_the_span_cost():
    p = Pass(traced=True, summary={"spans": {
        "op:a": {"total_s": 5.0, "self_s": 0.5, "nested": 1000},
        "op:b": {"total_s": 2.0, "self_s": 2.0, "nested": 0},
        "perms.word_eval": {"total_s": 4.5, "self_s": 4.5, "nested": 0}}})
    assert covered_walls(p, 0.0) == pytest.approx({"a": 4.5, "b": 0.0})
    assert covered_walls(p, 1e-4) == pytest.approx({"a": 4.4, "b": 0.0})


def test_unsteady_counts_names_only_counts_that_differ():
    def metrics(calls, self_s):
        return {"perms.word_eval.calls": {"value": calls, "unit": "count"},
                "harness.output_bytes": {"value": 10, "unit": "bytes"},
                "perms.word_eval.self_s": {"value": self_s, "unit": "s"}}

    assert unsteady_counts([metrics(7, 0.1), metrics(7, 0.2)]) == []
    assert unsteady_counts([metrics(7, 0.1), metrics(8, 0.1)]) == ["perms.word_eval.calls"]


def test_parse_seeds():
    assert parse_seeds("3") == [3]
    assert parse_seeds("1-4") == [1, 2, 3, 4]
    assert parse_seeds("7*3,9") == [7, 7, 7, 9]

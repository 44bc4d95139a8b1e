"""Self-time arithmetic of the span recorder, on synthetic span trees.

Run from the repository root:  python3 -m pytest -q perfbench/test_spans.py
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import ROOT, SpanRecorder, self_times  # noqa: E402


def test_nested_tree():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]
    #              -> b [5, 9]
    parents = [ROOT, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert self_times(parents, starts, ends) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    # summed self time equals the root's duration
    assert sum(self_times(parents, starts, ends)) == pytest.approx(10.0)


def test_overlapping_and_overhanging_children_are_counted_once():
    # children [1, 4] and [3, 6] overlap on [3, 4]; [8, 12] overhangs the
    # parent's end and counts only up to 10.
    parents = [ROOT, 0, 0, 0]
    starts = [0.0, 1.0, 3.0, 8.0]
    ends = [10.0, 4.0, 6.0, 12.0]
    assert self_times(parents, starts, ends)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_several_roots_and_leaves():
    parents = [ROOT, ROOT, 1]
    starts = [0.0, 2.0, 2.5]
    ends = [1.0, 3.0, 2.75]
    assert self_times(parents, starts, ends) == pytest.approx([1.0, 0.75, 0.25])


def test_recorder_wraps_every_binding_and_restores_them():
    import stabilitylab
    from stabilitylab import irs, marked, perms, words

    original = perms.word_eval
    recorder = SpanRecorder()
    recorder.install()
    try:
        assert irs.word_eval is not original
        assert marked.word_eval is not original
        assert stabilitylab.word_eval is not original
        marked.alt_oracle(3).evaluate(words.word_from_string("abAB", 2))
        root = recorder.open("op:test")
        marked.marked_nu(marked.alt_oracle(2), marked.alt_oracle(3), 2)
        recorder.close(root)
    finally:
        recorder.uninstall()
    assert perms.word_eval is original and irs.word_eval is original
    summary = recorder.summary()
    spans = summary["spans"]
    assert spans["marked.AltOracle.evaluate"]["calls"] == 1 + 2 * words.ball_size(2, 2)
    assert spans["perms.word_eval"]["child_of"]["marked.AltOracle.evaluate"] == \
        spans["perms.word_eval"]["calls"]
    assert spans["marked.marked_nu"]["child_of"]["op:test"] == 1
    assert summary["counts"]["perms.word_eval.letters"] == 4 + 2 * sum(
        len(w) for w in words.enumerate_ball(2, 2))
    assert spans["op:test"]["nested"] == len(recorder.span_name) - root - 1
    total = sum(e["self_s"] for e in spans.values())
    roots = [i for i, p in enumerate(recorder.parent) if p == ROOT]
    assert total == pytest.approx(sum(recorder.end[i] - recorder.start[i] for i in roots))


def test_calibrate_leaves_no_spans_behind():
    recorder = SpanRecorder()
    names = list(recorder.names)
    cost = recorder.calibrate()
    assert 0 <= cost < 1e-3
    assert len(recorder.span_name) == len(recorder.parent) == len(recorder.start) == 0
    assert recorder.names == names

"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of every ``stabilitylab`` module, and
a short list of public methods, from the outside: each wrapper records one
span (name, start, end, parent span) per call.  A function is replaced at
every module namespace where its name is bound, because ``from .perms import
word_eval`` makes ``irs.word_eval`` and ``marked.word_eval`` separate bindings
of the same function; patching only ``perms.word_eval`` would miss the calls
made through them.  Nothing inside the package is edited.

Spans stay in memory as parallel arrays and are written out once, at the end
of the run (:meth:`SpanRecorder.write`).  Self time is a span's duration minus
the part of its interval that its child spans cover (:func:`self_times`).
:meth:`SpanRecorder.calibrate` measures what one span costs the traced
program, so that the tracer's own time can be told apart from the library's.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

PACKAGE = "stabilitylab"
LAYERS = ("words", "perms", "marked", "irs", "challenges", "subshift",
          "fullgroup", "harness")

# Public methods that get a span of their own; span name -> (class, attribute).
METHODS = {
    "irs.CylinderFingerprint.from_words": ("irs.CylinderFingerprint", "from_words"),
    "marked.AltOracle.evaluate": ("marked.AltOracle", "evaluate"),
    "marked.AZOracle.evaluate": ("marked.AZOracle", "evaluate"),
    "marked.DiagonalOracle.evaluate": ("marked.DiagonalOracle", "evaluate"),
    "subshift.ClopenSet.shift_pow": ("subshift.ClopenSet", "shift_pow"),
    "subshift.ErgodicMeasure.measure": ("subshift.ErgodicMeasure", "measure"),
    "fullgroup.TableElement.mul": ("fullgroup.TableElement", "__mul__"),
}

ROOT = -1


def self_times(parents, starts, ends) -> list[float]:
    """Self time of every span: its duration minus the part of its interval
    covered by the union of its children's intervals.

    ``parents[i]`` is the index of span i's parent, or ``ROOT``.  Child
    intervals are clipped to the parent's interval and merged before they
    are subtracted, so overlapping or overhanging children are not counted
    twice.
    """
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p != ROOT:
            children[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(starts[c], s), min(ends[c], e))
                             for c in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((e - s) - covered)
    return out


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_hooks(orig) -> dict:
    """Counters updated after a call returns: span name -> hook(counts, args,
    kwargs, result).  ``orig`` maps span names to the unwrapped callables, so
    a hook never records spans of its own."""
    ball_size = orig["words.ball_size"]

    def enumerate_ball(c, a, k, r):
        c["words.enumerate_ball.words"] += len(r)

    def kernel_fingerprint(c, a, k, r):
        b = _bound(orig["words.kernel_fingerprint"], a, k)
        c["words.kernel_fingerprint.words_tested"] += ball_size(
            b["oracle"].rank, b["radius"])

    def word_eval(c, a, k, r):
        word = a[0] if a else k["word"]
        letters = len(word.letters)
        c["perms.word_eval.letters"] += letters
        c["perms.word_eval.point_images"] += letters * r.degree

    def support(c, r):
        c["irs.support_size"] += sum(1 for m in r.masses.values() if m > 0)

    def vershik_irs(c, a, k, r):
        b = _bound(orig["irs.vershik_irs"], a, k)
        if b["mode"] == "sampled":
            c["irs.vershik_irs.sample_cells"] += (
                b["n_samples"] * ball_size(2, b["radius"]))
        support(c, r)

    def irs_of_gset(c, a, k, r):
        c["irs.irs_of_gset.points"] += _bound(orig["irs.irs_of_gset"], a, k)["gset"].size
        support(c, r)

    def atoms(c, a, k, r):
        c["subshift.atoms"] += sum(t.height for t in r.towers)

    def ball_elements(c, a, k, r):
        c["fullgroup.ball_elements.elements"] += len(r.representatives)

    def local_embedding(c, a, k, r):
        c["fullgroup.local_embedding.passed"] += int(r.passed)

    def fullgroup_irs(c, a, k, r):
        b = _bound(orig["fullgroup.fullgroup_irs"], a, k)
        c["fullgroup.fullgroup_irs.tuples"] += (
            sum(t.height for t in b["partition"].towers) ** b["k"])
        support(c, r)

    def atomic_write(c, a, k, r):
        text = a[1] if len(a) > 1 else k["text"]
        c["harness.output_bytes"] += len(text.encode())

    return {
        "words.enumerate_ball": enumerate_ball,
        "words.kernel_fingerprint": kernel_fingerprint,
        "perms.word_eval": word_eval,
        "irs.vershik_irs": vershik_irs,
        "irs.irs_of_gset": irs_of_gset,
        "subshift.kr_partition": atoms,
        "subshift.refine_kr": atoms,
        "fullgroup.ball_elements": ball_elements,
        "fullgroup.local_embedding": local_embedding,
        "fullgroup.fullgroup_irs": fullgroup_irs,
        "harness.atomic_write": atomic_write,
    }


def _layer_modules() -> dict:
    return {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}


def public_functions() -> dict:
    """Span name -> function, for every public function a layer defines."""
    out = {}
    for layer, module in _layer_modules().items():
        for name, value in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                out[f"{layer}.{name}"] = value
    return out


class SpanRecorder:
    """Records spans for the calls into the package while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Arrays, not lists: a traced run holds millions of spans, and boxed
        # floats and ints would add about 60 bytes to each.
        self.span_name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [ROOT]
        self.counts: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        functions = public_functions()
        modules = _layer_modules()
        methods = {}
        for span, (owner, attr) in METHODS.items():
            layer, cls_name = owner.split(".")
            cls = getattr(modules[layer], cls_name)
            methods[span] = (cls, attr, cls.__dict__[attr])
        unwrapped = dict(functions)
        for span, (_, _, raw) in methods.items():
            unwrapped[span] = raw.__func__ if isinstance(raw, classmethod) else raw
        hooks = _count_hooks(unwrapped)
        self._function_wrappers = {
            id(fn): (fn, self._wrap(span, fn, hooks.get(span)))
            for span, fn in functions.items()}
        self._method_wrappers = []
        for span, (cls, attr, raw) in methods.items():
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(span, raw.__func__, hooks.get(span)))
            else:
                wrapped = self._wrap(span, raw, hooks.get(span))
            self._method_wrappers.append((cls, attr, wrapped))

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name, fn, hook):
        nid = self._name_id(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        """Bind the wrappers wherever the package binds the originals."""
        if self._patches:
            raise RuntimeError("recorder already installed")
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._function_wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])
        for cls, attr, wrapped in self._method_wrappers:
            self._patches.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def calibrate(self) -> float:
        """Seconds that one span adds to the traced program: the fastest of
        5 timings of 20,000 wrapped calls, each making one wrapped nested
        call, less the same calls unwrapped, per span.  The spans it records
        are dropped again."""
        calls, repeats = 20_000, 5
        def leaf(x):
            return x

        def outer(x):
            return inner(x)

        names, first = len(self.names), len(self.span_name)
        timings = {}
        for wrapped in (False, True):
            inner = self._wrap("calibrate.leaf", leaf, None) if wrapped else leaf
            top = self._wrap("calibrate.outer", outer, None) if wrapped else outer
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                for i in range(calls):
                    top(i)
                best = min(best, time.perf_counter() - t0)
            timings[wrapped] = best
        for column in (self.span_name, self.parent, self.start, self.end):
            del column[first:]
        for name in self.names[names:]:
            del self._name_ids[name]
        del self.names[names:]
        return max(timings[True] - timings[False], 0.0) / (2 * calls)

    # -- spans opened by the benchmark itself -----------------------------------

    def open(self, name: str) -> int:
        """Open a span for a benchmark operation; calls made until
        :meth:`close` become its children."""
        idx = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    # -- output -------------------------------------------------------------------

    def mark(self) -> tuple[int, dict]:
        """Position to summarize from: span count and a copy of the counters."""
        return len(self.span_name), dict(self.counts)

    def summary(self, since: tuple[int, dict] = (0, {})) -> dict:
        """Per span name: calls, total and self seconds, the number of spans
        nested under its calls, and the names of the parents, over the spans
        recorded after ``since`` (a later span whose parent came before it
        counts as a root); plus the counter increments since then."""
        first, counts_before = since
        parents = [p - first if p >= first else ROOT for p in self.parent[first:]]
        starts, ends = self.start[first:], self.end[first:]
        selfs = self_times(parents, starts, ends)
        nested = [0] * len(parents)
        for j in range(len(parents) - 1, -1, -1):  # a child comes after its parent
            if parents[j] != ROOT:
                nested[parents[j]] += nested[j] + 1
        by_name: dict[str, dict] = {}
        for j, nid in enumerate(self.span_name[first:]):
            entry = by_name.setdefault(self.names[nid], {
                "calls": 0, "total_s": 0.0, "self_s": 0.0, "nested": 0,
                "child_of": defaultdict(int)})
            entry["calls"] += 1
            entry["total_s"] += ends[j] - starts[j]
            entry["self_s"] += selfs[j]
            entry["nested"] += nested[j]
            p = parents[j]
            entry["child_of"][self.names[self.span_name[first + p]] if p != ROOT else ""] += 1
        counts = {k: v - counts_before.get(k, 0) for k, v in self.counts.items()}
        return {"spans": by_name, "counts": counts}

    def write(self, path: str) -> None:
        """Write gzipped JSON lines: the span names, then one
        ``[name id, parent, start, end]`` array per span, then the counters."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for nid, p, s, e in zip(self.span_name, self.parent, self.start, self.end):
                fh.write(f"[{nid},{p},{s:.9f},{e:.9f}]\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")

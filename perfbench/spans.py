"""Span recorder for the traced run.

``install`` rebinds every public module-level function of every ``ttw``
module, in the namespace of every ``ttw`` module that holds it, to a
wrapper that records a span: function name, start, end, parent span and
the id of the benchmark case that was running.  Calls across modules and
within a module therefore both become spans.  Methods of the value
classes (``FinPoset.join``, ``MonoidalCategory.compose`` and the like)
are not wrapped; their time counts toward whichever span called them.
Nothing under ``src/`` changes: the wrapping is done from here and
undone by ``uninstall``.

Spans stay in memory as flat lists and are summarised, or written out,
after the run.  The summary also checks the spans against the timed case
windows of the pass: every span lies inside its parent, or for a root
span inside the window of its case, so the root spans of a case never
add up to more than the case's timed sample.  The rest of the sample is
benchmark-side time.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

# span fields: name index, start, end, parent span index (-1 for a root),
# case index
NAME, START, END, PARENT, CASE = range(5)


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.cases: list[str] = []
        self.windows: list[tuple[float, float]] = []
        self.case = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- case bookkeeping -------------------------------------------------

    def begin_case(self, cid: str) -> None:
        self.case = len(self.cases)
        self.cases.append(cid)

    def end_case(self, start: float, end: float) -> None:
        """Close the running case; ``start`` and ``end`` bound its timed
        sample."""
        self.windows.append((start, end))
        self.case = -1

    def reset(self) -> None:
        self.spans = []
        self.calls = Counter()
        self.cases = []
        self.windows = []
        self.case = -1
        self._stack = []

    # -- wrapping ---------------------------------------------------------

    def _open(self, name_idx: int) -> list:
        span = [name_idx, 0.0, 0.0,
                self._stack[-1] if self._stack else -1, self.case]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        name_idx = len(self.names)
        self.names.append(name)
        rec = self

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's work between
            # items is not charged to the generator
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                rec.calls[name] += 1
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        span = rec._open(name_idx)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            rec._close(span)
                        yield item
                finally:
                    gen.close()
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec.calls[name] += 1
            span = rec._open(name_idx)
            try:
                return fn(*args, **kwargs)
            finally:
                rec._close(span)
        return traced

    def install(self) -> None:
        """Wrap every public function defined in a ttw module."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if (key == "ttw" or key.startswith("ttw.")) and m is not None]
        wrapped: dict[int, object] = {}
        for module in modules:
            for attr, value in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                owner = getattr(value, "__module__", "") or ""
                if not owner.startswith("ttw.") or \
                        value.__name__.startswith("_"):
                    continue
                if id(value) not in wrapped:
                    layer = owner.split(".")[-1]
                    wrapped[id(value)] = self._wrap(
                        value, f"{layer}.{value.__name__}")
                self._saved.append((module, attr, value))
                setattr(module, attr, wrapped[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved = []

    # -- reporting --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def accounting(self) -> dict:
        """Check that the spans nest within each other and within the
        case windows, and split the timed case time into time under root
        spans and benchmark-side time."""
        misplaced = outside = overfull = 0
        roots = [0.0] * len(self.windows)
        for s in self.spans:
            case = s[CASE]
            if case < 0:
                outside += 1
                continue
            if s[PARENT] < 0:
                lo, hi = self.windows[case]
                roots[case] += s[END] - s[START]
            else:
                parent = self.spans[s[PARENT]]
                lo, hi = parent[START], parent[END]
                if parent[CASE] != case:
                    misplaced += 1
            if not lo <= s[START] <= s[END] <= hi:
                misplaced += 1
        for (lo, hi), covered in zip(self.windows, roots):
            if covered > hi - lo:
                overfull += 1
        case_s = sum(hi - lo for lo, hi in self.windows)
        return {"case_s": case_s, "root_s": sum(roots),
                "bench_side_s": case_s - sum(roots), "spans": len(self.spans),
                "spans_outside_cases": outside, "misplaced_spans": misplaced,
                "overfull_cases": overfull,
                "ok": not (outside or misplaced or overfull)}

    def report(self) -> dict:
        """Self time and calls per layer and per function, and the span
        accounting of the pass."""
        own = self.self_times()
        by_fn: Counter = Counter()
        for s, t in zip(self.spans, own):
            by_fn[self.names[s[NAME]]] += t
        by_layer: Counter = Counter()
        calls_layer: Counter = Counter()
        for name, t in by_fn.items():
            by_layer[name.split(".")[0]] += t
        for name, n in self.calls.items():
            calls_layer[name.split(".")[0]] += n
        return {"fn_self_s": dict(by_fn), "fn_calls": dict(self.calls),
                "layer_self_s": dict(by_layer), "layer_calls": dict(calls_layer),
                "min_self_s": min(own, default=0.0),
                "accounting": self.accounting()}

    def write(self, path: str) -> None:
        """The spans of the last traced pass as gzipped JSON."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "case"],
                       "names": self.names, "cases": self.cases,
                       "windows": self.windows, "spans": self.spans}, handle,
                      separators=(",", ":"))

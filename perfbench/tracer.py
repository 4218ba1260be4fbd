"""In-memory span recorder for the benchmark's traced run.

A span is (name, start, end, parent, step): ``parent`` is the index of the
enclosing span (or -1) and ``step`` the training-step id the span belongs to
(or -1 outside the step loop). Counts (bytes written, tape nodes, Newton
iterations) are recorded at the same boundaries. Both are kept in memory and
written out once, at the end of the run. A layer's self time is its duration
minus the time its direct child spans cover.

``NULL_TRACER`` has the same interface and records nothing, so the untimed
and timed paths run the same code.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, step]
        self.counts: dict[str, list] = {}
        self._stack: list[int] = []
        self.step = -1

    def count(self, name: str, value) -> None:
        self.counts.setdefault(name, []).append(value)

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter(), 0.0, parent, self.step]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Self time of every span, in seconds, in span order."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def summary(self) -> dict:
        """Per span name: call count, total and self seconds."""
        table: dict[str, dict] = {}
        for (name, start, end, _, _), own in zip(self.spans, self.self_times()):
            row = table.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
        return table

    def write(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["self_times"] = self.summary()
        doc["counts"] = self.counts
        doc["spans"] = [
            {"name": n, "start": s, "end": e, "parent": p, "step": st} for n, s, e, p, st in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


class _NullTracer:
    enabled = False
    step = -1

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, value) -> None:
        pass


NULL_TRACER = _NullTracer()

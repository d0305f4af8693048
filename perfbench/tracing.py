"""In-memory spans around the benchmark's own calls into tribell's modules.

A span records a name, start and end (``time.perf_counter`` seconds), the
index of the span that was open when it started, and an item id. Spans
stay in memory until ``write`` is called at the end of a traced run.
Self time is a span's duration minus the durations of its children;
the benchmark is single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, item]
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, item=None):
        parent = self._open[-1] if self._open else None
        record = [name, None, None, parent, item]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _, _ in self.spans if span_name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def summary(self) -> dict:
        """Per span name: count, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = table[name]
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return dict(table)

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "item")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(keys, span)) for span in self.spans], handle)
            handle.write("\n")


class NullTracer:
    """Same interface, records nothing: the untraced twin of a traced pass."""

    _NULL = contextlib.nullcontext()

    def span(self, name: str, item=None):
        return self._NULL

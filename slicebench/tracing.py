"""In-memory spans around the benchmark's calls into slicestar.

A span is [name, start_ns, end_ns, parent, task].  Spans are appended in
start order on one thread, so a span's children are the spans recorded
while it was open.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

from slicestar import SliceFunction


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.task = -1

    def _parent(self) -> int:
        return self._open[-1] if self._open else -1

    def leaf(self, name: str, t0: int, t1: int) -> None:
        """Record a span whose times the caller measured itself."""
        self.spans.append([name, t0, t1, self._parent(), self.task])

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._parent(), self.task])
        self._open.append(sid)
        try:
            yield
        finally:
            self.spans[sid][2] = time.perf_counter_ns()
            self._open.pop()

    def has(self, name: str) -> bool:
        return any(s[0] == name for s in self.spans)

    def durations_us(self, name: str) -> list[float]:
        return [(s[2] - s[1]) / 1e3 for s in self.spans if s[0] == name]

    def summary(self) -> list[dict]:
        """Per span name: count, total and self time in ms."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        rows = defaultdict(lambda: [0, 0, 0])
        for sid, s in enumerate(self.spans):
            row = rows[s[0]]
            row[0] += 1
            row[1] += s[2] - s[1]
            row[2] += s[2] - s[1] - child[sid]
        return [{"span": name, "count": c, "total_ms": tot / 1e6, "self_ms": own / 1e6}
                for name, (c, tot, own) in sorted(rows.items())]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "task"],
                       "spans": self.spans}, fh)


class CallCounter:
    """Counts calls into a wrapped slice function and calls at a repeated point."""

    def __init__(self):
        self.calls = 0
        self.repeats = 0

    def wrap(self, f: SliceFunction, repeats: bool = False) -> SliceFunction:
        """The same function, counted; ``repeats`` also tracks the points seen."""
        stem = f.stem_at
        if not repeats:
            def counted(z):
                self.calls += 1
                return stem(z)
            return SliceFunction(counted, f.domain)

        seen = set()

        def watched(z):
            self.calls += 1
            if z in seen:
                self.repeats += 1
            else:
                seen.add(z)
            return stem(z)

        return SliceFunction(watched, f.domain)

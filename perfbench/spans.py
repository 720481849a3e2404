"""In-memory span recorder for the traced benchmark run.

A span has a name, a start, an end, a parent and the rank it ran on
(0 outside a virtual process).  Spans nest through a stack, so the
recorder assumes one thread, which is how the benchmark runs the
program (``threads = 1``).  Nothing is written until the run ends.
"""

from __future__ import annotations

import csv
import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ranks: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def open(self, name: str, rank: int = 0) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.starts.append(self.clock())
        self.ends.append(float("nan"))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ranks.append(rank)
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = self.clock()
        top = self._stack.pop()
        if top != sid:
            raise RuntimeError(f"span {self.names[sid]!r} closed out of order")

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` inside a span; ``on_result(result, args, kwargs)`` runs
        after the span closes and may record counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return wrapper

    def self_times(self) -> list[float]:
        """Per span: its duration minus its children's durations."""
        out = [end - start for start, end in zip(self.starts, self.ends)]
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[sid] - self.starts[sid]
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "start", "end", "parent", "rank"])
            for sid in range(len(self.names)):
                w.writerow([sid, self.names[sid], repr(self.starts[sid]),
                            repr(self.ends[sid]), self.parents[sid],
                            self.ranks[sid]])

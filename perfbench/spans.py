"""Spans recorded around the benchmark's calls into the library.

A span is (id, parent, name, start_ns, end_ns); its layer is the part of the
name before the first dot, which is the library module the call enters.
Spans live in memory and are written out once, when the run ends. With
tracing off, ``span`` hands back one shared no-op context, so untraced
operations pay one method call per call site.
"""

from __future__ import annotations

import contextlib
import time
from array import array

from epithresh import GraphOracle

LAYERS = ("graph", "generators", "spectral", "estimators", "walker", "service", "sir", "harness")

_NULL = contextlib.nullcontext()


class Tracer:
    """Collects nested spans; ``enabled=False`` makes every span a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [id, parent, name, start_ns, end_ns]
        self._stack: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    @contextlib.contextmanager
    def _span(self, name: str):
        record = [len(self.spans), self._stack[-1] if self._stack else -1, name, time.perf_counter_ns(), 0]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        finally:
            self._stack.pop()
            record[4] = time.perf_counter_ns()

    def add_children(self, parent: int, name: str, starts: array, ends: array) -> None:
        """Attach spans timed elsewhere (per-query latencies) to a finished span."""
        base = len(self.spans)
        self.spans.extend([base + i, parent, name, s, e] for i, (s, e) in enumerate(zip(starts, ends)))


def duration_s(spans: list[list], name: str) -> float:
    """Total seconds of the spans with this name."""
    return sum(s[4] - s[3] for s in spans if s[2] == name) / 1e9


def self_seconds(spans: list[list], root: int) -> dict[str, float]:
    """Per-layer self time under one root span: duration minus child time.

    Children of one span run one after another, so the time they cover is
    the sum of their durations. The root's own layer is not a library layer
    and is left out.
    """
    children: dict[int, list[list]] = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)
    totals = dict.fromkeys(LAYERS, 0.0)
    todo = list(children.get(root, []))
    while todo:
        s = todo.pop()
        kids = children.get(s[0], [])
        todo.extend(kids)
        layer = s[2].split(".", 1)[0]
        if layer in totals:
            covered = sum(k[4] - k[3] for k in kids)
            totals[layer] += (s[4] - s[3] - covered) / 1e9
    return totals


class TimedOracle(GraphOracle):
    """Delegating oracle that records the start and end of every query.

    Used only in traced operations, so the untraced remote walk runs
    against the bare oracle and carries no wrapper cost.
    """

    def __init__(self, inner: GraphOracle):
        self._inner = inner
        self.starts = array("q")
        self.ends = array("q")

    def node_count(self) -> int:
        return self._inner.node_count()

    def degree(self, v: int) -> int:
        t0 = time.perf_counter_ns()
        d = self._inner.degree(v)
        self.ends.append(time.perf_counter_ns())
        self.starts.append(t0)
        return d

    def neighbor(self, v: int, k: int) -> int:
        t0 = time.perf_counter_ns()
        u = self._inner.neighbor(v, k)
        self.ends.append(time.perf_counter_ns())
        self.starts.append(t0)
        return u

    @property
    def total_queries(self) -> int:
        return self._inner.total_queries

    @property
    def distinct_nodes_seen(self) -> int:
        return self._inner.distinct_nodes_seen

    def reset_counters(self) -> None:
        self._inner.reset_counters()

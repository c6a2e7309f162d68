"""Spans recorded around the benchmark's own calls into qgamble.

Nothing inside the package is patched.  A span covers one call, or one
batch of calls to the same layer, made by a workload operation; it holds
its name, start, end, parent span, operation id and counters.  Spans stay
in memory and are written out once, after the measured loop.

`NullTracer` is what the untraced runs use: `span()` hands back one shared
do-nothing context manager, so end-to-end figures carry only that call's
cost.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from pathlib import Path

_now = time.perf_counter


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def add(self, **counts) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    enabled = False

    def span(self, name: str, calls: int = 1, tag: str = "") -> _NullSpan:
        return _NULL_SPAN

    def begin_op(self) -> None:
        pass


class _PeakSpan:
    """Runs its block under tracemalloc and records (peak bytes, rounds drawn)."""

    def __init__(self, sink: list):
        self.sink = sink
        self.rounds = 0

    def __enter__(self):
        tracemalloc.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        if exc_type is None:
            self.sink.append((peak, self.rounds))
        return False

    def add(self, rounds_drawn: int = 0, **counts) -> None:
        self.rounds += rounds_drawn


class PeakMemoryTracer(NullTracer):
    """Untraced, except that spans named `name` run under tracemalloc."""

    def __init__(self, name: str):
        self.name = name
        self.peaks: list[tuple[int, int]] = []

    def span(self, name: str, calls: int = 1, tag: str = ""):
        return _PeakSpan(self.peaks) if name == self.name else _NULL_SPAN


class Span:
    __slots__ = (
        "tracer", "name", "tag", "start", "end", "parent", "op", "counts",
        "attributed", "failed",
    )

    def __init__(self, tracer: "Tracer", name: str, calls: int, tag: str):
        self.tracer = tracer
        self.name = name
        self.tag = tag
        self.counts = {"calls": calls}
        # Time spent in another layer inside this span that the benchmark
        # measured without a span of its own (per-round strategy calls made
        # by the engine, the transcript hook); it is not this span's self time.
        self.attributed: dict[str, float] = {}
        self.failed = False
        self.start = self.end = 0.0
        self.parent = -1
        self.op = tracer.op_id

    def __enter__(self):
        tr = self.tracer
        self.parent = tr.stack[-1] if tr.stack else -1
        tr.stack.append(len(tr.spans))
        tr.spans.append(self)
        self.start = _now()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.end = _now()
        self.tracer.stack.pop()
        self.failed = exc_type is not None
        return False

    def add(self, **counts) -> None:
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def attribute(self, layer: str, seconds: float) -> None:
        self.attributed[layer] = self.attributed.get(layer, 0.0) + seconds


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op_id = -1

    def span(self, name: str, calls: int = 1, tag: str = "") -> Span:
        return Span(self, name, calls, tag)

    def begin_op(self) -> None:
        """Spans opened from now on belong to a new operation."""
        self.op_id += 1

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy and self seconds, failures, summed counters.

        Self time is a span's duration minus the time its child spans and
        its attributed intervals cover.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.end - s.start
        totals: dict[str, dict[str, float]] = {}

        def slot(name):
            return totals.setdefault(
                name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failures": 0}
            )

        for i, s in enumerate(self.spans):
            dur = s.end - s.start
            t = slot(s.name)
            t["busy_s"] += dur
            t["self_s"] += dur - covered[i] - sum(s.attributed.values())
            t["failures"] += int(s.failed)
            for key, value in s.counts.items():
                t[key] = t.get(key, 0) + value
            for layer, seconds in s.attributed.items():
                a = slot(layer)
                a["busy_s"] += seconds
                a["self_s"] += seconds
        return totals

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "tag": s.tag, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "counts": s.counts,
                    "attributed": s.attributed, "failed": s.failed,
                }) + "\n")

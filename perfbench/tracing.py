"""Spans around the calls into each layer, recorded from outside the program.

``Tracer.install`` replaces the layer functions in the modules that call
them (and three ``SparkTPA`` methods) with wrappers that record a span: name,
parent, phase, start, end, and Spark counter snapshots before and after.
Nothing in ``src/`` changes; ``uninstall`` puts the originals back. Spans
stay in memory until ``dump`` writes them out. Durations leave out the time
the snapshots of nested spans took; that cost shows only in the traced run's
end-to-end figures, where it is the tracing overhead.

Derived intervals (see README.md for which end-to-end metric each moves):
- a superstep is the interval between two consecutive ``l1_norm`` checks
  inside one ``cpi_spark`` call (propagate + eager checkpoint);
- the window sum runs from the start of ``sum_vectors`` inside ``cpi_spark``
  to the end of that ``cpi_spark`` call (union + aggregate + checkpoint);
- the merge runs from the end of ``SparkTPA.family`` to the end of
  ``SparkTPA.query`` (α-scale + stranger sum + checkpoint).
"""
from __future__ import annotations

import functools
import json
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import repro.core.cpi as cpi_mod
import repro.core.tpa as tpa_mod
from counters import Snapshot, SparkCounters


@dataclass
class Span:
    name: str
    id: int
    parent: int | None
    phase: str
    open: float = 0.0  # before the first snapshot
    start: float = 0.0
    end: float = 0.0
    close: float = 0.0  # after the second snapshot
    before: Snapshot | None = None
    after: Snapshot | None = None
    size: int | None = None  # parts summed, or rows delivered
    children: list["Span"] = field(default_factory=list, repr=False)

    @property
    def snapshot_s(self) -> float:
        """Time spent taking counter snapshots in this span and below it."""
        return self.start - self.open + self.close - self.end + sum(c.snapshot_s for c in self.children)

    @property
    def seconds(self) -> float:
        return self.between(self.start, self.end)

    def between(self, a: float, b: float) -> float:
        """Length of [a, b] less the snapshots of child spans inside it."""
        return b - a - sum(c.snapshot_s for c in self.children if a <= c.open and c.close <= b)


def _parts(args, out) -> int:
    return len(args[0])


def _rows(args, out) -> int:
    return int(np.count_nonzero(out))


# (owner, attribute, size function): the layer functions where their callers look them up.
WRAPPED = [
    (cpi_mod, "l1_norm", None),
    (cpi_mod, "sum_vectors", _parts),
    (tpa_mod, "cpi_spark", None),
    (tpa_mod, "sum_vectors", _parts),
    (tpa_mod, "normalize_edges", None),
    (tpa_mod, "vector_to_numpy", _rows),
    (tpa_mod.SparkTPA, "family", None),
    (tpa_mod.SparkTPA, "query", None),
    (tpa_mod.SparkTPA, "preprocess", None),
]


class Tracer:
    def __init__(self, counters: SparkCounters) -> None:
        self.counters = counters
        self.phase = "setup"
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, size in WRAPPED:
            fn = getattr(owner, attr)
            setattr(owner, attr, self._traced(fn, f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}", size))
            self._originals.append((owner, attr, fn))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)

    def _traced(self, fn, name: str, size):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, len(self.spans), parent and parent.id, self.phase)
            self.spans.append(span)
            if parent:
                parent.children.append(span)
            span.open = time.perf_counter()
            span.before = self.counters.snapshot()
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                span.after = self.counters.snapshot()
                span.close = time.perf_counter()
            if size:
                span.size = size(args, out)
            return out

        return traced

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {
                "name": s.name, "id": s.id, "parent": s.parent, "phase": s.phase,
                "open": s.open, "start": s.start, "end": s.end, "close": s.close, "size": s.size,
                "before": asdict(s.before), "after": asdict(s.after),
            }
            for s in self.spans
        ]
        path.write_text(json.dumps(rows, indent=1))


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: list[Span], main_phase: str) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans. CPI metrics come from the
    ``cpi_spark`` calls of ``main_phase`` (the workload's timed operation);
    the others from every span of their kind after the warm-up."""
    def named(name, phase=None):
        return [s for s in spans if s.name == name and phase in (None, s.phase)]

    runs = named("tpa.cpi_spark", main_phase)
    steps, sums = [], []
    for run in runs:
        checks = [c for c in run.children if c.name == "cpi.l1_norm"]
        steps += [(run.between(a.close, b.open), b.before - a.after) for a, b in zip(checks, checks[1:])]
        sums += [(x, run) for x in run.children if x.name == "cpi.sum_vectors"]
    checks = [c for run in runs for c in run.children if c.name == "cpi.l1_norm"]
    queries = named("SparkTPA.query")
    merges = [q.between(c.close, q.end) for q in queries for c in q.children if c.name == "SparkTPA.family"]
    normalize = named("tpa.normalize_edges", "setup")
    densify = named("tpa.vector_to_numpy")
    s, count, mb = "s", "count", "MB"
    return {
        "edges.normalize_s": (_median(x.seconds for x in normalize), s),
        "edges.normalize_jobs": (_median((x.after - x.before).jobs for x in normalize), count),
        "edges.densify_s": (_median(x.seconds for x in densify), s),
        "edges.densify_rows": (_median(x.size for x in densify), count),
        "cpi.supersteps": (_median(sum(c.name == "cpi.l1_norm" for c in r.children) - 1 for r in runs), count),
        "cpi.superstep_s": (_median(t for t, _ in steps), s),
        "cpi.superstep_jobs": (_median(d.jobs for _, d in steps), count),
        "cpi.superstep_tasks": (_median(d.tasks for _, d in steps), count),
        "cpi.superstep_shuffle_mb": (_median(d.shuffle_bytes / 1e6 for _, d in steps), mb),
        "cpi.l1_check_s": (_median(c.seconds for c in checks), s),
        "cpi.l1_check_jobs": (_median((c.after - c.before).jobs for c in checks), count),
        "cpi.window_sum_s": (_median(run.between(x.open, run.end) for x, run in sums), s),
        "cpi.window_parts": (_median(x.size for x, _ in sums), count),
        "tpa.family_s": (_median(x.seconds for x in named("SparkTPA.family")), s),
        "tpa.merge_s": (_median(merges), s),
    }

"""Spans around the engine's public entry points, kept in memory by the benchmark.

A traced run wraps the public call of each layer (table below) for the
duration of alternate slices of the run, records one span per call, and
writes the spans out when the run ends.  The engine's own ``db.tracer`` is
neither used nor extended.  A span's self time is its duration minus the
time its child spans cover; what no layer span covers inside an operation is
reported as a labelled remainder.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import repro.query
from repro.engine.database import Database, Table
from repro.exec.executor import PhysicalExecutor
from repro.exec.planner import PhysicalPlan
from repro.optimizer.planner import Planner
from repro.stats.catalog import StatisticsCatalog
from repro.storage.durable import DurabilityManager

#: span name -> (owner, attribute) of the wrapped public call
TRACED_CALLS: Dict[str, Tuple[object, str]] = {
    "db.query": (Database, "query"),
    "db.execute": (Database, "execute"),
    "query.parse": (repro.query, "parse_query"),
    "optimizer.rewrite": (Planner, "optimize"),
    "exec.plan": (PhysicalExecutor, "plan"),
    "exec.execute": (PhysicalPlan, "execute"),
    "engine.insert": (Table, "insert"),
    "engine.snapshot": (Table, "snapshot"),
    "stats.analyze": (StatisticsCatalog, "analyze"),
    "storage.append": (DurabilityManager, "log_mutation"),
    "storage.commit": (DurabilityManager, "commit"),
    "storage.checkpoint": (DurabilityManager, "checkpoint"),
}

#: one recorded span: operation, name, start, end, parent span id (-1: none)
Span = Tuple[int, str, float, float, int]


class SpanRecorder:
    """Collects spans while installed; :meth:`self_times` folds them per name."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._originals: Dict[str, Callable] = {}
        #: the operation the next spans belong to (-1 during set-up)
        self.operation = -1
        #: index of the first span of the measured loop (set-up spans precede it)
        self.loop_start = 0
        #: rewrites reported by the traced ``Planner.optimize`` calls
        self.rewrites = 0

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        for name, (owner, attribute) in TRACED_CALLS.items():
            original = getattr(owner, attribute)
            self._originals[name] = original
            setattr(owner, attribute, self._wrap(name, original))

    def uninstall(self) -> None:
        for name, original in self._originals.items():
            owner, attribute = TRACED_CALLS[name]
            setattr(owner, attribute, original)
        self._originals.clear()

    def _wrap(self, name: str, original: Callable) -> Callable:
        recorder = self
        planning = name == "exec.plan"
        rewriting = name == "optimizer.rewrite"

        def traced(*args, **kwargs):
            span_id = recorder._open()
            label = name
            started = perf_counter()
            try:
                if planning:
                    hits = args[0].cache_hits
                result = original(*args, **kwargs)
                if planning:
                    label = "exec.plan_hit" if args[0].cache_hits > hits else "exec.plan_miss"
                elif rewriting:
                    recorder.rewrites += len(result[1])
                return result
            finally:
                recorder._close(span_id, label, started)
        return traced

    def _open(self) -> int:
        span_id = len(self.spans)
        # placeholder keeps span ids in call order, so parents precede children
        self.spans.append((self.operation, "", 0.0, 0.0,
                           self._stack[-1] if self._stack else -1))
        self._stack.append(span_id)
        return span_id

    def _close(self, span_id: int, name: str, started: float) -> None:
        ended = perf_counter()
        self._stack.pop()
        operation, _, _, _, parent = self.spans[span_id]
        self.spans[span_id] = (operation, name, started, ended, parent)

    def root(self, name: str):
        """A span opened by the benchmark itself around one operation."""
        return _RootSpan(self, name)

    # -- analysis ----------------------------------------------------------------

    def self_times(self, clock, start: int = 0) -> Dict[str, List[float]]:
        """Calibrated self time (ref-s) of every span from ``start`` on, by name."""
        spans = self.spans[start:]
        durations = [clock.interval(started, ended)[1]
                     for _op, _name, started, ended, _parent in spans]
        covered = [0.0] * len(spans)
        for offset, (_op, _name, _started, _ended, parent) in enumerate(spans):
            if parent >= start:
                covered[parent - start] += durations[offset]
        grouped: Dict[str, List[float]] = defaultdict(list)
        for offset, (_op, name, _started, _ended, _parent) in enumerate(spans):
            grouped[name].append(durations[offset] - covered[offset])
        return grouped

    def durations(self, name: str, clock) -> List[float]:
        """Calibrated total durations (ref-s) of the spans called ``name``."""
        return [clock.interval(started, ended)[1]
                for _op, span_name, started, ended, _parent in self.spans
                if span_name == name]

    def write(self, path: str) -> None:
        """One JSON line per span: operation, name, start and end (raw s), parent."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class _RootSpan:
    def __init__(self, recorder: SpanRecorder, name: str):
        self._recorder = recorder
        self._name = name
        self._span_id: Optional[int] = None
        self._started = 0.0

    def __enter__(self):
        self._span_id = self._recorder._open()
        self._started = perf_counter()
        return self

    def __exit__(self, *exc_info):
        self._recorder._close(self._span_id, self._name, self._started)
        return False

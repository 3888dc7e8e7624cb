"""One benchmark run: repeated set-up, the measured closed loop, the reopen.

One client runs the workload's fixed operation sequence in this process, each
operation sent when the previous one returned (a closed loop).  The reference
kernel runs between slices of ``slice_ops`` operations and between set-up
steps, and from a timer inside the reopen (see ``calibration``); every
interval is reported in reference units.  Raw wall-clock values are kept
beside the calibrated ones in the run record.

With ``trace`` on, set-up runs once with every layer span recorded, and the
measured loop records spans in even slices only; odd slices run untraced, so
the ratio of the two gives the tracing overhead on the same operation mix.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
import statistics
import tempfile
from collections import defaultdict
from time import perf_counter
from typing import Dict, List

from repro.algebra import EvaluationResult

from perfbench.calibration import Clock
from perfbench.tracing import SpanRecorder
from perfbench.workloads import WORKLOADS, timed_reopen

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3


class SetupTimer:
    """Times set-up step by step, with a kernel run between steps."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.steps = []

    def step(self, action, *args, **kwargs):
        self.clock.tick()
        started = perf_counter()
        value = action(*args, **kwargs)
        self.steps.append((started, perf_counter()))
        return value

    def finish(self) -> None:
        self.clock.tick()

    def seconds(self):
        """(raw, reference) seconds of all steps."""
        pairs = [self.clock.interval(started, ended) for started, ended in self.steps]
        return sum(raw for raw, _ in pairs), sum(ref for _, ref in pairs)


def percentile(ordered: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def _counters(database) -> Dict[str, int]:
    registry = database.metrics_registry.snapshot()
    cache = database.physical_executor.cache_info()
    values = {"plan_hits": cache["hits"], "plan_misses": cache["misses"],
              "feedback_version": database.feedback_version,
              "statistics_version": database.statistics_version}
    for name in ("wal.bytes", "wal.commits", "wal.fsyncs", "checkpoint.count"):
        values[name] = registry.get(name, 0)
    return values


class QueryWork:
    """Work counters summed over the query results of the measured loop."""

    def __init__(self):
        self.queries = 0
        self.scanned = 0
        self.returned = 0
        self.join_pairs = 0
        self.peak_bytes = 0

    def add(self, result: EvaluationResult) -> None:
        self.queries += 1
        self.scanned += result.stats.tuples_scanned
        self.returned += len(result.tuples)
        self.join_pairs += result.stats.join_pairs_considered
        for operator in result.context.operator_stats:
            self.peak_bytes = max(self.peak_bytes, operator.peak_bytes)


class Sample:
    """One measured operation."""

    __slots__ = ("kind", "raw", "ref", "traced")

    def __init__(self, kind: str, raw: float, ref: float, traced: bool):
        self.kind = kind
        self.raw = raw
        self.ref = ref
        self.traced = traced


def run(name: str, seed: int, seconds: int, trace: bool, work_root: str):
    """Run one workload; returns (result object, run record)."""
    workload = WORKLOADS[name](seed, seconds)
    os.makedirs(work_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        return _run(workload, seed, seconds, trace, scratch, work_root)
    finally:
        gc.collect()
        shutil.rmtree(scratch, ignore_errors=True)


def _run(workload, seed: int, seconds: int, trace: bool, scratch: str, work_root: str):
    clock = Clock()
    recorder = SpanRecorder() if trace else None
    setups = []
    database = None
    for repeat in range(1 if trace else SETUP_REPEATS):
        if database is not None:
            database.close()
            database = None
            gc.collect()
        directory = os.path.join(scratch, "db{}".format(repeat))
        os.makedirs(directory)
        timer = SetupTimer(clock)
        if recorder is not None:
            recorder.install()
        try:
            database = workload.build(timer, directory)
        finally:
            if recorder is not None:
                recorder.uninstall()
        timer.finish()
        setups.append(timer)

    workload.prepare(database)
    gc.collect()
    before = _counters(database)
    spans = []            # (started, ended, kind, traced) per operation
    failures = []
    work = QueryWork()
    operations = workload.operations
    if recorder is not None:
        recorder.loop_start = len(recorder.spans)
    for number, start in enumerate(range(0, len(operations), workload.slice_ops)):
        clock.tick()
        traced = recorder is not None and number % 2 == 0
        if traced:
            recorder.install()
        for position in range(start, min(len(operations), start + workload.slice_ops)):
            operation = operations[position]
            started = perf_counter()
            try:
                if traced:
                    recorder.operation = position
                    with recorder.root("op"):
                        outcome = workload.perform(database, operation)
                else:
                    outcome = workload.perform(database, operation)
            except Exception as exc:  # counted as a failed operation, run continues
                outcome = exc
            spans.append((started, perf_counter(), operation[0], traced))
            if isinstance(outcome, Exception):
                failures.append("op {}: {!r}".format(position, outcome))
                continue
            try:
                ok = workload.check(database, operation, outcome)
            except Exception as exc:  # a malformed answer is a wrong answer
                ok, outcome = False, exc
            if not ok:
                failures.append("op {}: wrong answer {!r}".format(position, outcome)[:300])
            if isinstance(outcome, EvaluationResult):
                work.add(outcome)
        if traced:
            recorder.uninstall()
    clock.tick()
    # the last result holds the database through its execution context
    outcome = None
    after = _counters(database)
    delta = {key: after[key] - before[key] for key in before}
    samples = [Sample(kind, *clock.interval(started, ended), traced)
               for started, ended, kind, traced in spans]

    tables = workload.persist(database, directory)
    database = None
    gc.collect()
    reopen = timed_reopen(clock, directory, tables)
    if not reopen.verified:
        failures.append("reopened database differs from the accepted rows")

    attempted = len(operations) + 1
    result = {"correct": not failures, "attempted": attempted,
              "failed": min(len(failures), attempted), "metrics": {}}
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "operations": len(operations),
              "failures": failures[:10],
              "kernel_median_ms": clock.median_kernel_ms(),
              "kernel_runs": len(clock.kernel_s),
              "counters": delta, "rejected_rows": workload.rejected,
              "records_replayed": reopen.records_replayed,
              "stored_bytes": reopen.stored_bytes, "user_bytes": reopen.user_bytes}
    if trace:
        metrics = _layer_metrics(workload, clock, recorder, samples, delta, work,
                                 reopen, record)
        traces = os.path.join(work_root, "traces")
        os.makedirs(traces, exist_ok=True)
        recorder.write(os.path.join(traces, "{}-seed{}.jsonl".format(workload.name, seed)))
    else:
        metrics = _end_to_end(samples, setups, reopen, record)
    result["metrics"] = metrics
    return result, record


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def _end_to_end(samples: List[Sample], setups, reopen, record) -> Dict[str, dict]:
    calibrated = sorted(sample.ref for sample in samples)
    raw = sorted(sample.raw for sample in samples)
    kinds = defaultdict(int)
    for sample in samples:
        kinds[sample.kind] += 1
    setup_s = [timer.seconds() for timer in setups]
    metrics = {
        "setup_s": _metric(statistics.median(ref for _raw, ref in setup_s), "s"),
        "throughput_ops_s": _metric(len(calibrated) / sum(calibrated), "1/s"),
        "latency_p50_ms": _metric(percentile(calibrated, 0.50) * 1e3, "ms"),
        "latency_p90_ms": _metric(percentile(calibrated, 0.90) * 1e3, "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "recovery_s": _metric(reopen.calibrated_s, "s"),
        "bytes_stored_per_user_byte": _metric(reopen.stored_bytes / reopen.user_bytes, "ratio"),
    }
    record["samples"] = {"operations": len(calibrated), "by_kind": dict(kinds),
                         "beyond_p99": len(calibrated) - math.ceil(0.99 * len(calibrated)),
                         "setups": len(setups)}
    # Not an end-to-end metric: on a 2-core VM its quartile spread over ten
    # ingest seeds was 0.45, more than any bound the benchmark may set.
    record["latency_p99_ms"] = percentile(calibrated, 0.99) * 1e3
    record["raw"] = {
        "setup_s": statistics.median(raw_s for raw_s, _ref in setup_s),
        "setup_s_each": [raw_s for raw_s, _ref in setup_s],
        "setup_s_calibrated_each": [ref for _raw, ref in setup_s],
        "throughput_ops_s": len(raw) / sum(raw),
        "latency_p50_ms": percentile(raw, 0.50) * 1e3,
        "latency_p90_ms": percentile(raw, 0.90) * 1e3,
        "latency_p99_ms": percentile(raw, 0.99) * 1e3,
        "recovery_s": reopen.raw_s,
    }
    return metrics


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _overhead_ratio(samples: List[Sample]) -> float:
    """Traced over untraced median latency, each kind weighted by its share.

    Medians, because a rare spike (a checkpoint) lands in one half only.
    """
    by_kind = defaultdict(lambda: ([], []))
    for sample in samples:
        by_kind[sample.kind][0 if sample.traced else 1].append(sample.ref)
    traced_total = untraced_total = 0.0
    for traced, untraced in by_kind.values():
        if traced and untraced:
            weight = len(traced) + len(untraced)
            traced_total += weight * statistics.median(traced)
            untraced_total += weight * statistics.median(untraced)
    return traced_total / untraced_total if untraced_total else 1.0


def _layer_metrics(workload, clock: Clock, recorder: SpanRecorder, samples: List[Sample],
                   delta, work: QueryWork, reopen, record) -> Dict[str, dict]:
    self_s = recorder.self_times(clock)
    traced_ops = sum(1 for sample in samples if sample.traced)

    def mean_us(name: str) -> float:
        return _mean(self_s.get(name, ())) * 1e6

    lookups = delta["plan_hits"] + delta["plan_misses"]
    rewrites = len(self_s.get("optimizer.rewrite", ()))
    accepted = workload.accepted_bytes()
    remainder = sum(self_s.get("op", ())) + sum(self_s.get("db.query", ()))
    metrics = {
        "query.parse_us": _metric(mean_us("query.parse"), "us"),
        "optimizer.rewrite_us": _metric(mean_us("optimizer.rewrite"), "us"),
        "optimizer.rewrites_per_query": _metric(
            recorder.rewrites / rewrites if rewrites else 0.0, "count"),
        "exec.plan_hit_us": _metric(mean_us("exec.plan_hit"), "us"),
        "exec.plan_miss_us": _metric(mean_us("exec.plan_miss"), "us"),
        "exec.plan_cache_hit_ratio": _metric(
            delta["plan_hits"] / lookups if lookups else 0.0, "ratio"),
        "exec.execute_us": _metric(mean_us("exec.execute"), "us"),
        "exec.rows_examined_per_row_returned": _metric(
            work.scanned / work.returned if work.returned else 0.0, "ratio"),
        "exec.join_pairs_per_query": _metric(
            work.join_pairs / work.queries if work.queries else 0.0, "count"),
        "exec.peak_bytes": _metric(work.peak_bytes, "bytes"),
        "obs.fold_in_us": _metric(mean_us("db.execute"), "us"),
        "obs.feedback_records": _metric(delta["feedback_version"], "count"),
        "engine.insert_us_per_row": _metric(mean_us("engine.insert"), "us"),
        "engine.snapshot_us": _metric(mean_us("engine.snapshot"), "us"),
        "engine.rejected_rows": _metric(workload.rejected, "count"),
        "stats.analyze_s": _metric(_mean(recorder.durations("stats.analyze", clock)), "s"),
        "stats.version_bumps": _metric(delta["statistics_version"], "count"),
        "storage.append_us": _metric(mean_us("storage.append"), "us"),
        "storage.commit_us": _metric(mean_us("storage.commit"), "us"),
        "storage.fsyncs_per_commit": _metric(
            delta["wal.fsyncs"] / delta["wal.commits"] if delta["wal.commits"] else 0.0, "ratio"),
        "storage.wal_bytes_per_user_byte": _metric(
            delta["wal.bytes"] / accepted if accepted else 0.0, "ratio"),
        "storage.checkpoints": _metric(delta["checkpoint.count"], "count"),
        "storage.checkpoint_op_ms": _metric(
            _mean(recorder.durations("storage.checkpoint", clock)) * 1e3, "ms"),
        "storage.recovery_records_replayed": _metric(reopen.records_replayed, "count"),
        "bench.calibration_ms": _metric(clock.median_kernel_ms(), "ms"),
        "bench.trace_overhead_ratio": _metric(_overhead_ratio(samples), "ratio"),
        "bench.remainder_us": _metric(remainder / traced_ops * 1e6 if traced_ops else 0.0, "us"),
    }
    # Where the time of one traced operation went: self time per span name,
    # summed over the traced slices of the loop and divided by the traced
    # operations; the sum is the traced mean latency.
    loop = recorder.self_times(clock, start=recorder.loop_start)
    record["attribution_us_per_op"] = {
        name: sum(values) / traced_ops * 1e6 if traced_ops else 0.0
        for name, values in sorted(loop.items())}
    record["attributed_us_per_op"] = sum(record["attribution_us_per_op"].values())
    record["traced_mean_us"] = _mean(s.ref for s in samples if s.traced) * 1e6
    record["untraced_mean_us"] = _mean(s.ref for s in samples if not s.traced) * 1e6
    record["traced_operations"] = traced_ops
    return metrics

"""Cross-process telemetry: a worker's record rides back with its result.

Under the multiprocess backend the driver submits each task through
:func:`observed_call` whenever telemetry is active
(:func:`telemetry_active`).  The wrapper runs the task under a fresh,
worker-local :class:`~repro.obs.trace.Tracer` and
:class:`~repro.obs.metrics.MetricsRegistry` in an *empty*
:class:`contextvars.Context`, so state inherited across ``fork`` can
neither leak in nor double-count, and returns the result with one
record: worker pid, busy seconds, task count, span aggregates and metric
snapshot.  The driver folds the record (:func:`fold_spill_record`) when
it accepts the result, so a failed, retried or lost attempt folds nothing.
"""

from __future__ import annotations

import contextvars
import os
import time

from repro.obs.metrics import MetricsRegistry, active_registries, metrics_run
from repro.obs.trace import Tracer, active_tracers, trace_run


def telemetry_active() -> bool:
    """Whether any tracer or metrics registry is ambient in this context."""
    return bool(active_tracers() or active_registries())


def _observed_call_inner(function, args):
    tracer = Tracer()
    registry = MetricsRegistry()
    started = time.perf_counter()
    with trace_run(tracer), metrics_run(registry):
        result = function(*args)
    record = {
        "pid": os.getpid(),
        "busy_s": time.perf_counter() - started,
        "tasks": 1,
        "spans": {path: stats.as_dict()
                  for path, stats in tracer.spans.items()},
        "metrics": registry.snapshot(),
    }
    return result, record


def observed_call(function, *args):
    """``(function(*args), record)``, run under worker-local telemetry."""
    return contextvars.Context().run(_observed_call_inner, function, args)


def fold_spill_record(record: dict) -> None:
    """Fold one worker record into every ambient tracer and registry."""
    for tracer in active_tracers():
        tracer.merge_spill(record)
    metrics = record.get("metrics")
    if metrics:
        for registry in active_registries():
            registry.merge_snapshot(metrics)

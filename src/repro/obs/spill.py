"""Cross-process telemetry: per-worker JSONL spill files, driver merge.

Phases recorded inside multiprocess workers used to vanish — the
``--timings`` footer of a ``--backend multiprocess`` run showed only the
driver's scheduling-side wait.  This module closes the gap without any
extra IPC machinery:

* The driver wraps each submitted task in :func:`spilled_call` whenever
  telemetry is active (a tracer or metrics registry is ambient — see
  :func:`telemetry_active`).  The wrapper runs the task under a fresh,
  worker-local :class:`~repro.obs.trace.Tracer` and
  :class:`~repro.obs.metrics.MetricsRegistry` in an *empty*
  :class:`contextvars.Context`, so state inherited across ``fork`` can
  neither leak in nor double-count.
* After the task body returns, the wrapper appends one JSON line —
  worker pid, busy seconds, span aggregates, metric snapshot — to
  ``<spill_dir>/worker-<pid>.jsonl``.  The line is written with a single
  :func:`os.write` on an ``O_APPEND`` descriptor, so concurrent readers
  never observe a torn record.
* At batch end the driver calls :func:`drain_spill_dir`, which parses
  every complete line past the previously consumed byte offset and
  folds it into the ambient tracers/registries
  (:meth:`Tracer.merge_spill` / :meth:`MetricsRegistry.merge_snapshot`).
  Offsets — not deletion — make draining safe to run while later tasks
  are still appending (a pool recovery drains mid-batch): anything
  unconsumed is picked up by the next drain.

The spill directory is owned by the backend instance (created lazily,
removed on ``close()``), mirroring the planner's trace spill.
"""

from __future__ import annotations

import contextvars
import glob
import json
import os
import time
from typing import Dict

from repro.obs.metrics import MetricsRegistry, active_registries, metrics_run
from repro.obs.trace import Tracer, active_tracers, trace_run

#: Spill file name pattern: one JSONL file per worker process.
SPILL_GLOB = "worker-*.jsonl"


def telemetry_active() -> bool:
    """Whether any tracer or metrics registry is ambient in this context."""
    return bool(active_tracers() or active_registries())


def _spill_record(tracer: Tracer, registry: MetricsRegistry,
                  busy_s: float) -> dict:
    return {
        "pid": os.getpid(),
        "busy_s": busy_s,
        "tasks": 1,
        "spans": {path: stats.as_dict()
                  for path, stats in tracer.spans.items()},
        "metrics": registry.snapshot(),
    }


def _spilled_call_inner(spill_dir: str, function, args):
    tracer = Tracer()
    registry = MetricsRegistry()
    started = time.perf_counter()
    with trace_run(tracer), metrics_run(registry):
        result = function(*args)
    busy = time.perf_counter() - started
    line = json.dumps(_spill_record(tracer, registry, busy),
                      separators=(",", ":")) + "\n"
    path = os.path.join(spill_dir, f"worker-{os.getpid()}.jsonl")
    try:
        descriptor = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            # One write syscall per record: appends of whole lines are
            # never interleaved or observed torn by the draining driver.
            os.write(descriptor, line.encode("utf-8"))
        finally:
            os.close(descriptor)
    except OSError:
        # Telemetry is advisory; a failed spill must never fail the task.
        pass
    return result


def spilled_call(spill_dir: str, function, *args):
    """Run ``function(*args)`` under worker-local telemetry, spill, return.

    Executed in an empty :class:`contextvars.Context` so tracers
    inherited from the driver across ``fork`` do not also record (their
    copies never travel back and would only add overhead).
    """
    return contextvars.Context().run(_spilled_call_inner, spill_dir,
                                     function, args)


def fold_spill_record(record: dict) -> None:
    """Fold one worker record into every ambient tracer and registry."""
    for tracer in active_tracers():
        tracer.merge_spill(record)
    metrics = record.get("metrics")
    if metrics:
        for registry in active_registries():
            registry.merge_snapshot(metrics)


def drain_spill_dir(spill_dir: str, offsets: Dict[str, int]) -> int:
    """Merge every complete, unconsumed spill line; return records folded.

    ``offsets`` maps spill file path to the byte offset already
    consumed; the caller keeps it across drains.  Files are never
    deleted here (workers may still append) — the owning backend
    removes the directory on ``close()``.
    """
    folded = 0
    for path in sorted(glob.glob(os.path.join(spill_dir, SPILL_GLOB))):
        start = offsets.get(path, 0)
        try:
            with open(path, "rb") as handle:
                handle.seek(start)
                data = handle.read()
        except OSError:
            continue
        end = data.rfind(b"\n")
        if end < 0:
            continue
        chunk = data[:end + 1]
        offsets[path] = start + len(chunk)
        for line in chunk.splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue
            fold_spill_record(record)
            folded += 1
    return folded

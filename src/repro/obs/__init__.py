"""``repro.obs``: zero-dependency runtime observability.

Four pieces, layered bottom-up:

* :mod:`repro.obs.trace` — hierarchical span tracing with ambient
  context-local activation (:func:`span`, :func:`trace_run`,
  :class:`Tracer`), plus the per-phase breakdown behind ``--timings``
  (:func:`collect_phases`, :class:`PhaseTimes`, :data:`PHASES`).
* :mod:`repro.obs.metrics` — counters/gauges/histograms with the same
  ambient activation (:func:`metric_count`, :func:`metrics_run`,
  :class:`MetricsRegistry`).
* :mod:`repro.obs.spill` — cross-process aggregation: a multiprocess
  worker returns its span/metric record with each task's result, and
  the driver folds it when it accepts that result, so worker compute is
  attributed instead of silently dropped.
* :mod:`repro.obs.manifest` — :func:`telemetry_run` sessions snapshot
  everything into a run-manifest JSONL record appended to the telemetry
  directory of the runtime settings (``$REPRO_TELEMETRY_DIR`` or
  ``--telemetry-dir``).

The ``repro-stats`` console script (:mod:`repro.obs.stats_cli`)
summarises a telemetry directory and inspects cache inventories.
"""

from repro.obs.manifest import (
    MANIFEST_FILE,
    MANIFEST_SCHEMA,
    TelemetryHandle,
    append_manifest,
    load_manifests,
    resolve_telemetry_dir,
    telemetry_run,
)
from repro.obs.metrics import (
    MetricsRegistry,
    active_registries,
    metric_count,
    metric_gauge,
    metric_observe,
    metrics_run,
    record_counter_deltas,
)
from repro.obs.spill import fold_spill_record, observed_call, telemetry_active
from repro.obs.trace import Tracer, active_tracers, span, trace_run

__all__ = [
    "MANIFEST_FILE",
    "MANIFEST_SCHEMA",
    "MetricsRegistry",
    "TelemetryHandle",
    "Tracer",
    "active_registries",
    "active_tracers",
    "append_manifest",
    "fold_spill_record",
    "load_manifests",
    "metric_count",
    "metric_gauge",
    "metric_observe",
    "metrics_run",
    "observed_call",
    "record_counter_deltas",
    "resolve_telemetry_dir",
    "span",
    "telemetry_active",
    "telemetry_run",
    "trace_run",
]

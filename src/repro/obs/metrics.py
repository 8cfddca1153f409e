"""Counters, gauges and histograms with ambient (context-local) activation.

The runtime's layers report *what happened* — jobs simulated, cache
hits and misses, planner groups formed, traces interned, bytes written
— through module-level helpers (:func:`metric_count`,
:func:`metric_gauge`, :func:`metric_observe`) that are no-ops unless a
:class:`MetricsRegistry` is active in the current context
(:func:`metrics_run`).  Registries stack exactly like tracers
(:mod:`repro.obs.trace`): every active registry observes every metric,
so a telemetry session and a test-local registry compose.

Multiprocess workers run their tasks under a registry of their own and
return its snapshot with each result (:mod:`repro.obs.spill`); the
driver merges those snapshots into its active registries, so
cross-process counts land in the same run manifest as driver-side ones.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, Optional, Tuple

_REGISTRIES: ContextVar[Tuple["MetricsRegistry", ...]] = ContextVar(
    "repro_obs_registries", default=())


def active_registries() -> Tuple["MetricsRegistry", ...]:
    """The registries observing metrics in the current context (may be empty)."""
    return _REGISTRIES.get()


class HistogramStats:
    """Streaming summary of one histogram: count, sum, min, max."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)

    def fold(self, snapshot: dict) -> None:
        """Merge another histogram's snapshot dict into this one."""
        count = int(snapshot.get("count", 0))
        if count == 0:
            return
        self.count += count
        self.total += float(snapshot.get("total", 0.0))
        for bound, pick in (("min", min), ("max", max)):
            value = snapshot.get(bound)
            if value is None:
                continue
            mine = self.minimum if bound == "min" else self.maximum
            merged = float(value) if mine is None else pick(mine, float(value))
            if bound == "min":
                self.minimum = merged
            else:
                self.maximum = merged

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {"count": self.count, "total": self.total,
                "min": self.minimum, "max": self.maximum, "mean": self.mean}


class MetricsRegistry:
    """One run's counters, gauges and histograms."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, HistogramStats] = {}

    def count(self, name: str, value=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = HistogramStats()
        histogram.observe(value)

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` (spill merge path)."""
        for name, value in snapshot.get("counters", {}).items():
            self.count(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name, value)
        for name, record in snapshot.get("histograms", {}).items():
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = HistogramStats()
            histogram.fold(record)

    def snapshot(self) -> dict:
        """JSON-ready view of every metric."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {name: histogram.as_dict()
                           for name, histogram in sorted(self.histograms.items())},
        }


@contextmanager
def metrics_run(registry: Optional[MetricsRegistry] = None
                ) -> Iterator[MetricsRegistry]:
    """Install ``registry`` (or a fresh one) for the ``with`` block."""
    registry = registry if registry is not None else MetricsRegistry()
    token = _REGISTRIES.set(_REGISTRIES.get() + (registry,))
    try:
        yield registry
    finally:
        _REGISTRIES.reset(token)


def metric_count(name: str, value=1) -> None:
    """Increment counter ``name`` in every active registry (no-op when none)."""
    for registry in _REGISTRIES.get():
        registry.count(name, value)


def metric_gauge(name: str, value) -> None:
    """Set gauge ``name`` in every active registry (no-op when none)."""
    for registry in _REGISTRIES.get():
        registry.gauge(name, value)


def metric_observe(name: str, value) -> None:
    """Add one observation to histogram ``name`` in every active registry."""
    for registry in _REGISTRIES.get():
        registry.observe(name, value)


def record_counter_deltas(prefix: str, deltas: Dict[str, int]) -> None:
    """Count every non-zero delta under ``prefix.<name>`` (cache stats)."""
    if not _REGISTRIES.get():
        return
    for name, value in deltas.items():
        if value:
            metric_count(f"{prefix}.{name}", value)

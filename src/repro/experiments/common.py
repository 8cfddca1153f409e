"""Shared machinery of the experiment drivers.

``StudyConfig`` gathers every knob of the reproduction (trace lengths and
their scale factor, clock plan, simulator tier, execution backend,
synthesis and model options) with defaults scaled so a full run
finishes in minutes on a laptop; trace lengths can be raised towards the
paper's ten-million-vector characterisation when more fidelity is wanted.

The runtime knobs (backend, workers, trace scale, result cache) default
to the active runtime settings (:mod:`repro.settings`), read once, when
a :class:`StudyConfig` is constructed.

Characterisation itself lives in :mod:`repro.runtime`: every figure
driver turns its designs into :class:`~repro.runtime.CharacterizationJob`
batches and submits them to the study's execution backend (``serial`` or
``multiprocess``).  :func:`characterize_design` is the single-job
convenience wrapper and :func:`characterize_designs` the batch entry
point; both return :class:`~repro.runtime.DesignCharacterization`
objects bundling the synthesized design, the diamond/golden outputs, the
gate-level cross-check words and the timing simulation at every clock
period of the plan.

Both CLIs share their front end here: :func:`observed_run` (one
telemetry session, plus ``--timings``) and :class:`RunFooter`.
"""

from __future__ import annotations

import atexit
import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.experiments.designs import DesignEntry, paper_design_entries
from repro.ml.model import TimingModelOptions
from repro.obs.manifest import TelemetryHandle, telemetry_run
from repro.obs.trace import collect_phases
from repro.runtime import (
    BACKENDS,
    SIMULATORS,
    Backend,
    CachingBackend,
    CharacterizationJob,
    DesignCharacterization,
    active_synth_cache,
    get_backend,
)
from repro.settings import active_settings
from repro.synth.flow import SynthesisOptions
from repro.timing.clocking import ClockPlan
from repro.utils.validation import is_positive_finite
from repro.workloads.generators import uniform_workload
from repro.workloads.traces import OperandTrace

#: Shared backend instances per (backend, workers) pair — keeps the
#: multiprocess pool (and its per-worker caches) alive between calls.
_BACKEND_INSTANCES: dict = {}

#: Shared caching wrappers per (backend, workers, cache dir) triple, so
#: hit/miss counters accumulate over a whole study run.
_CACHING_INSTANCES: dict = {}


def shutdown_backends() -> None:
    """Close every shared backend (worker pools included); idempotent.

    Registered with :mod:`atexit` so multiprocess pools never outlive
    the interpreter silently; tests call it directly to assert clean
    pool teardown and to reset the shared-instance registry.
    """
    for registry in (_CACHING_INSTANCES, _BACKEND_INSTANCES):
        instances = list(registry.values())
        registry.clear()
        for backend in instances:
            backend.close()


atexit.register(shutdown_backends)


@dataclass(frozen=True)
class StudyConfig:
    """Configuration of a full reproduction study."""

    width: int = 32
    characterization_length: int = 4000
    training_length: int = 2500
    evaluation_length: int = 2500
    seed: int = 7
    simulator: str = "event"
    backend: str = field(default_factory=lambda: active_settings().backend)
    workers: Optional[int] = field(default_factory=lambda: active_settings().workers)
    trace_scale: float = field(default_factory=lambda: active_settings().trace_scale)
    cache_dir: Optional[str] = field(default_factory=lambda: active_settings().cache_dir)
    cache_limit_mb: Optional[float] = field(
        default_factory=lambda: active_settings().cache_limit_mb)
    clock_plan: ClockPlan = field(default_factory=ClockPlan.paper)
    synthesis: SynthesisOptions = field(default_factory=SynthesisOptions)
    model: TimingModelOptions = field(default_factory=TimingModelOptions)

    def __post_init__(self) -> None:
        if self.simulator not in SIMULATORS:
            raise ConfigurationError(
                f"simulator must be one of {SIMULATORS}, got {self.simulator!r}")
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError(f"workers must be at least 1, got {self.workers}")
        if not is_positive_finite(self.trace_scale):
            raise ConfigurationError(
                f"trace_scale must be positive and finite, got {self.trace_scale}")
        if self.cache_limit_mb is not None and not is_positive_finite(self.cache_limit_mb):
            raise ConfigurationError(
                f"cache_limit_mb must be positive and finite, got {self.cache_limit_mb}")
        for name in ("characterization_length", "training_length", "evaluation_length"):
            if getattr(self, name) < 16:
                raise ConfigurationError(f"{name} must be at least 16 vectors")

    # ------------------------------------------------------------------ #
    def design_entries(self) -> List[DesignEntry]:
        """The twelve paper designs at this study's width."""
        return paper_design_entries(self.width)

    def scaled_length(self, length: int) -> int:
        """``length`` scaled by the study's ``trace_scale`` (16-vector floor)."""
        return max(int(length * self.trace_scale), 16)

    def characterization_trace(self) -> OperandTrace:
        """Random trace used for error characterisation (Figs. 9 and 10)."""
        return uniform_workload(self.scaled_length(self.characterization_length),
                                width=self.width, seed=self.seed)

    def training_trace(self) -> OperandTrace:
        """Random trace used to train the prediction model (Figs. 7 and 8)."""
        return uniform_workload(self.scaled_length(self.training_length),
                                width=self.width, seed=self.seed + 1)

    def evaluation_trace(self) -> OperandTrace:
        """Held-out random trace used to evaluate the prediction model."""
        return uniform_workload(self.scaled_length(self.evaluation_length),
                                width=self.width, seed=self.seed + 2)

    def scaled_down(self, factor: float) -> "StudyConfig":
        """A copy with every trace scaled by ``factor`` (for quick runs).

        Scaling composes into the explicit ``trace_scale`` field — the
        single mechanism behind every trace-length adjustment — so the
        applied factor stays visible in reports.
        """
        if not is_positive_finite(factor):
            raise ConfigurationError(f"factor must be positive and finite, got {factor}")
        return replace(self, trace_scale=self.trace_scale * factor)

    # ------------------------------------------------------------------ #
    # Runtime integration
    # ------------------------------------------------------------------ #
    def job(self, entry: DesignEntry, trace: OperandTrace,
            collect_structural_stats: bool = False) -> CharacterizationJob:
        """The characterization job of one design entry over one trace."""
        return CharacterizationJob(
            entry=entry,
            trace=trace,
            clock_periods=tuple(self.clock_plan.periods),
            simulator=self.simulator,
            synthesis=self.synthesis,
            width=self.width,
            collect_structural_stats=collect_structural_stats,
        )

    def runtime_backend(self) -> Backend:
        """The execution backend this study schedules its jobs on.

        Backend instances are shared per (backend, workers) pair so that
        the multiprocess worker pool — and with it the per-worker design
        caches — stays warm across successive characterisation calls.
        Every backend plans its batches itself, grouping jobs that share
        a design and clock plan; with ``cache_dir`` set the backend is
        fronted by the persistent on-disk result cache (also shared, so
        hit/miss counters span a whole study run), whose entries stay
        per-job, so warm runs execute zero jobs.
        """
        key = (self.backend, self.workers)
        backend = _BACKEND_INSTANCES.get(key)
        if backend is None:
            backend = _BACKEND_INSTANCES[key] = get_backend(self.backend,
                                                            workers=self.workers)
        if self.cache_dir is None:
            return backend
        cache_key = key + (os.path.abspath(os.path.expanduser(self.cache_dir)),
                           self.cache_limit_mb)
        caching = _CACHING_INSTANCES.get(cache_key)
        if caching is None or caching.inner is not backend:
            caching = _CACHING_INSTANCES[cache_key] = CachingBackend(
                backend, self.cache_dir, limit_mb=self.cache_limit_mb)
        return caching


def characterize_design(entry: DesignEntry, trace: OperandTrace, config: StudyConfig,
                        collect_structural_stats: bool = False) -> DesignCharacterization:
    """Characterise one design over a trace at every CPR level.

    Thin wrapper over the runtime: builds a single job and submits it to
    the study's backend (the multiprocess backend still parallelises a
    single job across its trace slices).
    """
    job = config.job(entry, trace, collect_structural_stats=collect_structural_stats)
    return config.runtime_backend().run([job])[0]


def characterize_designs(entries: Sequence[DesignEntry], trace: OperandTrace,
                         config: StudyConfig,
                         stats_for: Iterable[str] = ()) -> List[DesignCharacterization]:
    """Characterise a batch of designs over one shared trace.

    ``stats_for`` names the designs whose structural fault statistics
    should be collected (the Fig. 10 design).  Results come back in
    entry order regardless of the backend.
    """
    stats_for = set(stats_for)
    jobs = [config.job(entry, trace, collect_structural_stats=entry.name in stats_for)
            for entry in entries]
    return config.runtime_backend().run(jobs)


# --------------------------------------------------------------------- #
# The CLIs' shared front end
# --------------------------------------------------------------------- #
def observed_run(arguments, command: str, config: dict, run: Callable[[], object],
                 inline: bool = False) -> Tuple[object, str, TelemetryHandle]:
    """Run a CLI's ``run()`` in one telemetry session, timing its phases
    under ``--timings``.

    Returns the result, the ``--timings`` footer line (empty without the
    flag) and the session handle.
    """
    with telemetry_run(command=command, config=config, inline=inline) as telemetry:
        if not arguments.timings:
            return run(), "", telemetry
        with collect_phases() as phases:
            result = run()
    return result, f"\n(timings: {phases.describe()})", telemetry


class RunFooter:
    """The closing line of a CLI report: what ran, in how many seconds,
    under which knobs, and what the result and synthesis caches did.

    Shared caching backends accumulate counters across every run of the
    process, so the counters are snapshotted when the run starts and the
    footer shows the difference.
    """

    def __init__(self, backend: Backend) -> None:
        self.started = time.time()
        self.backend = backend
        self.result = (backend.stats.snapshot()
                       if isinstance(backend, CachingBackend) else None)
        self.synth_cache = active_synth_cache()
        self.synth = (self.synth_cache.stats.snapshot()
                      if self.synth_cache is not None else None)

    def line(self, done: str, jobs: Optional[int] = None, **knobs) -> str:
        """``(<done> in <seconds> s, <knob>=<value>..., <cache counters>)``;
        with a result cache, ``jobs`` adds how many of them were simulated."""
        parts = [f"{done} in {time.time() - self.started:.1f} s"]
        parts += [f"{name}={value}" for name, value in knobs.items()]
        if self.result is not None:
            stats = self.backend.stats.since(self.result)
            parts.append(f"cache={stats.describe()} [{self.backend.store.root}]")
            if jobs is not None:
                parts.append(f"simulated {stats.misses} of {jobs} jobs")
        if self.synth is not None:
            stats = self.synth_cache.stats.since(self.synth)
            parts.append(f"synth-cache={stats.describe()} [{self.synth_cache.store.root}]")
        return f"({', '.join(parts)})"

"""Sweep expansion: designs x clock points x workloads -> one job batch.

A :class:`SweepSpec` names everything a design-space sweep varies — the
design entries (typically a :class:`~repro.explore.space.DesignSpace`
selection plus the exact baseline), a clock plan whose CPR levels are the
overclocking points, and one or more workload generators — and expands
into one batch of :class:`~repro.runtime.CharacterizationJob` submitted
through :mod:`repro.runtime`.  The backend's planner groups a batch at
once (one group per design and clock plan) and fills its pool from it.
A sweep fronted by the :class:`~repro.runtime.CachingBackend` runs in
batches of :data:`CHECKPOINT_BATCH` designs instead, each stored before
the next starts, so re-running an interrupted sweep against the same
cache simulates only the jobs no finished batch stored.

Each finished job is scored into :class:`SweepPoint` records — one per
(design x workload x CPR level) — carrying the joint error statistics of
the overclocked output against the exact reference
(:func:`~repro.analysis.metrics.error_statistics`), the split
structural/timing RMS components, and the structural cost of the
synthesized netlist (:func:`~repro.analysis.metrics.structural_cost`).
The Pareto machinery in :mod:`repro.explore.pareto` consumes these
points directly.

Scoring happens where the job is simulated.  :func:`run_sweep` gives
every job a :class:`SweepScoring` reduction, so each backend call
returns the job's points (about 1 KB) rather than its per-vector words,
and the result cache stores those points.  :meth:`SweepSpec.jobs` itself
still yields word-level jobs, for callers that want characterizations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.analysis.metrics import (
    ErrorStatistics,
    StructuralCost,
    _statistics,
    _validate,
    structural_cost,
)
from repro.core.combination import root_mean_square, safe_denominator, signed_words
from repro.exceptions import ConfigurationError
from repro.experiments.designs import DesignEntry
from repro.families import family_of
from repro.obs.trace import span
from repro.runtime import (
    SIMULATORS,
    CachingBackend,
    CharacterizationJob,
    DesignCharacterization,
    backend_stack,
)
from repro.synth.flow import SynthesisOptions
from repro.timing.clocking import ClockPlan
from repro.workloads.generators import WorkloadSpec

#: Default overclocking points of a sweep: the safe period (the frontier
#: anchor where timing errors vanish) plus the paper's 5/10/15 % CPR.
SWEEP_CPR_LEVELS = (0.0, 0.05, 0.10, 0.15)


def sweep_clock_plan(cpr_levels: Sequence[float] = SWEEP_CPR_LEVELS) -> ClockPlan:
    """The paper's safe period swept over explicit CPR levels."""
    return ClockPlan(cpr_levels=tuple(cpr_levels))


@dataclass(frozen=True)
class SweepSpec:
    """One design-space sweep: entries x clock plan x workloads."""

    entries: Tuple[DesignEntry, ...]
    clock_plan: ClockPlan = field(default_factory=sweep_clock_plan)
    workloads: Tuple[WorkloadSpec, ...] = ()
    simulator: str = "fast"
    # Accepts only "auto": the fast tier picks its kernel per call.  The
    # field stays because perfbench/cases.py, which is frozen, constructs
    # SweepSpec(engine="auto"); it goes when that benchmark next changes.
    engine: str = "auto"
    synthesis: SynthesisOptions = field(default_factory=SynthesisOptions)
    width: int = 32

    def __post_init__(self) -> None:
        if not self.entries:
            raise ConfigurationError("a sweep needs at least one design entry")
        if not self.workloads:
            raise ConfigurationError("a sweep needs at least one workload spec")
        if self.simulator not in SIMULATORS:
            raise ConfigurationError(
                f"simulator must be one of {SIMULATORS}, got {self.simulator!r}")
        if self.engine != "auto":
            raise ConfigurationError(
                f"engine must be 'auto' (the fast tier picks its kernel per call), "
                f"got {self.engine!r}")
        for workload in self.workloads:
            if workload.width != self.width:
                raise ConfigurationError(
                    f"workload {workload.kind!r} is {workload.width}-bit but the "
                    f"sweep is {self.width}-bit")
        object.__setattr__(self, "entries", tuple(self.entries))
        object.__setattr__(self, "workloads", tuple(self.workloads))

    # ------------------------------------------------------------------ #
    @property
    def job_count(self) -> int:
        """Jobs the sweep expands into (designs x workloads)."""
        return len(self.entries) * len(self.workloads)

    @property
    def point_count(self) -> int:
        """Scored points the sweep yields (designs x workloads x CPR levels)."""
        return self.job_count * len(self.clock_plan.cpr_levels)

    def jobs(self) -> List[CharacterizationJob]:
        """The sweep as one flat word-level job batch, workload-major then
        entry order.

        Traces are materialised once per workload and shared by every
        design's job, so the batch carries ``len(workloads)`` operand
        arrays no matter how many designs are swept (and every job of a
        workload hits the same trace digest in the result cache).
        """
        jobs: List[CharacterizationJob] = []
        for workload in self.workloads:
            trace = workload.generate()
            for entry in self.entries:
                jobs.append(CharacterizationJob(
                    entry=entry,
                    trace=trace,
                    clock_periods=tuple(self.clock_plan.periods),
                    simulator=self.simulator,
                    synthesis=self.synthesis,
                    width=self.width,
                ))
        return jobs

    def with_entries(self, entries: Sequence[DesignEntry]) -> "SweepSpec":
        """This sweep over a different design subset, everything else shared.

        The adaptive explorer expands each of its batches through this:
        clock plan, workloads, simulator tier and synthesis options stay
        identical across rounds, so every round's jobs land in the same
        cache keyspace as an exhaustive sweep of the same space.
        """
        return replace(self, entries=tuple(entries))

    def describe(self) -> str:
        """One-line sweep summary for reports."""
        kinds = ", ".join(workload.kind for workload in self.workloads)
        return (f"{len(self.entries)} designs x {len(self.workloads)} workloads "
                f"({kinds}) x {len(self.clock_plan.cpr_levels)} clock points "
                f"= {self.job_count} jobs / {self.point_count} points")


@dataclass(frozen=True)
class SweepPoint:
    """Score of one (design x workload x CPR) point of a sweep.

    ``stats`` are the *joint* error statistics — the overclocked inexact
    output against the exact reference, the quantity an application
    ultimately experiences; ``structural_rms`` / ``timing_rms`` split
    that error into the paper's two sources.
    """

    design: str
    quadruple: Optional[Tuple[int, int, int, int]]
    workload: str
    cpr: float
    clock_period: float
    stats: ErrorStatistics
    structural_rms: float
    timing_rms: float
    cost: StructuralCost
    provably_exact: bool = False

    @property
    def is_exact(self) -> bool:
        """True for the exact-baseline design."""
        return self.quadruple is None


@dataclass
class SweepResult:
    """Every scored point of one executed sweep."""

    spec: SweepSpec
    points: List[SweepPoint]

    @property
    def designs(self) -> List[str]:
        """Design names in sweep order, each once."""
        seen: List[str] = []
        for point in self.points:
            if point.design not in seen:
                seen.append(point.design)
        return seen

    def points_for(self, design: str) -> List[SweepPoint]:
        """All points of one design, across workloads and CPR levels."""
        return [point for point in self.points if point.design == design]


def score_characterization(characterization: DesignCharacterization,
                           clock_plan: ClockPlan, width: int,
                           workload: str) -> List[SweepPoint]:
    """Score one finished job into its per-CPR sweep points."""
    with span("score"):
        return _score_characterization(characterization, clock_plan, width, workload)


@dataclass(frozen=True)
class SweepScoring:
    """A sweep job's reduction: its characterization scored into points.

    :func:`run_sweep` attaches one per workload to every job, so the
    backend scores each job in the process that simulated it (see
    :attr:`~repro.runtime.CharacterizationJob.reduction`).  It is part
    of the job's cache key.  ``score_characterization`` is looked up in
    this module at call time, so a wrapper installed on the module sees
    every call, in forked workers too.
    """

    clock_plan: ClockPlan
    width: int
    workload: str

    def __call__(self, characterization: DesignCharacterization) -> List[SweepPoint]:
        return score_characterization(characterization, self.clock_plan,
                                      self.width, self.workload)


def _score_characterization(characterization: DesignCharacterization,
                            clock_plan: ClockPlan, width: int,
                            workload: str) -> List[SweepPoint]:
    entry = characterization.entry
    family = family_of(entry)
    quadruple = family.quadruple_of(entry)
    provably_exact = family.is_provably_exact(entry)
    result_width = family.result_width(width)
    cost = structural_cost(characterization.synthesized)
    # The structural error depends on the design alone: its exact
    # (diamond) and golden words convert once, with their relative-error
    # denominator and the structural RMS.  Each clock point then converts
    # only its sampled (silver) words.
    diamond = signed_words(characterization.diamond_words[1:])
    gold = signed_words(characterization.gold_words[1:])
    _validate(diamond, gold)
    denominator = safe_denominator(diamond)
    structural_rms = root_mean_square((gold - diamond) / denominator)
    points: List[SweepPoint] = []
    for cpr, period in clock_plan.items():
        silver = signed_words(characterization.timing_trace(period).sampled_words)
        _validate(diamond, silver)
        errors = silver - diamond
        points.append(SweepPoint(
            design=characterization.name,
            quadruple=quadruple,
            workload=workload,
            cpr=cpr,
            clock_period=period,
            stats=_statistics(errors, errors / denominator, result_width),
            structural_rms=structural_rms,
            timing_rms=root_mean_square((silver - gold) / denominator),
            cost=cost,
            provably_exact=provably_exact,
        ))
    return points


#: Designs per batch of a cached sweep: the result cache stores each
#: batch before the next starts (a compromise: small enough that an
#: interruption forfeits little work, large enough that the
#: multiprocess backend still sees batches worth scheduling).
CHECKPOINT_BATCH = 16


def _design_batches(spec: SweepSpec, designs_per_batch: int) -> List[List[int]]:
    """Indices into ``spec.jobs()`` in runs of ``designs_per_batch`` designs.

    A design's job under every workload lands in the same batch, so the
    planner still sees one group per design.
    """
    designs = len(spec.entries)
    return [[workload * designs + entry
             for workload in range(len(spec.workloads))
             for entry in range(start, min(start + designs_per_batch, designs))]
            for start in range(0, designs, designs_per_batch)]


def run_sweep(spec: SweepSpec, backend="serial", workers: Optional[int] = None,
              cache_dir: Optional[str] = None,
              telemetry_dir: Optional[str] = None) -> SweepResult:
    """Expand a sweep spec and run it through the job pipeline.

    ``backend`` is a backend name or an owned :class:`Backend` instance
    (a caller-supplied instance is left open, mirroring
    :func:`~repro.runtime.run_jobs`); ``cache_dir`` fronts it with the
    persistent result cache so re-running a sweep — or growing it with
    more designs — only simulates the unseen jobs.

    Every backend plans the batch itself: the sweep's (design x clock
    plan) groups each run as one multi-trace batched evaluation,
    bit-identical to per-job execution.  Each job carries a
    :class:`SweepScoring` reduction, so it is scored where it ran and
    only its points come back (a job cut into trace slices is scored
    once its slices merge).  The stacking (and the ownership of backends
    constructed from names) is exactly :func:`~repro.runtime.run_jobs`.

    When the resolved backend is a :class:`~repro.runtime.CachingBackend`
    (an instance passed in, or any backend with ``cache_dir`` set), the
    jobs run in batches of :data:`CHECKPOINT_BATCH` designs, each design
    with all its workloads, and the cache stores every batch before the
    next starts: re-running an interrupted sweep against the same cache
    simulates only the jobs that no finished batch stored, with points
    identical to an uninterrupted run.  Any other backend gets the whole
    sweep as one batch.

    ``telemetry_dir`` (or the active settings' one) appends one run
    manifest covering the whole sweep — expansion, execution *and*
    scoring — unless an outer telemetry session (a CLI) already
    observes it (see :mod:`repro.obs.manifest`).
    """
    from repro.obs.manifest import telemetry_run
    with telemetry_run(telemetry_dir, command="run_sweep",
                       config={"sweep": spec.describe(),
                               "backend": getattr(backend, "name", str(backend)),
                               "workers": workers,
                               "cache_dir": str(cache_dir) if cache_dir else None}):
        # jobs() is workload-major: every workload's trace covers one
        # contiguous run of len(entries) jobs, all scored alike.
        scorings = [SweepScoring(spec.clock_plan, spec.width, workload.kind)
                    for workload in spec.workloads]
        jobs = [replace(job, reduction=scorings[index // len(spec.entries)])
                for index, job in enumerate(spec.jobs())]

        scored: list = [None] * len(jobs)
        with backend_stack(backend, workers, cache_dir) as resolved:
            designs_per_batch = (CHECKPOINT_BATCH if isinstance(resolved, CachingBackend)
                                 else len(spec.entries))
            for batch in _design_batches(spec, designs_per_batch):
                results = resolved.run([jobs[index] for index in batch])
                for index, job_points in zip(batch, results):
                    scored[index] = job_points
        return SweepResult(spec=spec, points=[
            point for job_points in scored for point in job_points])

"""The four canonical workloads of the benchmark.

Each case is a closed-loop batch job: one client runs it, and each run
starts after the previous one has finished and been verified.  A case
is driven in these steps:

* ``set_up(seed, scratch)`` imports nothing new, generates the operand
  traces from the seed and expands the sweep (``sweep-long-mp`` also
  fills its synthesis cache).  It is repeatable; the last call wins.
* ``prepare_checks()`` computes, once and untimed, what runs are
  checked against besides the stored digest.
* ``before_run()`` puts the process into the cold state every run starts
  from (empty memos, fresh cache directories) outside the timed region.
* ``run()`` is the timed call into ``repro``; ``check(outcome)`` verifies
  the output and is timed with it.
* ``guard(outcome, counters)`` asserts the exact state counts of a cold
  run after the timed region; a run that breaks its guard is rejected.

Inputs reach the program only as generated traces: the sweeps (and the
adaptive search's template sweep) receive a :class:`PregeneratedWorkload` whose ``generate()`` returns the trace the
benchmark made.  ``paper`` goes through ``run_all``, which derives its
traces from ``StudyConfig.seed`` the way ``repro-experiments`` does.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.experiments.common import StudyConfig, shutdown_backends
from repro.experiments.runner import run_all
from repro.explore.adaptive import AdaptiveSpec, run_adaptive
from repro.explore import pareto
from repro.explore.pareto import frontier_keys
from repro.explore.sweep import SweepSpec, run_sweep, score_characterization
from repro.families import get_family
from repro.runtime import (
    CachingBackend,
    MultiprocessBackend,
    PlannedBackend,
    SerialBackend,
    clear_design_cache,
    execute_job,
    synthesize_job,
)
from repro.runtime import backends as runtime_backends
from repro.runtime import jobs as runtime_jobs
from repro.runtime import plan as runtime_plan
from repro.runtime.synth_cache import active_synth_cache, configure_synth_cache
from repro.synth.flow import SynthesisOptions
from repro.timing import operands as timing_operands
from repro.timing import sta as timing_sta
from repro.timing.clocking import ClockPlan
from repro.workloads.generators import WorkloadSpec
from repro.workloads.traces import OperandTrace

WIDTH = 16
SWEEP_CPR = (0.0, 0.05, 0.10, 0.15)
ADAPTIVE_CPR = (0.0, 0.10)
PAPER_FIGURES = ("fig7", "fig8", "fig9", "fig10")

#: Designs per sweep re-run through the serial per-job reference path
#: (``execute_job``) at set-up; the timed run must reproduce them exactly.
SPOT_CHECKS = 3


class CheckFailed(Exception):
    """A run's output or state did not match what the benchmark expects."""


@dataclass(frozen=True)
class PregeneratedWorkload:
    """A trace made by the benchmark, handed to a sweep as its input.

    Duck-types :class:`repro.workloads.generators.WorkloadSpec`, so the
    sweep receives the generated operands and never sees the seed.
    """

    trace: OperandTrace
    kind: str = "uniform"

    @property
    def width(self) -> int:
        return self.trace.width

    @property
    def length(self) -> int:
        return self.trace.length

    def generate(self) -> OperandTrace:
        return self.trace


@dataclass
class Outcome:
    """What one run produced, in the terms the metrics are defined in."""

    digest: str
    points: int
    simulated: int
    space: int
    recall: float = 0.0
    rounds: int = 0
    frontier_designs: int = 0
    detail: dict = field(default_factory=dict)


def sha256_json(payload) -> str:
    """Digest of a JSON-ready payload; floats keep every digit (``repr``)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def point_record(point) -> dict:
    record = asdict(point)
    record["quadruple"] = list(point.quadruple) if point.quadruple else None
    return record


def points_digest(points) -> str:
    return sha256_json([point_record(point) for point in points])


def keys_payload(keys) -> List[list]:
    """Frontier keys ``{(quadruple | None, cpr)}`` as a sorted JSON list."""
    rows = [[list(quadruple) if quadruple else None, cpr] for quadruple, cpr in keys]
    return sorted(rows, key=lambda row: (row[0] is not None, row[0] or [], row[1]))


def clear_memos() -> None:
    """Empty every process-wide memo a cold run must start without."""
    clear_design_cache()
    runtime_backends._SIMULATOR_CACHE.clear()
    runtime_plan._GROUP_SIMULATORS.clear()
    runtime_plan._WORKER_TRACES.clear()
    runtime_plan._OPERAND_CACHE._entries.clear()
    timing_operands._INTERN_CACHE._entries.clear()
    timing_sta._TIMING_TABLES._entries.clear()


def memo_sizes() -> Dict[str, int]:
    return {
        "runtime.jobs design memo": len(runtime_jobs._DESIGN_CACHE),
        "runtime.backends simulator memo": len(runtime_backends._SIMULATOR_CACHE),
        "runtime.plan group simulators": len(runtime_plan._GROUP_SIMULATORS),
        "runtime.plan worker traces": len(runtime_plan._WORKER_TRACES),
        "runtime.plan operand memo": len(runtime_plan._OPERAND_CACHE._entries),
    }


def start_cold() -> None:
    clear_memos()
    shutdown_backends()
    stale = {name: size for name, size in memo_sizes().items() if size}
    if stale:
        raise CheckFailed(f"process-wide memos not empty at run start: {stale}")


def expect(label: str, actual, expected) -> None:
    if actual != expected:
        raise CheckFailed(f"{label}: expected {expected!r}, got {actual!r}")


def entry_files(root: Path, name: str) -> Dict[str, int]:
    """``{entry digest: mtime_ns}`` of every ``name`` file of a store."""
    if not root.is_dir():
        return {}
    return {path.parent.name: path.stat().st_mtime_ns
            for path in root.glob(f"*/*/{name}")}


def tree_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


class Case:
    """Shared plumbing of the four workloads."""

    name = ""
    workers = 0  # multiprocess workers; 0 = serial, in this process

    def __init__(self) -> None:
        self.seed = 0
        self.scratch = Path(".")
        self.reference: Optional[str] = None
        self.first_digest: Optional[str] = None

    def expect_digest(self, digest: str) -> None:
        """Exact match with the stored reference, else with this process's
        first run (simulation is deterministic, so runs never differ)."""
        if self.reference is not None:
            expect(f"{self.name} output digest vs stored reference", digest, self.reference)
        elif self.first_digest is not None:
            expect(f"{self.name} output digest vs first run", digest, self.first_digest)
        if self.first_digest is None:
            self.first_digest = digest

    def result_cache_bytes(self) -> int:
        return 0

    def after_run(self) -> None:
        """Untimed clean-up after a run."""


class SweepCase(Case):
    """A width-16 sweep scored at four CPR points, then Pareto-ranked."""

    def __init__(self, name: str, max_designs: Optional[int], length: int,
                 workers: int, result_cache: bool, guard_synth: Tuple[int, int]) -> None:
        super().__init__()
        self.name = name
        self.max_designs = max_designs
        self.length = length
        self.workers = workers
        self.result_cache = result_cache
        # (designs synthesized, designs loaded from the synthesis cache)
        self.guard_synth = guard_synth
        self.spec: Optional[SweepSpec] = None
        self.synth_dir: Optional[Path] = None
        self.spot: Dict[str, str] = {}
        self.runs = 0
        self.fills = 0

    # -- set-up --------------------------------------------------------- #
    def set_up(self, seed: int, scratch: Path) -> None:
        self.seed, self.scratch = seed, scratch
        family = get_family("adder")
        entries = family.design_space(WIDTH).entries(max_designs=self.max_designs)
        trace = WorkloadSpec(kind="uniform", length=self.length, width=WIDTH,
                             seed=seed).generate()
        self.spec = SweepSpec(
            entries=tuple(entries),
            clock_plan=ClockPlan(safe_period=family.safe_period(WIDTH),
                                 cpr_levels=SWEEP_CPR),
            workloads=(PregeneratedWorkload(trace),),
            simulator="fast", engine="auto", synthesis=SynthesisOptions(), width=WIDTH)
        jobs = self.spec.jobs()
        if self.workers:
            # The long-trace sweep reads designs from a warm synthesis
            # cache: fill it here, synthesizing each design only.
            self.fills += 1
            self.synth_dir = scratch / f"synth-fill-{self.fills}"
            configure_synth_cache(str(self.synth_dir))
            clear_memos()
            for job in jobs:
                synthesize_job(job)
            clear_memos()

    def prepare_checks(self) -> None:
        """Untimed: re-run a few designs through the serial per-job path."""
        jobs = self.spec.jobs()
        picks = sorted(random.Random(self.seed).sample(range(len(jobs) - 1), SPOT_CHECKS))
        picks.append(len(jobs) - 1)  # the exact baseline
        configure_synth_cache(str(self.synth_dir) if self.synth_dir else None)
        for index in picks:
            job = jobs[index]
            points = score_characterization(execute_job(job), self.spec.clock_plan,
                                            WIDTH, workload="uniform")
            self.spot[job.name] = points_digest(points)
        clear_memos()

    # -- one run -------------------------------------------------------- #
    def before_run(self) -> None:
        self.runs += 1
        start_cold()
        if self.result_cache:
            self.synth_dir = self.scratch / f"synth-{self.runs}"
            self.cache_dir = self.scratch / f"cache-{self.runs}"
            configure_synth_cache(str(self.synth_dir))
            self.backend = CachingBackend(PlannedBackend(SerialBackend()), self.cache_dir)
        else:
            configure_synth_cache(str(self.synth_dir))
            self.backend = PlannedBackend(MultiprocessBackend(workers=self.workers))
        self.synth_stats = active_synth_cache().stats.snapshot()
        self.synth_files = entry_files(self.synth_dir, "result.pkl")
        self.synth_meta = entry_files(self.synth_dir, "meta.json")

    def run(self) -> Outcome:
        try:
            result = run_sweep(self.spec, backend=self.backend)
        finally:
            self.backend.close()
        # Through the module, so the traced run's pareto wrappers see the calls.
        ranked = pareto.rank_frontier(pareto.pareto_frontier(
            pareto.aggregate_points(result.points)))
        return Outcome(digest="", points=len(result.points),
                       simulated=len(self.spec.entries), space=len(self.spec.entries),
                       frontier_designs=len({point.design for point in ranked}),
                       detail={"points": result.points, "frontier": ranked})

    def check(self, outcome: Outcome) -> None:
        points = outcome.detail.pop("points")
        ranked = outcome.detail.pop("frontier")
        expect(f"{self.name} scored points", outcome.points, self.spec.point_count)
        by_design: Dict[str, list] = {}
        for point in points:
            by_design.setdefault(point.design, []).append(point)
        for design, digest in self.spot.items():
            expect(f"{self.name} point digest of {design} vs serial per-job path",
                   points_digest(by_design.get(design, [])), digest)
        outcome.digest = sha256_json({"points": points_digest(points),
                                      "frontier": keys_payload(frontier_keys(ranked))})
        self.expect_digest(outcome.digest)

    def guard(self, outcome: Outcome, counters: Optional[dict] = None) -> None:
        synthesized, loaded = self.guard_synth
        designs = len(self.spec.entries)
        files = entry_files(self.synth_dir, "result.pkl")
        meta = entry_files(self.synth_dir, "meta.json")
        if self.result_cache:
            stats = self.backend.stats
            expect(f"{self.name} result-cache misses", stats.misses, designs)
            expect(f"{self.name} result-cache hits", stats.hits, 0)
            expect(f"{self.name} result-cache entries",
                   len(entry_files(self.cache_dir, "result.pkl")), designs)
            synth = active_synth_cache().stats.since(self.synth_stats)
            expect(f"{self.name} synthesis-cache misses", synth.misses, synthesized)
            expect(f"{self.name} synthesis-cache hits", synth.hits, loaded)
            expect(f"{self.name} designs synthesized into the cache",
                   len(files), synthesized)
        else:
            # Workers synthesize and load; this process sees neither.  Loads
            # refresh an entry's mtime, a synthesis would rewrite its meta.
            expect(f"{self.name} synthesis-cache entries", sorted(files),
                   sorted(self.synth_files))
            expect(f"{self.name} synthesis-cache metadata rewritten", meta, self.synth_meta)
            refreshed = sum(files[key] > self.synth_files[key] for key in files)
            expect(f"{self.name} designs loaded from the synthesis cache", refreshed, loaded)
        if counters is not None:
            expect(f"{self.name} traced synthesis calls", counters["synth.calls"], synthesized)
            expect(f"{self.name} traced synthesis-cache misses",
                   counters["synth_cache.misses"], synthesized)
            expect(f"{self.name} traced synthesis-cache hits",
                   counters["synth_cache.hits"], loaded)
            if self.result_cache:
                expect(f"{self.name} traced result-cache misses",
                       counters["cache.misses"], designs)

    def result_cache_bytes(self) -> int:
        return tree_bytes(self.cache_dir) if self.result_cache else 0

    def after_run(self) -> None:
        if self.result_cache:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            shutil.rmtree(self.synth_dir, ignore_errors=True)


class AdaptiveCase(Case):
    """Surrogate-directed search over the 889-design width-16 space."""

    name = "adaptive"

    def set_up(self, seed: int, scratch: Path) -> None:
        self.seed, self.scratch = seed, scratch
        family = get_family("adder")
        space = family.design_space(WIDTH)
        trace = WorkloadSpec(kind="uniform", length=128, width=WIDTH, seed=seed).generate()
        template = SweepSpec(
            entries=(family.exact_entry(WIDTH),),
            clock_plan=ClockPlan(safe_period=family.safe_period(WIDTH),
                                 cpr_levels=ADAPTIVE_CPR),
            workloads=(PregeneratedWorkload(trace),),
            simulator="fast", engine="auto", synthesis=SynthesisOptions(), width=WIDTH)
        self.spec = AdaptiveSpec(space=space, sweep=template, batch_size=12,
                                 budget_fraction=0.2, seed=seed)
        self.reference_keys: Optional[set] = None

    def exhaustive_frontier(self) -> List[list]:
        """Frontier keys of the exhaustive sweep of the whole space."""
        spec = self.spec.sweep.with_entries(self.spec.space.entries())
        result = run_sweep(spec, backend="serial")
        return keys_payload(frontier_keys(pareto.pareto_frontier(
            pareto.aggregate_points(result.points))))

    def set_reference_frontier(self, rows: List[list]) -> None:
        self.reference_keys = {(tuple(row[0]) if row[0] else None, row[1]) for row in rows}

    def prepare_checks(self) -> None:
        if self.reference_keys is None:
            raise CheckFailed("adaptive needs the exhaustive reference frontier")

    def before_run(self) -> None:
        start_cold()
        configure_synth_cache(None)

    def run(self) -> Outcome:
        result = run_adaptive(self.spec, backend="serial")
        return Outcome(digest="", points=len(result.points), simulated=result.simulated,
                       space=result.candidates, rounds=len(result.rounds),
                       frontier_designs=len({point.design for point in result.frontier}),
                       detail={"result": result})

    def check(self, outcome: Outcome) -> None:
        result = outcome.detail.pop("result")
        recovered = frontier_keys(result.frontier)
        outcome.recall = len(self.reference_keys & recovered) / len(self.reference_keys)
        selected: List[str] = []
        for point in result.points:
            if point.design not in selected:
                selected.append(point.design)
        expect("adaptive simulated designs", len(selected) - 1, result.simulated)
        if result.simulated > result.budget:
            raise CheckFailed(f"adaptive overspent: {result.simulated} > {result.budget}")
        outcome.digest = sha256_json({"selected": selected,
                                      "frontier": keys_payload(recovered)})
        self.expect_digest(outcome.digest)

    def guard(self, outcome: Outcome, counters: Optional[dict] = None) -> None:
        expect("adaptive synthesis cache", active_synth_cache(), None)
        if counters is not None:
            expect("adaptive traced synthesis calls", counters["synth.calls"],
                   outcome.simulated + 1)


class PaperCase(Case):
    """``repro-experiments`` Fig 7-10 at scale 1.0 on the fast simulator."""

    name = "paper"

    def set_up(self, seed: int, scratch: Path) -> None:
        self.seed, self.scratch = seed, scratch
        self.config = StudyConfig(simulator="fast", seed=seed, backend="serial",
                                  workers=None, trace_scale=1.0, cache_dir=None,
                                  cache_limit_mb=None)
        # run_all derives these traces from the seed again; generating
        # them here puts trace generation in the set-up time.
        self.traces = (self.config.training_trace(), self.config.evaluation_trace(),
                       self.config.characterization_trace())

    def prepare_checks(self) -> None:
        """Nothing beyond the digest: the report is checked as a whole."""

    def before_run(self) -> None:
        start_cold()
        configure_synth_cache(None)

    def run(self) -> Outcome:
        report = run_all(self.config, list(PAPER_FIGURES))
        designs = len(self.config.design_entries())
        # Scored (design x CPR) points: the Fig 7/8 prediction rows plus
        # the Fig 9 characterization rows.
        points = 2 * designs * len(self.config.clock_plan.cpr_levels)
        return Outcome(digest="", points=points, simulated=designs, space=designs,
                       detail={"report": report})

    def check(self, outcome: Outcome) -> None:
        figures, footer = outcome.detail.pop("report").rsplit("\n\n", 1)
        if not footer.startswith("(regenerated fig7, fig8, fig9, fig10 "):
            raise CheckFailed(f"paper report footer unexpected: {footer[:80]!r}")
        # The footer holds the elapsed time; the figure text is exact.
        outcome.digest = sha256_json(figures)
        self.expect_digest(outcome.digest)

    def guard(self, outcome: Outcome, counters: Optional[dict] = None) -> None:
        expect("paper synthesis cache", active_synth_cache(), None)


def make_case(name: str) -> Case:
    if name == "sweep-full":
        return SweepCase(name, max_designs=None, length=256, workers=0,
                         result_cache=True, guard_synth=(890, 0))
    if name == "sweep-long-mp":
        return SweepCase(name, max_designs=64, length=131072, workers=2,
                         result_cache=False, guard_synth=(0, 65))
    if name == "adaptive":
        return AdaptiveCase()
    if name == "paper":
        return PaperCase()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sweep-full", "sweep-long-mp", "adaptive", "paper")


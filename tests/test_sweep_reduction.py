"""Tests of job reductions: sweeps score where they simulate.

The contract under test: a job that names a reduction comes back from
every backend as its reduction's value, computed from the whole-trace
characterization — so a sweep's points equal
``score_characterization(execute_job(job), ...)`` bit for bit, whether
the sweep runs serially, on 1, 2 or 4 workers, cut into trace slices,
cached cold or warm, under a worker-killing fault plan, or resumed from
the result cache after an interruption.  The reduction rides on each
job, not in the planner's grouping key; it joins the job digest only
when set; a cached sweep's batches hold whole designs; and a reduced
cache entry is the value itself, stored in ``result.pkl``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from reference_kernels import score_per_cpr
from repro.circuit.compiled import CompiledProgram
from repro.exceptions import AnalysisError
from repro.experiments.designs import isa_entry
from repro.families import get_family
from repro.explore.space import DesignSpace
from repro.explore.sweep import (
    CHECKPOINT_BATCH,
    SweepScoring,
    SweepSpec,
    run_sweep,
    score_characterization,
    sweep_clock_plan,
)
from repro.obs.metrics import metrics_run
from repro.obs.trace import collect_phases
from repro.runtime import (
    CachingBackend,
    CharacterizationJob,
    ResultStore,
    SerialBackend,
    execute_job,
    job_digest,
    plan_groups,
)
from repro.settings import using_settings
from repro.timing.clocking import ClockPlan
from repro.workloads.generators import WorkloadSpec, uniform_workload


def sweep_spec(max_designs=2, length=96, workloads=("uniform",),
               cpr_levels=(0.0, 0.10)) -> SweepSpec:
    """A quick width-16 sweep over a few designs plus the exact baseline."""
    entries = DesignSpace(width=16).entries(max_designs=max_designs)
    specs = tuple(WorkloadSpec(kind, length, width=16, seed=31 + index)
                  for index, kind in enumerate(workloads))
    return SweepSpec(entries=tuple(entries), clock_plan=sweep_clock_plan(cpr_levels),
                     workloads=specs, width=16)


def reference_points(spec: SweepSpec) -> list:
    """Every job of ``spec`` run through ``execute_job``, then scored."""
    jobs = iter(spec.jobs())
    points = []
    for workload in spec.workloads:
        for _ in spec.entries:
            points.extend(score_characterization(
                execute_job(next(jobs)), spec.clock_plan, spec.width, workload.kind))
    return points


@dataclass(frozen=True)
class WordsSummary:
    """A test reduction: the trace length it saw and a digest of the words."""

    def __call__(self, characterization):
        digest = hashlib.sha256()
        for words in (characterization.diamond_words, characterization.gold_words,
                      characterization.netlist_words):
            digest.update(np.ascontiguousarray(words).tobytes())
        for clk in sorted(characterization.timing_traces):
            digest.update(np.ascontiguousarray(
                characterization.timing_traces[clk].sampled_words).tobytes())
        return characterization.name, characterization.trace.length, digest.hexdigest()


def summary_job(length=400, quadruple=(4, 0, 0, 2)) -> CharacterizationJob:
    return CharacterizationJob(
        entry=isa_entry(quadruple, width=16),
        trace=uniform_workload(length, width=16, seed=41),
        clock_periods=tuple(ClockPlan.paper().periods), simulator="fast", width=16,
        reduction=WordsSummary())


# --------------------------------------------------------------------- #
# The scorer: each design's words converted once, every field unchanged
# --------------------------------------------------------------------- #
def _fields(points) -> list:
    return [repr(dataclasses.asdict(point)) for point in points]


def _with_silver(characterization, change):
    """``characterization`` with ``change`` applied to every clock's
    sampled words (and its settled words, which must keep their shape)."""
    return replace(characterization, timing_traces={
        period: replace(trace, sampled_words=change(trace.sampled_words),
                        settled_words=change(trace.settled_words))
        for period, trace in characterization.timing_traces.items()})


class TestScorerMatchesOracle:
    """``score_characterization`` converts each design's exact and golden
    words once; the oracle ``reference_kernels.score_per_cpr`` combines
    and scores the raw words again at every CPR level.  Every field of
    every point must match, errors included."""

    CPR_LEVELS = (0.0, 0.05, 0.10, 0.15)

    @pytest.fixture(scope="class")
    def scored(self):
        """(characterization, clock plan, width) of the exact baseline and
        an ISA design at width 16, and of an approximate multiplier at
        width 8, each at its family's safe period and the sweep's CPRs."""
        cases = []
        for name, width in (("adder", 16), ("multiplier", 8)):
            family = get_family(name)
            plan = ClockPlan(safe_period=family.safe_period(width), cpr_levels=self.CPR_LEVELS)
            entries = [family.exact_entry(width)] if name == "adder" else []
            entries += family.design_space(width).entries(max_designs=3)[1:2]
            spec = SweepSpec(entries=tuple(entries), clock_plan=plan, width=width,
                             workloads=(WorkloadSpec("uniform", 700, width=width, seed=43),))
            cases.extend((execute_job(job), plan, width) for job in spec.jobs())
        return cases

    @staticmethod
    def _assert_matches(characterization, plan, width):
        got = score_characterization(characterization, plan, width, "uniform")
        assert _fields(got) == _fields(score_per_cpr(characterization, plan, width,
                                                     "uniform"))
        return got

    def test_exact_isa_and_multiplier_designs(self, scored):
        kinds, timing_errors = [], 0
        for characterization, plan, width in scored:
            points = self._assert_matches(characterization, plan, width)
            assert [point.cpr for point in points] == list(self.CPR_LEVELS)
            kinds.append((characterization.entry.family, points[0].is_exact))
            timing_errors += sum(point.timing_rms > 0 for point in points)
        assert kinds == [("adder", True), ("adder", False), ("multiplier", False)]
        assert timing_errors > 0  # the timing terms are exercised, not all zero

    def test_zero_diamond_words(self, scored):
        """Exact words of 0 take the denominator 1, in both scorers."""
        for characterization, plan, width in scored:
            zeroed = characterization.diamond_words.copy()
            zeroed[::3] = 0
            self._assert_matches(replace(characterization, diamond_words=zeroed),
                                 plan, width)

    @pytest.mark.parametrize("words", ["diamond", "gold", "silver"])
    def test_words_above_the_int64_range_raise(self, scored, words):
        characterization, plan, width = scored[1]

        def overflow(values):
            values = values.copy()
            values[4] = np.uint64(2**63 + 5)
            return values
        if words == "silver":
            broken = _with_silver(characterization, overflow)
        else:
            broken = replace(characterization, **{
                f"{words}_words": overflow(getattr(characterization, f"{words}_words"))})
        for scorer in (score_characterization, score_per_cpr):
            with pytest.raises(AnalysisError):
                scorer(broken, plan, width, "uniform")

    @pytest.mark.parametrize("words", ["diamond", "gold", "silver"])
    def test_unequal_word_lengths_raise(self, scored, words):
        characterization, plan, width = scored[1]
        if words == "silver":
            broken = _with_silver(characterization, lambda values: values[:-1])
        else:
            broken = replace(characterization, **{
                f"{words}_words": getattr(characterization, f"{words}_words")[:-1]})
        for scorer in (score_characterization, score_per_cpr):
            with pytest.raises(AnalysisError):
                scorer(broken, plan, width, "uniform")


# --------------------------------------------------------------------- #
# Runtime: what a reduced job returns
# --------------------------------------------------------------------- #
class TestReducedJobs:
    def test_serial_returns_the_reduction_of_the_whole_trace(self):
        job = summary_job()
        expected = job.reduction(execute_job(replace(job, reduction=None)))
        assert expected[1] == job.trace.length
        assert SerialBackend().run([job]) == [expected]

    def test_a_sliced_job_is_reduced_once_merged(self, pool_of):
        job = summary_job()
        assert len(plan_groups([job], 4)) > 1  # the pool cuts it into slices
        expected = job.reduction(execute_job(replace(job, reduction=None)))
        assert pool_of(4).run([job]) == [expected]

    def test_mixed_batch_keeps_word_level_jobs_whole(self, pool_of):
        reduced = summary_job(length=200)
        plain = replace(reduced, reduction=None)
        summary, characterization = pool_of(2).run([reduced, plain])
        assert summary == reduced.reduction(execute_job(plain))
        assert characterization.trace is plain.trace
        assert np.array_equal(characterization.gold_words, execute_job(plain).gold_words)

    def test_digest_includes_the_reduction_only_when_set(self):
        job = summary_job()
        plain = replace(job, reduction=None)
        clock_plan = sweep_clock_plan((0.0, 0.10))
        uniform = replace(plain, reduction=SweepScoring(clock_plan, 16, "uniform"))
        ramp = replace(plain, reduction=SweepScoring(clock_plan, 16, "ramp"))
        digests = {job_digest(plain), job_digest(job), job_digest(uniform),
                   job_digest(ramp)}
        assert len(digests) == 4
        assert job_digest(uniform) == job_digest(
            replace(plain, reduction=SweepScoring(clock_plan, 16, "uniform")))

    def test_sweep_spec_jobs_stay_word_level(self):
        assert all(job.reduction is None for job in sweep_spec().jobs())

    def test_multi_workload_sweep_keeps_one_group_per_design(self, monkeypatch):
        spec = sweep_spec(max_designs=3, workloads=("uniform", "ramp"))
        assert len(spec.entries) == 4
        calls = {"run_packed": 0, "run_packed_many": 0}

        def counting(name):
            original = getattr(CompiledProgram, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(CompiledProgram, name, wrapper)

        counting("run_packed")
        counting("run_packed_many")
        with metrics_run() as registry, collect_phases() as phases:
            run_sweep(spec, backend="serial")
        assert registry.counters["plan.groups"] == 4
        # One lowering and one stacked logic pass per design, both
        # workloads included.  The design memo starts empty, so no
        # simulator memoised by an earlier test can serve these designs.
        assert phases.calls["lower"] == 4
        assert calls == {"run_packed": 0, "run_packed_many": 4}


# --------------------------------------------------------------------- #
# The reduction contract: sweep points equal the reference everywhere
# --------------------------------------------------------------------- #
class TestSweepReductionContract:
    def test_serial(self):
        spec = sweep_spec()
        assert run_sweep(spec, backend="serial").points == reference_points(spec)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_multiprocess(self, pool_of, workers):
        spec = sweep_spec()
        assert run_sweep(spec, backend=pool_of(workers)).points == reference_points(spec)

    def test_sliced_sweep(self, pool_of):
        spec = sweep_spec(max_designs=1, length=400)
        groups = plan_groups(spec.jobs(), 4)
        assert any(span is not None for group in groups for _, span in group)
        assert run_sweep(spec, backend=pool_of(4)).points == reference_points(spec)

    @pytest.mark.parametrize("inner", ["serial", "multiprocess"])
    def test_cached_cold_and_warm(self, pool_of, tmp_path, inner):
        spec = sweep_spec()
        expected = reference_points(spec)
        backend = CachingBackend(SerialBackend() if inner == "serial" else pool_of(2),
                                 tmp_path / "cache")
        assert run_sweep(spec, backend=backend).points == expected
        cold = backend.stats.snapshot()
        assert run_sweep(spec, backend=backend).points == expected
        warm = backend.stats.since(cold)
        assert (warm.hits, warm.misses) == (spec.job_count, 0)

    def test_under_a_kill_worker_fault_plan(self, pool_of, tmp_path):
        spec = sweep_spec(max_designs=3)
        expected = reference_points(spec)
        plan = {"faults": [{"kind": "kill-worker", "at": 2, "times": 1}],
                "state_dir": str(tmp_path / "fault-state")}
        with using_settings(fault_plan=json.dumps(plan)):
            points = run_sweep(spec, backend=pool_of(2)).points
        assert points == expected
        assert len(list((tmp_path / "fault-state").glob("fault0-fired*"))) == 1

    def test_resumed_from_a_checkpoint_journal(self, monkeypatch, tmp_path):
        import repro.explore.sweep as sweep_module
        spec = sweep_spec()
        expected = reference_points(spec)
        monkeypatch.setattr(sweep_module, "CHECKPOINT_BATCH", 1)
        real_run = CachingBackend.run
        batches = []

        def interrupted(self, jobs):
            batches.append(len(jobs))
            if len(batches) == 2:
                raise RuntimeError("simulated interruption")
            return real_run(self, jobs)

        monkeypatch.setattr(CachingBackend, "run", interrupted)
        with pytest.raises(RuntimeError, match="simulated interruption"):
            run_sweep(spec, cache_dir=str(tmp_path))
        monkeypatch.setattr(CachingBackend, "run", real_run)

        with metrics_run() as registry:
            resumed = run_sweep(spec, cache_dir=str(tmp_path))
        assert registry.counters["cache.hits"] == 1
        assert registry.counters["jobs.simulated"] == spec.job_count - 1
        assert resumed.points == expected


# --------------------------------------------------------------------- #
# The result cache under reduced jobs
# --------------------------------------------------------------------- #
def entry_sizes(cache_dir: Path) -> dict:
    """``{design: result.pkl bytes}`` of every entry of a result cache.

    Each entry of a one-workload sweep holds one design's points.
    """
    store = ResultStore(cache_dir)
    sizes = {}
    for path in cache_dir.glob("*/*/result.pkl"):
        [design] = {point.design for point in store.load(path)}
        sizes[design] = path.stat().st_size
    return sizes


class TestCachedSweeps:
    @pytest.mark.parametrize("inner", ["serial", "multiprocess"])
    def test_cached_sweep_cold_and_warm_match_uncached(self, pool_of, tmp_path, inner):
        spec = sweep_spec(length=300)
        expected = run_sweep(spec, backend="serial").points
        backend = CachingBackend(SerialBackend() if inner == "serial" else pool_of(2),
                                 tmp_path / "cache")
        assert run_sweep(spec, backend=backend).points == expected
        cold = backend.stats.snapshot()
        assert run_sweep(spec, backend=backend).points == expected
        assert backend.stats.since(cold).misses == 0

    def test_each_trace_ships_once_per_backend(self, monkeypatch, pool_of, tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        spec = sweep_spec(max_designs=CHECKPOINT_BATCH + 1)
        assert len(spec.entries) > CHECKPOINT_BATCH  # two cached batches
        expected = run_sweep(spec, backend="serial").points

        def spills():
            return list(tmp_path.glob("repro-plan-traces-*/*"))

        pool = pool_of(2)
        backend = CachingBackend(pool, tmp_path / "cache")
        assert not spills()  # created when the first batch ships a trace
        with metrics_run() as registry:
            assert run_sweep(spec, backend=backend).points == expected
        assert registry.counters["plan.traces_interned"] == 1
        assert len(spills()) == 1
        backend.close()
        assert not spills()
        # Used again after close(), the pool spills afresh.
        with metrics_run() as registry:
            assert run_sweep(spec, backend=pool).points == expected
        assert registry.counters["plan.traces_interned"] == 1
        pool.close()
        assert not list(tmp_path.glob("repro-plan-traces-*"))

    def test_cached_batches_hold_whole_designs(self, tmp_path):
        spec = sweep_spec(max_designs=CHECKPOINT_BATCH + 1,
                          workloads=("uniform", "ramp"))
        designs = len(spec.entries)
        assert designs > CHECKPOINT_BATCH
        # The design memo starts empty, so every design is lowered here.
        with metrics_run() as registry, collect_phases() as phases:
            points = run_sweep(spec, backend=CachingBackend(
                SerialBackend(), tmp_path / "cache")).points
        assert registry.counters["cache.misses"] == spec.job_count
        assert registry.counters["plan.groups"] == designs
        assert phases.calls["lower"] == designs
        assert points == run_sweep(spec, backend="serial").points

    @pytest.mark.parametrize("how, batches", [
        ("name", [10]),
        ("instance", [10]),
        ("cache-dir", [4, 4, 2]),
        ("caching-instance", [4, 4, 2]),
    ], ids=["name", "instance", "cache-dir", "caching-instance"])
    def test_only_a_caching_backend_runs_in_batches(self, monkeypatch, tmp_path,
                                                    how, batches):
        import repro.explore.sweep as sweep_module
        monkeypatch.setattr(sweep_module, "CHECKPOINT_BATCH", 2)
        spec = sweep_spec(max_designs=4, workloads=("uniform", "ramp"))
        assert spec.job_count == 10
        real_run = SerialBackend.run
        designs_per_call = []

        def recording(self, jobs):
            designs_per_call.append(Counter(job.entry.name for job in jobs))
            return real_run(self, jobs)

        monkeypatch.setattr(SerialBackend, "run", recording)
        cache_dir = str(tmp_path / "cache")
        arguments = {
            "name": {"backend": "serial"},
            "instance": {"backend": SerialBackend()},
            "cache-dir": {"backend": "serial", "cache_dir": cache_dir},
            "caching-instance": {"backend": CachingBackend(SerialBackend(), cache_dir)},
        }[how]
        run_sweep(spec, **arguments)
        assert [sum(designs.values()) for designs in designs_per_call] == batches
        # Every call holds each of its designs under both workloads.
        for designs in designs_per_call:
            assert set(designs.values()) == {len(spec.workloads)}
        assert sum(designs_per_call, Counter()) == Counter(
            {entry.name: len(spec.workloads) for entry in spec.entries})

    def test_reduced_entries_are_stored_whole(self, tmp_path):
        spec = sweep_spec(length=300)
        cache_dir = tmp_path / "cache"
        run_sweep(spec, backend=CachingBackend(SerialBackend(), cache_dir))
        files = sorted(path.name for path in cache_dir.glob("*/*/*.pkl"))
        assert files == ["result.pkl"] * spec.job_count

    def test_every_entry_is_one_result_file(self, tmp_path):
        """A cold cached sweep leaves one ``result.pkl`` per entry and
        nothing else, in the result cache and in the synthesis cache."""
        spec = sweep_spec()
        with using_settings(synth_cache=str(tmp_path / "synth")):
            run_sweep(spec, cache_dir=str(tmp_path / "cache"))
        for store, entries in (("cache", spec.job_count), ("synth", len(spec.entries))):
            entry_dirs = list((tmp_path / store).glob("*/*"))
            assert len(entry_dirs) == entries, store
            for entry in entry_dirs:
                assert [item.name for item in entry.iterdir()] == ["result.pkl"], entry

    def test_sweep_cache_entries_hold_points_not_words(self, tmp_path):
        sizes = {}
        for length in (256, 4096):
            spec = sweep_spec(length=length, cpr_levels=(0.0, 0.05, 0.10, 0.15))
            run_sweep(spec, backend="serial", cache_dir=str(tmp_path / str(length)))
            sizes[length] = entry_sizes(tmp_path / str(length))
            assert len(sizes[length]) == len(spec.entries) == 3
        for length, by_design in sizes.items():
            assert all(size < 4096 for size in by_design.values()), (length, by_design)
        for design, size in sizes[256].items():
            assert abs(sizes[4096][design] - size) < 1024, (design, sizes)

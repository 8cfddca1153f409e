"""Tests of the execution planner: grouping, pool filling, bit-identity.

The planner's contract is that every backend's batched execution is
**bit-identical** to the ``execute_job`` reference kernel — grouped
multi-trace evaluation, one timing program per clock set, interned
traces and trace slices merged back in order included — and that a
scheduled fast-tier job costs one logic pass.
"""

from __future__ import annotations

import dataclasses
from contextlib import nullcontext

import numpy as np
import pytest

from reference_kernels import forced_kernel
from repro.circuit.compiled import CompiledProgram, PackedTimingProgram, transition_chunks
from repro.circuit.netlist import Netlist
from repro.exceptions import CompilationError
from repro.obs.metrics import metrics_run
from repro.runtime import (
    CachingBackend,
    CharacterizationJob,
    PlannedBackend,
    SerialBackend,
    execute_group,
    execute_job,
    plan_groups,
    run_jobs,
    synthesize_job,
)
from repro.experiments.designs import exact_entry, isa_entry
from repro.timing.clocking import ClockPlan
from repro.timing.fast_sim import DENSE_MAX_TRANSITIONS, FastTimingSimulator
from repro.obs.trace import collect_phases, span
from repro.workloads.generators import uniform_workload

PERIODS = tuple(ClockPlan.paper().periods)

#: A second clock plan, in descending order like PERIODS, with one clock
#: fast enough to be late.
OTHER_PERIODS = tuple(ClockPlan(cpr_levels=(0.0, 0.5)).periods)


def make_job(quadruple=(4, 0, 0, 2), trace=None, length=200, seed=11,
             simulator="fast", **kwargs):
    entry = exact_entry(16) if quadruple is None else isa_entry(quadruple, width=16)
    if trace is None:
        trace = uniform_workload(length, width=16, seed=seed)
    return CharacterizationJob(entry=entry, trace=trace, clock_periods=PERIODS,
                               simulator=simulator, width=16, **kwargs)


def sweep_batch():
    """Two designs x three ragged traces, plus an event job and a stats job."""
    traces = [uniform_workload(length, width=16, seed=seed)
              for length, seed in ((200, 1), (131, 2), (64, 3))]
    jobs = []
    for quadruple in ((4, 0, 0, 2), (8, 0, 0, 4), None):
        for trace in traces:
            jobs.append(make_job(quadruple=quadruple, trace=trace))
    jobs.append(make_job(trace=traces[2], simulator="event"))
    jobs.append(make_job(quadruple=(8, 0, 0, 4), trace=traces[0],
                         collect_structural_stats=True))
    return jobs


def assert_bit_identical(reference, candidate):
    assert reference.name == candidate.name
    assert np.array_equal(reference.diamond_words, candidate.diamond_words)
    assert np.array_equal(reference.gold_words, candidate.gold_words)
    assert np.array_equal(reference.netlist_words, candidate.netlist_words)
    assert set(reference.timing_traces) == set(candidate.timing_traces)
    for clk, timing in reference.timing_traces.items():
        other = candidate.timing_traces[clk]
        assert np.array_equal(timing.sampled_words, other.sampled_words)
        assert np.array_equal(timing.settled_words, other.settled_words)
        assert timing.output_width == other.output_width
    assert ((reference.structural_stats is None)
            == (candidate.structural_stats is None))
    if reference.structural_stats is not None:
        assert candidate.structural_stats.cycles == reference.structural_stats.cycles
        assert np.array_equal(candidate.structural_stats.position_counts,
                              reference.structural_stats.position_counts)


class CountingSerial(SerialBackend):
    """Serial backend counting the jobs that reach it."""

    def __init__(self):
        super().__init__()
        self.jobs_run = 0

    def run(self, jobs):
        jobs = list(jobs)
        self.jobs_run += len(jobs)
        return super().run(jobs)


class TestPlannedBitIdentity:
    def test_serial_matches_execute_job(self):
        jobs = sweep_batch()
        for job, got in zip(jobs, run_jobs(jobs)):
            assert_bit_identical(execute_job(job), got)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_multiprocess_matches_execute_job(self, pool_of, workers):
        jobs = sweep_batch()
        got = pool_of(workers).run(jobs)
        for job, result in zip(jobs, got):
            assert_bit_identical(execute_job(job), result)
            # the parent restores the original trace objects
            assert result.trace is job.trace

    def test_cached_identical_and_warm_zero_jobs(self, tmp_path):
        jobs = sweep_batch()
        reference = [execute_job(job) for job in jobs]
        inner = CountingSerial()
        cache = CachingBackend(inner, tmp_path)
        cold = cache.run(jobs)
        for want, got in zip(reference, cold):
            assert_bit_identical(want, got)
        assert cache.stats.misses == len(jobs)
        assert inner.jobs_run == len(jobs)  # every miss is one planned batch
        warm = cache.run(jobs)
        for want, got in zip(reference, warm):
            assert_bit_identical(want, got)
        assert inner.jobs_run == len(jobs)  # zero on warm
        assert cache.stats.hits == len(jobs)

    def test_same_design_two_clock_plans_stay_separate(self):
        trace = uniform_workload(100, width=16, seed=5)
        other = uniform_workload(90, width=16, seed=6)
        jobs = []
        for periods in (PERIODS, PERIODS[:1]):
            for tr in (trace, other):
                jobs.append(CharacterizationJob(
                    entry=isa_entry((4, 0, 0, 2), width=16), trace=tr,
                    clock_periods=periods, simulator="fast", width=16))
        assert plan_groups(jobs) == [[(0, None), (1, None)], [(2, None), (3, None)]]
        for job, got in zip(jobs, run_jobs(jobs)):
            assert_bit_identical(execute_job(job), got)


class TestPlanGroups:
    def test_groups_by_design_and_clock_plan_in_first_seen_order(self):
        jobs = sweep_batch()
        groups = plan_groups(jobs)
        assert groups == [[(0, None), (1, None), (2, None)],
                          [(3, None), (4, None), (5, None), (10, None)],
                          [(6, None), (7, None), (8, None)],
                          [(9, None)]]  # the event job: same design, other tier
        assert plan_groups(jobs) == groups  # pure: same batch, same plan

    def test_halves_groups_until_the_pool_is_full(self):
        traces = [uniform_workload(100, width=16, seed=seed) for seed in range(8)]
        jobs = [make_job(trace=trace) for trace in traces]
        groups = plan_groups(jobs, 4)
        assert [len(group) for group in groups] == [2, 2, 2, 2]
        assert sorted(index for group in groups for index, _ in group) == list(range(8))
        # Halving splits the largest group first: 6 -> 3 + 3 -> 1 + 2 + 3.
        assert [len(group) for group in plan_groups(jobs[:6], 3)] == [1, 2, 3]

    def test_cuts_single_jobs_into_word_aligned_slices(self):
        job = make_job(length=200)  # 199 transitions
        assert plan_groups([job], 1) == [[(0, None)]]
        assert plan_groups([job], 2) == [[(0, (0, 128))], [(0, (128, 199))]]
        assert plan_groups([job], 4) == [[(0, span)] for span in transition_chunks(199, 64)]
        # Two jobs on four workers: two slices each.
        other = make_job(quadruple=(8, 0, 0, 4), length=200)
        assert plan_groups([job, other], 4) == [
            [(0, (0, 128))], [(0, (128, 199))], [(1, (0, 128))], [(1, (128, 199))]]

    def test_a_trace_of_one_word_stays_whole(self):
        job = make_job(length=65)  # 64 transitions: one packed word
        assert plan_groups([job], 8) == [[(0, None)]]

    def test_empty_batch(self):
        assert plan_groups([], 4) == []


class TestScheduling:
    def test_one_long_job_on_two_workers_is_sliced_and_merged(self, pool_of):
        job = make_job(quadruple=(8, 0, 0, 4), length=300, collect_structural_stats=True)
        reference = execute_job(job)
        with metrics_run() as registry:
            [result] = pool_of(2).run([job])
        assert registry.counters["plan.groups"] == 2
        assert_bit_identical(reference, result)
        # Stats cover the full trace once: the slices' shared boundary
        # vector is not counted twice.
        assert result.structural_stats.cycles == job.trace.length

    def test_scheduled_fast_job_costs_one_logic_pass(self, monkeypatch):
        calls = {"compute_words": 0, "run_packed": 0}

        def counting(owner, name, counter):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[counter] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counting(Netlist, "compute_words", "compute_words")
        counting(CompiledProgram, "run_packed", "run_packed")
        counting(CompiledProgram, "run_packed_many", "run_packed")
        SerialBackend().run([make_job(seed=40)])  # synthesize and lower first
        calls.update(compute_words=0, run_packed=0)
        [result] = SerialBackend().run([make_job(seed=41)])
        assert calls == {"compute_words": 0, "run_packed": 1}
        # The reference kernel pays a second pass for its golden words.
        calls.update(compute_words=0, run_packed=0)
        assert_bit_identical(execute_job(make_job(seed=41)), result)
        assert calls == {"compute_words": 1, "run_packed": 2}

    def test_event_groups_run_the_reference_kernel(self):
        trace = uniform_workload(64, width=16, seed=9)
        jobs = [make_job(trace=trace, simulator="event"),
                make_job(trace=uniform_workload(48, width=16, seed=10),
                         simulator="event")]
        assert plan_groups(jobs) == [[(0, None), (1, None)]]
        for job, got in zip(jobs, SerialBackend().run(jobs)):
            assert_bit_identical(execute_job(job), got)

    def test_run_jobs_keeps_caller_supplied_cache_in_the_loop(self, tmp_path):
        traces = [uniform_workload(100, width=16, seed=seed) for seed in (31, 32)]
        jobs = [make_job(trace=trace) for trace in traces]
        caching = CachingBackend(SerialBackend(), tmp_path)
        run_jobs(jobs, backend=caching)
        assert caching.stats.misses == len(jobs)
        run_jobs(jobs, backend=caching)
        assert caching.stats.hits == len(jobs)

    def test_planned_backend_is_a_pass_through(self, pool_of):
        inner = CountingSerial()
        planned = PlannedBackend(inner)
        assert planned.describe() == "serial"
        jobs = [make_job(seed=50), make_job(seed=51)]
        for job, got in zip(jobs, planned.run(jobs)):
            assert_bit_identical(execute_job(job), got)
        assert inner.jobs_run == 2
        assert PlannedBackend(pool_of(2)).describe() == "multiprocess[2]"

    def test_single_design_many_traces_multiprocess_identical(self, pool_of):
        """One design x many traces splits across the pool bit-identically."""
        traces = [uniform_workload(100, width=16, seed=seed) for seed in range(6)]
        jobs = [make_job(trace=trace) for trace in traces]
        got = pool_of(3).run(jobs)
        for job, candidate in zip(jobs, got):
            assert_bit_identical(execute_job(job), candidate)


class TestExecuteGroup:
    def test_structural_stats_match_per_job(self):
        trace = uniform_workload(150, width=16, seed=13)
        jobs = [make_job(quadruple=(8, 0, 0, 4), trace=trace,
                         collect_structural_stats=True),
                make_job(quadruple=(8, 0, 0, 4), length=90, seed=14)]
        [got_stats, got_plain] = execute_group(jobs)
        assert_bit_identical(execute_job(jobs[0]), got_stats)
        assert_bit_identical(execute_job(jobs[1]), got_plain)

    def test_exact_entry_group(self):
        jobs = [make_job(quadruple=None, length=100, seed=15),
                make_job(quadruple=None, length=70, seed=16)]
        for job, got in zip(jobs, execute_group(jobs)):
            assert_bit_identical(execute_job(job), got)

    @pytest.mark.parametrize("kernel, quadruple, stats", [
        ("packed", (4, 0, 0, 2), False),
        ("levelised", (4, 0, 0, 2), False),
        (None, None, False),
        (None, (8, 0, 0, 4), True),
    ], ids=["packed", "levelised", "exact", "structural-stats"])
    def test_one_job_group_equals_execute_job(self, kernel, quadruple, stats):
        """The group, on a forced kernel or by the size rule, equals
        ``execute_job`` by the size rule (here the levelised pass)."""
        job = make_job(quadruple=quadruple, length=150, seed=17,
                       collect_structural_stats=stats)
        with forced_kernel(kernel) if kernel else nullcontext():
            [got] = execute_group([job])
        assert_bit_identical(execute_job(job), got)

    def test_one_job_group_on_the_overflow_fallback(self, monkeypatch):
        # A zero threshold-row budget aborts the packed timing compiler
        # on a call long enough, at a clock fast enough, to build it, so
        # the call falls back to the levelised pass.
        monkeypatch.setattr(PackedTimingProgram, "DEFAULT_ROWS_PER_GATE", 0)
        job = dataclasses.replace(
            make_job(length=DENSE_MAX_TRANSITIONS + 2, seed=18),
            clock_periods=ClockPlan(cpr_levels=(0.05, 0.3)).periods)
        design = synthesize_job(job)
        with pytest.raises(CompilationError):
            PackedTimingProgram(design.netlist.compiled(), design.annotation,
                                job.clock_periods)
        [got] = execute_group([job])
        assert_bit_identical(execute_job(job), got)


class TestProgramPerClockSet:
    def test_two_clock_plans_build_two_programs(self, monkeypatch):
        """One simulator called at two clock plans builds one packed
        program per sorted clock set, reuses it whatever the clocks'
        order, and equals the levelised pass at both."""
        builds = []
        original = PackedTimingProgram.__init__

        def counting(self, program, annotation, clock_periods):
            builds.append(tuple(clock_periods))
            original(self, program, annotation, clock_periods)
        monkeypatch.setattr(PackedTimingProgram, "__init__", counting)
        job = make_job()
        design = synthesize_job(job)
        simulator = FastTimingSimulator(design.netlist, design.annotation)
        operands = job.trace.as_operands()
        for periods in (PERIODS, OTHER_PERIODS, PERIODS[::-1]):
            with forced_kernel("packed"):
                got = simulator.run_trace_multi(operands, periods)
            with forced_kernel("levelised"):
                want = simulator.run_trace_multi(operands, periods)
            for clk in periods:
                assert np.array_equal(got[clk].sampled_words, want[clk].sampled_words)
                assert np.array_equal(got[clk].settled_words, want[clk].settled_words)
        assert builds == [tuple(sorted(PERIODS)), tuple(sorted(OTHER_PERIODS))]

    def test_groups_at_two_clock_plans_share_one_simulator(self, monkeypatch):
        built = []
        original = FastTimingSimulator.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)
        monkeypatch.setattr(FastTimingSimulator, "__init__", counting)
        entry = isa_entry((4, 0, 0, 2), width=16)
        jobs = [CharacterizationJob(
                    entry=entry, trace=uniform_workload(150, width=16, seed=seed),
                    clock_periods=periods, simulator="fast", width=16)
                for seed, periods in ((5, PERIODS), (6, OTHER_PERIODS))]
        assert plan_groups(jobs) == [[(0, None)], [(1, None)]]
        with forced_kernel("packed"):
            results = SerialBackend().run(jobs)
        assert len(built) == 1
        for job, got in zip(jobs, results):
            assert_bit_identical(execute_job(job), got)


class TestPhases:
    def test_phase_noop_without_collector(self):
        with span("simulate"):
            pass  # must not raise or record anywhere

    def test_collect_phases_records(self):
        with collect_phases() as phases:
            with span("simulate"):
                pass
            with span("score"):
                pass
            with span("simulate"):
                pass
        assert phases.calls["simulate"] == 2
        assert phases.calls["score"] == 1
        text = phases.describe()
        assert "simulate" in text and "score" in text

    def test_planned_run_attributes_phases(self, repro_env):
        # A warm persistent synthesis cache (the cache-enabled CI leg)
        # would legitimately skip the synthesize phase; disable it so
        # the attribution of a from-scratch run is what is asserted.
        repro_env(REPRO_SYNTH_CACHE=None)
        jobs = [make_job(length=80, seed=21), make_job(length=80, seed=22)]
        with collect_phases() as phases:
            SerialBackend().run(jobs)
        assert phases.seconds.get("synthesize", 0) > 0
        assert phases.seconds.get("lower", 0) > 0
        assert phases.seconds.get("simulate", 0) > 0

    def test_explore_cli_timings_footer(self, capsys, repro_env):
        # backend pinned to serial: phases are recorded in the process
        # that executes them, so the multiprocess CI leg would see none.
        # A warm shared synthesis or result cache would (correctly)
        # erase the synthesize phase asserted below, so run uncached.
        repro_env(REPRO_SYNTH_CACHE=None, REPRO_CACHE_DIR=None)
        from repro.explore.cli import main
        exit_code = main(["--width", "16", "--max-designs", "4", "--length", "32",
                          "--backend", "serial", "--timings"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "(timings: " in out
        assert "synthesize" in out

    def test_runner_cli_timings_footer(self, capsys, tmp_path):
        from repro.experiments.runner import main
        exit_code = main(["--scale", "0.02", "--simulator", "fast",
                          "--backend", "serial",
                          "--figures", "fig9", "--no-cache", "--timings"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "(timings: " in out

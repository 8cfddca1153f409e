"""Tests of the execution runtime: jobs, backends, slicing, determinism.

The backbone guarantee of the runtime is that every backend is
*bit-identical* to the ``execute_job`` reference kernel at any worker
count, for every simulator tier and fast-tier kernel, including ragged
traces whose transition count does not divide the slice size.  These
tests pin that down on small 16-bit designs so the suite stays fast.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import warnings

import numpy as np
import pytest

from reference_kernels import forced_kernel
from repro.circuit.compiled import WORD_BITS, transition_chunks
from repro.exceptions import ConfigurationError, SimulationError, WorkloadError
from repro.experiments.common import StudyConfig, characterize_design, characterize_designs
from repro.experiments.designs import exact_entry, isa_entry
from repro.ml.dataset import collect_bit_datasets
from repro.runtime import (
    BACKENDS,
    CharacterizationJob,
    MultiprocessBackend,
    SerialBackend,
    execute_job,
    get_backend,
    plan_groups,
    run_jobs,
)
from repro.timing.clocking import ClockPlan
from repro.workloads.generators import uniform_workload

PERIODS = tuple(ClockPlan.paper().periods)

#: Clock periods every entry point must refuse: not positive, or not finite.
BAD_PERIODS = (float("nan"), float("inf"), 0.0, -1.0)


def small_job(length=200, quadruple=(4, 0, 0, 2), simulator="fast", seed=11, **kwargs):
    """A quick 16-bit characterization job for backend tests."""
    entry = exact_entry(16) if quadruple is None else isa_entry(quadruple, width=16)
    trace = uniform_workload(length, width=16, seed=seed)
    return CharacterizationJob(entry=entry, trace=trace, clock_periods=PERIODS,
                               simulator=simulator, width=16, **kwargs)


def assert_bit_identical(reference, candidate):
    """Every array of two characterisations matches exactly."""
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


class TestTransitionChunks:
    def test_word_aligned_cover(self):
        spans = transition_chunks(200, 64)
        assert spans == [(0, 64), (64, 128), (128, 192), (192, 200)]

    def test_chunk_size_rounds_up_to_word(self):
        spans = transition_chunks(200, 65)
        assert spans[0] == (0, 128)
        assert spans[-1][1] == 200
        assert all(start % WORD_BITS == 0 for start, _ in spans)

    def test_single_chunk(self):
        assert transition_chunks(63, 1000) == [(0, 63)]

    def test_rejects_empty(self):
        with pytest.raises(SimulationError):
            transition_chunks(0, 64)
        with pytest.raises(SimulationError):
            transition_chunks(10, 0)


class TestJobValidation:
    def test_bad_simulator(self):
        with pytest.raises(ConfigurationError):
            small_job(simulator="spice")

    def test_engine_is_not_a_job_field(self):
        """The fast tier picks its kernel per call; a job names none."""
        with pytest.raises(TypeError):
            small_job(engine="auto")

    def test_needs_clock_periods(self):
        entry = isa_entry((4, 0, 0, 2), width=16)
        trace = uniform_workload(32, width=16, seed=0)
        with pytest.raises(ConfigurationError):
            CharacterizationJob(entry=entry, trace=trace, clock_periods=(), width=16)
        with pytest.raises(ConfigurationError):
            CharacterizationJob(entry=entry, trace=trace, clock_periods=(-1.0,), width=16)

    @pytest.mark.parametrize("bad", BAD_PERIODS)
    def test_non_finite_or_non_positive_clock_rejected(self, bad):
        entry = isa_entry((4, 0, 0, 2), width=16)
        trace = uniform_workload(32, width=16, seed=0)
        with pytest.raises(ConfigurationError):
            CharacterizationJob(entry=entry, trace=trace, clock_periods=(PERIODS[0], bad),
                                width=16)

    def test_needs_two_vectors(self):
        entry = isa_entry((4, 0, 0, 2), width=16)
        trace = uniform_workload(16, width=16, seed=0).slice(0, 1)
        with pytest.raises(ConfigurationError):
            CharacterizationJob(entry=entry, trace=trace, clock_periods=PERIODS, width=16)

    def test_unseeded_variation_rejected(self):
        from repro.synth.flow import SynthesisOptions
        with pytest.raises(ConfigurationError):
            small_job(synthesis=SynthesisOptions(variation_sigma=0.1))
        # a seeded draw synthesizes identically in every worker: accepted
        small_job(synthesis=SynthesisOptions(variation_sigma=0.1, variation_seed=3))

    def test_cache_key_ignores_trace(self):
        job = small_job(seed=1)
        assert job.cache_key() == job.with_trace(uniform_workload(64, width=16,
                                                                  seed=2)).cache_key()


class TestTraceSlicing:
    def test_slice_values(self):
        trace = uniform_workload(100, width=16, seed=3)
        chunk = trace.slice(10, 20)
        assert chunk.length == 10
        assert np.array_equal(chunk.a, trace.a[10:20])

    def test_slice_bounds_checked(self):
        trace = uniform_workload(16, width=16, seed=3)
        with pytest.raises(WorkloadError):
            trace.slice(4, 4)
        with pytest.raises(WorkloadError):
            trace.slice(0, 17)


class TestBackendDeterminism:
    """Every backend matches the execute_job reference bit for bit."""

    @pytest.fixture(scope="class")
    def fast_job(self):
        # 200 vectors -> 199 transitions: ragged tail for any 64-aligned slice.
        return small_job(length=200, collect_structural_stats=True)

    @pytest.fixture(scope="class")
    def reference(self, fast_job):
        return execute_job(fast_job)

    def test_serial_matches_reference(self, fast_job, reference):
        [result] = SerialBackend().run([fast_job])
        assert_bit_identical(reference, result)
        assert np.array_equal(result.structural_stats.position_counts,
                              reference.structural_stats.position_counts)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_workers_sweep_bit_identical(self, fast_job, reference, pool_of, workers):
        # One job on a wider pool is cut into one slice per worker.
        assert len(plan_groups([fast_job], workers)) == workers
        [result] = pool_of(workers).run([fast_job])
        assert_bit_identical(reference, result)
        assert result.structural_stats is not None
        assert result.structural_stats.cycles == reference.structural_stats.cycles
        assert np.array_equal(result.structural_stats.position_counts,
                              reference.structural_stats.position_counts)

    @pytest.mark.parametrize("length", [65, 130, 200])
    def test_ragged_trace_lengths(self, pool_of, length):
        job = small_job(length=length, seed=length)
        [parallel] = pool_of(4).run([job])
        assert_bit_identical(execute_job(job), parallel)

    def test_event_simulator_jobs(self, pool_of):
        job = small_job(length=140, simulator="event")
        [parallel] = pool_of(2).run([job])
        assert_bit_identical(execute_job(job), parallel)

    @pytest.mark.parametrize("kernel", ["packed", "levelised"])
    def test_forced_kernel_jobs(self, pool_of, kernel):
        # Workers fork inside the block and inherit the forced kernel;
        # execute_job runs the size rule (the levelised pass here).
        job = small_job(length=96)
        with forced_kernel(kernel):
            [parallel] = pool_of(2).run([job])
        assert_bit_identical(execute_job(job), parallel)

    def test_overflow_fallback_path(self, monkeypatch, pool_of):
        # With the threshold-row budget forced to zero the packed timing
        # compiler always aborts, so a long call falls back to the
        # levelised pass; backends must still agree bit for bit.
        # (Workers inherit the patch through fork; on platforms where
        # they do not, the kernels' bit identity keeps this valid.)
        # The trace is long enough, and one clock fast enough, that the
        # serial run tries to build the packed program.
        from repro.circuit.compiled import PackedTimingProgram
        from repro.exceptions import CompilationError
        from repro.runtime.jobs import synthesize_job
        from repro.timing.fast_sim import DENSE_MAX_TRANSITIONS

        monkeypatch.setattr(PackedTimingProgram, "DEFAULT_ROWS_PER_GATE", 0)
        job = dataclasses.replace(small_job(length=DENSE_MAX_TRANSITIONS + 2),
                                  clock_periods=ClockPlan(cpr_levels=(0.05, 0.3)).periods)
        design = synthesize_job(job)
        with pytest.raises(CompilationError):
            PackedTimingProgram(design.netlist.compiled(), design.annotation,
                                job.clock_periods)
        reference = execute_job(job)
        assert_bit_identical(reference, SerialBackend().run([job])[0])
        [parallel] = pool_of(2).run([job])
        assert_bit_identical(reference, parallel)

    def test_batch_order_preserved(self, pool_of):
        jobs = [small_job(length=80, quadruple=(4, 0, 0, 2)),
                small_job(length=80, quadruple=None),
                small_job(length=80, quadruple=(8, 2, 1, 2))]
        serial = SerialBackend().run(jobs)
        parallel = pool_of(2).run(jobs)
        assert [r.name for r in parallel] == [r.name for r in serial]
        for reference, candidate in zip(serial, parallel):
            assert_bit_identical(reference, candidate)


class TestBackendApi:
    def test_get_backend_names(self):
        assert isinstance(get_backend("serial"), SerialBackend)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            backend = get_backend("multiprocess", workers=3)
        expected = min(3, os.cpu_count() or 1)
        assert isinstance(backend, MultiprocessBackend)
        assert backend.workers == expected
        assert backend.describe() == f"multiprocess[{expected}]"
        assert get_backend(backend) is backend

    def test_worker_clamp_warns(self):
        cpus = os.cpu_count() or 1
        with pytest.warns(RuntimeWarning, match="clamping"):
            backend = MultiprocessBackend(workers=cpus + 1)
        assert backend.workers == cpus
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert MultiprocessBackend(workers=cpus).workers == cpus
            assert MultiprocessBackend().workers == cpus

    def test_get_backend_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            get_backend("gpu")
        assert set(BACKENDS) == {"serial", "multiprocess"}

    def test_invalid_worker_counts(self):
        with pytest.raises(ConfigurationError):
            MultiprocessBackend(workers=0)
        with pytest.raises(ConfigurationError):
            MultiprocessBackend(max_rebuilds=0)

    def test_empty_batch(self):
        assert MultiprocessBackend(workers=2).run([]) == []
        assert SerialBackend().run([]) == []

    def test_pool_persists_across_runs_and_closes(self):
        job = small_job(length=70)
        with MultiprocessBackend(workers=2) as backend:
            [first] = backend.run([job])
            pool = backend._pool
            assert pool is not None
            [second] = backend.run([job])
            assert backend._pool is pool  # warm pool reused between batches
            assert_bit_identical(first, second)
        assert backend._pool is None  # context exit shuts the pool down

    def test_run_jobs_convenience(self):
        job = small_job(length=70)
        [serial] = run_jobs([job])
        [parallel] = run_jobs([job], backend="multiprocess", workers=2)
        assert_bit_identical(serial, parallel)

    def test_run_jobs_backend_lifecycle(self):
        # A name-built backend is one-shot: its pool is closed on return.
        # A caller-supplied instance is left open for reuse.
        job = small_job(length=70)
        with MultiprocessBackend(workers=2) as backend:
            [first] = run_jobs([job], backend=backend)
            assert backend._pool is not None
            [second] = run_jobs([job], backend=backend)
            assert_bit_identical(first, second)

    def test_execute_job_matches_characterize_design(self):
        config = StudyConfig(characterization_length=120, training_length=120,
                             evaluation_length=100, seed=9, simulator="fast",
                             width=16, backend="serial")
        entry = isa_entry((4, 0, 0, 2), width=16)
        trace = config.characterization_trace()
        direct = execute_job(config.job(entry, trace))
        wrapped = characterize_design(entry, trace, config)
        assert_bit_identical(direct, wrapped)


class TestStudyConfigRuntimeKnobs:
    def test_defaults(self, repro_env):
        repro_env(REPRO_BACKEND=None, REPRO_WORKERS=None, REPRO_TRACE_SCALE=None)
        config = StudyConfig()
        assert config.backend == "serial"
        assert config.workers is None
        assert config.trace_scale == 1.0

    def test_env_read_once_at_construction(self, repro_env):
        repro_env(REPRO_TRACE_SCALE="0.5", REPRO_BACKEND="multiprocess", REPRO_WORKERS="2")
        config = StudyConfig(characterization_length=200)
        assert config.trace_scale == 0.5
        assert config.backend == "multiprocess"
        assert config.workers == 2
        assert config.characterization_trace().length == 100
        # mutating the environment after construction changes nothing
        repro_env(REPRO_TRACE_SCALE="2.0")
        assert config.trace_scale == 0.5
        assert config.characterization_trace().length == 100

    def test_explicit_trace_scale_field(self):
        config = StudyConfig(characterization_length=400, trace_scale=0.25)
        assert config.characterization_trace().length == 100
        assert config.scaled_length(64) == 16

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            StudyConfig(backend="cluster")
        with pytest.raises(ConfigurationError):
            StudyConfig(trace_scale=0.0)
        with pytest.raises(ConfigurationError):
            StudyConfig(workers=0)

    def test_config_backend_drives_characterization(self):
        config = StudyConfig(characterization_length=130, training_length=120,
                             evaluation_length=100, seed=4, simulator="fast", width=16,
                             backend="multiprocess", workers=2)
        entries = [isa_entry((4, 0, 0, 2), width=16), exact_entry(16)]
        trace = config.characterization_trace()
        parallel = characterize_designs(entries, trace, config)
        serial = characterize_designs(entries, trace,
                                      StudyConfig(characterization_length=130,
                                                  training_length=120,
                                                  evaluation_length=100, seed=4,
                                                  simulator="fast", width=16,
                                                  backend="serial"))
        for reference, candidate in zip(serial, parallel):
            assert_bit_identical(reference, candidate)


class TestDatasetCollection:
    def test_collect_bit_datasets_over_backends(self):
        job = small_job(length=100)
        [serial] = collect_bit_datasets([job])
        [parallel] = collect_bit_datasets([job], backend="multiprocess", workers=2)
        assert set(serial) == set(PERIODS)
        for clk in PERIODS:
            assert len(serial[clk]) == 17  # 16-bit adder -> 17 output bits
            for reference, candidate in zip(serial[clk], parallel[clk]):
                assert reference.bit == candidate.bit
                assert np.array_equal(reference.features, candidate.features)
                assert np.array_equal(reference.labels, candidate.labels)


class TestNetlistPickling:
    def test_round_trip_drops_caches_keeps_behaviour(self, synthesized_small_isa):
        netlist = synthesized_small_isa.netlist
        assert netlist.compiled() is not None  # warm the cache
        clone = pickle.loads(pickle.dumps(netlist))
        assert clone._compiled_cache is None
        trace = uniform_workload(70, width=16, seed=21)
        operands = trace.as_operands()
        assert np.array_equal(netlist.compute_words(operands),
                              clone.compute_words(operands))

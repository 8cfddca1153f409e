"""Tests of the persistent synthesis cache (repro.runtime.synth_cache)."""

import os
import struct

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.designs import exact_entry, isa_entry
from repro.explore import DesignSpace, SweepSpec, run_sweep
from repro.runtime import jobs as runtime_jobs
from repro.runtime.jobs import CharacterizationJob, clear_design_cache, synthesize_job
from repro.runtime.synth_cache import (
    SynthesisCache,
    active_synth_cache,
    cacheable,
    configure_synth_cache,
    synth_digest,
)
from repro.synth.flow import SynthesisOptions
from repro.obs.trace import collect_phases
from repro.workloads.generators import WorkloadSpec, uniform_workload

ENTRY = isa_entry((4, 2, 1, 4), width=16)


def make_job(**overrides):
    defaults = dict(entry=ENTRY, trace=uniform_workload(64, width=16, seed=5),
                    clock_periods=(3e-10,), simulator="fast", width=16,
                    synthesis=SynthesisOptions())
    defaults.update(overrides)
    return CharacterizationJob(**defaults)


class TestSynthDigest:
    def test_stable_across_equal_options(self):
        a = synth_digest(ENTRY, 16, SynthesisOptions())
        b = synth_digest(ENTRY, 16, SynthesisOptions())
        assert a == b

    def test_distinguishes_entry_width_and_options(self):
        base = synth_digest(ENTRY, 16, SynthesisOptions())
        assert synth_digest(exact_entry(), 16, SynthesisOptions()) != base
        assert synth_digest(ENTRY, 8, SynthesisOptions()) != base
        assert synth_digest(
            ENTRY, 16, SynthesisOptions(clock_constraint=2.9e-10)) != base

    def test_seed_normalised_away_without_variation(self):
        # With sigma == 0 the seed cannot influence the result; all
        # unvaried runs must share one entry.
        assert synth_digest(ENTRY, 16, SynthesisOptions(variation_seed=11)) == \
            synth_digest(ENTRY, 16, SynthesisOptions(variation_seed=None))

    def test_seed_keyed_with_variation(self):
        with_seed = synth_digest(
            ENTRY, 16, SynthesisOptions(variation_sigma=0.05, variation_seed=11))
        other_seed = synth_digest(
            ENTRY, 16, SynthesisOptions(variation_sigma=0.05, variation_seed=12))
        assert with_seed != other_seed

    def test_cacheable_guard(self):
        assert cacheable(SynthesisOptions())
        assert cacheable(SynthesisOptions(variation_sigma=0.05, variation_seed=3))
        assert not cacheable(SynthesisOptions(
            variation_sigma=0.05, variation_seed=np.random.default_rng(3)))


class TestSynthesisCache:
    def test_round_trip_bit_identical(self, tmp_path):
        cache = SynthesisCache(tmp_path)
        options = SynthesisOptions()
        assert cache.load(ENTRY, 16, options) is None
        design = synthesize_job(make_job())
        cache.store_design(ENTRY, 16, options, design)
        loaded = cache.load(ENTRY, 16, options)
        assert loaded is not None
        assert [g.name for g in loaded.netlist.gates] == \
            [g.name for g in design.netlist.gates]
        fresh = [design.annotation.delay_of(g.name) for g in design.netlist.gates]
        disk = [loaded.annotation.delay_of(g.name) for g in loaded.netlist.gates]
        assert struct.pack(f"<{len(fresh)}d", *fresh) == \
            struct.pack(f"<{len(disk)}d", *disk)
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_non_cacheable_options_bypass(self, tmp_path):
        cache = SynthesisCache(tmp_path)
        options = SynthesisOptions(variation_sigma=0.05,
                                   variation_seed=np.random.default_rng(3))
        design = synthesize_job(make_job())
        cache.store_design(ENTRY, 16, options, design)
        assert cache.load(ENTRY, 16, options) is None
        # A bypass is silent: neither a hit nor a miss is recorded.
        assert cache.stats.hits == 0 and cache.stats.misses == 0
        assert cache.store.total_bytes() == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = SynthesisCache(tmp_path)
        options = SynthesisOptions()
        design = synthesize_job(make_job())
        cache.store_design(ENTRY, 16, options, design)
        path = cache.store.result_path(synth_digest(ENTRY, 16, options))
        path.write_bytes(b"truncated garbage")
        assert cache.load(ENTRY, 16, options) is None
        assert cache.stats.corrupt == 1
        assert not path.exists()

    def test_byte_budget_prunes_oldest(self, tmp_path):
        cache = SynthesisCache(tmp_path)
        design = synthesize_job(make_job())
        cache.store_design(ENTRY, 16, SynthesisOptions(), design)
        entry_bytes = cache.store.total_bytes()
        # Budget fits roughly one entry; storing more must prune.
        limited = SynthesisCache(tmp_path, limit_mb=entry_bytes * 1.5 / (1024 * 1024))
        for seed in (1, 2, 3):
            limited.store_design(
                ENTRY, 16,
                SynthesisOptions(variation_sigma=0.05, variation_seed=seed), design)
        assert limited.stats.pruned > 0
        assert limited.store.total_bytes() <= limited.store.limit_bytes

    def test_invalid_limit_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            SynthesisCache(tmp_path, limit_mb=0)


class TestActivation:
    def test_env_activates_and_deactivates(self, tmp_path, repro_env):
        repro_env(REPRO_SYNTH_CACHE=None)
        assert active_synth_cache() is None
        repro_env(REPRO_SYNTH_CACHE=str(tmp_path), REPRO_SYNTH_CACHE_LIMIT_MB="2.5")
        cache = active_synth_cache()
        assert cache is not None
        assert cache.store.root == tmp_path
        assert cache.store.limit_bytes == int(2.5 * 1024 * 1024)
        # Same settings -> same instance (stats accumulate across calls).
        assert active_synth_cache() is cache
        repro_env(REPRO_SYNTH_CACHE=None)
        assert active_synth_cache() is None

    def test_configure_activates_without_touching_env(self, tmp_path, repro_env):
        repro_env(REPRO_SYNTH_CACHE=None)
        environ = dict(os.environ)
        cache = configure_synth_cache(tmp_path, limit_mb=4)
        assert active_synth_cache() is cache
        assert cache.store.limit_bytes == 4 * 1024 * 1024
        assert configure_synth_cache(None) is None
        assert active_synth_cache() is None
        assert dict(os.environ) == environ


class TestSynthesizeJobReadThrough:
    def test_warm_cache_synthesizes_zero_designs(self, tmp_path, repro_env):
        repro_env(REPRO_SYNTH_CACHE=str(tmp_path))
        job = make_job()
        with collect_phases() as cold:
            first = synthesize_job(job)
        assert cold.calls.get("synthesize", 0) == 1

        # A fresh process is simulated by clearing the in-memory memo;
        # the disk entry must satisfy the request without running the
        # flow at all (the acceptance criterion the benchmark asserts).
        clear_design_cache()
        with collect_phases() as warm:
            second = synthesize_job(job)
        assert warm.calls.get("synthesize", 0) == 0
        assert warm.calls.get("synth.optimize", 0) == 0
        assert [g.name for g in second.netlist.gates] == \
            [g.name for g in first.netlist.gates]
        stats = active_synth_cache().stats
        assert stats.hits == 1 and stats.misses == 1

    def test_warm_cache_sweep_synthesizes_zero_designs(self, tmp_path, repro_env):
        repro_env(REPRO_SYNTH_CACHE=str(tmp_path))
        spec = SweepSpec(entries=tuple(DesignSpace(width=16).entries(max_designs=3)),
                         workloads=(WorkloadSpec("uniform", 64, width=16, seed=3),),
                         width=16)
        with collect_phases() as cold_phases:
            cold = run_sweep(spec, backend="serial")
        assert cold_phases.calls["synthesize"] == 4
        assert active_synth_cache().stats.misses == 4

        clear_design_cache()
        with collect_phases() as warm_phases:
            warm = run_sweep(spec, backend="serial")
        assert warm_phases.calls.get("synthesize", 0) == 0
        stats = active_synth_cache().stats
        assert stats.hits == 4 and stats.misses == 4
        assert warm.points == cold.points

    def test_bounded_memo_synthesizes_each_design_once(self, monkeypatch, repro_env):
        repro_env(REPRO_SYNTH_CACHE=None)
        spec = SweepSpec(entries=tuple(DesignSpace(width=16).entries(max_designs=8)),
                         workloads=(WorkloadSpec("uniform", 64, width=16, seed=3),
                                    WorkloadSpec("ramp", 64, width=16, seed=4)),
                         width=16)
        assert len(spec.entries) == 9  # 8 designs plus exact
        unbounded = run_sweep(spec, backend="serial")
        clear_design_cache()
        monkeypatch.setattr(runtime_jobs._DESIGN_CACHE, "capacity", 4)
        with collect_phases() as phases:
            bounded = run_sweep(spec, backend="serial")
        # One group per design holds both workloads' jobs, so the memo
        # never has to keep a design behind the others.
        assert phases.calls["synthesize"] == len(spec.entries)
        assert len(runtime_jobs._DESIGN_CACHE) == 4
        assert bounded.points == unbounded.points

    def test_memo_hit_skips_disk(self, tmp_path, repro_env):
        repro_env(REPRO_SYNTH_CACHE=str(tmp_path))
        job = make_job()
        first = synthesize_job(job)
        second = synthesize_job(job)
        assert second is first
        # Only the cold call touched the store.
        assert active_synth_cache().stats.misses == 1
        assert active_synth_cache().stats.hits == 0

    def test_jobs_differing_only_in_trace_share_entry(self, tmp_path, repro_env):
        repro_env(REPRO_SYNTH_CACHE=str(tmp_path))
        synthesize_job(make_job())
        clear_design_cache()
        other = make_job(trace=uniform_workload(64, width=16, seed=99),
                         clock_periods=(2.7e-10, 3e-10))
        with collect_phases() as phases:
            synthesize_job(other)
        assert phases.calls.get("synthesize", 0) == 0
        assert active_synth_cache().stats.hits == 1

    def test_non_cacheable_job_never_stored(self, tmp_path, repro_env):
        repro_env(REPRO_SYNTH_CACHE=str(tmp_path))
        job = make_job(synthesis=SynthesisOptions(
            variation_sigma=0.05, variation_seed=np.random.default_rng(7)))
        synthesize_job(job)
        cache = active_synth_cache()
        assert cache.store.total_bytes() == 0
        assert cache.stats.hits == 0 and cache.stats.misses == 0


class TestWorkerActivation:
    def test_cache_configured_in_code_reaches_pool_workers(self, tmp_path, pool_of,
                                                           repro_env):
        """Workers receive the driver's settings from the pool initializer:
        a cache configured in code, with no variable in the environment,
        is the one they store designs into and load them from."""
        from repro.obs.metrics import metrics_run
        repro_env(REPRO_SYNTH_CACHE=None)
        configure_synth_cache(tmp_path)
        assert "REPRO_SYNTH_CACHE" not in os.environ
        jobs = [make_job(entry=isa_entry(quadruple, width=16))
                for quadruple in ((4, 0, 0, 2), (4, 2, 1, 2), (4, 2, 1, 4), (8, 0, 0, 4))]
        with metrics_run() as cold:
            pool_of(2).run(jobs)
        assert cold.counters["synth_cache.misses"] == len(jobs)
        assert len(list(tmp_path.glob("*/*/result.pkl"))) == len(jobs)
        clear_design_cache()
        with metrics_run() as warm:
            pool_of(2).run(jobs)  # fresh workers, empty design memos
        assert warm.counters["synth_cache.hits"] == len(jobs)
        assert "synth_cache.misses" not in warm.counters

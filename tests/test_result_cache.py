"""Tests of the persistent on-disk result cache (repro.runtime.cache).

The contract under test: a cache hit returns the stored
characterisation bit-identically to an uncached run, across both
execution backends and both fast-tier kernels; entries written before
jobs stopped naming a kernel stay hits; misses delegate to the
inner backend and persist atomically, as one ``result.pkl`` plus
``meta.json`` per job whatever the trace length; corrupted or truncated
entries are recomputed, never raised; an entry in the chunked layout of
earlier versions is one plain miss; a failed ``meta.json`` write leaves
no temp file; and a fully warm run executes **zero** simulation jobs.
"""

from __future__ import annotations

import dataclasses
import errno
import json
import pickle
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from reference_kernels import forced_kernel
from repro.circuit.compiled import transition_chunks
from repro.exceptions import ConfigurationError
from repro.experiments.common import (
    StudyConfig,
    _BACKEND_INSTANCES,
    characterize_designs,
    shutdown_backends,
)
from repro.experiments.designs import exact_entry, isa_entry
from repro.explore.sweep import SweepSpec
from repro.families.multiplier import multiplier_entry
from repro.ml.dataset import collect_bit_datasets
from repro.runtime import (
    CachingBackend,
    CharacterizationJob,
    MultiprocessBackend,
    ResultStore,
    SerialBackend,
    job_digest,
    trace_digest,
)
from repro.synth.flow import SynthesisOptions
from repro.timing.clocking import ClockPlan
from repro.workloads.generators import WorkloadSpec, uniform_workload

PERIODS = tuple(ClockPlan.paper().periods)

#: Vectors of a long word-level trace: more transitions than the 65,536
#: above which earlier versions split an entry into chunk files.
LONG = 65_600


def small_job(length=200, quadruple=(4, 0, 0, 2), simulator="fast", seed=11, **kwargs):
    """A quick 16-bit characterization job (mirrors test_runtime.small_job)."""
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


class CountingBackend(SerialBackend):
    """Serial backend that counts the jobs it actually executes.

    Every miss reaches it as the whole job.
    """

    def __init__(self):
        super().__init__()
        self.executed = 0

    def run(self, jobs):
        jobs = list(jobs)
        self.executed += len(jobs)
        return super().run(jobs)


#: ``job_digest`` of three jobs, recorded when jobs still named a fast-tier
#: kernel and defaulted it to "auto": entries written then must stay hits.
PINNED_DIGESTS = {
    "isa16-fast": "edd53fabf09b855683e6e19e450d35c2c82e39f28ce863747140bfd3761d4ec9",
    "isa16-event": "2957a85763ad538e732af1f31c4fab6b04a16ea80b6b5b045c2ff633c576ac3d",
    "mul8-fast": "ffbb28ad2c860d474ce0341474909edc2a5b6892f7c0e783d889433272147a8d",
}


class TestJobDigest:
    def test_digest_is_deterministic(self):
        assert job_digest(small_job()) == job_digest(small_job())

    def test_digests_recorded_before_kernels_left_jobs_still_hold(self):
        multiplier = CharacterizationJob(
            entry=multiplier_entry((2, 0, 0, 0), width=8),
            trace=uniform_workload(200, width=8, seed=11), clock_periods=PERIODS,
            simulator="fast", width=8)
        jobs = {"isa16-fast": small_job(), "isa16-event": small_job(simulator="event"),
                "mul8-fast": multiplier}
        assert {name: job_digest(job) for name, job in jobs.items()} == PINNED_DIGESTS

    def test_sweep_engine_accepts_only_auto(self):
        fields = dict(entries=(isa_entry((4, 0, 0, 2), width=16),),
                      workloads=(WorkloadSpec("uniform", 32, width=16),), width=16)
        SweepSpec(engine="auto", **fields)
        with pytest.raises(ConfigurationError):
            SweepSpec(engine="compiled", **fields)

    def test_digest_covers_every_identity_axis(self):
        base = small_job()
        variants = [
            small_job(seed=12),                                   # trace content
            small_job(quadruple=(4, 2, 1, 2)),                    # design entry
            small_job(simulator="event"),                         # simulator tier
            small_job(collect_structural_stats=True),             # stats request
            dataclasses.replace(base, clock_periods=PERIODS[:2]),  # clock plan
            dataclasses.replace(base, output_bus="cout"),          # output bus
            small_job(synthesis=SynthesisOptions(slack_utilization=0.4)),
        ]
        digests = {job_digest(job) for job in variants}
        assert job_digest(base) not in digests
        assert len(digests) == len(variants)

    def test_trace_digest_ignores_name_not_content(self):
        trace = uniform_workload(64, width=16, seed=5)
        renamed = dataclasses.replace(trace, name="other")
        assert trace_digest(trace) == trace_digest(renamed)
        assert trace_digest(trace) != trace_digest(
            uniform_workload(64, width=16, seed=6))

    def test_unvaried_seed_normalised_away(self):
        with_seed = small_job(synthesis=SynthesisOptions(variation_seed=3))
        without = small_job(synthesis=SynthesisOptions())
        assert job_digest(with_seed) == job_digest(without)
        varied = small_job(synthesis=SynthesisOptions(variation_sigma=0.1,
                                                      variation_seed=3))
        assert job_digest(varied) != job_digest(without)

    def test_generator_seed_with_variation_rejected(self):
        job = small_job(synthesis=SynthesisOptions(
            variation_sigma=0.1, variation_seed=np.random.default_rng(3)))
        with pytest.raises(ConfigurationError):
            job_digest(job)


class TestHitMissBitIdentity:
    @pytest.fixture(scope="class")
    def reference(self):
        return SerialBackend().run([small_job()])[0]

    @pytest.mark.parametrize("kernel", ["packed", "levelised"])
    @pytest.mark.parametrize("backend_factory",
                             [SerialBackend,
                              lambda: MultiprocessBackend(workers=2)],
                             ids=["serial", "multiprocess"])
    def test_cold_and_warm_match_uncached(self, tmp_path, backend_factory, kernel):
        # The uncached run takes the size rule (the levelised pass here);
        # the cold run is forced onto ``kernel``, its workers forked
        # inside the block.
        job = small_job()
        uncached = SerialBackend().run([job])[0]
        cold_cache = CachingBackend(backend_factory(), tmp_path / kernel)
        with forced_kernel(kernel):
            [cold] = cold_cache.run([job])
        assert (cold_cache.stats.hits, cold_cache.stats.misses) == (0, 1)
        # a *fresh* instance proves persistence, not in-memory reuse
        warm_cache = CachingBackend(backend_factory(), tmp_path / kernel)
        [warm] = warm_cache.run([job])
        assert (warm_cache.stats.hits, warm_cache.stats.misses) == (1, 0)
        assert_bit_identical(uncached, cold)
        assert_bit_identical(uncached, warm)
        cold_cache.close()
        warm_cache.close()

    def test_warm_run_executes_zero_jobs(self, tmp_path, reference):
        job = small_job()
        CachingBackend(SerialBackend(), tmp_path).run([job])
        inner = CountingBackend()
        [warm] = CachingBackend(inner, tmp_path).run([job])
        assert inner.executed == 0
        assert_bit_identical(reference, warm)

    def test_structural_stats_round_trip(self, tmp_path):
        job = small_job(collect_structural_stats=True)
        [cold] = CachingBackend(SerialBackend(), tmp_path).run([job])
        [warm] = CachingBackend(SerialBackend(), tmp_path).run([job])
        assert warm.structural_stats is not None
        assert np.array_equal(cold.structural_stats.position_counts,
                              warm.structural_stats.position_counts)

    def test_event_tier_round_trip(self, tmp_path):
        job = small_job(length=40, simulator="event")
        uncached = SerialBackend().run([job])[0]
        [cold] = CachingBackend(SerialBackend(), tmp_path).run([job])
        [warm] = CachingBackend(SerialBackend(), tmp_path).run([job])
        assert_bit_identical(uncached, cold)
        assert_bit_identical(uncached, warm)

    def test_mixed_batch_partial_hits(self, tmp_path):
        first, second = small_job(seed=1), small_job(seed=2)
        cache = CachingBackend(SerialBackend(), tmp_path)
        cache.run([first])
        inner = CountingBackend()
        warm_cache = CachingBackend(inner, tmp_path)
        results = warm_cache.run([first, second])
        assert inner.executed == 1  # only the unseen job is simulated
        assert (warm_cache.stats.hits, warm_cache.stats.misses) == (1, 1)
        assert_bit_identical(SerialBackend().run([second])[0], results[1])


@pytest.fixture(scope="module")
def long_run():
    """A long word-level job with structural stats, and its uncached result."""
    job = small_job(length=LONG, collect_structural_stats=True)
    return job, SerialBackend().run([job])[0]


def entry_files(cache_dir, job):
    """Sorted names of the files in a job's entry directory."""
    entry = ResultStore(cache_dir).entry_dir(job_digest(job))
    return sorted(path.name for path in entry.iterdir())


def write_chunked_entry(store, job, result):
    """Store ``result`` as earlier versions stored a long trace's entry.

    ``golden.pkl`` holds the golden pass, one ``shard-<start>-<stop>.pkl``
    per 65,536 transitions holds the timing words, and ``meta.json``
    says so; there is no ``result.pkl``.
    """
    digest = job_digest(job)
    entry = store.entry_dir(digest)
    store.store(entry / "golden.pkl", (
        result.synthesized, result.diamond_words, result.gold_words,
        result.structural_stats, result.netlist_words))
    for start, stop in transition_chunks(job.trace.transitions, 65_536):
        store.store(entry / f"shard-{start:010d}-{stop:010d}.pkl", {
            clk: dataclasses.replace(
                timing, sampled_words=timing.sampled_words[start:stop],
                settled_words=timing.settled_words[start:stop])
            for clk, timing in result.timing_traces.items()})
    store.write_meta(digest, {"design": job.name, "sharded": True})
    assert "result.pkl" not in entry_files(store.root, job)


class TestLongTraceEntries:
    @pytest.mark.parametrize("workers", [0, 2], ids=["serial", "pool"])
    def test_long_trace_round_trips_as_one_file(self, tmp_path, pool_of, long_run,
                                                workers):
        job, uncached = long_run
        # On a 2-worker pool the cold job is itself cut into two slices.
        inner = pool_of(workers) if workers else SerialBackend()
        cold_cache = CachingBackend(inner, tmp_path)
        [cold] = cold_cache.run([job])
        assert (cold_cache.stats.hits, cold_cache.stats.misses) == (0, 1)
        warm_cache = CachingBackend(inner, tmp_path)
        [warm] = warm_cache.run([job])
        assert (warm_cache.stats.hits, warm_cache.stats.misses) == (1, 0)
        assert_bit_identical(uncached, cold)
        assert_bit_identical(uncached, warm)
        assert np.array_equal(warm.structural_stats.position_counts,
                              uncached.structural_stats.position_counts)
        assert entry_files(tmp_path, job) == ["meta.json", "result.pkl"]

    def test_chunked_entry_is_one_plain_miss(self, tmp_path, long_run):
        job, uncached = long_run
        write_chunked_entry(ResultStore(tmp_path), job, uncached)
        inner = CountingBackend()
        cache = CachingBackend(inner, tmp_path)
        [result] = cache.run([job])
        assert inner.executed == 1
        assert (cache.stats.hits, cache.stats.misses, cache.stats.corrupt) == (0, 1, 0)
        assert_bit_identical(uncached, result)
        assert "result.pkl" in entry_files(tmp_path, job)
        inner = CountingBackend()
        [warm] = CachingBackend(inner, tmp_path).run([job])
        assert inner.executed == 0
        assert_bit_identical(uncached, warm)

    def test_budget_prunes_a_chunked_entry_whole(self, tmp_path, long_run):
        job, uncached = long_run
        write_chunked_entry(ResultStore(tmp_path), job, uncached)
        # 1 MiB holds neither the leftover chunk files nor the new result.pkl.
        cache = CachingBackend(SerialBackend(), tmp_path, limit_mb=1)
        [result] = cache.run([job])
        assert cache.stats.pruned == 1
        assert not cache.store.entry_dir(job_digest(job)).exists()
        assert_bit_identical(uncached, result)


class TestCorruptionHandling:
    @pytest.mark.parametrize("length", [200, LONG])
    def test_truncated_result_recomputed(self, tmp_path, length):
        job = small_job(length=length)
        uncached = SerialBackend().run([job])[0]
        cache = CachingBackend(SerialBackend(), tmp_path)
        cache.run([job])
        path = cache.store.result_path(job_digest(job))
        path.write_bytes(path.read_bytes()[:16])  # truncate mid-pickle
        recover_cache = CachingBackend(SerialBackend(), tmp_path)
        [recovered] = recover_cache.run([job])
        assert recover_cache.stats.corrupt == 1
        assert recover_cache.stats.misses == 1
        assert_bit_identical(uncached, recovered)
        # the damaged file was discarded and replaced by a healthy one
        [warm] = CachingBackend(SerialBackend(), tmp_path).run([job])
        assert_bit_identical(uncached, warm)

    def test_foreign_format_recomputed(self, tmp_path):
        job = small_job()
        cache = CachingBackend(SerialBackend(), tmp_path)
        path = cache.store.result_path(job_digest(job))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps({"format": 999, "payload": None}))
        [result] = cache.run([job])
        assert cache.stats.corrupt == 1
        assert_bit_identical(SerialBackend().run([job])[0], result)


class TestWriteMeta:
    """``meta.json`` is best-effort, and a failed write leaves no temp file."""

    def test_io_error_is_swallowed_without_a_temp_file(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        digest = "ee" + "0" * 62

        def disk_full(obj, stream, **kwargs):
            stream.write("{")
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(json, "dump", disk_full)
        store.write_meta(digest, {"design": "x"})
        assert list(store.entry_dir(digest).iterdir()) == []

    def test_unencodable_value_raises_without_a_temp_file(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = "ee" + "1" * 62
        with pytest.raises(TypeError):
            store.write_meta(digest, {"design": object()})
        assert list(store.entry_dir(digest).iterdir()) == []


class TestConcurrentWriters:
    def test_racing_writers_never_expose_torn_files(self, tmp_path):
        cache = CachingBackend(SerialBackend(), tmp_path)
        payload = {"blob": np.arange(4096, dtype=np.uint64)}
        path = cache.store.result_path("ab" + "0" * 62)

        def write_and_read(_):
            cache.store.store(path, payload)
            loaded = cache.store.load(path)
            return loaded is not None and np.array_equal(loaded["blob"],
                                                         payload["blob"])

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(write_and_read, range(64)))
        assert all(outcomes)
        assert cache.stats.corrupt == 0
        assert not list(path.parent.glob(".tmp-*"))  # no leaked temp files

    def test_two_processes_one_cache_dir(self, tmp_path):
        # Multiprocess workers of two independent caching runs share the
        # directory; both runs must succeed and agree bit for bit.
        job = small_job(length=130)
        first = CachingBackend(MultiprocessBackend(workers=2), tmp_path)
        second = CachingBackend(MultiprocessBackend(workers=2), tmp_path)
        try:
            [a] = first.run([job])
            [b] = second.run([job])
            assert_bit_identical(a, b)
        finally:
            first.close()
            second.close()


class TestInventoryIndex:
    """The incrementally maintained (mtime, bytes) inventory index."""

    @staticmethod
    def _ground_truth(store):
        """Fresh-scan inventory, independent of the index."""
        truth = {}
        for prefix in store.root.iterdir():
            if not prefix.is_dir():
                continue
            for entry in prefix.iterdir():
                if not entry.is_dir():
                    continue
                total = sum(item.stat().st_size for item in entry.iterdir())
                truth[entry] = total
        return truth

    def test_index_tracks_stores_and_prunes(self, tmp_path):
        from repro.runtime import ResultStore
        store = ResultStore(tmp_path, limit_bytes=10_000_000)
        digests = [format(index, "02x") + "f" * 62 for index in range(6)]
        for index, digest in enumerate(digests):
            store.store(store.result_path(digest),
                        {"blob": np.arange(64 * (index + 1), dtype=np.uint64)})
        truth = self._ground_truth(store)
        indexed = {entry: size for _, size, entry in store.entry_inventory()}
        assert indexed == truth
        assert store.total_bytes() == sum(truth.values())
        # grow one entry and overwrite another: index follows without rescans
        store.store(store.entry_dir(digests[0]) / "golden.pkl", {"golden": np.ones(128)})
        store.store(store.result_path(digests[1]),
                    {"blob": np.arange(1024, dtype=np.uint64)})
        indexed = {entry: size for _, size, entry in store.entry_inventory()}
        assert indexed == self._ground_truth(store)

    def test_index_avoids_rescans_after_first_use(self, tmp_path, monkeypatch):
        from repro.runtime import ResultStore
        store = ResultStore(tmp_path)
        digests = [format(index, "02x") + "e" * 62 for index in range(4)]
        for digest in digests:
            store.store(store.result_path(digest), {"blob": np.zeros(8)})
        store.entry_inventory()  # first use: full scan builds the index
        scans = []
        original = ResultStore._scan_entry

        def counting_scan(self, entry):
            scans.append(entry)
            return original(self, entry)

        monkeypatch.setattr(ResultStore, "_scan_entry", counting_scan)
        store.store(store.result_path(digests[0]), {"blob": np.zeros(16)})
        store.load(store.result_path(digests[1]))
        store.entry_inventory()
        assert scans == []  # in-process updates never rescan entries

    def test_own_write_does_not_mask_concurrent_entry(self, tmp_path):
        """Writing into a prefix must not hide another process's entry there.

        Regression: recording the prefix mtime after our own write used
        to swallow a concurrent writer's entry created in between.
        """
        from repro.runtime import ResultStore
        store = ResultStore(tmp_path)
        store.store(store.result_path("aa" + "1" * 62), {"blob": np.zeros(8)})
        store.entry_inventory()  # index built
        other = ResultStore(tmp_path)  # another process, in spirit
        other.store(other.result_path("aa" + "2" * 62), {"blob": np.zeros(32)})
        # our next writes land in the same prefix: one into an existing
        # entry, one creating a new entry
        store.store(store.entry_dir("aa" + "1" * 62) / "golden.pkl", {"golden": np.zeros(4)})
        store.store(store.result_path("aa" + "3" * 62), {"blob": np.zeros(16)})
        seen = {entry.name for _, _, entry in store.entry_inventory()}
        assert "aa" + "2" * 62 in seen
        assert len(seen) == 3
        indexed = {entry: size for _, size, entry in store.entry_inventory()}
        assert indexed == self._ground_truth(store)

    def test_index_sees_external_writers(self, tmp_path):
        from repro.runtime import ResultStore
        store = ResultStore(tmp_path)
        store.store(store.result_path("aa" + "d" * 62), {"blob": np.zeros(8)})
        store.entry_inventory()
        # a second store (another process, in spirit) adds entries — one
        # in a fresh prefix, one next to the existing entry
        other = ResultStore(tmp_path)
        other.store(other.result_path("bb" + "d" * 62), {"blob": np.zeros(32)})
        other.store(other.result_path("aa" + "c" * 62), {"blob": np.zeros(16)})
        indexed = {entry: size for _, size, entry in store.entry_inventory()}
        assert indexed == self._ground_truth(store)

    def test_load_refreshes_eviction_order(self, tmp_path):
        import os
        from repro.runtime import ResultStore
        store = ResultStore(tmp_path)
        old_digest, new_digest = "aa" + "b" * 62, "cc" + "b" * 62
        store.store(store.result_path(old_digest), {"blob": np.zeros(64)})
        store.store(store.result_path(new_digest), {"blob": np.zeros(64)})
        os.utime(store.result_path(old_digest), (1, 1))
        store.entry_inventory()
        # budget fits exactly one entry, so the prune must evict one
        store.limit_bytes = store.total_bytes() // 2 + 1
        # loading the back-dated entry refreshes its mtime in the index,
        # so the prune evicts the *other* entry
        store.load(store.result_path(old_digest))
        assert store.prune_to_limit() == 1
        remaining = [entry for _, _, entry in store.entry_inventory()]
        assert remaining == [store.entry_dir(old_digest)]

    def test_corrupt_discard_updates_index(self, tmp_path):
        from repro.runtime import ResultStore
        store = ResultStore(tmp_path)
        digest = "dd" + "a" * 62
        store.store(store.result_path(digest), {"blob": np.zeros(256)})
        store.entry_inventory()
        store.result_path(digest).write_bytes(b"garbage")
        assert store.load(store.result_path(digest)) is None  # discarded
        indexed = {entry: size for _, size, entry in store.entry_inventory()}
        assert indexed == self._ground_truth(store)


class TestStudyConfigIntegration:
    def test_cache_dir_env_read_once(self, tmp_path, repro_env):
        repro_env(REPRO_CACHE_DIR=str(tmp_path))
        config = StudyConfig()
        assert config.cache_dir == str(tmp_path)
        repro_env(REPRO_CACHE_DIR=None)
        assert config.cache_dir == str(tmp_path)  # read once at construction
        assert StudyConfig().cache_dir is None

    def test_runtime_backend_wraps_with_cache(self, tmp_path):
        # knobs pinned explicitly so the test holds under the CI env
        # legs ($REPRO_BACKEND / $REPRO_CACHE_DIR set suite-wide)
        try:
            config = StudyConfig(backend="serial", cache_dir=str(tmp_path))
            backend = config.runtime_backend()
            assert isinstance(backend, CachingBackend)
            assert backend is config.runtime_backend()  # shared instance
            assert backend.describe() == "cache[serial]"
            uncached = StudyConfig(backend="serial", cache_dir=None)
            assert not isinstance(uncached.runtime_backend(), CachingBackend)
        finally:
            shutdown_backends()

    def test_characterize_designs_warm_run_zero_jobs(self, tmp_path):
        try:
            config = StudyConfig(characterization_length=120, training_length=120,
                                 evaluation_length=100, seed=4, simulator="fast",
                                 width=16, cache_dir=str(tmp_path))
            entries = [isa_entry((4, 0, 0, 2), width=16), exact_entry(16)]
            trace = config.characterization_trace()
            cold = characterize_designs(entries, trace, config)
            backend = config.runtime_backend()
            misses_after_cold = backend.stats.misses
            warm = characterize_designs(entries, trace, config)
            assert backend.stats.misses == misses_after_cold  # zero new simulation
            assert backend.stats.hits == len(entries)
            for reference, candidate in zip(cold, warm):
                assert_bit_identical(reference, candidate)
        finally:
            shutdown_backends()

    def test_collect_bit_datasets_cache_dir(self, tmp_path):
        job = small_job(length=100)
        [cold] = collect_bit_datasets([job], cache_dir=str(tmp_path))
        [warm] = collect_bit_datasets([job], cache_dir=str(tmp_path))
        for clk in PERIODS:
            for reference, candidate in zip(cold[clk], warm[clk]):
                assert np.array_equal(reference.features, candidate.features)
                assert np.array_equal(reference.labels, candidate.labels)


class TestEnvParsingRegressions:
    """Malformed runtime env vars raise ConfigurationError, not ValueError."""

    def test_malformed_workers(self, monkeypatch, unresolved_settings):
        monkeypatch.setenv("REPRO_WORKERS", "auto")
        with pytest.raises(ConfigurationError, match="REPRO_WORKERS.*'auto'"):
            StudyConfig()

    def test_malformed_trace_scale(self, monkeypatch, unresolved_settings):
        monkeypatch.setenv("REPRO_TRACE_SCALE", "fast")
        with pytest.raises(ConfigurationError, match="REPRO_TRACE_SCALE.*'fast'"):
            StudyConfig()

    def test_empty_values_fall_back_to_defaults(self, monkeypatch, unresolved_settings):
        monkeypatch.setenv("REPRO_WORKERS", "")
        monkeypatch.setenv("REPRO_TRACE_SCALE", "")
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        config = StudyConfig()
        assert config.workers is None
        assert config.trace_scale == 1.0
        assert config.cache_dir is None


class TestPoolLifecycle:
    def test_shutdown_backends_closes_shared_pools(self):
        config = StudyConfig(backend="multiprocess", workers=2, cache_dir=None)
        backend = config.runtime_backend()
        job = small_job(length=70)
        backend.run([job])
        pool_backend = backend  # the shared raw backend, no wrapper
        assert pool_backend._pool is not None
        assert _BACKEND_INSTANCES
        shutdown_backends()
        assert pool_backend._pool is None
        assert not _BACKEND_INSTANCES
        # idempotent, and the registry repopulates lazily afterwards
        shutdown_backends()
        assert config.runtime_backend() is not backend


class TestSliceNameComposition:
    def test_nested_slices_use_absolute_positions(self):
        trace = uniform_workload(200, width=16, seed=1)  # named uniform16x200
        outer = trace.slice(64, 129)
        assert outer.name == "uniform16x200[64:129]"
        inner = outer.slice(0, 33)
        assert inner.name == "uniform16x200[64:97]"
        assert np.array_equal(inner.a, trace.a[64:97])
        deeper = inner.slice(10, 20)
        assert deeper.name == "uniform16x200[74:84]"
        assert np.array_equal(deeper.a, trace.a[74:84])

    def test_open_ended_suffixes_compose(self):
        trace = uniform_workload(100, width=16, seed=1)
        head = trace.take(50)           # uniform16x100[:50]
        assert head.slice(10, 20).name == "uniform16x100[10:20]"
        _, tail = trace.split(0.5)      # uniform16x100[50:]
        assert tail.slice(10, 20).name == "uniform16x100[60:70]"
        assert np.array_equal(tail.slice(10, 20).a, trace.a[60:70])

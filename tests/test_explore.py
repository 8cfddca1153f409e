"""Tests of the design-space exploration subsystem (repro.explore).

The contract under test: enumeration yields exactly the legal quadruple
space (validity, counts, deterministic subsampling); a sweep batch
through the job pipeline is bit-identical point by point to per-job
serial execution, across both execution backends; Pareto extraction
satisfies the dominance axioms and anchors on the exact baseline; the
``repro-explore`` CLI is warm-cache reproducible with zero simulated
jobs; and the two cache satellites — the byte budget and the per-run
hit/miss counters — behave.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from reference_kernels import nondominated_mask as reference_mask
from repro.core.config import ISAConfig
from repro.exceptions import AnalysisError, ConfigurationError
from repro.experiments.common import StudyConfig, shutdown_backends
from repro.explore.cli import main as explore_main
from repro.explore.pareto import (
    ParetoPoint,
    aggregate_points,
    dominates,
    nearest_paper_design,
    nondominated_mask,
    pareto_frontier,
    quadruple_distance,
    rank_frontier,
)
from repro.explore.space import DesignSpace, enumerate_quadruples, legal_block_sizes
from repro.explore.sweep import (
    SweepSpec,
    run_sweep,
    score_characterization,
    sweep_clock_plan,
)
from repro.runtime import CachingBackend, MultiprocessBackend, SerialBackend, job_digest
from repro.workloads.generators import WorkloadSpec


def small_spec(width=16, max_designs=4, length=96, workloads=("uniform",),
               cpr_levels=(0.0, 0.10), **kwargs) -> SweepSpec:
    """A quick sweep over a few designs plus the exact baseline."""
    entries = DesignSpace(width=width).entries(max_designs=max_designs)
    specs = tuple(WorkloadSpec(kind, length, width=width, seed=11 + index)
                  for index, kind in enumerate(workloads))
    return SweepSpec(entries=tuple(entries), clock_plan=sweep_clock_plan(cpr_levels),
                     workloads=specs, width=width, **kwargs)


class TestSpaceEnumeration:
    def test_legal_block_sizes(self):
        assert legal_block_sizes(16) == (1, 2, 4, 8)
        assert legal_block_sizes(8) == (1, 2, 4)
        assert legal_block_sizes(2) == (1,)

    def test_count_matches_closed_form(self):
        # Per block b the windows each range over 0..b: (b+1)^3 quadruples.
        assert len(enumerate_quadruples(8)) == 2 ** 3 + 3 ** 3 + 5 ** 3
        assert len(enumerate_quadruples(16)) == 2 ** 3 + 3 ** 3 + 5 ** 3 + 9 ** 3
        assert DesignSpace(width=16).size == 889

    def test_every_quadruple_is_constructible(self):
        for quadruple in enumerate_quadruples(8):
            config = ISAConfig.from_quadruple(quadruple, width=8)
            assert not config.is_exact  # block == width is excluded

    def test_sorted_and_deterministic(self):
        space = DesignSpace(width=16)
        quadruples = space.quadruples()
        assert quadruples == sorted(quadruples)
        assert quadruples == space.quadruples()

    def test_iterator_matches_list(self):
        """iter_quadruples is the lazy twin of quadruples(): same items,
        same order, same counts, with nothing materialised for size."""
        for width in (8, 16, 32):
            space = DesignSpace(width=width)
            iterated = list(space.iter_quadruples())
            assert iterated == space.quadruples()
            assert space.size == len(iterated)
        constrained = DesignSpace(width=16, block_sizes=(8,), max_overhead_bits=3)
        assert list(constrained.iter_quadruples()) == constrained.quadruples()
        assert constrained.size == len(constrained.quadruples())

    def test_iterator_is_lazy(self):
        iterator = DesignSpace(width=64).iter_quadruples()
        assert next(iterator) == (1, 0, 0, 0)
        assert next(iterator) == (1, 0, 0, 1)

    def test_select_subsample(self):
        space = DesignSpace(width=16)
        subset = space.select(max_designs=64)
        assert len(subset) == 64
        assert len(set(subset)) == 64
        assert set(subset) <= set(space.quadruples())
        assert subset == space.select(max_designs=64)  # deterministic
        # strided selection spans the block sizes, not just the cheap end
        assert {quadruple[0] for quadruple in subset} == {1, 2, 4, 8}
        assert space.select(max_designs=10 ** 6) == space.quadruples()
        assert space.select(None) == space.quadruples()

    def test_entries_append_exact_outside_budget(self):
        entries = DesignSpace(width=16).entries(max_designs=8)
        assert len(entries) == 9
        assert entries[-1].is_exact
        assert all(not entry.is_exact for entry in entries[:-1])
        no_exact = DesignSpace(width=16).entries(max_designs=8, include_exact=False)
        assert len(no_exact) == 8

    def test_constraints(self):
        space = DesignSpace(width=16, block_sizes=(4, 8), max_spec=1,
                            max_correction=0, max_reduction=2)
        quadruples = space.quadruples()
        assert all(quadruple[0] in (4, 8) for quadruple in quadruples)
        assert all(quadruple[1] <= 1 and quadruple[2] == 0 and quadruple[3] <= 2
                   for quadruple in quadruples)
        assert len(quadruples) == 2 * 2 * 1 * 3

    def test_max_overhead_bits(self):
        space = DesignSpace(width=16, block_sizes=(8,), max_overhead_bits=3)
        assert all(sum(quadruple[1:]) <= 3 for quadruple in space.quadruples())

    def test_invalid_constraints_rejected(self):
        with pytest.raises(ConfigurationError):
            DesignSpace(width=16, block_sizes=(3,))  # not a divisor
        with pytest.raises(ConfigurationError):
            DesignSpace(width=16, block_sizes=(16,))  # the exact adder
        with pytest.raises(ConfigurationError):
            DesignSpace(width=16, max_spec=-1)


class TestProvablyExact:
    def test_two_block_full_window_is_exact_by_design(self):
        assert ISAConfig.from_quadruple((8, 8, 0, 0), width=16).is_provably_exact
        assert ISAConfig.from_quadruple((8, 8, 4, 2), width=16).is_provably_exact
        assert ISAConfig.exact(16).is_provably_exact

    def test_everything_else_is_not(self):
        assert not ISAConfig.from_quadruple((8, 7, 8, 8), width=16).is_provably_exact
        assert not ISAConfig.from_quadruple((4, 4, 0, 0), width=16).is_provably_exact
        assert not ISAConfig(width=16, block_size=8, spec_size=8,
                             speculate_on_propagate=1).is_provably_exact


class TestSweepExpansion:
    def test_job_and_point_counts(self):
        spec = small_spec(max_designs=3, workloads=("uniform", "ramp"))
        assert spec.job_count == 4 * 2  # 3 ISA + exact, per workload
        assert spec.point_count == spec.job_count * 2  # two CPR levels
        jobs = spec.jobs()
        assert len(jobs) == spec.job_count
        # workload-major order, shared trace object per workload
        assert jobs[0].trace is jobs[3].trace
        assert jobs[4].trace is not jobs[0].trace
        assert all(job.clock_periods == tuple(spec.clock_plan.periods) for job in jobs)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(entries=(), workloads=(WorkloadSpec("uniform", 32, width=16),),
                      width=16)
        entries = tuple(DesignSpace(width=16).entries(max_designs=1))
        with pytest.raises(ConfigurationError):
            SweepSpec(entries=entries, workloads=(), width=16)
        with pytest.raises(ConfigurationError):
            SweepSpec(entries=entries,
                      workloads=(WorkloadSpec("uniform", 32, width=32),), width=16)
        with pytest.raises(ConfigurationError):
            SweepSpec(entries=entries, simulator="spice",
                      workloads=(WorkloadSpec("uniform", 32, width=16),), width=16)


class TestSweepBitIdentity:
    def test_batch_equals_per_job_serial(self):
        spec = small_spec()
        batched = run_sweep(spec, backend="serial")
        backend = SerialBackend()
        expected = []
        index = 0
        for workload in spec.workloads:
            for _ in spec.entries:
                [characterization] = backend.run([spec.jobs()[index]])
                expected.extend(score_characterization(
                    characterization, spec.clock_plan, spec.width, workload.kind))
                index += 1
        assert batched.points == expected

    def test_serial_and_multiprocess_agree(self):
        spec = small_spec(max_designs=3)
        serial = run_sweep(spec, backend="serial")
        pool = MultiprocessBackend(workers=2)
        try:
            multiprocess = run_sweep(spec, backend=pool)
        finally:
            pool.close()
        assert serial.points == multiprocess.points

    def test_cached_sweep_is_bit_identical_and_warm(self, tmp_path):
        spec = small_spec(max_designs=2)
        uncached = run_sweep(spec, backend="serial")
        cold = run_sweep(spec, backend="serial", cache_dir=str(tmp_path))
        warm = run_sweep(spec, backend="serial", cache_dir=str(tmp_path))
        assert uncached.points == cold.points == warm.points

    def test_result_accessors(self):
        spec = small_spec(max_designs=2)
        result = run_sweep(spec)
        assert len(result.designs) == 3
        assert result.designs[-1] == "exact"
        for design in result.designs:
            points = result.points_for(design)
            assert len(points) == len(spec.clock_plan.cpr_levels) * len(spec.workloads)
            assert all(point.design == design for point in points)


def point(design="d", quadruple=(8, 0, 0, 0), cpr=0.0, rms=1.0, gates=100,
          area=1.0, provably_exact=False) -> ParetoPoint:
    return ParetoPoint(design=design, quadruple=quadruple, cpr=cpr,
                       clock_period=3e-10 * (1 - cpr), rms_re=rms, error_rate=rms,
                       gates=gates, area_proxy=area, critical_path_delay=2.9e-10,
                       workloads=1, provably_exact=provably_exact)


class TestParetoProperties:
    def test_dominance_axioms(self):
        better = point(design="a", rms=0.1, gates=50, area=0.5)
        worse = point(design="b", rms=0.2, gates=60, area=0.6)
        assert dominates(better, worse)
        assert not dominates(worse, better)
        assert not dominates(better, better)  # irreflexive (no strict axis)

    def test_equal_points_are_both_kept(self):
        twins = [point(design="a"), point(design="b")]
        assert pareto_frontier(twins) == twins

    def test_frontier_is_exactly_the_nondominated_set(self):
        points = [
            point(design="a", rms=0.0, gates=100, area=1.0),
            point(design="b", rms=0.5, gates=50, area=0.5),
            point(design="c", rms=0.5, gates=60, area=0.6),   # dominated by b
            point(design="d", rms=1.0, gates=50, area=0.5),   # dominated by b
            point(design="e", rms=0.25, gates=80, area=0.9),
        ]
        frontier = pareto_frontier(points)
        assert [p.design for p in frontier] == ["a", "b", "e"]
        for member in frontier:
            assert not any(dominates(other, member) for other in points)
        for excluded in points:
            if excluded not in frontier:
                assert any(dominates(member, excluded) for member in frontier)

    def test_guarantee_axis_protects_the_baseline(self):
        # A lucky measured-zero design with fewer gates must not evict
        # the guaranteed-exact baseline.
        exact = point(design="exact", quadruple=None, rms=0.0, gates=227,
                      area=1.0, provably_exact=True)
        lucky = point(design="lucky", rms=0.0, gates=180, area=0.9)
        frontier = pareto_frontier([exact, lucky])
        assert exact in frontier and lucky in frontier

    def test_rank_frontier_orders_by_accuracy_then_cost(self):
        ranked = rank_frontier([point(design="b", rms=0.5, gates=10),
                                point(design="a", rms=0.1, gates=99),
                                point(design="c", rms=0.5, gates=5)])
        assert [p.design for p in ranked] == ["a", "c", "b"]

    def test_empty_objectives_rejected(self):
        with pytest.raises(AnalysisError):
            pareto_frontier([point()], objectives=())

    def test_aggregate_points_averages_workloads(self):
        spec = small_spec(max_designs=1, workloads=("uniform", "ramp"),
                          cpr_levels=(0.0,))
        result = run_sweep(spec)
        candidates = aggregate_points(result.points)
        assert len(candidates) == 2  # (design, cpr) pairs: 2 designs x 1 cpr
        for candidate in candidates:
            group = [p for p in result.points if p.design == candidate.design]
            assert candidate.workloads == 2
            expected = sum(p.stats.rms_relative_error for p in group) / 2
            assert candidate.rms_re == pytest.approx(expected, abs=0.0)

    def test_aggregate_empty_rejected(self):
        with pytest.raises(AnalysisError):
            aggregate_points([])

    def test_nearest_paper_design(self):
        assert nearest_paper_design(None) == ("exact", 0.0)
        name, distance = nearest_paper_design((8, 0, 0, 4))
        assert (name, distance) == ("(8,0,0,4)", 0.0)
        name, distance = nearest_paper_design((8, 0, 0, 5))
        assert name in ("(8,0,0,4)", "(8,0,1,6)")
        assert distance == 1.0
        assert quadruple_distance((1, 2, 3, 4), (1, 2, 3, 4)) == 0.0
        assert quadruple_distance((0, 0, 0, 0), (3, 4, 0, 0)) == 5.0


def _tied_matrix(rows, columns, seed):
    """Small-integer objectives (ties, duplicate rows) salted with NaN,
    +-inf and -0.0."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 4, size=(rows, columns)).astype(np.float64)
    salted = rng.random((rows, columns)) < 0.08
    values[salted] = rng.choice([np.nan, np.inf, -np.inf, -0.0], size=int(salted.sum()))
    values[rows // 2:rows // 2 + rows // 10] = values[:rows // 10]
    return values


class TestNondominatedMask:
    """The sort-filter mask equals the all-pairs oracle and the pairwise rule."""

    @pytest.mark.parametrize("columns", [0, 1, 5])
    @pytest.mark.parametrize("rows", [0, 1, 2, 40, 200, 255, 256, 257, 1000])
    def test_matches_all_pairs_and_dominates(self, rows, columns):
        values = _tied_matrix(rows, columns, seed=rows * 10 + columns)
        mask = nondominated_mask(values)
        assert mask.dtype == bool and np.array_equal(mask, reference_mask(values))
        if rows <= 200:
            objectives = [lambda row, column=column: row[column] for column in range(columns)]
            assert mask.tolist() == [
                not any(dominates(other, row, objectives) for other in values)
                for row in values]

    def test_dominator_dropped_in_an_earlier_block(self):
        # Sorted, the 300 fillers put the last row in the second block of
        # 256; its only direct dominator (1, 1) fell in the first, to (0, 0).
        values = np.array([[0.0, 0.0], [1.0, 1.0]]
                          + [[1.5, 10.0 + index] for index in range(300)] + [[2.0, 2.0]])
        shuffled = values[np.random.default_rng(3).permutation(values.shape[0])]
        mask = nondominated_mask(shuffled)
        assert mask.tolist() == (shuffled == 0.0).all(axis=1).tolist()
        assert np.array_equal(mask, reference_mask(shuffled))

    def test_rejects_non_matrix(self):
        with pytest.raises(AnalysisError):
            nondominated_mask(np.zeros(3))


class TestExploreCli:
    def run_cli(self, tmp_path, name, extra=()):
        output = tmp_path / name
        args = ["--width", "16", "--max-designs", "24", "--length", "128",
                "--cache-dir", str(tmp_path / "cache"), "--seed", "3",
                "--output", str(output)]
        assert explore_main(args + list(extra)) == 0
        shutdown_backends()  # fresh shared-backend registry, like a new process
        return output.read_text()

    def test_cold_then_warm_zero_jobs(self, tmp_path):
        cold = self.run_cli(tmp_path, "cold.txt")
        assert "Pareto frontier" in cold
        assert "exact" in cold
        assert "cache=0 hits / 25 misses" in cold
        assert "simulated 25 of 25 jobs" in cold
        warm = self.run_cli(tmp_path, "warm.txt")
        assert "cache=25 hits / 0 misses" in warm
        assert "simulated 0 of 25 jobs" in warm
        strip = lambda text: [line for line in text.splitlines()
                              if not line.startswith("(explored")]
        assert strip(cold) == strip(warm)

    def test_frontier_contains_exact_baseline(self, tmp_path):
        report = self.run_cli(tmp_path, "report.txt")
        frontier_rows = [line for line in report.splitlines()
                         if "exact (baseline)" in line]
        assert frontier_rows, "the exact baseline must sit on the frontier"

    def test_parser_validation(self, tmp_path):
        with pytest.raises(SystemExit):
            explore_main(["--cache-dir", str(tmp_path), "--no-cache"])
        with pytest.raises(SystemExit):
            explore_main(["--width", "1"])
        with pytest.raises(SystemExit):
            explore_main(["--length", "4"])
        with pytest.raises(SystemExit):
            explore_main(["--workloads", "noise"])
        with pytest.raises(SystemExit):
            explore_main(["--engine", "auto"])

    def test_uncached_run_reports_no_cache(self, tmp_path, repro_env):
        repro_env(REPRO_CACHE_DIR=None, REPRO_SYNTH_CACHE=None)
        output = tmp_path / "plain.txt"
        assert explore_main(["--width", "16", "--max-designs", "2", "--length", "64",
                             "--no-cache", "--output", str(output)]) == 0
        shutdown_backends()
        assert "cache=" not in output.read_text()


class TestCacheBudget:
    def small_job(self, seed):
        from tests.test_result_cache import small_job
        return small_job(seed=seed)

    def test_store_budget_prunes_oldest(self, tmp_path):
        from repro.runtime import ResultStore
        store = ResultStore(tmp_path, limit_bytes=1)
        first = store.result_path("aa" + "0" * 62)
        second = store.result_path("bb" + "1" * 62)
        store.store(first, {"blob": b"x" * 4096})
        store.store(second, {"blob": b"y" * 4096})
        # Backdate the first entry so mtime ordering is unambiguous.
        os.utime(first, (1, 1))
        removed = store.prune_to_limit()
        assert removed >= 1
        assert store.load(first) is None
        assert store.stats.pruned == removed
        assert store.total_bytes() <= 4096 + 1024  # at most the newer entry

    def test_caching_backend_enforces_budget(self, tmp_path):
        jobs = [self.small_job(seed) for seed in (1, 2, 3)]
        unlimited = CachingBackend(SerialBackend(), tmp_path / "unlimited")
        unlimited.run(jobs)
        per_entry = unlimited.store.total_bytes() / len(jobs)

        limited = CachingBackend(SerialBackend(), tmp_path / "limited",
                                 limit_mb=1.5 * per_entry / (1024 * 1024))
        limited.run(jobs)
        assert limited.stats.pruned >= 1
        assert limited.store.total_bytes() <= 2 * per_entry
        # Evicted entries are recompute-misses, never errors, and the
        # recomputed result is still served bit-identically.
        from tests.test_result_cache import assert_bit_identical
        [reference] = SerialBackend().run([jobs[0]])
        [again] = CachingBackend(SerialBackend(), tmp_path / "limited").run([jobs[0]])
        assert_bit_identical(reference, again)

    def test_warm_run_never_prunes(self, tmp_path):
        job = self.small_job(seed=5)
        cache_dir = tmp_path / "cache"
        CachingBackend(SerialBackend(), cache_dir).run([job])
        digest_dir = CachingBackend(SerialBackend(), cache_dir).store.entry_dir(
            job_digest(job))
        assert digest_dir.exists()
        warm = CachingBackend(SerialBackend(), cache_dir, limit_mb=10000)
        warm.run([job])
        assert warm.stats.pruned == 0
        assert digest_dir.exists()

    def test_invalid_budgets_rejected(self, tmp_path):
        from repro.runtime import ResultStore
        with pytest.raises(ConfigurationError):
            ResultStore(tmp_path, limit_bytes=0)
        with pytest.raises(ConfigurationError):
            CachingBackend(SerialBackend(), tmp_path, limit_mb=0)
        with pytest.raises(ConfigurationError):
            StudyConfig(cache_limit_mb=-1)

    def test_study_config_passes_budget_to_backend(self, tmp_path):
        try:
            config = StudyConfig(backend="serial", cache_dir=str(tmp_path),
                                 cache_limit_mb=64)
            backend = config.runtime_backend()
            assert isinstance(backend, CachingBackend)
            assert backend.store.limit_bytes == 64 * 1024 * 1024
            # a different budget is a different shared instance
            other = StudyConfig(backend="serial", cache_dir=str(tmp_path),
                                cache_limit_mb=None).runtime_backend()
            assert other is not backend
            assert other.store.limit_bytes is None
        finally:
            shutdown_backends()


class TestPerRunCounters:
    def test_snapshot_and_since(self, tmp_path):
        job = TestCacheBudget().small_job(seed=9)
        backend = CachingBackend(SerialBackend(), tmp_path)
        backend.run([job])
        baseline = backend.stats.snapshot()
        backend.run([job])
        delta = backend.stats.since(baseline)
        assert (delta.hits, delta.misses) == (1, 0)
        assert (backend.stats.hits, backend.stats.misses) == (1, 1)  # cumulative
        assert "1 hits / 0 misses" in delta.describe()

    def test_reset_counters_shared_with_store(self, tmp_path):
        job = TestCacheBudget().small_job(seed=10)
        backend = CachingBackend(SerialBackend(), tmp_path)
        backend.run([job])
        assert backend.stats.misses == 1
        backend.reset_counters()
        assert backend.stats.misses == 0
        assert backend.store.stats is backend.stats  # still one shared object
        backend.run([job])
        assert (backend.stats.hits, backend.stats.misses) == (1, 0)

    def test_runner_footer_reports_this_run_only(self, tmp_path):
        """Two CLI runs in one process share the caching backend; the
        second footer must show only its own (all-hit) counters."""
        from repro.experiments.runner import main as runner_main
        cache_dir = tmp_path / "cache"
        base = ["--scale", "0.05", "--simulator", "fast", "--figures", "fig9",
                "--cache-dir", str(cache_dir)]
        cold_path, warm_path = tmp_path / "cold.txt", tmp_path / "warm.txt"
        try:
            assert runner_main(base + ["--output", str(cold_path)]) == 0
            # no shutdown_backends(): the shared instance keeps counting
            assert runner_main(base + ["--output", str(warm_path)]) == 0
        finally:
            shutdown_backends()
        assert "cache=0 hits / 12 misses" in cold_path.read_text()
        assert "cache=12 hits / 0 misses" in warm_path.read_text()

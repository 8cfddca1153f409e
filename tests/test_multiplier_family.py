"""Tests of the approximate array multiplier family (repro.families.multiplier).

The contract under test: the behavioural model and the netlist
generator are bit-identical on random vectors across the *entire* legal
width-8 space (the pipeline's netlist-vs-golden cross-check depends on
it); configuration legality is enforced; a multiplier sweep through the
job pipeline is bit-identical across serial, multiprocess and cached
backends with warm re-runs simulating zero jobs; and the Pareto
frontier of a multiplier sweep anchors on the exact baseline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.explore.pareto import aggregate_points, pareto_frontier, rank_frontier
from repro.explore.sweep import SweepSpec, run_sweep
from repro.families import get_family
from repro.families.multiplier import (
    ApproximateArrayMultiplier,
    ExactMultiplier,
    MultiplierConfig,
    MultiplierSpace,
    exact_multiplier_entry,
    exact_multiplier_netlist,
    legal_segment_sizes,
    multiplier_entry,
    multiplier_netlist,
    multiplier_surrogate_features,
)
from repro.runtime import CachingBackend, MultiprocessBackend
from repro.synth.flow import SynthesisOptions, synthesize
from repro.timing.clocking import ClockPlan
from repro.workloads.generators import WorkloadSpec


def operand_vectors(width=8, length=128, seed=29):
    rng = np.random.default_rng(seed)
    high = 1 << width
    return (rng.integers(0, high, size=length, dtype=np.uint64),
            rng.integers(0, high, size=length, dtype=np.uint64))


def small_mul_spec(width=8, max_designs=4, length=96,
                   cpr_levels=(0.0, 0.15)) -> SweepSpec:
    """A quick multiplier sweep: a few designs plus the exact baseline."""
    family = get_family("multiplier")
    entries = family.design_space(width).entries(max_designs=max_designs)
    plan = ClockPlan(safe_period=family.safe_period(width), cpr_levels=cpr_levels)
    workloads = (WorkloadSpec("uniform", length, width=width, seed=17),)
    return SweepSpec(entries=tuple(entries), clock_plan=plan,
                     workloads=workloads, width=width)


class TestConfigLegality:
    def test_legal_segment_sizes(self):
        assert legal_segment_sizes(8) == (0, 2, 4, 8)
        assert legal_segment_sizes(6) == (0, 2, 3, 4, 6)
        assert legal_segment_sizes(2) == (0, 2)

    def test_quadruple_roundtrip_and_names(self):
        config = MultiplierConfig.from_quadruple((4, 2, 1, 3), width=8)
        assert config.quadruple == (4, 2, 1, 3)
        assert config.name == "mul(4,2,1,3)"
        assert config.label == "mul8_4_2_1_3"
        assert not config.is_provably_exact
        assert MultiplierConfig(width=8).is_provably_exact

    @pytest.mark.parametrize("quadruple", [
        (9, 0, 0, 0),    # truncation beyond the width
        (0, 3, 0, 0),    # 3 does not divide 16
        (0, 1, 0, 0),    # 1-bit segments drop every carry
        (1, 0, 1, 0),    # correction needs truncation >= 2
        (0, 0, 1, 0),    # correction needs truncation >= 2
        (0, 0, 2, 0),    # correction is a flag
        (0, 0, 0, 8),    # row_skip must leave one row
    ])
    def test_illegal_quadruples_raise(self, quadruple):
        with pytest.raises(ConfigurationError):
            MultiplierConfig.from_quadruple(quadruple, width=8)

    def test_width_cap(self):
        with pytest.raises(ConfigurationError, match="31"):
            MultiplierConfig(width=32)
        with pytest.raises(ConfigurationError, match="31"):
            ExactMultiplier(32)

    def test_operand_range_checked(self):
        a, b = operand_vectors(width=8)
        with pytest.raises(ConfigurationError, match="range"):
            ExactMultiplier(4).multiply_many(a, b)

    def test_entry_structure(self):
        entry = multiplier_entry((2, 0, 0, 0), width=8)
        assert entry.family == "multiplier"
        assert not entry.is_exact
        assert entry.name == "mul(2,0,0,0)"
        exact = exact_multiplier_entry(8)
        assert exact.is_exact and exact.config is None and exact.name == "exact"


class TestSpaceEnumeration:
    def test_width8_space_size(self):
        # t in 0..8 x 4 segments x r in 0..4, doubled for c=1 with
        # t in 2..8, minus the excluded exact (0,0,0,0).
        assert MultiplierSpace(width=8).size == 9 * 4 * 5 + 7 * 4 * 5 - 1

    def test_sorted_lazy_and_deterministic(self):
        space = MultiplierSpace(width=8)
        quadruples = space.quadruples()
        assert quadruples == sorted(quadruples)
        assert list(space.iter_quadruples()) == quadruples
        assert (0, 0, 0, 0) not in quadruples
        assert all(MultiplierConfig.from_quadruple(q, width=8) is not None
                   for q in quadruples[:20])

    def test_select_and_entries(self):
        space = MultiplierSpace(width=8)
        subset = space.select(max_designs=16)
        assert len(subset) == 16 and len(set(subset)) == 16
        assert subset == space.select(max_designs=16)
        entries = space.entries(max_designs=8)
        assert len(entries) == 9 and entries[-1].is_exact

    def test_constraints(self):
        space = MultiplierSpace(width=8, max_truncation=2, max_row_skip=1)
        assert all(q[0] <= 2 and q[3] <= 1 for q in space.quadruples())
        assert "max_truncation=2" in space.describe()

    def test_surrogate_features_shape_and_guarantee(self):
        space = MultiplierSpace(width=8)
        quadruples = np.array(space.quadruples(), dtype=np.int64)
        features = multiplier_surrogate_features(quadruples, 8)
        assert features.shape[0] == quadruples.shape[0]
        family = get_family("multiplier")
        column = family.surrogate_feature_names.index("provably_exact")
        # The exact configuration is excluded from the space, so no
        # enumerated candidate carries the guarantee.
        assert not features[:, column].any()


class TestBehavioralNetlistEquivalence:
    def test_exact_netlist_matches_reference(self):
        a, b = operand_vectors()
        netlist = exact_multiplier_netlist(8)
        words = netlist.compute_words(
            {"A": a, "B": b, "cin": np.zeros_like(a)}, output_bus="S")
        assert np.array_equal(words, a * b)

    def test_full_legal_space_equivalence(self):
        """Behavioural vs netlist, every width-8 quadruple, random vectors."""
        a, b = operand_vectors(length=96)
        cin0 = np.zeros_like(a)
        for quadruple in MultiplierSpace(width=8).iter_quadruples():
            config = MultiplierConfig.from_quadruple(quadruple, width=8)
            gold = ApproximateArrayMultiplier(config).multiply_many(a, b)
            words = multiplier_netlist(config).compute_words(
                {"A": a, "B": b, "cin": cin0}, output_bus="S")
            assert np.array_equal(gold, words), f"mismatch at {quadruple}"

    def test_carry_in_is_never_truncated(self):
        a, b = operand_vectors(length=64)
        config = MultiplierConfig.from_quadruple((8, 2, 1, 4), width=8)
        gold = ApproximateArrayMultiplier(config).multiply_many(a, b, cin=1)
        words = multiplier_netlist(config).compute_words(
            {"A": a, "B": b, "cin": np.ones_like(a)}, output_bus="S")
        assert np.array_equal(gold, words)
        base = ApproximateArrayMultiplier(config).multiply_many(a, b, cin=0)
        assert np.array_equal(gold, base + 1)

    def test_equivalence_survives_synthesis(self):
        a, b = operand_vectors(length=64)
        options = SynthesisOptions()
        family = get_family("multiplier")
        for quadruple in [(0, 0, 0, 0), (4, 4, 1, 0), (8, 2, 1, 4)]:
            entry = (exact_multiplier_entry(8) if quadruple == (0, 0, 0, 0)
                     else multiplier_entry(quadruple, width=8))
            design = synthesize(family.design_spec(entry, 8, options), options)
            words = design.netlist.compute_words(
                {"A": a, "B": b, "cin": np.zeros_like(a)}, output_bus="S")
            gold, _ = family.golden_words(entry, 8, a, b)
            assert np.array_equal(words, gold), f"mismatch at {quadruple}"

    def test_family_exact_and_golden_words(self):
        a, b = operand_vectors(length=64)
        family = get_family("multiplier")
        diamond = family.exact_words(8, a, b)
        assert np.array_equal(diamond, a * b)
        gold, stats = family.golden_words(exact_multiplier_entry(8), 8, a, b,
                                          diamond=diamond)
        assert stats is None
        assert np.array_equal(gold, diamond) and gold is not diamond
        # collect_stats is a no-op for the multiplier (no structural
        # fault model), never an error.
        _, stats = family.golden_words(multiplier_entry((2, 0, 0, 0), width=8),
                                       8, a, b, collect_stats=True)
        assert stats is None

    def test_width_mismatch_raises(self):
        family = get_family("multiplier")
        with pytest.raises(ConfigurationError, match="8-bit"):
            family.design_spec(multiplier_entry((2, 0, 0, 0), width=8), 16,
                               SynthesisOptions())


class TestMultiplierSweep:
    def test_serial_multiprocess_cached_bit_identity(self, tmp_path):
        spec = small_mul_spec(max_designs=3)
        serial = run_sweep(spec, backend="serial")
        pool = MultiprocessBackend(workers=2)
        try:
            multiprocess = run_sweep(spec, backend=pool)
        finally:
            pool.close()
        cold = run_sweep(spec, backend="serial", cache_dir=str(tmp_path))
        warm = run_sweep(spec, backend="serial", cache_dir=str(tmp_path))
        assert serial.points == multiprocess.points == cold.points == warm.points

    def test_warm_cached_sweep_simulates_zero_jobs(self, tmp_path):
        from repro.runtime import SerialBackend
        spec = small_mul_spec(max_designs=2)
        backend = CachingBackend(SerialBackend(), tmp_path)
        try:
            run_sweep(spec, backend=backend)
            baseline = backend.stats.snapshot()
            run_sweep(spec, backend=backend)
            warm_stats = backend.stats.since(baseline)
        finally:
            backend.close()
        assert warm_stats.misses == 0
        assert warm_stats.hits == spec.job_count

    def test_sweep_points_use_the_product_width(self):
        spec = small_mul_spec(max_designs=2, length=64)
        result = run_sweep(spec, backend="serial")
        assert result.points, "sweep must score points"
        for point in result.points:
            if point.is_exact:
                assert point.provably_exact
        # Scoring used result_width = 2 * width: the error statistics
        # normalise by the 16-bit product range, so no relative error
        # can exceed the full-scale ratio of a 16-bit bus.
        assert all(point.stats.rms_relative_error <= 1.0
                   for point in result.points)

    def test_pareto_frontier_anchored_by_exact_baseline(self):
        spec = small_mul_spec(max_designs=6, length=96)
        result = run_sweep(spec, backend="serial")
        ranked = rank_frontier(pareto_frontier(aggregate_points(result.points)))
        assert ranked, "frontier must not be empty"
        exact_points = [point for point in ranked if point.is_exact]
        assert exact_points, "the exact multiplier must sit on the frontier"
        assert all(point.provably_exact for point in exact_points)
        # The exact baseline at the safe period is genuinely error-free:
        # the family's safe period clears the exact critical path.
        safe_points = [point for point in result.points
                       if point.is_exact and point.cpr == 0.0]
        assert safe_points
        assert all(point.stats.error_rate == 0.0 for point in safe_points)


class TestMultiplierEntryPickling:
    def test_entries_survive_pickling(self):
        # Multiprocess backends ship jobs (and their entries) to workers.
        import pickle
        for entry in (exact_multiplier_entry(8),
                      multiplier_entry((4, 2, 1, 0), width=8)):
            clone = pickle.loads(pickle.dumps(entry))
            assert clone == entry
            assert clone.family == "multiplier"

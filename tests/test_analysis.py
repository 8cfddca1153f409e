"""Tests for error metrics, bit-error distributions and text reports."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reference_kernels import error_statistics_per_metric
from repro.analysis.distribution import BitErrorDistribution, bit_error_distribution
from repro.analysis.metrics import (
    error_rate,
    error_statistics,
    mean_error_distance,
    mean_relative_error_distance,
    normalized_mean_error_distance,
    rms_relative_error,
    worst_case_error,
)
from repro.analysis.report import format_log_value, format_table
from repro.core.config import ISAConfig
from repro.core.isa import InexactSpeculativeAdder
from repro.exceptions import AnalysisError
from repro.timing.errors import TimingErrorTrace


class TestScalarMetrics:
    def test_error_rate(self):
        assert error_rate([1, 2, 3, 4], [1, 2, 0, 4]) == pytest.approx(0.25)

    def test_mean_error_distance(self):
        assert mean_error_distance([10, 10], [8, 14]) == pytest.approx(3.0)

    def test_normalized_med(self):
        assert normalized_mean_error_distance([0], [16], width=4) == pytest.approx(1.0)
        with pytest.raises(AnalysisError):
            normalized_mean_error_distance([0], [1], width=0)

    def test_mred(self):
        assert mean_relative_error_distance([10, 100], [11, 90]) == pytest.approx((0.1 + 0.1) / 2)

    def test_rms_relative_error(self):
        assert rms_relative_error([10, 10], [11, 9]) == pytest.approx(0.1)

    def test_worst_case(self):
        assert worst_case_error([5, 5, 5], [5, 1, 7]) == 4

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            error_rate([], [])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            rms_relative_error([1, 2], [1])

    def test_zero_exact_handled(self):
        assert np.isfinite(rms_relative_error([0, 4], [1, 4]))

    @given(st.lists(st.integers(min_value=1, max_value=2**40), min_size=1, max_size=50))
    def test_identical_outputs_have_zero_errors(self, values):
        stats = error_statistics(values, values, width=48)
        assert stats.error_rate == 0.0
        assert stats.rms_relative_error == 0.0
        assert stats.worst_case_error == 0
        assert stats.snr_db() == float("inf")

    def test_statistics_bundle(self):
        stats = error_statistics([100, 200], [90, 220], width=16)
        assert stats.samples == 2
        assert stats.as_dict()["worst_case"] == 20
        assert stats.snr_db() > 0

    def test_isa_statistics_are_consistent(self, short_trace32):
        adder = InexactSpeculativeAdder(ISAConfig.from_quadruple((8, 0, 0, 4)))
        gold = adder.add_many(short_trace32.a, short_trace32.b)
        exact = short_trace32.a + short_trace32.b
        stats = error_statistics(exact, gold, width=33)
        assert 0 < stats.error_rate < 1
        assert stats.mean_relative_error_distance <= stats.error_rate
        assert stats.worst_case_error <= adder.worst_case_error_bound()


class TestOneKernel:
    """``error_statistics`` and every single-metric function share one
    kernel; it must equal the metrics computed one at a time on fresh
    copies of the words (the oracle), and refuse words it cannot convert."""

    @pytest.mark.parametrize("seed", range(4))
    def test_statistics_match_the_per_metric_oracle(self, seed):
        rng = np.random.default_rng(seed)
        exact = rng.integers(0, 2**33, 4099, dtype=np.uint64)
        exact[::17] = 0  # the zero-denominator substitution
        approximate = exact ^ (rng.integers(0, 2, 4099, dtype=np.uint64)
                               << rng.integers(0, 33, 4099, dtype=np.uint64))
        for width in (1, 17, 33):
            got = error_statistics(exact, approximate, width=width)
            assert repr(got) == repr(error_statistics_per_metric(exact, approximate, width))
            assert got.mean_error_distance == mean_error_distance(exact, approximate)
            assert got.normalized_mean_error_distance == normalized_mean_error_distance(
                exact, approximate, width)
            assert got.worst_case_error == worst_case_error(exact, approximate)

    def test_words_at_or_above_2_63_raise(self):
        """A word of 2**63 or more no longer wraps negative, whether it
        comes as a ``uint64`` or among Python ints (which NumPy holds as
        floats)."""
        high = np.array([2**63 + 5, 7], dtype=np.uint64)
        low = np.array([5, 7], dtype=np.uint64)
        for exact, approximate in ((high, low), (low, high), ([2**63 + 5, 7], [5, 7]),
                                   ([5, 7], [2**63, 7])):
            with pytest.raises(AnalysisError, match="signed 64-bit range"):
                error_statistics(exact, approximate, width=64)
            for metric in (error_rate, mean_error_distance, mean_relative_error_distance,
                           rms_relative_error, worst_case_error):
                with pytest.raises(AnalysisError, match="signed 64-bit range"):
                    metric(exact, approximate)
        top = np.array([2**63 - 1, 7], dtype=np.uint64)
        assert error_statistics(top, low, width=64).worst_case_error == 2**63 - 6


class TestDistribution:
    def test_distribution_from_models(self, short_trace32):
        config = ISAConfig.from_quadruple((8, 0, 0, 4))
        adder = InexactSpeculativeAdder(config)
        gold, stats = adder.add_many_with_stats(short_trace32.a, short_trace32.b)
        # synthetic timing trace with errors on bit 20
        settled = gold[1:]
        sampled = settled ^ np.uint64(1 << 20)
        timing = TimingErrorTrace(clock_period=2.55e-10, sampled_words=sampled,
                                  settled_words=settled, output_width=33)
        distribution = bit_error_distribution(config.name, 32, stats, timing)
        assert distribution.structural.shape == (33,)
        assert distribution.timing[20] == pytest.approx(1.0)
        assert distribution.structural[4:8].sum() > 0
        assert int(distribution.positions[-1]) == 32
        rows = list(distribution.rows())
        assert len(rows) == 33

    def test_dominant_source(self):
        structural = np.zeros(5)
        timing = np.zeros(5)
        structural[1] = 0.5
        distribution = BitErrorDistribution("d", None, 4, structural, timing)
        assert distribution.dominant_source() == "structural"
        balanced = BitErrorDistribution("d", None, 4, structural, structural * 0.8)
        assert balanced.dominant_source() == "balanced"
        empty = BitErrorDistribution("d", None, 4, np.zeros(5), np.zeros(5))
        assert empty.dominant_source() == "none"

    def test_mismatched_series_rejected(self):
        with pytest.raises(AnalysisError):
            BitErrorDistribution("d", None, 4, np.zeros(5), np.zeros(4))


class TestReport:
    def test_format_log_value_floors_zero(self):
        assert format_log_value(0.0) == "1.00e-06"
        assert format_log_value(0.5) == "5.00e-01"

    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1], ["long-name", 22]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[2] and "value" in lines[2]
        assert len(lines) == 6

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(AnalysisError):
            format_table(["a", "b"], [["only-one"]])

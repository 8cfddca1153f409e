"""Unit tests for the error-combination methodology (repro.core.combination)."""

import numpy as np
import pytest

from repro.core.combination import combination_flow, combine_errors, relative_errors
from repro.exceptions import AnalysisError


class TestCombineErrors:
    def test_paper_additive_example(self):
        """Fig. 4 of the paper: both contributions negative, they add up."""
        errors = combine_errors([8], [6], [4])
        assert errors.e_struct.tolist() == [-2]
        assert errors.e_timing.tolist() == [-2]
        assert errors.e_joint.tolist() == [-4]
        assert errors.re_struct[0] == pytest.approx(-2 / 8)
        assert errors.re_timing[0] == pytest.approx(-2 / 8)
        assert errors.re_joint[0] == pytest.approx(-4 / 8)

    def test_paper_compensating_example(self):
        """Fig. 5 of the paper: opposite signs partially cancel."""
        errors = combine_errors([8], [6], [7])
        assert errors.re_struct[0] == pytest.approx(-2 / 8)
        assert errors.re_timing[0] == pytest.approx(+1 / 8)
        assert errors.re_joint[0] == pytest.approx(-1 / 8)

    def test_joint_is_sum_of_contributions(self):
        rng = np.random.default_rng(0)
        diamond = rng.integers(1, 2**32, 100, dtype=np.uint64)
        gold = diamond + rng.integers(-5, 5, 100)
        silver = gold + rng.integers(-5, 5, 100)
        errors = combine_errors(diamond, gold, silver)
        assert np.allclose(errors.re_joint, errors.re_struct + errors.re_timing)
        assert np.array_equal(errors.e_joint, errors.e_struct + errors.e_timing)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            combine_errors([1, 2], [1], [1])

    def test_words_above_the_int64_range_rejected(self):
        for words in (np.array([2**63, 1], dtype=np.uint64), [2**63 + 5, 7], [1.0, np.nan]):
            with pytest.raises(AnalysisError, match="signed 64-bit range"):
                combine_errors(words, [1, 7], [1, 7])
            with pytest.raises(AnalysisError, match="signed 64-bit range"):
                relative_errors([1, 7], words)
        top = np.array([2**63 - 1, 0], dtype=np.uint64)
        assert combine_errors(top, top, top).e_joint.tolist() == [0, 0]
        assert combine_errors([-2**63, 3.0], [0, 3], [0, 3]).ydiamond.tolist() == [-2**63, 3]

    def test_zero_diamond_handled(self):
        errors = combine_errors([0], [1], [2])
        assert np.isfinite(errors.re_joint).all()

    def test_cycles_property(self):
        assert combine_errors([1, 2, 3], [1, 2, 3], [1, 2, 3]).cycles == 3

    def test_mean_absolute_joint_error(self):
        errors = combine_errors([10, 10], [8, 12], [8, 12])
        assert errors.mean_absolute_joint_error() == pytest.approx(2.0)

    def test_rms_relative_errors_zero_when_exact(self):
        errors = combine_errors([5, 6], [5, 6], [5, 6])
        rms = errors.rms_relative_errors()
        assert rms == {"structural": 0.0, "timing": 0.0, "joint": 0.0}

    def test_compensation_rate(self):
        errors = combine_errors([8, 8, 8], [6, 6, 8], [7, 4, 8])
        # first cycle: opposite signs; second: same sign; third: no error
        assert errors.compensation_rate() == pytest.approx(0.5)

    def test_compensation_rate_no_overlap(self):
        errors = combine_errors([8, 8], [8, 8], [7, 9])
        assert errors.compensation_rate() == 0.0


class TestRelativeErrors:
    def test_basic(self):
        values = relative_errors([10, 20], [11, 18])
        assert values.tolist() == pytest.approx([0.1, -0.1])

    def test_shape_mismatch(self):
        with pytest.raises(AnalysisError):
            relative_errors([1, 2], [1])


class TestCombinationFlow:
    def test_flow_mirrors_fig6(self):
        """The flow produces one result per (design, clock) with the right errors."""
        a = np.array([10, 200, 3000], dtype=np.uint64)
        b = np.array([5, 100, 1500], dtype=np.uint64)

        def exact_provider(x, y):
            return x + y

        def gold_provider(design, x, y):
            return x + y - np.uint64(design)

        def silver_provider(design, clk, x, y):
            offset = np.int64(round(clk))
            return (x + y - np.uint64(design)).astype(np.int64) + offset

        results = combination_flow(
            designs=[1, 2], a=a, b=b, clock_periods=[0.0, 1.0],
            gold_provider=gold_provider, silver_provider=silver_provider,
            exact_provider=exact_provider)
        assert len(results) == 4
        first = results[0]
        assert first.design == 1 and first.clock_period == 0.0
        assert first.errors.e_struct.tolist() == [-1, -1, -1]
        assert first.mean_absolute_joint_error == pytest.approx(1.0)
        last = results[-1]
        assert last.design == 2 and last.clock_period == 1.0
        assert last.errors.e_timing.tolist() == [1, 1, 1]

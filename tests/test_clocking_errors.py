"""Tests for clock plans and timing-error trace containers."""

import pickle

import numpy as np
import pytest

from repro.exceptions import AnalysisError, TimingError
from repro.timing.clocking import PAPER_SAFE_PERIOD, ClockPlan, cpr_to_period, period_to_cpr
from repro.timing.errors import TimingErrorTrace, extract_timing_errors

#: Clock periods every entry point must refuse: not positive, or not finite.
BAD_PERIODS = (float("nan"), float("inf"), 0.0, -1.0)


class TestCpr:
    def test_paper_periods(self):
        assert cpr_to_period(0.3e-9, 0.05) == pytest.approx(0.285e-9)
        assert cpr_to_period(0.3e-9, 0.10) == pytest.approx(0.27e-9)
        assert cpr_to_period(0.3e-9, 0.15) == pytest.approx(0.255e-9)

    def test_roundtrip(self):
        assert period_to_cpr(0.3e-9, cpr_to_period(0.3e-9, 0.07)) == pytest.approx(0.07)

    def test_invalid_inputs(self):
        with pytest.raises(TimingError):
            cpr_to_period(-1.0, 0.1)
        with pytest.raises(TimingError):
            cpr_to_period(1.0, 1.0)
        with pytest.raises(TimingError):
            period_to_cpr(0.3e-9, 0.31e-9)


    @pytest.mark.parametrize("bad", BAD_PERIODS)
    def test_non_finite_or_non_positive_periods_rejected(self, bad):
        with pytest.raises(TimingError):
            ClockPlan(safe_period=bad)
        with pytest.raises(TimingError):
            cpr_to_period(bad, 0.1)
        with pytest.raises(TimingError):
            period_to_cpr(bad, 0.27e-9)
        with pytest.raises(TimingError):
            period_to_cpr(0.3e-9, bad)


class TestClockPlan:
    def test_paper_plan(self):
        plan = ClockPlan.paper()
        assert plan.safe_period == pytest.approx(PAPER_SAFE_PERIOD)
        assert plan.cpr_levels == (0.05, 0.10, 0.15)
        assert plan.labels() == ["5%", "10%", "15%"]
        assert [round(period * 1e12) for period in plan.periods] == [285, 270, 255]
        assert len(plan.items()) == 3

    def test_period_for(self):
        assert ClockPlan.paper().period_for(0.2) == pytest.approx(0.24e-9)

    def test_invalid_plan(self):
        with pytest.raises(TimingError):
            ClockPlan(safe_period=-1.0)
        with pytest.raises(TimingError):
            ClockPlan(cpr_levels=(1.5,))


class TestTimingErrorTrace:
    def _trace(self):
        settled = np.array([0b0110, 0b0011, 0b1000], dtype=np.uint64)
        sampled = np.array([0b0100, 0b0011, 0b0000], dtype=np.uint64)
        return extract_timing_errors(sampled, settled, output_width=4, clock_period=1e-10)

    def test_bit_views(self):
        trace = self._trace()
        assert trace.cycles == 3
        errors = trace.error_bits()
        assert errors.shape == (3, 4)
        assert errors[0].tolist() == [0, 1, 0, 0]
        assert errors[1].tolist() == [0, 0, 0, 0]
        assert errors[2].tolist() == [0, 0, 0, 1]

    def test_timing_classes_are_complement(self):
        trace = self._trace()
        assert np.array_equal(trace.timing_classes(), 1 - trace.error_bits())

    def test_rates(self):
        trace = self._trace()
        assert trace.cycle_error_rate() == pytest.approx(2 / 3)
        assert trace.bit_error_rate().tolist() == pytest.approx([0, 1 / 3, 0, 1 / 3])

    def test_arithmetic_errors_signed(self):
        trace = self._trace()
        assert trace.arithmetic_errors().tolist() == [-2, 0, -8]

    def test_bit_views_memoized(self):
        trace = self._trace()
        assert trace.sampled_bits() is trace.sampled_bits()
        assert trace.settled_bits() is trace.settled_bits()
        assert trace.error_bits() is trace.error_bits()
        assert not trace.error_bits().flags.writeable

    def test_memo_not_pickled_and_scoring_unchanged(self):
        trace = self._trace()
        reference_errors = np.array(trace.error_bits(), copy=True)
        clone = pickle.loads(pickle.dumps(trace))
        assert "_bits_cache" not in clone.__dict__
        assert np.array_equal(clone.error_bits(), reference_errors)
        assert clone.cycle_error_rate() == pytest.approx(2 / 3)
        assert clone.bit_error_rate().tolist() == pytest.approx([0, 1 / 3, 0, 1 / 3])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            TimingErrorTrace(clock_period=1e-10,
                             sampled_words=np.zeros(2, dtype=np.uint64),
                             settled_words=np.zeros(3, dtype=np.uint64),
                             output_width=4)

    def test_empty_trace_rates(self):
        trace = TimingErrorTrace(clock_period=1e-10,
                                 sampled_words=np.zeros(0, dtype=np.uint64),
                                 settled_words=np.zeros(0, dtype=np.uint64),
                                 output_width=4)
        assert trace.cycle_error_rate() == 0.0
        assert trace.bit_error_rate().tolist() == [0, 0, 0, 0]

"""Tests for the fast and event-driven timing simulators and their agreement."""

import numpy as np
import pytest

from repro.circuit.builder import NetlistBuilder
from repro.circuit.sdf import DelayAnnotation
from repro.circuit.library import default_library
from repro.exceptions import SimulationError
from repro.timing import fast_sim
from repro.timing.event_sim import EventDrivenSimulator
from repro.timing.fast_sim import FastTimingSimulator
from repro.timing.sta import analyze_timing


#: Clock periods every entry point must refuse: not positive, or not finite.
BAD_PERIODS = (float("nan"), float("inf"), 0.0, -1.0)


def inverter_chain(length=3):
    builder = NetlistBuilder("chain")
    net = builder.input_bit("x")
    for _ in range(length):
        net = builder.inv(net)
    builder.output_bus("S", [net])
    return builder.build()


class TestFastSimulatorBasics:
    def test_slow_clock_latches_new_value(self):
        netlist = inverter_chain(3)
        annotation = DelayAnnotation.nominal(netlist, default_library())
        simulator = FastTimingSimulator(netlist, annotation)
        trace = simulator.run_trace({"x": np.array([0, 1, 0, 1])}, clock_period=1e-9)
        assert trace.cycle_error_rate() == 0.0

    def test_fast_clock_latches_stale_value(self):
        netlist = inverter_chain(3)
        annotation = DelayAnnotation.nominal(netlist, default_library())
        simulator = FastTimingSimulator(netlist, annotation)
        chain_delay = analyze_timing(netlist, annotation).critical_path_delay
        trace = simulator.run_trace({"x": np.array([0, 1, 0, 1])},
                                    clock_period=chain_delay * 0.5)
        # every transition toggles the output, and every one arrives too late
        assert trace.cycle_error_rate() == 1.0
        assert np.array_equal(trace.sampled_words, 1 - trace.settled_words)

    def test_settled_matches_logic(self, synthesized_small_isa, short_trace16):
        simulator = FastTimingSimulator(synthesized_small_isa.netlist,
                                        synthesized_small_isa.annotation)
        trace = simulator.run_trace(short_trace16.as_operands(), clock_period=1e-9)
        expected = synthesized_small_isa.netlist.compute_words(
            {"A": short_trace16.a, "B": short_trace16.b,
             "cin": np.zeros(short_trace16.length, dtype=np.uint64)})
        assert np.array_equal(trace.settled_words, expected[1:])

    def test_multi_clock_shares_settled_values(self, synthesized_small_isa, short_trace16):
        simulator = FastTimingSimulator(synthesized_small_isa.netlist,
                                        synthesized_small_isa.annotation)
        traces = simulator.run_trace_multi(short_trace16.as_operands(), [1e-9, 1e-10, 1e-11])
        settled = [trace.settled_words for trace in traces.values()]
        assert np.array_equal(settled[0], settled[1])
        assert np.array_equal(settled[1], settled[2])
        # more aggressive clocks can only add errors
        rates = [traces[clk].cycle_error_rate() for clk in (1e-9, 1e-10, 1e-11)]
        assert rates[0] <= rates[1] <= rates[2]

    def test_monotone_in_clock_period(self, synthesized_exact16, short_trace16, clock_plan):
        simulator = FastTimingSimulator(synthesized_exact16.netlist,
                                        synthesized_exact16.annotation)
        traces = simulator.run_trace_multi(short_trace16.as_operands(), clock_plan.periods)
        rates = [traces[period].cycle_error_rate() for period in clock_plan.periods]
        assert rates == sorted(rates)

    def test_bad_clock_rejected(self, synthesized_small_isa, short_trace16):
        simulator = FastTimingSimulator(synthesized_small_isa.netlist,
                                        synthesized_small_isa.annotation)
        with pytest.raises(SimulationError):
            simulator.run_trace(short_trace16.as_operands(), clock_period=0.0)

    @pytest.mark.parametrize("bad", BAD_PERIODS)
    def test_non_finite_or_non_positive_clock_rejected(self, synthesized_small_isa,
                                                       short_trace16, bad):
        simulator = FastTimingSimulator(synthesized_small_isa.netlist,
                                        synthesized_small_isa.annotation)
        operands = short_trace16.as_operands()
        with pytest.raises(SimulationError):
            simulator.run_trace(operands, clock_period=bad)
        with pytest.raises(SimulationError):
            simulator.run_traces_multi([operands], [1e-9, bad])

    def test_short_trace_rejected(self, synthesized_small_isa):
        simulator = FastTimingSimulator(synthesized_small_isa.netlist,
                                        synthesized_small_isa.annotation)
        operands = {"A": np.array([1], dtype=np.uint64), "B": np.array([1], dtype=np.uint64),
                    "cin": np.array([0], dtype=np.uint64)}
        with pytest.raises(SimulationError):
            simulator.run_trace(operands, clock_period=1e-10)

    def test_unknown_operand_rejected(self, synthesized_small_isa):
        simulator = FastTimingSimulator(synthesized_small_isa.netlist,
                                        synthesized_small_isa.annotation)
        with pytest.raises(SimulationError):
            simulator.run_trace({"Z": np.array([1, 2], dtype=np.uint64)}, clock_period=1e-10)

    def test_chunking_gives_identical_results(self, synthesized_small_isa, short_trace16,
                                              monkeypatch):
        simulator = FastTimingSimulator(synthesized_small_isa.netlist,
                                        synthesized_small_isa.annotation)
        big_chunks = simulator.run_trace(short_trace16.as_operands(), 2.6e-10)
        # A one-byte budget leaves one packed word (64 transitions) per chunk.
        monkeypatch.setattr(fast_sim, "_CHUNK_BYTES", 1)
        small_chunks = simulator.run_trace(short_trace16.as_operands(), 2.6e-10)
        assert np.array_equal(small_chunks.sampled_words, big_chunks.sampled_words)
        assert np.array_equal(small_chunks.settled_words, big_chunks.settled_words)


class TestEventSimulatorBasics:
    def test_waveform_of_inverter_chain(self):
        netlist = inverter_chain(2)
        annotation = DelayAnnotation.nominal(netlist, default_library())
        simulator = EventDrivenSimulator(netlist, annotation)
        waveforms = simulator.simulate_transition({"x": 0}, {"x": 1})
        output = netlist.outputs[0]
        inv_delay = default_library().delay("INV")
        assert waveforms[output].final_value == 1
        assert waveforms[output].value_at(0.0) == 0
        assert waveforms[output].value_at(3 * inv_delay) == 1
        assert waveforms["x"].transition_count == 1

    def test_glitch_is_captured(self):
        """A reconvergent XOR with unequal path delays produces a transient pulse."""
        builder = NetlistBuilder("glitch")
        a = builder.input_bit("a")
        delayed = builder.gate("BUF", builder.gate("BUF", a))
        builder.output_bus("S", [builder.xor2(a, delayed)])
        netlist = builder.build()
        annotation = DelayAnnotation.nominal(netlist, default_library())
        simulator = EventDrivenSimulator(netlist, annotation)
        waveforms = simulator.simulate_transition({"a": 0}, {"a": 1})
        output = netlist.outputs[0]
        # settled value is 0 (a xor a) but the waveform pulses high in between
        assert waveforms[output].final_value == 0
        assert waveforms[output].transition_count >= 2

    def test_settled_matches_logic(self, synthesized_small_isa, short_trace16):
        simulator = EventDrivenSimulator(synthesized_small_isa.netlist,
                                         synthesized_small_isa.annotation)
        operands = {"A": short_trace16.a[:40], "B": short_trace16.b[:40],
                    "cin": np.zeros(40, dtype=np.uint64)}
        trace = simulator.run_trace(operands, clock_period=1e-9)
        expected = synthesized_small_isa.netlist.compute_words(operands)
        assert np.array_equal(trace.settled_words, expected[1:])
        assert trace.cycle_error_rate() == 0.0

    @pytest.mark.parametrize("bad", BAD_PERIODS)
    def test_non_finite_or_non_positive_clock_rejected(self, bad):
        netlist = inverter_chain(2)
        simulator = EventDrivenSimulator(netlist, DelayAnnotation.nominal(
            netlist, default_library()))
        with pytest.raises(SimulationError):
            simulator.run_trace({"x": np.array([0, 1, 0])}, clock_period=bad)

    def test_missing_input_rejected(self, synthesized_small_isa):
        simulator = EventDrivenSimulator(synthesized_small_isa.netlist,
                                         synthesized_small_isa.annotation)
        with pytest.raises(SimulationError):
            simulator.run_trace({"A": np.array([1, 2], dtype=np.uint64)}, clock_period=1e-10)


class TestSimulatorAgreement:
    """The fast simulator is a no-glitch approximation of the event-driven one."""

    def test_identical_when_clock_is_safe(self, synthesized_small_isa, short_trace16):
        operands = {"A": short_trace16.a[:60], "B": short_trace16.b[:60],
                    "cin": np.zeros(60, dtype=np.uint64)}
        fast = FastTimingSimulator(synthesized_small_isa.netlist,
                                   synthesized_small_isa.annotation)
        event = EventDrivenSimulator(synthesized_small_isa.netlist,
                                     synthesized_small_isa.annotation)
        safe = synthesized_small_isa.critical_path_delay * 1.01
        fast_trace = fast.run_trace(operands, safe)
        event_trace = event.run_trace(operands, safe)
        assert np.array_equal(fast_trace.sampled_words, event_trace.sampled_words)

    def test_error_rates_are_comparable_under_overclocking(self, synthesized_small_isa,
                                                           short_trace16):
        """The two models disagree only on glitch-related corner cases.

        The fast simulator ignores glitches (optimistic) but also assumes a
        changed output waits for its slowest changed input (pessimistic for
        multi-path cones), so rates are close but not ordered; both must
        stay in the same regime and the settled values must agree exactly.
        """
        operands = {"A": short_trace16.a[:80], "B": short_trace16.b[:80],
                    "cin": np.zeros(80, dtype=np.uint64)}
        fast = FastTimingSimulator(synthesized_small_isa.netlist,
                                   synthesized_small_isa.annotation)
        event = EventDrivenSimulator(synthesized_small_isa.netlist,
                                     synthesized_small_isa.annotation)
        clk = synthesized_small_isa.critical_path_delay * 0.9
        fast_trace = fast.run_trace(operands, clk)
        event_trace = event.run_trace(operands, clk)
        assert np.array_equal(fast_trace.settled_words, event_trace.settled_words)
        assert abs(fast_trace.cycle_error_rate() - event_trace.cycle_error_rate()) <= 0.5
        assert abs(float(fast_trace.bit_error_rate().mean())
                   - float(event_trace.bit_error_rate().mean())) <= 0.2

"""Equivalence tests for the compiled bit-packed programs.

Packed logic evaluation must equal the per-gate logic oracle, and the
fast simulator's two kernels — the packed timing program and the
levelised dense pass, each forced on every call with
``reference_kernels.forced_kernel`` — must be bit-exact against each
other and against the per-gate timing oracle, on every design of the
library: the exact adder architectures, the paper's approximate (ISA)
configurations and the array multipliers, for random vectors and for
ragged trace lengths that do not divide the 64-cycle word size.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_kernels import (
    ReferenceTimingSimulator,
    compute_words_per_gate,
    evaluate_per_gate,
    forced_kernel,
    unpacked_rows_to_words,
)
from repro.circuit.builder import NetlistBuilder
from repro.circuit.compiled import (CompiledProgram, PackedTimingProgram, pack_bits,
                                    packed_word_count, rows_to_words, unpack_bits)
from repro.circuit.library import default_library
from repro.circuit.netlist import Netlist
from repro.circuit.sdf import DelayAnnotation
from repro.core.config import ISAConfig
from repro.exceptions import CompilationError, SimulationError
from repro.explore.space import DesignSpace
from repro.families import get_family
from repro.obs.trace import collect_phases
from repro.runtime.jobs import synthesize_entry
from repro.synth.flow import SynthesisOptions, exact_adder_netlist, synthesize
from repro.timing import fast_sim
from repro.timing.clocking import ClockPlan
from repro.timing.event_sim import EventDrivenSimulator, Waveform
from repro.timing.fast_sim import DENSE_MAX_TRANSITIONS, FastTimingSimulator
from repro.timing.operands import trace_length
from repro.workloads.generators import uniform_workload

RAGGED_LENGTHS = (1, 5, 63, 64, 65, 130)

EXACT_ARCHITECTURES = ("ripple", "cla", "brent-kung", "kogge-stone")

#: A representative slice of the paper's ISA quadruples (plain, SPEC,
#: correction and reduction mechanisms all covered), and ``None`` for
#: the exact baseline they are measured against: the sized 32-bit
#: Kogge-Stone adder.
PAPER_DESIGNS = ((8, 0, 0, 0), (8, 0, 1, 4), (16, 1, 0, 2), (16, 2, 1, 6), None)


def _random_operands(width, length, seed):
    trace = uniform_workload(length, width=width, seed=seed)
    return {"A": trace.a, "B": trace.b,
            "cin": np.zeros(length, dtype=np.uint64)}


def _changed(netlist, operands):
    """Packed old-vs-new diff of one trace, as a one-trace stack."""
    bits = netlist.expand_operands(operands)
    old, new = netlist.compiled().evaluate_transitions_many(
        {net: values[None, :] for net, values in bits.items()}, trace_length(bits) - 1)
    return old ^ new


@pytest.fixture(scope="module", params=EXACT_ARCHITECTURES)
def exact_design(request):
    return synthesize(exact_adder_netlist(16, request.param))


@pytest.fixture(scope="module", params=PAPER_DESIGNS,
                ids=lambda q: "exact-kogge-stone" if q is None else "isa" + "-".join(map(str, q)))
def paper_design(request):
    if request.param is None:
        return synthesize(exact_adder_netlist(32, "kogge-stone"))
    return synthesize(ISAConfig.from_quadruple(request.param))


class TestPacking:
    @pytest.mark.parametrize("length", RAGGED_LENGTHS)
    def test_pack_unpack_roundtrip(self, rng, length):
        bits = rng.integers(0, 2, length).astype(np.uint8)
        packed = pack_bits(bits)
        assert packed.shape == (packed_word_count(length),)
        assert np.array_equal(unpack_bits(packed, length), bits)

    def test_pack_matrix(self, rng):
        bits = rng.integers(0, 2, (5, 100)).astype(np.uint8)
        assert np.array_equal(unpack_bits(pack_bits(bits), 100), bits)

    def test_rows_to_words(self, rng):
        bits = rng.integers(0, 2, (3, 70)).astype(np.uint8)
        words = rows_to_words(pack_bits(bits), 70)
        expected = bits[0] | (bits[1] << 1) | (bits[2] << 2)
        assert np.array_equal(words, expected.astype(np.uint64))

    @pytest.mark.parametrize("length", RAGGED_LENGTHS)
    def test_rows_to_words_matches_per_position_loop(self, rng, length):
        """The broadcast shift-and-reduce equals the old per-position loop."""
        rows = pack_bits(rng.integers(0, 2, (17, length)).astype(np.uint8))
        reference = np.zeros(length, dtype=np.uint64)
        bits = unpack_bits(rows, length)
        for position in range(rows.shape[0]):
            reference |= bits[position].astype(np.uint64) << np.uint64(position)
        assert np.array_equal(rows_to_words(rows, length), reference)

    def test_rows_to_words_stacked_traces(self, rng):
        """A (bits, traces, words) stack decodes each trace independently."""
        stacked_bits = rng.integers(0, 2, (5, 3, 100)).astype(np.uint8)
        stacked = pack_bits(stacked_bits)  # (5, 3, words)
        words = rows_to_words(stacked, 100)
        assert words.shape == (3, 100)
        for trace in range(3):
            assert np.array_equal(words[trace],
                                  rows_to_words(stacked[:, trace], 100))

    def test_rows_to_words_empty_rows(self):
        assert np.array_equal(rows_to_words(np.empty((0, 2), dtype=np.uint64), 90),
                              np.zeros(90, dtype=np.uint64))

    def test_rows_to_words_rejects_more_bits_than_a_word(self):
        with pytest.raises(SimulationError):
            rows_to_words(np.zeros((65, 1), dtype=np.uint64), 10)


class TestDecodeMatchesOracle:
    """The byte-table decode equals the unpacked shift-and-reduce oracle
    (``reference_kernels.unpacked_rows_to_words``) on any rows, and the
    fast simulator's words do not change when the oracle decodes them."""

    @settings(max_examples=150, deadline=None)
    @given(bits=st.sampled_from([0, 1, 7, 8, 9, 16, 17, 33, 64]),
           batch=st.sampled_from([(), (1,), (5,), (2, 3)]),
           length=st.sampled_from([1, 7, 8, 63, 64, 65, 255, 4499]),
           top=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_rows_to_words_matches_the_oracle(self, bits, batch, length, top, seed):
        """Random rows, whose padding bits past ``length`` are set too, with
        bit 63 of every word set when ``top``."""
        rng = np.random.default_rng(seed)
        shape = (bits,) + batch + (packed_word_count(length),)
        rows = rng.integers(0, 2**64, shape, dtype=np.uint64)
        if top:
            rows |= np.uint64(1 << 63)
        words = rows_to_words(rows, length)
        assert words.shape == batch + (length,)
        assert words.dtype == np.uint64
        assert words.flags.writeable
        assert np.array_equal(words, unpacked_rows_to_words(rows, length))

    @pytest.fixture(scope="class")
    def bus_designs(self):
        """A 32-bit ISA (33-bit sum bus) and an approximate width-8
        multiplier (16-bit product bus)."""
        multiplier = get_family("multiplier").design_space(8).entries(max_designs=3)[1]
        return [(synthesize(ISAConfig.from_quadruple((8, 0, 1, 4))), 32),
                (synthesize_entry(multiplier, 8, SynthesisOptions()), 8)]

    @pytest.mark.parametrize("kernel", ["packed", "levelised"])
    def test_simulator_words_unchanged_under_the_oracle_decode(self, bus_designs, kernel,
                                                               monkeypatch):
        """A ragged two-trace stack long enough for several chunks on
        either kernel: settled, sampled and golden words all equal a run
        whose every decode is the oracle's."""
        decodes = []

        def counting(rows, length):
            decodes.append(length)
            return rows_to_words(rows, length)
        for design, width in bus_designs:
            critical = design.critical_path_delay
            clocks = [critical * 0.6, critical * 0.8, critical * 0.95, critical * 1.1]
            stack = [_random_operands(width, length, 101 + length)
                     for length in (30_000, 17_001)]
            runs = []
            for decode in (counting, unpacked_rows_to_words):
                monkeypatch.setattr(fast_sim, "rows_to_words", decode)
                simulator = FastTimingSimulator(design.netlist, design.annotation)
                with forced_kernel(kernel):
                    runs.append(simulator.run_traces_multi(stack, clocks))
            assert sum(length > 1 for length in decodes) >= 3  # several chunks
            decodes.clear()
            got, want = runs
            for got_timing, want_timing in zip(got.timing, want.timing):
                _assert_traces_equal(got_timing, want_timing, clocks)
            for got_values, want_values in zip(got.settled_values, want.settled_values):
                assert np.array_equal(got_values, want_values)
            assert any(np.any(trace.sampled_words != trace.settled_words)
                       for traces in got.timing for trace in traces.values())


class TestLogicEquivalence:
    """Packed evaluation (``Netlist.compute_words`` / ``evaluate``, any
    stimulus shape) vs the per-gate ``uint8`` oracle."""

    def test_exact_adders_bit_exact(self, exact_design, rng):
        netlist = exact_design.netlist
        operands = _random_operands(16, 500, 11)
        assert np.array_equal(netlist.compute_words(operands),
                              compute_words_per_gate(netlist, operands))

    def test_isa_adders_bit_exact(self, paper_design, rng):
        netlist = paper_design.netlist
        operands = _random_operands(32, 500, 13)
        assert np.array_equal(netlist.compute_words(operands),
                              compute_words_per_gate(netlist, operands))

    @pytest.mark.parametrize("length", RAGGED_LENGTHS)
    def test_ragged_lengths(self, exact_design, length):
        netlist = exact_design.netlist
        operands = _random_operands(16, length, 17 + length)
        assert np.array_equal(netlist.compute_words(operands),
                              compute_words_per_gate(netlist, operands))

    @pytest.mark.parametrize("shape", [(77,), (), (7, 11)], ids=["1d", "scalar", "2d"])
    def test_evaluate_every_net(self, exact_design, shape):
        """The full per-net value dict agrees with the oracle's, for a
        cycle batch, a scalar stimulus and a matrix alike; every net,
        constants included, comes back in the stimulus shape."""
        netlist = exact_design.netlist
        rng = np.random.default_rng(23)
        stimulus = {net: rng.integers(0, 2, shape).astype(np.uint8)
                    for net in netlist.inputs}
        values = netlist.evaluate(stimulus)
        reference = evaluate_per_gate(netlist, stimulus)
        for net in netlist.nets:
            ref = np.broadcast_to(np.asarray(reference[net], dtype=np.uint8), shape)
            assert values[net].shape == shape
            assert np.array_equal(values[net], ref), f"net {net} diverges"

    @pytest.mark.parametrize("shape", [(), (3, 40)], ids=["scalar", "2d"])
    def test_compute_words_any_shape(self, exact_design, shape):
        """Words come back in the operands' shape and equal the oracle's."""
        netlist = exact_design.netlist
        rng = np.random.default_rng(29)
        operands = {"A": rng.integers(0, 1 << 16, shape).astype(np.uint64),
                    "B": rng.integers(0, 1 << 16, shape).astype(np.uint64),
                    "cin": rng.integers(0, 2, shape).astype(np.uint64)}
        words = netlist.compute_words(operands)
        assert words.shape == shape
        assert np.array_equal(words, compute_words_per_gate(netlist, operands))

    @pytest.mark.parametrize("entry", ["compute_words", "fast", "fast-batched", "event"])
    def test_non_binary_net_operand_rejected(self, entry):
        """A single input net carrying 2 is rejected by the one expansion,
        on the logic path and on both timing tiers alike."""
        design = synthesize(exact_adder_netlist(8, "ripple"))
        operands = _random_operands(8, 16, 5)
        operands["cin"] = np.full(16, 2, dtype=np.uint64)
        clocks = [design.critical_path_delay]
        with pytest.raises(SimulationError, match="non-binary"):
            if entry == "compute_words":
                design.netlist.compute_words(operands)
            elif entry == "fast":
                FastTimingSimulator(design.netlist, design.annotation).run_trace_multi(
                    operands, clocks)
            elif entry == "fast-batched":
                FastTimingSimulator(design.netlist, design.annotation).run_traces_multi(
                    [operands], clocks)
            else:
                EventDrivenSimulator(design.netlist, design.annotation).run_trace_multi(
                    operands, clocks)


def _assert_traces_equal(got, want, clock_periods):
    for clk in clock_periods:
        assert np.array_equal(got[clk].settled_words, want[clk].settled_words)
        assert np.array_equal(got[clk].sampled_words, want[clk].sampled_words)


def _run_on(kernel, simulator, operands, clock_periods):
    """``simulator.run_trace_multi`` forced onto one kernel; a packed run
    asserts that its program was built, so it cannot have fallen back."""
    with forced_kernel(kernel):
        result = simulator.run_trace_multi(operands, clock_periods)
    if kernel == "packed":
        clocks = tuple(sorted(set(clock_periods)))
        assert simulator._timing_programs[clocks] is not None
    return result


class TestTimingEquivalence:
    """Packed timing program, levelised pass and the per-gate oracle."""

    def _assert_kernels_agree(self, design, operands, clock_periods):
        simulator = FastTimingSimulator(design.netlist, design.annotation)
        got = _run_on("packed", simulator, operands, clock_periods)
        want = _run_on("levelised", simulator, operands, clock_periods)
        _assert_traces_equal(got, want, clock_periods)
        oracle = ReferenceTimingSimulator(design.netlist, design.annotation)
        _assert_traces_equal(want, oracle.run_trace_multi(operands, clock_periods),
                             clock_periods)

    def test_forced_kernel_pins_the_kernel(self, synthesized_exact16, monkeypatch):
        """Forced packed, a 2-vector call builds a program; forced
        levelised, a call above the size rule builds none."""
        builds = []
        original = PackedTimingProgram.__init__

        def counting(self, program, annotation, clock_periods):
            builds.append(list(clock_periods))
            original(self, program, annotation, clock_periods)
        monkeypatch.setattr(PackedTimingProgram, "__init__", counting)
        design = synthesized_exact16
        clocks = [design.critical_path_delay * 0.7]
        simulator = FastTimingSimulator(design.netlist, design.annotation)
        with forced_kernel("levelised"):
            simulator.run_trace_multi(_random_operands(16, DENSE_MAX_TRANSITIONS + 2, 27),
                                      clocks)
        assert builds == []
        with forced_kernel("packed"):
            simulator.run_trace_multi(_random_operands(16, 2, 28), clocks)
        assert builds == [clocks]
        assert fast_sim.DENSE_MAX_TRANSITIONS == DENSE_MAX_TRANSITIONS

    def test_exact_adders(self, exact_design, clock_plan):
        critical = exact_design.critical_path_delay
        clocks = list(clock_plan.periods) + [critical * 0.5, critical * 1.5]
        self._assert_kernels_agree(exact_design, _random_operands(16, 300, 31), clocks)

    def test_isa_adders(self, paper_design, clock_plan):
        critical = paper_design.critical_path_delay
        clocks = list(clock_plan.periods) + [critical * 0.7]
        self._assert_kernels_agree(paper_design, _random_operands(32, 300, 37), clocks)

    def test_empty_clock_list_returns_empty_on_both_kernels(self, exact_design):
        operands = _random_operands(16, 20, 29)
        simulator = FastTimingSimulator(exact_design.netlist, exact_design.annotation)
        for kernel in ("packed", "levelised"):
            with forced_kernel(kernel):
                assert simulator.run_trace_multi(operands, []) == {}

    @pytest.mark.parametrize("length", (2, 64, 65, 129))
    def test_ragged_trace_lengths(self, exact_design, length):
        critical = exact_design.critical_path_delay
        self._assert_kernels_agree(exact_design, _random_operands(16, length, 41 + length),
                                   [critical * 0.8])

    def test_error_statistics_match(self, paper_design, clock_plan):
        """Cycle/bit error rates — the paper's metrics — are identical."""
        operands = _random_operands(32, 400, 43)
        simulator = FastTimingSimulator(paper_design.netlist, paper_design.annotation)
        got = _run_on("packed", simulator, operands, clock_plan.periods)
        want = _run_on("levelised", simulator, operands, clock_plan.periods)
        for clk in clock_plan.periods:
            assert got[clk].cycle_error_rate() == want[clk].cycle_error_rate()
            assert np.array_equal(got[clk].bit_error_rate(), want[clk].bit_error_rate())

    def test_variation_small_design_still_exact(self, clock_plan):
        """Per-instance delay variation keeps the kernels equivalent when it compiles."""
        design = synthesize(exact_adder_netlist(8, "ripple"),
                            SynthesisOptions(variation_sigma=0.08, variation_seed=5))
        self._assert_kernels_agree(design, _random_operands(8, 200, 47),
                                   list(clock_plan.periods))

    def test_variation_prefix_adder_still_exact(self, clock_plan):
        """Continuous per-instance delays also compile (deduped rows) and agree."""
        design = synthesize(exact_adder_netlist(32, "kogge-stone"),
                            SynthesisOptions(variation_sigma=0.2, variation_seed=7))
        critical = design.critical_path_delay
        self._assert_kernels_agree(design, _random_operands(32, 200, 61),
                                   list(clock_plan.periods) + [critical * 0.9])

    def test_row_limit_falls_back(self, monkeypatch):
        """When the threshold-row budget is exceeded, a long call's build
        overflows and the call runs the levelised pass."""
        design = synthesize(exact_adder_netlist(16, "kogge-stone"))
        critical = design.critical_path_delay
        clocks = [critical * 0.6, critical * 1.05]
        monkeypatch.setattr(PackedTimingProgram, "DEFAULT_ROWS_PER_GATE", 0)
        with pytest.raises(CompilationError):
            PackedTimingProgram(design.netlist.compiled(), design.annotation, clocks)
        operands = _random_operands(16, DENSE_MAX_TRANSITIONS + 2, 67)
        simulator = FastTimingSimulator(design.netlist, design.annotation)
        got = simulator.run_trace_multi(operands, clocks)
        assert simulator._timing_programs == {tuple(clocks): None}
        assert got[clocks[1]].cycle_error_rate() == 0.0
        oracle = ReferenceTimingSimulator(design.netlist, design.annotation)
        _assert_traces_equal(got, oracle.run_trace_multi(operands, clocks), clocks)

    def test_packed_program_built_only_above_the_constant(
            self, exact_design, monkeypatch):
        """Calls of at most DENSE_MAX_TRANSITIONS transitions, summed over
        their traces, skip lowering; the first longer call builds the
        packed program once, and every kernel gives the same words."""
        builds = []
        original = PackedTimingProgram.__init__

        def counting(self, program, annotation, clock_periods):
            builds.append(list(clock_periods))
            original(self, program, annotation, clock_periods)
        monkeypatch.setattr(PackedTimingProgram, "__init__", counting)
        design = exact_design
        critical = design.critical_path_delay
        clocks = [critical * 0.6, critical * 0.9]
        at_limit = _random_operands(16, DENSE_MAX_TRANSITIONS + 1, 71)
        halves = [_random_operands(16, DENSE_MAX_TRANSITIONS // 2 + 2, seed)
                  for seed in (72, 73)]
        above = _random_operands(16, DENSE_MAX_TRANSITIONS + 2, 74)

        auto = FastTimingSimulator(design.netlist, design.annotation)
        with collect_phases() as phases:
            short = auto.run_trace_multi(at_limit, clocks)
            auto.run_traces_multi(halves[:1], clocks)
            assert builds == []
            # Each half is below the constant; together they are above it.
            split = auto.run_traces_multi(halves, clocks)
            assert builds == [clocks]
            long = auto.run_trace_multi(above, clocks)
            assert builds == [clocks]
        # The lazy build is lowering, timed once under its own span.
        assert phases.calls["lower"] == 1

        # A fresh simulator builds nothing at construction; forced packed,
        # it builds on its first call and reuses the program after.
        for kernel in ("packed", "levelised"):
            other = FastTimingSimulator(design.netlist, design.annotation)
            with forced_kernel(kernel):
                _assert_traces_equal(short, other.run_trace_multi(at_limit, clocks), clocks)
                _assert_traces_equal(long, other.run_trace_multi(above, clocks), clocks)
                for got, want in zip(split.timing,
                                     other.run_traces_multi(halves, clocks).timing):
                    _assert_traces_equal(got, want, clocks)
        assert len(builds) == 2

    def test_width16_sample_matches_compiled(self):
        """A strided 89-design sample of the width-16 space plus exact, at
        the sweep's 256 vectors and 4 clocks: the levelised pass equals
        the packed program built for those clocks on every word."""
        family = get_family("adder")
        clocks = ClockPlan(safe_period=family.safe_period(16),
                           cpr_levels=(0.0, 0.05, 0.10, 0.15)).periods
        operands = _random_operands(16, 256, 79)
        options = SynthesisOptions()
        entries = DesignSpace(width=16).entries(max_designs=89)
        assert len(entries) == 90
        for entry in entries:
            design = synthesize_entry(entry, 16, options)
            simulator = FastTimingSimulator(design.netlist, design.annotation)
            _assert_traces_equal(_run_on("packed", simulator, operands, clocks),
                                 _run_on("levelised", simulator, operands, clocks), clocks)

    def test_multiplier_family(self):
        family = get_family("multiplier")
        clocks = ClockPlan(safe_period=family.safe_period(8),
                           cpr_levels=(0.0, 0.05, 0.10, 0.15)).periods
        options = SynthesisOptions()
        for index, entry in enumerate(family.design_space(8).entries(max_designs=6)):
            design = synthesize_entry(entry, 8, options)
            self._assert_kernels_agree(design, _random_operands(8, 150, 83 + index),
                                       list(clocks))

    def test_ragged_multi_trace_stack(self, exact_design):
        """A ragged stack with settled values: one levelised pass equals
        the packed program and the oracle's traces, one by one."""
        design = exact_design
        critical = design.critical_path_delay
        clocks = [critical * 0.5, critical * 0.8, critical * 1.1]
        stack = [_random_operands(16, length, 89 + length)
                 for length in (2, 64, 65, 129, 300)]
        simulator = FastTimingSimulator(design.netlist, design.annotation)
        runs = []
        for kernel in ("levelised", "packed"):
            with forced_kernel(kernel):
                runs.append(simulator.run_traces_multi(stack, clocks))
        want = ReferenceTimingSimulator(design.netlist, design.annotation).run_traces_multi(
            stack, clocks)
        for run in runs:
            for got, expected in zip(run.timing, want.timing):
                _assert_traces_equal(got, expected, clocks)
            for got, expected in zip(run.settled_values, want.settled_values):
                assert np.array_equal(got, expected)

    def test_long_levelised_trace_crosses_chunks(self, exact_design, monkeypatch):
        """With the byte budget cut to one word per chunk, a long
        levelised run spans many chunks and still equals the packed
        program."""
        design = exact_design
        critical = design.critical_path_delay
        clocks = [critical * 0.6, critical * 0.95]
        operands = _random_operands(16, 1000, 97)
        simulator = FastTimingSimulator(design.netlist, design.annotation)
        want = _run_on("packed", simulator, operands, clocks)

        passes = []
        original = CompiledProgram.evaluate_transitions_many

        def counting(self, bit_inputs, transitions):
            passes.append(transitions)
            return original(self, bit_inputs, transitions)
        monkeypatch.setattr(CompiledProgram, "evaluate_transitions_many", counting)
        monkeypatch.setattr(fast_sim, "_CHUNK_BYTES", 1)
        _assert_traces_equal(_run_on("levelised", simulator, operands, clocks), want, clocks)
        assert passes == [64] * 15 + [999 - 15 * 64]

    def test_clock_set_program_matches_single_clock_programs(self, exact_design,
                                                             clock_plan):
        """A program built for several clocks answers each one like the
        program built for that clock alone."""
        netlist = exact_design.netlist
        program = netlist.compiled()
        clocks = list(clock_plan.periods) + [exact_design.critical_path_delay * 0.7]
        together = PackedTimingProgram(program, exact_design.annotation, clocks)
        changed = _changed(netlist, _random_operands(16, 130, 59))
        masks = together.run_many(changed)
        nets = netlist.buses["S"]
        for clk in clocks:
            alone = PackedTimingProgram(program, exact_design.annotation, [clk])
            assert alone.num_rows <= together.num_rows
            assert np.array_equal(masks[together.late_rows(nets, clk)],
                                  alone.run_many(changed)[alone.late_rows(nets, clk)])

    def test_clock_specialised_program_rejects_other_clocks(self, exact_design):
        program = exact_design.netlist.compiled()
        critical = exact_design.critical_path_delay
        specialised = PackedTimingProgram(program, exact_design.annotation,
                                          [critical * 0.9])
        with pytest.raises(SimulationError):
            specialised.late_rows(exact_design.netlist.buses["S"], critical * 0.4)


def _program_shape(design, clocks):
    """Row-level shape of a design's timing program for ``clocks``.

    Row count, runtime block, batch sizes and fan-ins, and for every
    sampleable net which thresholds have a row (``r``), which map to
    the all-zero row 0 (``0``) and which the clocks do not sample
    (``-``).
    """
    netlist = design.netlist
    program = PackedTimingProgram(netlist.compiled(), design.annotation, clocks)
    sampleable = dict.fromkeys(list(netlist.outputs) + [
        net for nets in netlist.buses.values() for net in nets])
    rows = {}
    for net in sampleable:
        net_rows = program.rows_of[program.program.net_id[net]].tolist()
        rows[net] = "".join("0" if row == 0 else "r" if row > 0 else "-"
                            for row in net_rows)
    return {"num_rows": program.num_rows, "runtime_stop": program.runtime_stop,
            "batches": [[batch.stop - batch.start, len(batch.source_rows)]
                        for batch in program.batches],
            "rows": rows}


#: Per width: (designs sampled from the space, or every design with
#: None; SHA-256 of their programs' shapes at the sweep's 4 clocks, in
#: space order).  Recorded while a program could still be built for
#: every threshold and cut down at run time, so the clock-set build is
#: pinned to the programs that code produced.
PROGRAM_SHAPES = {
    8: (None, "533303493c74bd9dd55419e9672b6aa445e86c517795825560839c7dec62ff77"),
    16: (24, "0895bd6320daa5d9d81bea51ae0f1e295a625d0c736d3db0332b8161caa0381b"),
}


class TestProgramShape:
    @pytest.mark.parametrize("width", sorted(PROGRAM_SHAPES))
    def test_shape_matches_recorded_digest(self, width):
        """The timing programs at the sweep's clocks keep their rows,
        batches and row-0 map row for row."""
        max_designs, expected = PROGRAM_SHAPES[width]
        clocks = ClockPlan(safe_period=get_family("adder").safe_period(width),
                           cpr_levels=(0.0, 0.05, 0.10, 0.15)).periods
        options = SynthesisOptions()
        shapes = [_program_shape(synthesize_entry(entry, width, options), clocks)
                  for entry in DesignSpace(width=width).entries(max_designs=max_designs)]
        blob = json.dumps(shapes, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == expected


class TestMultiTraceKernels:
    """Stacked multi-trace execution vs per-trace execution."""

    def test_run_packed_many_matches_per_trace(self, exact_design, rng):
        netlist = exact_design.netlist
        program = netlist.compiled()
        traces = [_random_operands(16, length, 71 + length)
                  for length in (100, 64, 130)]
        longest = max(130, 100, 64)
        words = packed_word_count(longest)
        stacked = {}
        per_trace_packed = []
        for net in netlist.inputs:
            rows = np.zeros((len(traces), words), dtype=np.uint64)
            stacked[net] = rows
        for index, operands in enumerate(traces):
            bits = netlist.expand_operands(operands)
            packed = {net: pack_bits(values) for net, values in bits.items()}
            per_trace_packed.append(packed)
            for net, row in packed.items():
                stacked[net][index, :row.shape[0]] = row
        values = program.run_packed_many(stacked, len(traces), words)
        for index, packed in enumerate(per_trace_packed):
            alone = program.run_packed(packed,
                                       next(iter(packed.values())).shape[0])
            assert np.array_equal(values[:, index, :alone.shape[1]], alone)

    @pytest.mark.parametrize("lengths", [(100, 64, 130), (65, 65, 65), (2, 129, 63)])
    def test_evaluate_transitions_many_matches_single(self, exact_design, lengths):
        """Each trace's old/new rows hold the per-gate reference values of
        vectors t and t + 1 on every bit that names a real transition."""
        netlist = exact_design.netlist
        program = netlist.compiled()
        traces = [netlist.expand_operands(_random_operands(16, length, 83 + length))
                  for length in lengths]
        longest = max(lengths)
        stacked = {}
        for net in netlist.inputs:
            rows = np.zeros((len(traces), longest), dtype=np.uint8)
            for index, bits in enumerate(traces):
                rows[index, :lengths[index]] = bits[net]
            stacked[net] = rows
        old_many, new_many = program.evaluate_transitions_many(stacked, longest - 1)
        for index, bits in enumerate(traces):
            length = lengths[index]
            values = evaluate_per_gate(netlist, bits)
            expected = np.stack([np.broadcast_to(np.asarray(values[net], dtype=np.uint8),
                                                 (length,))
                                 for net in program.net_id])
            transitions = length - 1
            assert np.array_equal(unpack_bits(old_many[:, index], transitions),
                                  expected[:, :-1])
            assert np.array_equal(unpack_bits(new_many[:, index], transitions),
                                  expected[:, 1:])

    def test_run_many_matches_per_trace(self, exact_design):
        netlist = exact_design.netlist
        program = netlist.compiled()
        clocks = [exact_design.critical_path_delay * 0.6]
        timing = PackedTimingProgram(program, exact_design.annotation, clocks)
        diffs = [_changed(netlist, _random_operands(16, 130, seed))
                 for seed in (91, 92, 93)]
        stacked = np.concatenate(diffs, axis=1)  # (num_nets, traces, words)
        masks_many = timing.run_many(stacked)
        for index, changed in enumerate(diffs):
            assert np.array_equal(masks_many[:, index], timing.run_many(changed)[:, 0])

    def test_run_many_rejects_flat_input(self, exact_design):
        program = exact_design.netlist.compiled()
        timing = PackedTimingProgram(program, exact_design.annotation,
                                     [exact_design.critical_path_delay])
        with pytest.raises(SimulationError):
            timing.run_many(np.zeros((program.num_nets, 2), dtype=np.uint64))


class TestOperandExpansion:
    def test_unknown_operand(self, exact_design):
        with pytest.raises(SimulationError):
            exact_design.netlist.expand_operands({"Z": np.array([1, 2], dtype=np.uint64)})

    def test_length_mismatch(self, exact_design):
        with pytest.raises(SimulationError):
            exact_design.netlist.expand_operands({"A": np.array([1, 2], dtype=np.uint64),
                                                  "B": np.array([1], dtype=np.uint64)})

    def test_missing_inputs(self, exact_design):
        with pytest.raises(SimulationError):
            exact_design.netlist.expand_operands({"A": np.array([1, 2], dtype=np.uint64)})

    def test_simulators_need_1d_traces(self, exact_design):
        """Scalar operands expand (``compute_words`` takes them) but are no trace."""
        operands = {"A": np.uint64(1), "B": np.uint64(2), "cin": np.uint64(0)}
        assert exact_design.netlist.compute_words(operands) == 3
        simulator = FastTimingSimulator(exact_design.netlist, exact_design.annotation)
        with pytest.raises(SimulationError):
            simulator.run_trace_multi(operands, [exact_design.critical_path_delay])

    def test_expansion_drives_all_inputs(self, exact_design):
        operands = _random_operands(16, 10, 59)
        bits = exact_design.netlist.expand_operands(operands)
        assert set(exact_design.netlist.inputs) <= set(bits)
        for trace in bits.values():
            assert trace.shape == (10,)


class TestWaveformBisect:
    def test_value_at_semantics(self):
        waveform = Waveform(changes=[(-np.inf, 0), (1.0, 1), (2.0, 0), (2.0, 1)])
        assert waveform.value_at(0.5) == 0
        assert waveform.value_at(1.0) == 1      # change at exactly t is visible
        assert waveform.value_at(1.5) == 1
        assert waveform.value_at(2.0) == 1      # last change at equal time wins
        assert waveform.value_at(99.0) == 1

    def test_event_sim_glitch_sampling_unchanged(self):
        builder = NetlistBuilder("glitch")
        a = builder.input_bit("a")
        delayed = builder.gate("BUF", builder.gate("BUF", a))
        builder.output_bus("S", [builder.xor2(a, delayed)])
        netlist = builder.build()
        annotation = DelayAnnotation.nominal(netlist, default_library())
        from repro.timing.event_sim import EventDrivenSimulator
        simulator = EventDrivenSimulator(netlist, annotation)
        waveforms = simulator.simulate_transition({"a": 0}, {"a": 1})
        output = netlist.outputs[0]
        times = [time for time, _ in waveforms[output].changes if np.isfinite(time)]
        # sampling inside the glitch window sees the pulse, after it the settled 0
        assert waveforms[output].value_at(times[0]) == 1
        assert waveforms[output].final_value == 0


class TestCacheInvalidation:
    def test_growing_a_netlist_recompiles(self):
        netlist = Netlist("grow")
        a = netlist.add_input("a")
        netlist.add_gate("g1", "INV", [a], "n1")
        netlist.register_bus("Y", ["n1"])
        first = netlist.compute_words({"a": np.array([0, 1, 1])}, output_bus="Y")
        assert first.tolist() == [1, 0, 0]
        netlist.add_gate("g2", "INV", ["n1"], "n2")
        netlist.register_bus("Z", ["n2"])
        second = netlist.compute_words({"a": np.array([0, 1, 1])}, output_bus="Z")
        assert second.tolist() == [0, 1, 1]

"""Equivalence tests for the compiled bit-packed engine.

The compiled engine (packed logic evaluation + arrival-threshold timing
masks) must be bit-exact against the reference implementations on every
design of the library: the exact adder architectures and the paper's
approximate (ISA) configurations, for random vectors and for ragged
trace lengths that do not divide the 64-cycle word size.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.circuit.builder import NetlistBuilder
from repro.circuit.compiled import (PackedTimingProgram, pack_bits, packed_word_count,
                                    rows_to_words, unpack_bits)
from repro.circuit.library import default_library
from repro.circuit.netlist import Netlist
from repro.circuit.sdf import DelayAnnotation
from repro.core.config import ISAConfig
from repro.exceptions import SimulationError
from repro.explore.space import DesignSpace
from repro.runtime.jobs import synthesize_entry
from repro.synth.flow import SynthesisOptions, exact_adder_netlist, synthesize
from repro.timing.event_sim import Waveform
from repro.timing.fast_sim import FastTimingSimulator
from repro.timing.operands import expand_operand_traces
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


class TestLogicEquivalence:
    """Compiled packed evaluation vs the reference per-gate uint8 loop."""

    def test_exact_adders_bit_exact(self, exact_design, rng):
        netlist = exact_design.netlist
        operands = _random_operands(16, 500, 11)
        compiled = netlist.compute_words(operands, engine="compiled")
        reference = netlist.compute_words(operands, engine="reference")
        assert np.array_equal(compiled, reference)

    def test_isa_adders_bit_exact(self, paper_design, rng):
        netlist = paper_design.netlist
        operands = _random_operands(32, 500, 13)
        compiled = netlist.compute_words(operands, engine="compiled")
        reference = netlist.compute_words(operands, engine="reference")
        assert np.array_equal(compiled, reference)

    @pytest.mark.parametrize("length", RAGGED_LENGTHS)
    def test_ragged_lengths(self, exact_design, length):
        netlist = exact_design.netlist
        operands = _random_operands(16, length, 17 + length)
        compiled = netlist.compute_words(operands, engine="compiled")
        reference = netlist.compute_words(operands, engine="reference")
        assert np.array_equal(compiled, reference)

    def test_evaluate_every_net(self, exact_design):
        """The full per-net value dict agrees between tiers."""
        netlist = exact_design.netlist
        operands = _random_operands(16, 77, 23)
        bits = expand_operand_traces(netlist, operands)
        compiled = netlist.evaluate(bits, engine="compiled")
        reference = netlist.evaluate(bits, engine="reference")
        for net in netlist.nets:
            ref = np.broadcast_to(np.asarray(reference[net], dtype=np.uint8), (77,))
            assert np.array_equal(compiled[net], ref), f"net {net} diverges"

    def test_scalar_stimulus_stays_on_reference(self):
        netlist = exact_adder_netlist(8, "ripple")
        values = netlist.evaluate({net: 1 for net in netlist.inputs})
        assert int(np.asarray(values[netlist.outputs[0]])) in (0, 1)
        with pytest.raises(SimulationError):
            netlist.evaluate({net: 1 for net in netlist.inputs}, engine="compiled")

    def test_unknown_engine_rejected(self):
        netlist = exact_adder_netlist(8, "ripple")
        with pytest.raises(SimulationError):
            netlist.evaluate({net: 1 for net in netlist.inputs}, engine="warp")
        with pytest.raises(SimulationError):
            netlist.compute_words(_random_operands(8, 4, 3), engine="warp")

    def test_compute_words_rejects_non_binary_scalar_nets(self):
        """The compiled fast path must validate like the reference path."""
        netlist = exact_adder_netlist(8, "ripple")
        operands = _random_operands(8, 16, 5)
        operands["cin"] = np.full(16, 2, dtype=np.uint64)
        for engine in ("auto", "reference"):
            with pytest.raises(SimulationError):
                netlist.compute_words(operands, engine=engine)


class TestTimingEquivalence:
    """Compiled packed timing vs the dense float reference engine."""

    def _assert_engines_agree(self, design, operands, clock_periods):
        compiled = FastTimingSimulator(design.netlist, design.annotation,
                                       engine="compiled")
        reference = FastTimingSimulator(design.netlist, design.annotation,
                                        engine="reference")
        assert compiled.engine == "compiled"
        assert reference.engine == "reference"
        got = compiled.run_trace_multi(operands, clock_periods)
        want = reference.run_trace_multi(operands, clock_periods)
        for clk in clock_periods:
            assert np.array_equal(got[clk].settled_words, want[clk].settled_words)
            assert np.array_equal(got[clk].sampled_words, want[clk].sampled_words)

    def test_exact_adders(self, exact_design, clock_plan):
        critical = exact_design.critical_path_delay
        clocks = list(clock_plan.periods) + [critical * 0.5, critical * 1.5]
        self._assert_engines_agree(exact_design, _random_operands(16, 300, 31), clocks)

    def test_isa_adders(self, paper_design, clock_plan):
        critical = paper_design.critical_path_delay
        clocks = list(clock_plan.periods) + [critical * 0.7]
        self._assert_engines_agree(paper_design, _random_operands(32, 300, 37), clocks)

    def test_empty_clock_list_returns_empty_on_both_engines(self, exact_design):
        operands = _random_operands(16, 20, 29)
        for engine in ("compiled", "reference"):
            simulator = FastTimingSimulator(exact_design.netlist, exact_design.annotation,
                                            engine=engine)
            assert simulator.run_trace_multi(operands, []) == {}

    @pytest.mark.parametrize("length", (2, 64, 65, 129))
    def test_ragged_trace_lengths(self, exact_design, length):
        critical = exact_design.critical_path_delay
        self._assert_engines_agree(exact_design, _random_operands(16, length, 41 + length),
                                   [critical * 0.8])

    def test_error_statistics_match(self, paper_design, clock_plan):
        """Cycle/bit error rates — the paper's metrics — are identical."""
        operands = _random_operands(32, 400, 43)
        compiled = FastTimingSimulator(paper_design.netlist, paper_design.annotation,
                                       engine="compiled")
        reference = FastTimingSimulator(paper_design.netlist, paper_design.annotation,
                                        engine="reference")
        got = compiled.run_trace_multi(operands, clock_plan.periods)
        want = reference.run_trace_multi(operands, clock_plan.periods)
        for clk in clock_plan.periods:
            assert got[clk].cycle_error_rate() == want[clk].cycle_error_rate()
            assert np.array_equal(got[clk].bit_error_rate(), want[clk].bit_error_rate())

    def test_variation_small_design_still_exact(self, clock_plan):
        """Per-instance delay variation keeps engines equivalent when it compiles."""
        design = synthesize(exact_adder_netlist(8, "ripple"),
                            SynthesisOptions(variation_sigma=0.08, variation_seed=5))
        self._assert_engines_agree(design, _random_operands(8, 200, 47),
                                   list(clock_plan.periods))

    def test_variation_prefix_adder_still_exact(self, clock_plan):
        """Continuous per-instance delays also compile (deduped rows) and agree."""
        design = synthesize(exact_adder_netlist(32, "kogge-stone"),
                            SynthesisOptions(variation_sigma=0.2, variation_seed=7))
        critical = design.critical_path_delay
        self._assert_engines_agree(design, _random_operands(32, 200, 61),
                                   list(clock_plan.periods) + [critical * 0.9])

    def test_row_limit_falls_back(self, monkeypatch):
        """When the threshold-row budget is exceeded, auto mode goes dense."""
        design = synthesize(exact_adder_netlist(16, "kogge-stone"))
        from repro.exceptions import CompilationError
        with pytest.raises(CompilationError):
            PackedTimingProgram(design.netlist.compiled(), design.annotation,
                                row_limit=64)
        monkeypatch.setattr(PackedTimingProgram, "DEFAULT_ROWS_PER_GATE", 0)
        auto = FastTimingSimulator(design.netlist, design.annotation, engine="auto")
        assert auto.engine == "reference"
        with pytest.raises(SimulationError):
            FastTimingSimulator(design.netlist, design.annotation, engine="compiled")
        # and the dense fallback still simulates correctly
        trace = auto.run_trace(_random_operands(16, 50, 67),
                               design.critical_path_delay * 1.05)
        assert trace.cycle_error_rate() == 0.0

    def test_plan_matches_full_propagation(self, exact_design):
        """A clock-specialised plan computes the same rows as the full run."""
        netlist = exact_design.netlist
        program = netlist.compiled()
        timing = PackedTimingProgram(program, exact_design.annotation)
        operands = _random_operands(16, 130, 53)
        bits = expand_operand_traces(netlist, operands)
        old, new = program.evaluate_transitions(
            {net: trace for net, trace in bits.items()}, 129)
        changed = old ^ new
        clk = exact_design.critical_path_delay * 0.6
        rows = timing.late_rows(netlist.buses["S"], clk)
        full = timing.run(changed)
        planned = timing.run(changed, plan=timing.plan_for(rows))
        assert np.array_equal(full[rows], planned[rows])

    def test_clock_specialised_program_matches_full(self, exact_design, clock_plan):
        """A clock-specialised compilation answers its clocks identically."""
        netlist = exact_design.netlist
        program = netlist.compiled()
        clocks = list(clock_plan.periods) + [exact_design.critical_path_delay * 0.7]
        full = PackedTimingProgram(program, exact_design.annotation)
        specialised = PackedTimingProgram(program, exact_design.annotation,
                                          clock_periods=clocks)
        assert specialised.num_rows <= full.num_rows
        bits = expand_operand_traces(netlist, _random_operands(16, 130, 59))
        old, new = program.evaluate_transitions(bits, 129)
        changed = old ^ new
        full_masks = full.run(changed)
        spec_masks = specialised.run(changed)
        nets = netlist.buses["S"]
        for clk in clocks:
            assert np.array_equal(full_masks[full.late_rows(nets, clk)],
                                  spec_masks[specialised.late_rows(nets, clk)])

    def test_clock_specialised_program_rejects_other_clocks(self, exact_design):
        program = exact_design.netlist.compiled()
        critical = exact_design.critical_path_delay
        specialised = PackedTimingProgram(program, exact_design.annotation,
                                          clock_periods=[critical * 0.9])
        with pytest.raises(SimulationError):
            specialised.late_rows(exact_design.netlist.buses["S"], critical * 0.4)


def _general_program_shape(design):
    """Row-level shape of a design's general timing program.

    Row count, runtime block, batch sizes and fan-ins, and for every
    sampleable net which thresholds have a row (``r``) and which map to
    the all-zero row 0 (``0``).
    """
    netlist = design.netlist
    program = PackedTimingProgram(netlist.compiled(), design.annotation)
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
#: None; SHA-256 of their general programs' shapes in space order).
#: Recorded with the bottom-up discovery the cone walk replaced, so the
#: two discovery strategies are pinned to the same programs.
GENERAL_PROGRAM_SHAPES = {
    8: (None, "6cdd2a296c9022abc502fa897499155560f822b9b737e66e3baaf16115fc5ef8"),
    16: (24, "b1b3caf6c768bef5a6750df4d067dcb82b15675d01df13a4b15685f3021d546e"),
}


class TestGeneralProgram:
    @pytest.mark.parametrize("width", sorted(GENERAL_PROGRAM_SHAPES))
    def test_shape_matches_recorded_digest(self, width):
        """The general program (every threshold of every sampleable net)
        keeps its rows, batches and row-0 map row for row."""
        max_designs, expected = GENERAL_PROGRAM_SHAPES[width]
        options = SynthesisOptions()
        shapes = [_general_program_shape(synthesize_entry(entry, width, options))
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
            bits = expand_operand_traces(netlist, operands)
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
        netlist = exact_design.netlist
        program = netlist.compiled()
        traces = [expand_operand_traces(netlist, _random_operands(16, length, 83 + length))
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
            transitions = lengths[index] - 1
            if transitions < 1:
                continue
            old, new = program.evaluate_transitions(bits, transitions)
            words = packed_word_count(transitions)
            # whole words match exactly; the last (ragged) word matches on
            # the bits that name real transitions
            if words > 1:
                assert np.array_equal(old_many[:, index, :words - 1],
                                      old[:, :words - 1])
                assert np.array_equal(new_many[:, index, :words - 1],
                                      new[:, :words - 1])
            tail = transitions - (words - 1) * 64
            mask = np.uint64((1 << tail) - 1) if tail < 64 else ~np.uint64(0)
            assert np.array_equal(old_many[:, index, words - 1] & mask,
                                  old[:, words - 1] & mask)
            assert np.array_equal(new_many[:, index, words - 1] & mask,
                                  new[:, words - 1] & mask)

    def test_run_many_matches_run(self, exact_design):
        netlist = exact_design.netlist
        program = netlist.compiled()
        timing = PackedTimingProgram(program, exact_design.annotation)
        traces = [expand_operand_traces(netlist, _random_operands(16, 130, seed))
                  for seed in (91, 92, 93)]
        diffs = []
        for bits in traces:
            old, new = program.evaluate_transitions(bits, 129)
            diffs.append(old ^ new)
        stacked = np.stack(diffs, axis=1)  # (num_nets, traces, words)
        masks_many = timing.run_many(stacked)
        for index, changed in enumerate(diffs):
            assert np.array_equal(masks_many[:, index], timing.run(changed))

    def test_run_many_rejects_flat_input(self, exact_design):
        program = exact_design.netlist.compiled()
        timing = PackedTimingProgram(program, exact_design.annotation)
        with pytest.raises(SimulationError):
            timing.run_many(np.zeros((program.num_nets, 2), dtype=np.uint64))


class TestOperandExpansion:
    def test_unknown_operand(self, exact_design):
        with pytest.raises(SimulationError):
            expand_operand_traces(exact_design.netlist,
                                  {"Z": np.array([1, 2], dtype=np.uint64)})

    def test_length_mismatch(self, exact_design):
        with pytest.raises(SimulationError):
            expand_operand_traces(exact_design.netlist,
                                  {"A": np.array([1, 2], dtype=np.uint64),
                                   "B": np.array([1], dtype=np.uint64)})

    def test_missing_inputs(self, exact_design):
        with pytest.raises(SimulationError):
            expand_operand_traces(exact_design.netlist,
                                  {"A": np.array([1, 2], dtype=np.uint64)})

    def test_expansion_drives_all_inputs(self, exact_design):
        operands = _random_operands(16, 10, 59)
        bits = expand_operand_traces(exact_design.netlist, operands)
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

"""Levelised synthesis kernels vs. the per-gate test oracle.

The levelised NumPy passes of :mod:`repro.timing.sta`,
:mod:`repro.synth.sizing` and :mod:`repro.synth.optimize` promise
*bit-identical* delay annotations and *gate-identical* netlists against
the per-gate/per-dict implementations kept in ``reference_kernels``.
These tests pin that promise across the design space, including seeded
variation runs, designs that fail their clock constraint and netlists
without gates.
"""

import struct

import pytest

from repro.circuit.netlist import CONST0, CONST1, Netlist
from repro.circuit.sdf import DelayAnnotation
from repro.explore.space import DesignSpace
from repro.explore.sweep import SweepSpec, run_sweep, sweep_clock_plan
from repro.obs.trace import collect_phases
from repro.runtime.jobs import clear_design_cache
from repro.synth.adders import kogge_stone_adder
from repro.synth.flow import SynthesisOptions, exact_adder_netlist, synthesize
from repro.synth.optimize import optimize
from repro.synth.sizing import SizingOptions, size_to_constraint
from repro.timing.clocking import PAPER_SAFE_PERIOD
from repro.timing.sta import (
    analyze_timing,
    arrival_times,
    gate_slacks,
    path_gate_counts,
    required_times,
)
from repro.workloads.generators import WorkloadSpec

import reference_kernels as reference
from reference_kernels import reference_kernels


def _entry_netlist(entry, width, options):
    if entry.is_exact:
        return exact_adder_netlist(width, options.adder_architecture)
    from repro.synth.isa_synth import isa_adder
    return isa_adder(entry.config, sub_adder=options.adder_architecture)


def _gate_tuples(netlist):
    return [(g.name, g.cell, tuple(g.inputs), g.output) for g in netlist.gates]


def _bits(values):
    """Exact byte representation of a float sequence (bit-level compare)."""
    values = list(values)
    return struct.pack(f"<{len(values)}d", *values)


def _assert_dicts_bit_identical(vec, ref):
    # Same keys in the same insertion order, and bit-equal values.
    assert list(vec) == list(ref)
    assert _bits(vec.values()) == _bits(ref.values())


def _assert_designs_identical(vec, ref):
    assert _gate_tuples(vec.netlist) == _gate_tuples(ref.netlist)
    assert vec.netlist.inputs == ref.netlist.inputs
    assert vec.netlist.outputs == ref.netlist.outputs
    ref_delays = {g.name: ref.annotation.delay_of(g.name) for g in ref.netlist.gates}
    vec_delays = {g.name: vec.annotation.delay_of(g.name) for g in vec.netlist.gates}
    _assert_dicts_bit_identical(vec_delays, ref_delays)
    assert _bits([vec.timing_report.critical_path_delay]) == \
        _bits([ref.timing_report.critical_path_delay])
    if ref.sizing_result is not None:
        for name in ("nominal_critical_path", "sized_critical_path",
                     "nominal_total_delay", "sized_total_delay"):
            vec_value = getattr(vec.sizing_result, name)
            ref_value = getattr(ref.sizing_result, name)
            assert type(vec_value) is type(ref_value)
            assert _bits([vec_value]) == _bits([ref_value])
        assert vec.sizing_result.met_constraint == ref.sizing_result.met_constraint


def _gateless(name, inputs, outputs):
    """A netlist without gates: its outputs are wired to inputs and constants."""
    netlist = Netlist(name)
    for net in inputs:
        netlist.add_input(net)
    for net in outputs:
        netlist.add_output(net)
    netlist.register_bus("S", outputs)
    return netlist


#: Gateless netlists, one more input to every STA, sizing and flow check.
GATELESS = (
    _gateless("wires", ["a", "b"], ["a", "b"]),
    _gateless("constants", ["a"], [CONST0, CONST1]),
    _gateless("mixed", ["a", "b"], ["b", CONST1, "a", CONST0]),
    _gateless("repeated", ["a"], ["a", "a", CONST0]),
)

# Full quadruple space at width 8; evenly strided sample at width 16.
WIDTH8_ENTRIES = DesignSpace(width=8).entries()
WIDTH16_ENTRIES = DesignSpace(width=16).entries(max_designs=24)


class TestStaKernels:
    @pytest.fixture(scope="class")
    def annotated(self, synthesized_small_isa, synthesis_options):
        """(netlist, annotation) pairs: the small ISA, then every gateless netlist."""
        design = synthesized_small_isa
        library = synthesis_options.resolved_library()
        return [(design.netlist, design.annotation)] + [
            (netlist, DelayAnnotation.nominal(netlist, library)) for netlist in GATELESS]

    def test_arrival_times_bit_identical(self, annotated):
        for netlist, annotation in annotated:
            vec = arrival_times(netlist, annotation)
            ref = reference.arrival_times(netlist, annotation)
            _assert_dicts_bit_identical(vec, ref)

    def test_required_times_bit_identical(self, annotated):
        for netlist, annotation in annotated:
            for clock in (1e-10, 3e-10, 1e-9):
                vec = required_times(netlist, annotation, clock)
                ref = reference.required_times(netlist, annotation, clock)
                _assert_dicts_bit_identical(vec, ref)

    def test_gate_slacks_bit_identical(self, annotated):
        for netlist, annotation in annotated:
            vec = gate_slacks(netlist, annotation, 3e-10)
            ref = reference.gate_slacks(netlist, annotation, 3e-10)
            _assert_dicts_bit_identical(vec, ref)

    def test_path_gate_counts_identical(self, annotated):
        for netlist, _ in annotated:
            vec = path_gate_counts(netlist)
            ref = reference.path_gate_counts(netlist)
            assert list(vec) == list(ref)
            assert list(vec.values()) == list(ref.values())

    def test_analyze_timing_report_identical(self, annotated):
        for netlist, annotation in annotated:
            vec = analyze_timing(netlist, annotation, clock_period=3e-10)
            with reference_kernels():
                ref = analyze_timing(netlist, annotation, clock_period=3e-10)
            assert _bits([vec.critical_path_delay]) == _bits([ref.critical_path_delay])
            assert vec.critical_path_gates == ref.critical_path_gates
            assert vec.critical_endpoint == ref.critical_endpoint
            assert _bits([vec.worst_slack]) == _bits([ref.worst_slack])
            _assert_dicts_bit_identical(vec.output_arrivals, ref.output_arrivals)


class TestSizingKernel:
    @pytest.mark.parametrize("factor", [1.5, 0.93, 0.5])
    def test_sizing_bit_identical(self, factor, synthesis_options):
        library = synthesis_options.resolved_library()
        for netlist in (kogge_stone_adder(16), *GATELESS):
            nominal = analyze_timing(
                netlist, DelayAnnotation.nominal(netlist, library)).critical_path_delay
            # A gateless netlist has no delay to scale: use the paper's period.
            options = SizingOptions(clock_constraint=(nominal or PAPER_SAFE_PERIOD) * factor)
            vec = size_to_constraint(netlist, library, options)
            with reference_kernels():
                ref = reference.size_to_constraint(netlist, library, options)
            for name in ("nominal_critical_path", "sized_critical_path",
                         "nominal_total_delay", "sized_total_delay"):
                assert _bits([getattr(vec, name)]) == _bits([getattr(ref, name)])
            assert vec.met_constraint == ref.met_constraint
            vec_delays = {g.name: vec.annotation.delay_of(g.name) for g in netlist.gates}
            ref_delays = {g.name: ref.annotation.delay_of(g.name) for g in netlist.gates}
            _assert_dicts_bit_identical(vec_delays, ref_delays)

    def test_constraint_failing_netlist(self, synthesis_options):
        # A constraint far below what min_delay cells can reach: the
        # fix-up passes bottom out and met_constraint is False on both
        # paths, with identical annotations.
        netlist = kogge_stone_adder(8)
        library = synthesis_options.resolved_library()
        options = SizingOptions(clock_constraint=1e-12)
        vec = size_to_constraint(netlist, library, options)
        with reference_kernels():
            ref = reference.size_to_constraint(netlist, library, options)
        assert vec.met_constraint is False
        assert ref.met_constraint is False
        vec_delays = {g.name: vec.annotation.delay_of(g.name) for g in netlist.gates}
        ref_delays = {g.name: ref.annotation.delay_of(g.name) for g in netlist.gates}
        _assert_dicts_bit_identical(vec_delays, ref_delays)


class TestOptimizeKernel:
    @pytest.mark.parametrize("entry", WIDTH8_ENTRIES, ids=lambda e: e.name)
    def test_width8_gate_identical(self, entry, synthesis_options):
        netlist = _entry_netlist(entry, 8, synthesis_options)
        vec = optimize(netlist)
        ref = reference.optimize(netlist)
        assert _gate_tuples(vec) == _gate_tuples(ref)
        assert vec.outputs == ref.outputs
        assert vec.buses.keys() == ref.buses.keys()


class TestFlowEquivalence:
    @pytest.mark.parametrize("entry", WIDTH16_ENTRIES, ids=lambda e: e.name)
    def test_width16_synthesize_identical(self, entry, synthesis_options):
        netlist = _entry_netlist(entry, 16, synthesis_options)
        vec = synthesize(netlist, synthesis_options)
        with reference_kernels():
            ref = synthesize(netlist, synthesis_options)
        _assert_designs_identical(vec, ref)

    def test_seeded_variation_identical(self):
        options = SynthesisOptions(variation_sigma=0.05, variation_seed=1234)
        for netlist in (kogge_stone_adder(16), *GATELESS):
            vec = synthesize(netlist, options)
            with reference_kernels():
                ref = synthesize(netlist, options)
            _assert_designs_identical(vec, ref)

    def test_tight_constraint_flow_identical(self):
        # Flow-level coverage of a design that cannot meet its clock.
        options = SynthesisOptions(clock_constraint=1e-12)
        netlist = kogge_stone_adder(8)
        vec = synthesize(netlist, options)
        with reference_kernels():
            ref = synthesize(netlist, options)
        assert vec.sizing_result.met_constraint is False
        _assert_designs_identical(vec, ref)


class TestSweepEquivalence:
    def test_small_sweep_value_identical(self):
        entries = tuple(DesignSpace(width=16).entries(max_designs=4))
        spec = SweepSpec(entries=entries, clock_plan=sweep_clock_plan((0.0, 0.10)),
                         workloads=(WorkloadSpec("uniform", 128, width=16, seed=3),),
                         simulator="fast", synthesis=SynthesisOptions(), width=16)
        # The oracle pass synthesizes every design itself, even when a
        # persistent synthesis cache holds them already.
        with reference_kernels(), collect_phases() as phases:
            ref = run_sweep(spec, backend="serial")
        assert phases.calls.get("synthesize", 0) == len(entries)
        clear_design_cache()
        vec = run_sweep(spec, backend="serial")
        assert len(vec.points) == len(ref.points)
        for vp, rp in zip(vec.points, ref.points):
            assert vp.design == rp.design
            assert _bits([vp.clock_period]) == _bits([rp.clock_period])
            assert _bits([vp.stats.rms_relative_error]) == \
                _bits([rp.stats.rms_relative_error])
            assert _bits([vp.stats.error_rate]) == _bits([rp.stats.error_rate])
            assert _bits([vp.structural_rms]) == _bits([rp.structural_rms])
            assert _bits([vp.timing_rms]) == _bits([rp.timing_rms])
            assert vp.cost.gates == rp.cost.gates

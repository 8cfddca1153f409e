"""Vectorised two-vector timing simulation.

For every input transition ``x[t-1] -> x[t]`` the simulator computes, for
every net, the settled value before and after the transition and the
*arrival time* of its final transition (using per-gate transport delays
from the delay annotation).  An output bit whose arrival time exceeds the
sampling clock period latches its stale (previous) value — exactly the
timing-error mechanism the paper measures with SDF-annotated gate-level
simulation.

The simplification with respect to the event-driven reference simulator
(:mod:`repro.timing.event_sim`) is that a net whose settled value does not
change is considered stable (glitches are ignored).  The two simulators
are compared on small designs by the test suite and an ablation
benchmark; the agreement on error statistics is close because arithmetic
circuits driven by registered inputs glitch mostly on nets that also make
a final transition.

One chunked pass serves every call.  The compiled bit-packed logic
program (:class:`~repro.circuit.compiled.CompiledProgram`, 64 cycles per
``uint64`` word) gives every net's settled value before and after each
transition, and one of two kernels decides which output bits are late.
The call's size picks the kernel; both give the same words bit for bit.

the levelised pass
    Walks the logic program's gate batches (one level, one cell and so
    one fan-in each) and computes every net's arrival time for all
    transitions of a chunk at once: ``arrival[out] = where(changed[out],
    max(arrival[inputs]) + delay, -inf)``.  That is the same ``max`` and
    the same float addition per gate as the per-gate specification it
    replaced (kept as a test oracle), so it is bit-exact with it.  It
    needs no lowering beyond the logic program.  A call of at most
    :data:`DENSE_MAX_TRANSITIONS` transitions, summed over its traces,
    runs it.

the packed timing program
    The arrival-threshold masks of
    :class:`~repro.circuit.compiled.PackedTimingProgram`, built for the
    call's own clock periods: bitwise word operations only, no per-cycle
    float arithmetic, but a build of several milliseconds per design and
    clock set.  A longer call builds it for its sorted clock set, which
    later long calls at those clocks reuse.  When that build overflows
    its row limit (heavy per-instance delay variation), long calls at
    those clocks stay on the levelised pass.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.compiled import (PackedTimingProgram, pack_bits, rows_to_words,
                                    transition_chunks, unpack_bits)
from repro.circuit.netlist import Netlist
from repro.circuit.sdf import DelayAnnotation
from repro.exceptions import CompilationError, SimulationError
from repro.obs.trace import span
from repro.timing.errors import TimingErrorTrace
from repro.timing.operands import (
    expand_operand_traces,
    expand_operand_traces_interned,
    trace_length,
)
from repro.utils.validation import is_positive_finite

#: Arrival-time value used for nets that do not switch in a cycle.
STABLE = -np.inf

#: Largest call, in transitions summed over its traces, that runs on the
#: levelised pass.  Above it, building the packed timing program for the
#: call's clocks once costs less than the levelised pass would.  The rule
#: reads only the call's own size, so a call always takes the same kernel.
DENSE_MAX_TRANSITIONS = 1024

#: Target size (bytes) of what one chunk materialises; keeps a pass
#: cache-resident on typical designs.
_CHUNK_BYTES = 8 << 20


@dataclass
class BatchedTraceRun:
    """Result of one multi-trace batched simulation.

    ``timing`` holds one ``{clock_period: TimingErrorTrace}`` dict per
    submitted trace, in submission order — exactly what the per-trace
    :meth:`FastTimingSimulator.run_trace_multi` would have returned.
    ``settled_values`` holds per trace the settled output-bus word of
    **every** input vector — bit-identical to
    :meth:`~repro.circuit.netlist.Netlist.compute_words` on that trace,
    derived from the same packed evaluation that fed the timing run, so
    golden cross-checks need no second logic pass.
    """

    timing: List[Dict[float, TimingErrorTrace]]
    settled_values: List[np.ndarray]


class FastTimingSimulator:
    """Levelised, vectorised timing simulator for a delay-annotated netlist.

    Every call names the clock periods it samples.  A call that needs
    the packed timing program builds one for its sorted clock set, so
    only the arrival-threshold cone those clocks sample is compiled, and
    later calls at the same clocks reuse it; one simulator serves any
    number of clock plans.
    """

    def __init__(self, netlist: Netlist, annotation: DelayAnnotation) -> None:
        annotation.validate_against(netlist)
        self.netlist = netlist
        self.annotation = annotation
        self._program = program = netlist.compiled()
        # Each logic batch's gate delays, shaped to broadcast over the
        # (traces, transitions) axes of the levelised pass.
        delays = np.zeros(program.num_nets)
        for gate in netlist.topological_order():
            delays[program.net_id[gate.output]] = annotation.delay_of(gate.name)
        self._batch_delays = [delays[batch.out_ids][:, None, None]
                              for batch in program.batches]
        # Packed timing programs by sorted clock set; None marks a build
        # that overflowed its row limit.
        self._timing_programs: Dict[Tuple[float, ...], Optional[PackedTimingProgram]] = {}

    def _packed_program(self, clock_periods: Sequence[float],
                        phase) -> Optional[PackedTimingProgram]:
        """The packed timing program for these clock periods, built on
        first use; ``None`` when its build overflowed."""
        clocks = tuple(sorted({float(clk) for clk in clock_periods}))
        if clocks not in self._timing_programs:
            with phase("lower"):
                try:
                    self._timing_programs[clocks] = PackedTimingProgram(
                        self._program, self.annotation, clocks)
                except CompilationError:
                    self._timing_programs[clocks] = None
        return self._timing_programs[clocks]

    # ------------------------------------------------------------------ #
    # Word-level trace simulation
    # ------------------------------------------------------------------ #
    def run_trace(self, operands: Mapping[str, np.ndarray], clock_period: float,
                  output_bus: str = "S") -> TimingErrorTrace:
        """Simulate a word-level operand trace at one clock period."""
        return self.run_trace_multi(operands, [clock_period],
                                    output_bus=output_bus)[clock_period]

    def run_trace_multi(self, operands: Mapping[str, np.ndarray],
                        clock_periods: Sequence[float],
                        output_bus: str = "S") -> Dict[float, TimingErrorTrace]:
        """Simulate one operand trace sampled at several clock periods.

        ``operands`` maps bus names (and optionally scalar input nets) to
        arrays of length ``T``; cycle ``t`` applies the transition from
        vector ``t-1`` to vector ``t``, so ``T - 1`` transitions are
        simulated.  The expensive lateness computation is shared between
        all requested clock periods.
        """
        self._check_clocks(clock_periods)
        input_trace = expand_operand_traces(self.netlist, operands)
        total = trace_length(input_trace)
        if total < 2:
            raise SimulationError("a timing trace needs at least two input vectors")
        output_nets = self._output_nets(output_bus)
        if not clock_periods:
            return {}
        # Callers time this call as a whole (execute_job opens its own
        # "simulate" span), so neither the chunk loop nor a lazy build of
        # the packed program opens spans here.
        return self._simulate([input_trace], [total], clock_periods, output_nets,
                              phase=nullcontext).timing[0]

    def run_traces_multi(self, operand_traces: Sequence[Mapping[str, np.ndarray]],
                         clock_periods: Sequence[float],
                         output_bus: str = "S") -> BatchedTraceRun:
        """Simulate several operand traces in one batched pass.

        The traces are stacked into a ``(traces, words)`` packed tensor
        and every gate batch, lateness step and output decode runs as
        **one** NumPy dispatch covering the whole stack; traces may have
        ragged lengths (shorter traces are zero-padded to the stack and
        their padding discarded).  The per-trace results are
        bit-identical to calling :meth:`run_trace_multi` on each trace
        alone — values of different traces never mix.  Each trace's
        settled output word of every input vector — the gate-level golden
        reference — comes from the same evaluation.
        """
        self._check_clocks(clock_periods)
        output_nets = self._output_nets(output_bus)
        operand_traces = list(operand_traces)
        if not operand_traces:
            return BatchedTraceRun(timing=[], settled_values=[])
        with span("pack"):
            input_traces = [expand_operand_traces_interned(self.netlist, operands)
                            for operands in operand_traces]
        totals = [trace_length(bits) for bits in input_traces]
        for total in totals:
            if total < 2:
                raise SimulationError("a timing trace needs at least two input vectors")
        return self._simulate(input_traces, totals, clock_periods, output_nets)

    # ------------------------------------------------------------------ #
    # The chunk loop
    # ------------------------------------------------------------------ #
    def _simulate(self, input_traces: List[Mapping[str, np.ndarray]],
                  totals: List[int], clock_periods: Sequence[float],
                  output_nets: List[str], phase=span) -> BatchedTraceRun:
        program = self._program
        count = len(input_traces)
        transitions = [total - 1 for total in totals]
        max_transitions = max(transitions)
        timing = None
        if sum(transitions) > DENSE_MAX_TRANSITIONS:
            timing = self._packed_program(clock_periods, phase)
        sampled = {clk: [np.empty(t, dtype=np.uint64) for t in transitions]
                   for clk in clock_periods}
        settled = [np.empty(t, dtype=np.uint64) for t in transitions]
        first_cycle = np.zeros(count, dtype=np.uint64)
        out_ids = np.array([program.net_id[net] for net in output_nets],
                           dtype=np.int64)
        nets = list(input_traces[0])

        # Budget the chunk against everything a pass materialises per
        # packed word and trace, in uint64 rows: the stacked value
        # tensors (num_nets, old + new), the decode temporaries of
        # rows_to_words (unpacked uint64 bit matrices of ~64 rows per
        # output bit, allocated per clock period), and the lateness
        # source's own.  For the packed program that is its mask matrix
        # (num_rows; a program built for a few clocks is small, and
        # without the decode term the span would grow to match and the
        # decode temporaries would dwarf the budget).  For the levelised
        # pass it is a float64 arrival time and a bool changed flag per
        # net and transition: 72 rows per net.
        per_word_rows = 2 * program.num_nets + 128 * max(len(output_nets), 1)
        if timing is not None:
            late_rows = {clk: timing.late_rows(output_nets, clk) for clk in clock_periods}
            words_per_chunk = max(64, _CHUNK_BYTES // (
                8 * (per_word_rows + timing.num_rows) * count))
        else:
            words_per_chunk = max(1, _CHUNK_BYTES // (
                8 * (per_word_rows + 72 * program.num_nets) * count))
        for start, stop in transition_chunks(max_transitions, words_per_chunk * 64):
            chunk = stop - start
            with phase("pack"):
                # One stacked (traces, chunk + 1) 0/1 matrix per net; a
                # trace that ends inside the chunk is zero-padded — its
                # padded columns are evaluated but never decoded.
                stacked = {}
                for net in nets:
                    rows = np.zeros((count, chunk + 1), dtype=np.uint8)
                    for index, bits in enumerate(input_traces):
                        high = min(stop + 1, totals[index])
                        if high > start:
                            rows[index, :high - start] = bits[net][start:high]
                    stacked[net] = rows
            with phase("simulate"):
                old_values, new_values = program.evaluate_transitions_many(
                    stacked, chunk)
                diff = old_values ^ new_values
                if timing is not None:
                    masks = timing.run_many(diff)
                    late = {clk: masks[late_rows[clk]] for clk in clock_periods}
                else:
                    arrival = self._arrival(diff, chunk)[out_ids]
                    late = {clk: pack_bits(arrival > clk) for clk in clock_periods}

                old_rows = old_values[out_ids]
                new_rows = new_values[out_ids]
                diff_rows = diff[out_ids]
                settled_chunk = rows_to_words(new_rows, chunk)
                for index in range(count):
                    valid = min(stop, transitions[index]) - start
                    if valid > 0:
                        settled[index][start:start + valid] = settled_chunk[index, :valid]
                if start == 0:
                    # The settled word of input vector 0 is the "old"
                    # side of transition 0; every later vector's settled
                    # word is the "new" side of its transition.
                    first_cycle[:] = rows_to_words(old_rows[..., :1], 1)[:, 0]
                for clk in clock_periods:
                    sampled_chunk = rows_to_words(new_rows ^ (diff_rows & late[clk]), chunk)
                    for index in range(count):
                        valid = min(stop, transitions[index]) - start
                        if valid > 0:
                            sampled[clk][index][start:start + valid] = \
                                sampled_chunk[index, :valid]

        timing_results = [
            {clk: TimingErrorTrace(clock_period=clk,
                                   sampled_words=sampled[clk][index],
                                   settled_words=settled[index],
                                   output_width=len(output_nets))
             for clk in clock_periods}
            for index in range(count)]
        settled_values = [np.concatenate([first_cycle[index:index + 1], settled[index]])
                          for index in range(count)]
        return BatchedTraceRun(timing=timing_results, settled_values=settled_values)

    def _arrival(self, diff: np.ndarray, transitions: int) -> np.ndarray:
        """The levelised pass: every net's arrival time in one chunk.

        ``diff`` is the packed ``(num_nets, traces, words)`` old-vs-new
        difference of settled values; the result is the
        ``(num_nets, traces, transitions)`` float64 arrival time of each
        net's final transition, :data:`STABLE` where it does not switch.
        """
        program = self._program
        changed = unpack_bits(diff, transitions).view(bool)
        arrival = np.empty(changed.shape)
        arrival[:2] = STABLE  # the constants
        inputs = program.input_ids
        arrival[inputs] = np.where(changed[inputs], 0.0, STABLE)
        for batch, delays in zip(program.batches, self._batch_delays):
            latest = arrival[batch.operand_ids[0]]
            for ids in batch.operand_ids[1:]:
                np.maximum(latest, arrival[ids], out=latest)
            latest += delays
            arrival[batch.out_ids] = np.where(changed[batch.out_ids], latest, STABLE)
        return arrival

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _check_clocks(clock_periods: Sequence[float]) -> None:
        for clk in clock_periods:
            if not is_positive_finite(clk):
                raise SimulationError(
                    f"clock period must be positive and finite, got {clk}")

    def _output_nets(self, output_bus: str) -> List[str]:
        if output_bus in self.netlist.buses:
            return self.netlist.buses[output_bus]
        raise SimulationError(f"netlist {self.netlist.name!r} has no bus {output_bus!r}")

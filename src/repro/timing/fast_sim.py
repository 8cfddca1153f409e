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

Two execution engines implement the same model, bit-exactly:

``"compiled"`` (default when available)
    The packed engine: settled values come from the compiled bit-packed
    logic program (64 cycles per ``uint64`` word) and lateness is
    resolved by the arrival-threshold masks of
    :class:`~repro.circuit.compiled.PackedTimingProgram`, so the entire
    trace is simulated with bitwise word operations and no per-cycle
    float arithmetic.

``"reference"``
    The dense float path: per-gate ``uint8`` logic evaluation and a
    float64 arrival array per net and cycle.  It is kept as the
    specification of the model and as the fallback for netlists or
    delay annotations the packed engine cannot compile (e.g. heavy
    per-instance delay variation).

``engine="auto"`` (the default) picks ``"compiled"`` when the netlist and
annotation compile, and silently falls back to ``"reference"`` otherwise.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.circuit.compiled import PackedTimingProgram, rows_to_words, transition_chunks
from repro.circuit.netlist import CONST0, CONST1, Netlist
from repro.circuit.sdf import DelayAnnotation
from repro.exceptions import CompilationError, SimulationError
from repro.obs.trace import span
from repro.timing.errors import TimingErrorTrace
from repro.timing.operands import (
    expand_operand_traces,
    expand_operand_traces_interned,
    trace_length,
)

#: Arrival-time value used for nets that do not switch in a cycle.
STABLE = -np.inf

#: Engine identifiers accepted by :class:`FastTimingSimulator`.
ENGINES = ("auto", "compiled", "reference")

#: Target size (bytes) of the packed mask matrix per chunk; keeps the
#: threshold propagation cache-resident on typical designs.
_PACKED_CHUNK_BYTES = 8 << 20


@dataclass
class BatchedTraceRun:
    """Result of one multi-trace batched simulation.

    ``timing`` holds one ``{clock_period: TimingErrorTrace}`` dict per
    submitted trace, in submission order — exactly what the per-trace
    :meth:`FastTimingSimulator.run_trace_multi` would have returned.
    ``settled_values`` (present when requested) holds per trace the
    settled output-bus word of **every** input vector — bit-identical to
    :meth:`~repro.circuit.netlist.Netlist.compute_words` on that trace,
    derived from the same packed evaluation that fed the timing run, so
    golden cross-checks need no second logic pass.
    """

    timing: List[Dict[float, TimingErrorTrace]]
    settled_values: Optional[List[np.ndarray]] = None


class FastTimingSimulator:
    """Levelised, vectorised timing simulator for a delay-annotated netlist.

    ``clock_periods`` optionally specialises the compiled timing program
    to a fixed clock plan: only the arrival-threshold cone those clocks
    sample is compiled (typically an order of magnitude smaller), and
    simulating any *other* clock period raises instead of answering.
    The execution planner builds one specialised simulator per
    (design, clock plan) group; general-purpose callers leave it unset.
    """

    def __init__(self, netlist: Netlist, annotation: DelayAnnotation,
                 engine: str = "auto",
                 clock_periods: Optional[Sequence[float]] = None) -> None:
        if engine not in ENGINES:
            raise SimulationError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        annotation.validate_against(netlist)
        self.netlist = netlist
        self.annotation = annotation
        self._order = netlist.topological_order()
        self._delays = {gate.name: annotation.delay_of(gate.name) for gate in self._order}

        self._timing_program: Optional[PackedTimingProgram] = None
        if engine in ("auto", "compiled"):
            program = netlist.compiled()
            if program is not None:
                try:
                    self._timing_program = PackedTimingProgram(
                        program, annotation, clock_periods=clock_periods)
                except CompilationError:
                    self._timing_program = None
            if self._timing_program is None and engine == "compiled":
                raise SimulationError(
                    f"netlist {netlist.name!r} cannot be lowered to the compiled "
                    "packed timing engine; use engine='auto' or 'reference'")
        self.engine = "compiled" if self._timing_program is not None else "reference"
        # When auto falls back to dense timing, logic evaluation may still
        # use the compiled tier; an explicit "reference" request keeps the
        # whole pipeline on the seed algorithm.
        self._dense_eval_engine = "reference" if engine == "reference" else "auto"

    # ------------------------------------------------------------------ #
    # Core transition simulation (dense reference model)
    # ------------------------------------------------------------------ #
    def _dense_transitions(self, previous_inputs: Mapping[str, np.ndarray],
                           current_inputs: Mapping[str, np.ndarray],
                           eval_engine: str) -> Dict[str, Dict[str, np.ndarray]]:
        """Per-output-net ``old``/``new`` values and ``arrival`` times.

        ``previous_inputs`` and ``current_inputs`` map every primary input
        net to equal-length 0/1 arrays, one entry per transition.
        """
        old_values = self.netlist.evaluate(previous_inputs, engine=eval_engine)
        new_values = self.netlist.evaluate(current_inputs, engine=eval_engine)

        arrival: Dict[str, np.ndarray] = {}
        shape = self._stimulus_shape(current_inputs)
        for net in self.netlist.inputs:
            old = np.broadcast_to(np.asarray(old_values[net]), shape)
            new = np.broadcast_to(np.asarray(new_values[net]), shape)
            arrival[net] = np.where(old != new, 0.0, STABLE)
        zeros = np.full(shape, STABLE)
        arrival[CONST0] = zeros
        arrival[CONST1] = zeros

        for gate in self._order:
            delay = self._delays[gate.name]
            input_arrival = arrival[gate.inputs[0]]
            for net in gate.inputs[1:]:
                input_arrival = np.maximum(input_arrival, arrival[net])
            old = np.broadcast_to(np.asarray(old_values[gate.output]), shape)
            new = np.broadcast_to(np.asarray(new_values[gate.output]), shape)
            changed = old != new
            arrival[gate.output] = np.where(changed, input_arrival + delay, STABLE)

        results: Dict[str, Dict[str, np.ndarray]] = {}
        for net in self.netlist.outputs:
            results[net] = {
                "old": np.broadcast_to(np.asarray(old_values[net], dtype=np.uint8), shape),
                "new": np.broadcast_to(np.asarray(new_values[net], dtype=np.uint8), shape),
                "arrival": arrival[net],
            }
        return results

    # ------------------------------------------------------------------ #
    # Word-level trace simulation
    # ------------------------------------------------------------------ #
    def run_trace(self, operands: Mapping[str, np.ndarray], clock_period: float,
                  output_bus: str = "S", chunk_size: int = 4096) -> TimingErrorTrace:
        """Simulate a word-level operand trace at one clock period."""
        traces = self.run_trace_multi(operands, [clock_period], output_bus=output_bus,
                                      chunk_size=chunk_size)
        return traces[clock_period]

    def run_trace_multi(self, operands: Mapping[str, np.ndarray],
                        clock_periods: Sequence[float], output_bus: str = "S",
                        chunk_size: int = 4096) -> Dict[float, TimingErrorTrace]:
        """Simulate one operand trace sampled at several clock periods.

        ``operands`` maps bus names (and optionally scalar input nets) to
        arrays of length ``T``; cycle ``t`` applies the transition from
        vector ``t-1`` to vector ``t``, so ``T - 1`` transitions are
        simulated.  The expensive lateness computation is shared between
        all requested clock periods.  ``chunk_size`` (transitions per
        batch) applies to the dense reference engine; the compiled
        engine chooses its own packed chunking to keep the mask matrix
        cache-resident.
        """
        for clk in clock_periods:
            if clk <= 0:
                raise SimulationError(f"clock period must be positive, got {clk}")
        input_trace = expand_operand_traces(self.netlist, operands)
        total = trace_length(input_trace)
        if total < 2:
            raise SimulationError("a timing trace needs at least two input vectors")
        output_nets = self._output_nets(output_bus)
        if not clock_periods:
            return {}

        if self.engine == "compiled":
            # Callers time this call as a whole (execute_job opens its own
            # "simulate" span), so the stacked kernel opens no spans here.
            return self._run_traces_multi_packed(
                [input_trace], [total], clock_periods, output_nets,
                include_settled_values=False, phase=nullcontext).timing[0]
        return self._run_trace_multi_dense(input_trace, total, clock_periods,
                                           output_nets, chunk_size)

    def run_traces_multi(self, operand_traces: Sequence[Mapping[str, np.ndarray]],
                         clock_periods: Sequence[float], output_bus: str = "S",
                         include_settled_values: bool = False,
                         chunk_size: int = 4096) -> BatchedTraceRun:
        """Simulate several operand traces in one batched pass.

        On the compiled engine the traces are stacked into a
        ``(traces, words)`` packed tensor and every gate batch, threshold
        batch and output decode runs as **one** NumPy dispatch covering
        the whole stack; traces may have ragged lengths (shorter traces
        are zero-padded to the stack and their padding discarded).  The
        per-trace results are bit-identical to calling
        :meth:`run_trace_multi` on each trace alone — packed words of
        different traces never mix.  On the dense reference engine the
        traces run one after the other (same results, no batching).

        ``include_settled_values`` additionally returns, per trace, the
        settled output word of every input vector — the gate-level
        golden reference — derived from the same evaluation.
        """
        for clk in clock_periods:
            if clk <= 0:
                raise SimulationError(f"clock period must be positive, got {clk}")
        output_nets = self._output_nets(output_bus)
        operand_traces = list(operand_traces)
        if not operand_traces:
            return BatchedTraceRun(
                timing=[], settled_values=[] if include_settled_values else None)
        with span("pack"):
            input_traces = [expand_operand_traces_interned(self.netlist, operands)
                            for operands in operand_traces]
        totals = [trace_length(bits) for bits in input_traces]
        for total in totals:
            if total < 2:
                raise SimulationError("a timing trace needs at least two input vectors")
        if not clock_periods and not include_settled_values:
            return BatchedTraceRun(timing=[{} for _ in input_traces])

        if self.engine == "compiled":
            return self._run_traces_multi_packed(input_traces, totals, clock_periods,
                                                 output_nets, include_settled_values)
        timing = [self._run_trace_multi_dense(bits, total, clock_periods,
                                              output_nets, chunk_size)
                  for bits, total in zip(input_traces, totals)]
        settled_values = None
        if include_settled_values:
            settled_values = [
                self.netlist.compute_words(operands, output_bus,
                                           engine=self._dense_eval_engine)
                for operands in operand_traces]
        return BatchedTraceRun(timing=timing, settled_values=settled_values)

    # ------------------------------------------------------------------ #
    # Packed engine
    # ------------------------------------------------------------------ #
    def _run_traces_multi_packed(self, input_traces: List[Mapping[str, np.ndarray]],
                                 totals: List[int], clock_periods: Sequence[float],
                                 output_nets: List[str], include_settled_values: bool,
                                 phase=span) -> BatchedTraceRun:
        timing = self._timing_program
        program = timing.program
        count = len(input_traces)
        transitions = [total - 1 for total in totals]
        max_transitions = max(transitions)
        sampled = {clk: [np.empty(t, dtype=np.uint64) for t in transitions]
                   for clk in clock_periods}
        settled = [np.empty(t, dtype=np.uint64) for t in transitions]
        first_cycle = np.zeros(count, dtype=np.uint64)
        late_rows = {clk: timing.late_rows(output_nets, clk) for clk in clock_periods}
        roots = (np.concatenate(list(late_rows.values())) if late_rows
                 else np.empty(0, dtype=np.int64))
        plan = timing.plan_for(roots)
        out_ids = np.array([program.net_id[net] for net in output_nets],
                           dtype=np.int64)
        nets = list(input_traces[0])

        # Budget the chunk against everything a pass materialises per
        # packed word and trace: the mask matrix (num_rows), the stacked
        # value tensors (num_nets, old + new), and the decode
        # temporaries of rows_to_words — unpacked uint64 bit matrices of
        # ~64 word-equivalents per output bit, allocated per clock
        # period.  Clock-specialised programs shrink num_rows by an
        # order of magnitude; without the decode term the span would
        # grow to match and the decode temporaries would dwarf the
        # budget.
        per_word_rows = (timing.num_rows + 2 * program.num_nets
                         + 128 * max(len(output_nets), 1))
        words_per_chunk = max(
            64, _PACKED_CHUNK_BYTES // (8 * per_word_rows * count))
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
                masks = timing.run_many(old_values ^ new_values, plan=plan)

                old_rows = old_values[out_ids]
                new_rows = new_values[out_ids]
                diff_rows = old_rows ^ new_rows
                settled_chunk = rows_to_words(new_rows, chunk)
                for index in range(count):
                    valid = min(stop, transitions[index]) - start
                    if valid > 0:
                        settled[index][start:start + valid] = settled_chunk[index, :valid]
                if include_settled_values and start == 0:
                    # The settled word of input vector 0 is the "old"
                    # side of transition 0; every later vector's settled
                    # word is the "new" side of its transition.
                    first_cycle[:] = rows_to_words(old_rows[..., :1], 1)[:, 0]
                for clk in clock_periods:
                    late = masks[late_rows[clk]]
                    sampled_chunk = rows_to_words(new_rows ^ (diff_rows & late), chunk)
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
        settled_values = None
        if include_settled_values:
            settled_values = [
                np.concatenate([first_cycle[index:index + 1], settled[index]])
                for index in range(count)]
        return BatchedTraceRun(timing=timing_results, settled_values=settled_values)

    # ------------------------------------------------------------------ #
    # Dense reference engine
    # ------------------------------------------------------------------ #
    def _run_trace_multi_dense(self, input_trace: Mapping[str, np.ndarray], total: int,
                               clock_periods: Sequence[float], output_nets: List[str],
                               chunk_size: int) -> Dict[float, TimingErrorTrace]:
        transitions = total - 1
        sampled = {clk: np.zeros(transitions, dtype=np.uint64) for clk in clock_periods}
        settled = np.zeros(transitions, dtype=np.uint64)

        for start in range(0, transitions, chunk_size):
            stop = min(start + chunk_size, transitions)
            previous = {net: values[start:stop] for net, values in input_trace.items()}
            current = {net: values[start + 1:stop + 1] for net, values in input_trace.items()}
            results = self._dense_transitions(previous, current,
                                              eval_engine=self._dense_eval_engine)
            chunk_settled = np.zeros(stop - start, dtype=np.uint64)
            for position, net in enumerate(output_nets):
                chunk_settled |= results[net]["new"].astype(np.uint64) << np.uint64(position)
            settled[start:stop] = chunk_settled
            for clk in clock_periods:
                chunk_sampled = np.zeros(stop - start, dtype=np.uint64)
                for position, net in enumerate(output_nets):
                    late = results[net]["arrival"] > clk
                    bit = np.where(late, results[net]["old"], results[net]["new"])
                    chunk_sampled |= bit.astype(np.uint64) << np.uint64(position)
                sampled[clk][start:stop] = chunk_sampled

        return {clk: TimingErrorTrace(clock_period=clk, sampled_words=sampled[clk],
                                      settled_words=settled,
                                      output_width=len(output_nets))
                for clk in clock_periods}

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _output_nets(self, output_bus: str) -> List[str]:
        if output_bus in self.netlist.buses:
            return self.netlist.buses[output_bus]
        raise SimulationError(f"netlist {self.netlist.name!r} has no bus {output_bus!r}")

    def _stimulus_shape(self, inputs: Mapping[str, np.ndarray]) -> tuple:
        for net in self.netlist.inputs:
            value = np.asarray(inputs[net])
            if value.ndim > 0:
                return value.shape
        return ()

"""Event-driven (transport-delay) gate-level timing simulator.

This is the reference timing model of the library: on an input transition
events are propagated through the netlist with per-gate transport delays,
so glitches and multiple transitions per net are represented.  Sampling a
primary output at the clock period returns whatever value the net holds
at that instant.

The simulator is implemented with a plain event queue in Python and is
therefore orders of magnitude slower than
:class:`repro.timing.fast_sim.FastTimingSimulator`; it is used for unit
tests, for validating the fast simulator (ablation A2 in DESIGN.md) and
for small glitch-sensitivity studies.  Trace runs lean on the compiled
bit-packed logic engine where they can: the settled values that seed
every transition's initial state are computed once for the whole trace,
64 cycles per word, before the per-cycle event loops start.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.circuit.netlist import Netlist
from repro.circuit.sdf import DelayAnnotation
from repro.exceptions import SimulationError
from repro.timing.errors import TimingErrorTrace
from repro.timing.operands import expand_operand_traces, trace_length
from repro.utils.validation import is_positive_finite


@dataclass
class Waveform:
    """Sequence of (time, value) changes of one net within a cycle."""

    changes: List[Tuple[float, int]]

    def value_at(self, time: float) -> int:
        """Value of the net at ``time`` (changes at exactly ``time`` are visible).

        Change lists are time-sorted, so the lookup bisects instead of
        scanning — this is called once per output net, clock period and
        cycle when sampling a trace.
        """
        index = bisect_right(self.changes, (time, float("inf")))
        return self.changes[index - 1][1]

    @property
    def final_value(self) -> int:
        """Settled value after all events."""
        return self.changes[-1][1]

    @property
    def transition_count(self) -> int:
        """Number of actual value changes (excluding the initial value)."""
        return sum(1 for i in range(1, len(self.changes))
                   if self.changes[i][1] != self.changes[i - 1][1])


#: Plain-Python boolean functions per cell, used by the event loop (the
#: vectorised NumPy cell models are too slow for per-event evaluation).
_SCALAR_CELL_FUNCTIONS = {
    "INV": lambda a: 1 - a,
    "BUF": lambda a: a,
    "AND2": lambda a, b: a & b,
    "OR2": lambda a, b: a | b,
    "NAND2": lambda a, b: 1 - (a & b),
    "NOR2": lambda a, b: 1 - (a | b),
    "XOR2": lambda a, b: a ^ b,
    "XNOR2": lambda a, b: 1 - (a ^ b),
    "AND3": lambda a, b, c: a & b & c,
    "OR3": lambda a, b, c: a | b | c,
    "MUX2": lambda d0, d1, sel: d1 if sel else d0,
    "MAJ3": lambda a, b, c: (a & b) | (a & c) | (b & c),
    "AOI21": lambda a, b, c: 1 - ((a & b) | c),
    "OAI21": lambda a, b, c: 1 - ((a | b) & c),
}


class EventDrivenSimulator:
    """Transport-delay event-driven simulator over a delay-annotated netlist."""

    def __init__(self, netlist: Netlist, annotation: DelayAnnotation) -> None:
        annotation.validate_against(netlist)
        self.netlist = netlist
        self.annotation = annotation
        self._fanout = netlist.fanout_map()
        self._delays = {gate.name: annotation.delay_of(gate.name) for gate in netlist.gates}
        # Per-gate scalar evaluators and per-net fanout closures for the hot loop.
        self._gate_eval = {}
        for gate in netlist.gates:
            try:
                self._gate_eval[gate.name] = _SCALAR_CELL_FUNCTIONS[gate.cell]
            except KeyError:
                raise SimulationError(
                    f"no scalar model for cell {gate.cell!r} (gate {gate.name!r})") from None

    # ------------------------------------------------------------------ #
    def simulate_transition(self, previous_inputs: Mapping[str, int],
                            current_inputs: Mapping[str, int],
                            initial_values: Mapping[str, int] = None) -> Dict[str, Waveform]:
        """Simulate one input transition and return the waveform of every net.

        ``initial_values`` may supply pre-computed settled values for the
        previous input vector (as produced by a vectorised logic
        evaluation); otherwise they are computed here.
        """
        if initial_values is None:
            initial_values = self._settled_values(previous_inputs)

        waveforms: Dict[str, Waveform] = {
            net: Waveform(changes=[(-np.inf, int(value))])
            for net, value in initial_values.items()
        }
        current = dict(initial_values)

        # Event queue of (time, sequence, net, value); the sequence breaks ties
        # deterministically in insertion order.
        queue: List[Tuple[float, int, str, int]] = []
        sequence = 0
        for net in self.netlist.inputs:
            if net not in current_inputs:
                raise SimulationError(f"missing value for primary input {net!r}")
            new_value = int(current_inputs[net]) & 1
            if new_value != current[net]:
                heapq.heappush(queue, (0.0, sequence, net, new_value))
                sequence += 1

        fanout = self._fanout
        delays = self._delays
        evaluators = self._gate_eval
        while queue:
            time, _, net, value = heapq.heappop(queue)
            if current[net] == value:
                continue
            current[net] = value
            waveforms[net].changes.append((time, value))
            for gate in fanout[net]:
                output_value = evaluators[gate.name](*[current[n] for n in gate.inputs])
                heapq.heappush(queue, (time + delays[gate.name], sequence,
                                       gate.output, output_value))
                sequence += 1

        return waveforms

    def sample_outputs(self, waveforms: Mapping[str, Waveform], clock_period: float,
                       output_bus: str = "S") -> int:
        """Word latched at ``clock_period`` on the given output bus."""
        nets = self._output_nets(output_bus)
        word = 0
        for position, net in enumerate(nets):
            word |= waveforms[net].value_at(clock_period) << position
        return word

    def settled_outputs(self, waveforms: Mapping[str, Waveform], output_bus: str = "S") -> int:
        """Fully settled word on the given output bus."""
        nets = self._output_nets(output_bus)
        word = 0
        for position, net in enumerate(nets):
            word |= waveforms[net].final_value << position
        return word

    # ------------------------------------------------------------------ #
    def run_trace(self, operands: Mapping[str, np.ndarray], clock_period: float,
                  output_bus: str = "S") -> TimingErrorTrace:
        """Simulate a word-level operand trace (one transition per cycle)."""
        return self.run_trace_multi(operands, [clock_period], output_bus)[clock_period]

    def run_trace_multi(self, operands: Mapping[str, np.ndarray],
                        clock_periods: Sequence[float], output_bus: str = "S"
                        ) -> Dict[float, TimingErrorTrace]:
        """Simulate one operand trace sampled at several clock periods.

        The event-driven waveforms of each transition are computed once and
        sampled at every requested clock period, so sweeping CPR levels
        costs a single simulation pass.
        """
        for clk in clock_periods:
            if not is_positive_finite(clk):
                raise SimulationError(
                    f"clock period must be positive and finite, got {clk}")
        bit_traces = expand_operand_traces(self.netlist, operands)
        total = trace_length(bit_traces)
        if total < 2:
            raise SimulationError("a timing trace needs at least two input vectors")
        vectors = [{net: int(trace[index]) for net, trace in bit_traces.items()}
                   for index in range(total)]
        nets = self._output_nets(output_bus)
        transitions = total - 1
        sampled = {clk: np.zeros(transitions, dtype=np.uint64) for clk in clock_periods}
        settled = np.zeros(transitions, dtype=np.uint64)

        # Settled values of every net for every vector, computed once by the
        # packed engine (64 cycles per word); they seed each transition's
        # initial state without a per-cycle logic pass.
        all_values = self.netlist.evaluate(bit_traces)
        net_names = list(all_values.keys())
        value_matrix = np.vstack([
            np.broadcast_to(np.asarray(all_values[net], dtype=np.uint8), (total,))
            for net in net_names])

        for index in range(1, total):
            initial = dict(zip(net_names, value_matrix[:, index - 1].tolist()))
            waveforms = self.simulate_transition(vectors[index - 1], vectors[index],
                                                 initial_values=initial)
            settled[index - 1] = self.settled_outputs(waveforms, output_bus)
            for clk in clock_periods:
                sampled[clk][index - 1] = self.sample_outputs(waveforms, clk, output_bus)

        return {clk: TimingErrorTrace(clock_period=clk, sampled_words=sampled[clk],
                                      settled_words=settled, output_width=len(nets))
                for clk in clock_periods}

    # ------------------------------------------------------------------ #
    def _settled_values(self, inputs: Mapping[str, int]) -> Dict[str, int]:
        values = self.netlist.evaluate({net: np.asarray(int(inputs[net]) & 1, dtype=np.uint8)
                                        for net in self.netlist.inputs})
        return {net: int(np.asarray(value)) for net, value in values.items()}

    def _output_nets(self, output_bus: str) -> Sequence[str]:
        if output_bus not in self.netlist.buses:
            raise SimulationError(f"netlist {self.netlist.name!r} has no bus {output_bus!r}")
        return self.netlist.buses[output_bus]

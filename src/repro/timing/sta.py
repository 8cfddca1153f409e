"""Static timing analysis over delay-annotated netlists.

Arrival times propagate forward from primary inputs (which switch at time
zero), required times propagate backward from primary outputs (which must
settle by the clock period), and the slack of a gate is the difference at
its output net.  The analysis is purely topological — input-pattern
(dynamic) effects are handled by the simulators in
:mod:`repro.timing.fast_sim` and :mod:`repro.timing.event_sim`.

Every analysis runs as a levelised NumPy pass over the integer-indexed
gate tables of :class:`TimingTable`, which the sizing kernel shares.
``tests/reference_kernels.py`` keeps the per-gate dict passes these
replace as a test oracle.  The two are bit-identical: the array passes
perform the same IEEE-754 operations in a dependency-equivalent order —
per-level forward maxima, order-independent backward min/max scatters —
so every arrival, required time and slack matches the oracle float for
float, netlists without gates included (enforced by
``tests/test_synth_vector.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.circuit.compiled import levelise_netlist
from repro.circuit.netlist import CONST0, CONST1, Netlist
from repro.circuit.sdf import DelayAnnotation
from repro.exceptions import TimingError
from repro.utils.lru import IdentityMemo


# --------------------------------------------------------------------- #
# Levelised gate tables (shared by the STA and sizing kernels)
# --------------------------------------------------------------------- #
class TimingTable:
    """A netlist lowered to integer-indexed, levelised timing tables.

    Reuses the dense net-ID scheme of the compiled simulation engine
    (:func:`~repro.circuit.compiled.levelise_netlist`): ``const0`` = 0,
    ``const1`` = 1, inputs, then gate outputs in topological order.
    Gates are grouped per level into padded pin-index arrays (short
    gates repeat pin 0, which is neutral for the min/max reductions the
    passes perform), so one forward or backward sweep costs a handful
    of NumPy calls per level instead of a Python iteration per gate.

    The table is structure-only (no delays) and safe to cache per
    netlist; :func:`timing_table` memoises it by netlist identity.
    """

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self.order = netlist.topological_order()
        net_id, gate_levels = levelise_netlist(netlist)
        self.net_id = net_id
        self.num_nets = len(net_id)
        names: List[str] = [""] * self.num_nets
        for net, index in net_id.items():
            names[index] = net
        self.net_names = names
        self.out_ids = np.array([net_id[gate.output] for gate in self.order],
                                dtype=np.int64)
        self.output_ids = np.array([net_id[net] for net in netlist.outputs],
                                   dtype=np.int64)

        by_level: Dict[int, List[int]] = {}
        for index, level in enumerate(gate_levels):
            by_level.setdefault(level, []).append(index)
        #: Per level, ascending: (gate indices, output-net ids, pin-net ids).
        self.level_batches: List[Tuple[np.ndarray, np.ndarray, Tuple[np.ndarray, ...]]] = []
        for level in sorted(by_level):
            indices = np.array(by_level[level], dtype=np.int64)
            gates = [self.order[i] for i in by_level[level]]
            width = max(len(gate.inputs) for gate in gates)
            pins = tuple(
                np.array([net_id[gate.inputs[pin if pin < len(gate.inputs) else 0]]
                          for gate in gates], dtype=np.int64)
                for pin in range(width))
            self.level_batches.append((indices, self.out_ids[indices], pins))
        self._path_counts: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    def delay_array(self, annotation: DelayAnnotation) -> np.ndarray:
        """Per-gate delays in topological order."""
        return np.array([annotation.delay_of(gate.name) for gate in self.order],
                        dtype=np.float64)

    def arrival_array(self, delays: np.ndarray) -> np.ndarray:
        """Latest arrival per net ID (inputs and constants switch at 0)."""
        arrival = np.zeros(self.num_nets, dtype=np.float64)
        for indices, outs, pins in self.level_batches:
            latest = arrival[pins[0]]
            for pin in pins[1:]:
                latest = np.maximum(latest, arrival[pin])
            arrival[outs] = delays[indices] + latest
        return arrival

    def required_array(self, delays: np.ndarray, clock_period: float) -> np.ndarray:
        """Latest allowed arrival per net ID against ``clock_period``."""
        required = np.full(self.num_nets, math.inf, dtype=np.float64)
        np.minimum.at(required, self.output_ids, clock_period)
        for indices, outs, pins in reversed(self.level_batches):
            budget = required[outs] - delays[indices]
            for pin in pins:
                np.minimum.at(required, pin, budget)
        return required

    def slack_array(self, delays: np.ndarray, clock_period: float) -> np.ndarray:
        """Per-gate slack (required minus arrival at the output net)."""
        arrival = self.arrival_array(delays)
        required = self.required_array(delays, clock_period)
        return required[self.out_ids] - arrival[self.out_ids]

    def path_counts(self) -> np.ndarray:
        """Per-gate longest input-to-output path length (cached; structural)."""
        if self._path_counts is None:
            forward = np.zeros(self.num_nets, dtype=np.int64)
            for indices, outs, pins in self.level_batches:
                deepest = forward[pins[0]]
                for pin in pins[1:]:
                    deepest = np.maximum(deepest, forward[pin])
                forward[outs] = 1 + deepest
            backward = np.zeros(self.num_nets, dtype=np.int64)
            for indices, outs, pins in reversed(self.level_batches):
                through = backward[outs] + 1
                for pin in pins:
                    np.maximum.at(backward, pin, through)
            self._path_counts = forward[self.out_ids] + backward[self.out_ids]
        return self._path_counts


#: Tables keyed by netlist identity; gate/input counts in the extra key
#: sideline stale tables should a cached netlist be grown in place.
_TIMING_TABLES: IdentityMemo = IdentityMemo(capacity=8)


def timing_table(netlist: Netlist) -> TimingTable:
    """The (memoised) levelised timing table of ``netlist``."""
    extra = (netlist.num_gates, len(netlist.inputs))
    table = _TIMING_TABLES.get((netlist,), extra=extra)
    if table is None:
        table = _TIMING_TABLES.put((netlist,), TimingTable(netlist), extra=extra)
    return table


def arrival_times(netlist: Netlist, annotation: DelayAnnotation) -> Dict[str, float]:
    """Latest arrival time of every net (primary inputs switch at time 0)."""
    table = timing_table(netlist)
    values = table.arrival_array(table.delay_array(annotation)).tolist()
    # Key order: inputs, constants, then gate outputs topologically.
    arrival = {net: values[table.net_id[net]] for net in netlist.inputs}
    arrival[CONST0] = values[0]
    arrival[CONST1] = values[1]
    for gate, out_id in zip(table.order, table.out_ids.tolist()):
        arrival[gate.output] = values[out_id]
    return arrival


def required_times(netlist: Netlist, annotation: DelayAnnotation,
                   clock_period: float) -> Dict[str, float]:
    """Latest allowed arrival of every net for the outputs to meet ``clock_period``."""
    table = timing_table(netlist)
    values = table.required_array(table.delay_array(annotation), clock_period)
    return dict(zip(table.net_names, values.tolist()))


def gate_slacks(netlist: Netlist, annotation: DelayAnnotation,
                clock_period: float) -> Dict[str, float]:
    """Slack of every gate instance (required minus arrival at its output)."""
    table = timing_table(netlist)
    slacks = table.slack_array(table.delay_array(annotation), clock_period)
    return {gate.name: slack
            for gate, slack in zip(table.order, slacks.tolist())}


def path_gate_counts(netlist: Netlist) -> Dict[str, int]:
    """Number of gates on the longest input-to-output path through each gate.

    Used by the sizing heuristic to split a path's slack fairly among the
    gates that share it.
    """
    table = timing_table(netlist)
    return {gate.name: count
            for gate, count in zip(table.order, table.path_counts().tolist())}


def critical_path(netlist: Netlist, annotation: DelayAnnotation
                  ) -> Tuple[List[str], float, str]:
    """Longest path as ``(gate names, delay, endpoint net)``."""
    arrival = arrival_times(netlist, annotation)
    if not netlist.outputs:
        raise TimingError(f"netlist {netlist.name!r} has no primary outputs")
    endpoint = max(netlist.outputs, key=lambda net: arrival[net])
    path: List[str] = []
    net = endpoint
    while True:
        gate = netlist.driver_of(net)
        if gate is None:
            break
        path.append(gate.name)
        net = max(gate.inputs, key=lambda candidate: arrival[candidate])
    path.reverse()
    return path, arrival[endpoint], endpoint


@dataclass(frozen=True)
class TimingReport:
    """Summary of one static timing analysis run."""

    design: str
    clock_period: Optional[float]
    critical_path_delay: float
    critical_path_gates: Tuple[str, ...]
    critical_endpoint: str
    worst_slack: Optional[float]
    output_arrivals: Dict[str, float]

    @property
    def meets_constraint(self) -> bool:
        """True when the worst slack is non-negative (or no clock was given)."""
        if self.worst_slack is None:
            return True
        return self.worst_slack >= -1e-15

    def max_frequency_ghz(self) -> float:
        """Maximum clock frequency implied by the critical path, in GHz."""
        if self.critical_path_delay <= 0:
            raise TimingError("critical path delay must be positive to define a frequency")
        return 1e-9 / self.critical_path_delay

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"Timing report for {self.design}",
            f"  critical path delay : {self.critical_path_delay * 1e12:.1f} ps "
            f"(endpoint {self.critical_endpoint})",
            f"  logic depth (gates) : {len(self.critical_path_gates)}",
            f"  max frequency       : {self.max_frequency_ghz():.2f} GHz",
        ]
        if self.clock_period is not None:
            lines.append(f"  clock period        : {self.clock_period * 1e12:.1f} ps")
            lines.append(f"  worst slack         : {self.worst_slack * 1e12:+.1f} ps"
                         f" ({'MET' if self.meets_constraint else 'VIOLATED'})")
        return "\n".join(lines)


def analyze_timing(netlist: Netlist, annotation: DelayAnnotation,
                   clock_period: Optional[float] = None) -> TimingReport:
    """Run STA and return a :class:`TimingReport`."""
    annotation.validate_against(netlist)
    arrival = arrival_times(netlist, annotation)
    path, delay, endpoint = critical_path(netlist, annotation)
    worst_slack = None
    if clock_period is not None:
        if clock_period <= 0:
            raise TimingError(f"clock period must be positive, got {clock_period}")
        worst_slack = clock_period - delay
    return TimingReport(
        design=netlist.name,
        clock_period=clock_period,
        critical_path_delay=delay,
        critical_path_gates=tuple(path),
        critical_endpoint=endpoint,
        worst_slack=worst_slack,
        output_arrivals={net: arrival[net] for net in netlist.outputs},
    )

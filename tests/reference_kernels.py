"""Reference implementations of the production kernels (test oracles).

Eight oracles live here: the synthesis kernels, the per-gate logic loop,
the dense timing loop, the word decode, the regression and
classification trees' split searches, the Pareto mask and the sweep
scorer.  Each is the straightforward formulation production replaced,
kept as the executable specification the production code must match bit
for bit.

*Synthesis.*  Production synthesis runs levelised kernels: optimize over an
integer-indexed design (:mod:`repro.synth.optimize`), sizing and static
timing as NumPy sweeps over :class:`repro.timing.sta.TimingTable`.
This module keeps the straightforward formulation they replaced — one
netlist per optimisation pass, one Python iteration per gate, dicts
keyed by net name — as the executable specification the production
kernels must match bit for bit (``tests/test_synth_vector.py``,
``tests/test_optimize.py``).

The oracle never routes through the code it checks.  The STA passes
and the optimize loop are self-contained; :func:`size_to_constraint`
reads timing reports through :func:`repro.timing.sta.analyze_timing`,
so it runs only inside :func:`reference_kernels`, which swaps this
module's STA passes into :mod:`repro.timing.sta` (and its optimize and
sizing into :mod:`repro.synth.flow`) for a ``with`` block.

*Logic.*  :data:`CELL_FUNCTIONS` defines every cell again, on ``uint8``
arrays with ``1 - x`` for inversion, apart from the one bitwise kernel
per cell in :mod:`repro.circuit.cells` (``tests/test_cells_library.py``
checks each kernel against it on every input combination).
:func:`evaluate_per_gate` and :func:`compute_words_per_gate` walk the
gates one at a time in topological order on those functions and never
touch the bit-packed program that ``Netlist.evaluate`` and
``Netlist.compute_words`` run for every stimulus shape; they share only
the operand expansion, ``Netlist.expand_operands``, and reassemble the
output words with their own :func:`decode_bus`.

*Dense timing.*  :class:`ReferenceTimingSimulator` evaluates the logic
with the per-gate loop and propagates one float64 arrival array per net,
one gate at a time.  Both kernels of
:class:`repro.timing.fast_sim.FastTimingSimulator` — the levelised pass
and the packed timing program — must match it on sampled and settled
words (``tests/test_compiled_engine.py``); :func:`forced_kernel` pins
which one a block of calls runs.

*Word decode.*  :func:`unpacked_rows_to_words` unpacks every packed bit
row into a ``uint64`` matrix with one entry per cycle, shifts each row
into its bit position and ORs them; production's
:func:`repro.circuit.compiled.rows_to_words` transposes bytes through a
lookup table instead (``tests/test_compiled_engine.py``).

*Regression trees.*  :class:`ReferenceTreeRegressor` grows on
boolean-mask copies of ``(X, y)`` and sorts every candidate column of
every node again, one feature at a time (:func:`_best_threshold`);
:class:`ReferenceForestRegressor` bags it through ``_tree_class``.  They
share the grower, the feature draw, the predictor and the bagging loop
with :mod:`repro.ml.regress` (``tests/test_ml_learners.py``).

*Classification trees.*  :class:`ReferenceTreeClassifier` grows on
boolean-mask copies of ``(X, y)`` too, and counts every candidate's Gini
split with NumPy sums over the node's rows; the production classifier
counts the same splits with popcounts of bit-packed columns.  It predicts
by routing index sets down the tree, one gather per node, where the
production classifier routes bitsets of packed query columns.
:class:`ReferenceForestClassifier` bags it and sums its trees' values in
tree order (``tests/test_ml_learners.py``).

*Pareto mask.*  :func:`nondominated_mask` compares every pair of rows
in blocks (``tests/test_explore.py``).

*Sweep scoring.*  :func:`score_per_cpr` scores a characterization one CPR
level at a time with :func:`repro.core.combination.combine_errors` and
:func:`error_statistics_per_metric`, which converts the words again for
each metric it computes; production converts each design's exact and
golden words once and shares every error array between the metrics that
read it (``tests/test_sweep_reduction.py``, ``tests/test_analysis.py``).
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import ErrorStatistics, structural_cost
from repro.circuit.compiled import unpack_bits
from repro.circuit.library import TechnologyLibrary
from repro.circuit.netlist import CONST0, CONST1, Netlist
from repro.circuit.sdf import DelayAnnotation
from repro.core.combination import combine_errors
from repro.exceptions import AnalysisError
from repro.explore.sweep import SweepPoint
from repro.families import family_of
from repro.ml.forest import RandomForestClassifier
from repro.ml.regress import DecisionTreeRegressor, RandomForestRegressor
from repro.ml.tree import DecisionTreeClassifier
from repro.runtime.jobs import clear_design_cache
from repro.settings import using_settings
from repro.synth import flow
from repro.synth.optimize import _fresh_inverter_names, _Inverted, _simplify
from repro.synth.sizing import SizingOptions, SizingResult
from repro.timing import fast_sim, sta
from repro.timing.errors import TimingErrorTrace
from repro.timing.fast_sim import STABLE, BatchedTraceRun
from repro.timing.operands import trace_length


# --------------------------------------------------------------------- #
# Logic optimisation: one netlist per pass
# --------------------------------------------------------------------- #
def _resolve(net: str, alias: Dict[str, str]) -> str:
    """Resolve a net through the alias map, compressing the walked path.

    Deep speculative segments can build long alias chains (a wire of
    wires of wires); pointing every visited net directly at the root
    keeps later lookups amortised O(1) instead of O(chain).
    """
    root = net
    while root in alias:
        root = alias[root]
    while net != root:
        alias[net], net = root, alias[net]
    return root


def _const_of(net: str) -> Optional[int]:
    if net == CONST0:
        return 0
    if net == CONST1:
        return 1
    return None


def propagate_constants(netlist: Netlist) -> Netlist:
    """Fold constants and simplify gates, returning a new netlist."""
    alias: Dict[str, str] = {}
    new = Netlist(netlist.name)
    taken_nets = set(netlist.nets)
    taken_gates = {gate.name for gate in netlist.gates}
    for net in netlist.inputs:
        new.add_input(net)

    for gate in netlist.topological_order():
        resolved = [_resolve(net, alias) for net in gate.inputs]
        kind, payload = _simplify(gate.cell, resolved,
                                  [_const_of(net) for net in resolved])
        if kind == "const":
            alias[gate.output] = CONST1 if payload else CONST0
            continue
        if kind == "alias":
            alias[gate.output] = _resolve(str(payload), alias)
            continue
        cell_name, cell_inputs = payload
        final_inputs: List[str] = []
        for net in cell_inputs:
            if isinstance(net, _Inverted):
                inv_gate, inv_net = _fresh_inverter_names(
                    gate.name, gate.output, len(final_inputs),
                    taken_gates, taken_nets)
                inverted = new.add_gate(inv_gate, "INV", [net.net], inv_net)
                final_inputs.append(inverted.output)
            else:
                final_inputs.append(net)
        new.add_gate(gate.name, cell_name, final_inputs, gate.output)

    for net in netlist.outputs:
        new.add_output(_resolve(net, alias))
    for bus, nets in netlist.buses.items():
        new.register_bus(bus, [_resolve(net, alias) for net in nets])
    return new


def prune_unused(netlist: Netlist) -> Netlist:
    """Remove gates no primary output (transitively) depends on."""
    needed = set(netlist.outputs)
    for gate in reversed(netlist.topological_order()):
        if gate.output in needed:
            needed.update(gate.inputs)

    new = Netlist(netlist.name)
    for net in netlist.inputs:
        new.add_input(net)
    for gate in netlist.topological_order():
        if gate.output in needed:
            new.add_gate(gate.name, gate.cell, list(gate.inputs), gate.output)
    for net in netlist.outputs:
        new.add_output(net)
    for bus, nets in netlist.buses.items():
        new.register_bus(bus, list(nets))
    return new


def optimize(netlist: Netlist, max_passes: int = 4) -> Netlist:
    """Run constant propagation and pruning until the netlist stops shrinking."""
    current = netlist
    for _ in range(max_passes):
        before = current.num_gates
        current = prune_unused(propagate_constants(current))
        if current.num_gates >= before:
            break
    return current


# --------------------------------------------------------------------- #
# Static timing analysis: per-gate dict passes
# --------------------------------------------------------------------- #
def arrival_times(netlist: Netlist,
                  annotation: DelayAnnotation) -> Dict[str, float]:
    """Latest arrival time of every net (primary inputs switch at time 0)."""
    arrival: Dict[str, float] = {net: 0.0 for net in netlist.inputs}
    arrival[CONST0] = 0.0
    arrival[CONST1] = 0.0
    for gate in netlist.topological_order():
        delay = annotation.delay_of(gate.name)
        arrival[gate.output] = delay + max(arrival[net] for net in gate.inputs)
    return arrival


def required_times(netlist: Netlist, annotation: DelayAnnotation,
                   clock_period: float) -> Dict[str, float]:
    """Latest allowed arrival of every net for the outputs to meet ``clock_period``."""
    required: Dict[str, float] = {net: math.inf for net in netlist.nets}
    for net in netlist.outputs:
        required[net] = min(required[net], clock_period)
    for gate in reversed(netlist.topological_order()):
        delay = annotation.delay_of(gate.name)
        budget = required[gate.output] - delay
        for net in gate.inputs:
            if budget < required[net]:
                required[net] = budget
    return required


def gate_slacks(netlist: Netlist, annotation: DelayAnnotation,
                clock_period: float) -> Dict[str, float]:
    """Slack of every gate instance (required minus arrival at its output)."""
    arrival = arrival_times(netlist, annotation)
    required = required_times(netlist, annotation, clock_period)
    return {gate.name: required[gate.output] - arrival[gate.output]
            for gate in netlist.gates}


def path_gate_counts(netlist: Netlist) -> Dict[str, int]:
    """Number of gates on the longest input-to-output path through each gate."""
    forward: Dict[str, int] = {net: 0 for net in netlist.nets}
    for gate in netlist.topological_order():
        forward[gate.output] = 1 + max(forward[net] for net in gate.inputs)
    backward: Dict[str, int] = {net: 0 for net in netlist.nets}
    output_set = set(netlist.outputs)
    for gate in reversed(netlist.topological_order()):
        downstream = backward[gate.output]
        if gate.output in output_set:
            downstream = max(downstream, 0)
        through = downstream + 1
        for net in gate.inputs:
            if through > backward[net]:
                backward[net] = through
    counts: Dict[str, int] = {}
    for gate in netlist.gates:
        counts[gate.name] = forward[gate.output] + backward[gate.output]
    return counts


# --------------------------------------------------------------------- #
# Slack-driven sizing: per-gate loops
# --------------------------------------------------------------------- #
def size_to_constraint(netlist: Netlist, library: TechnologyLibrary,
                       options: SizingOptions,
                       initial: Optional[DelayAnnotation] = None) -> SizingResult:
    """Size ``netlist`` to ``options.clock_constraint`` and return the annotation.

    Runs only inside :func:`reference_kernels`, where the timing reports
    it reads come from this module's arrival pass.
    """
    if sta.arrival_times is not arrival_times:
        raise AssertionError("the reference sizing loop runs only inside "
                             "reference_kernels()")
    annotation = (initial.copy() if initial is not None
                  else DelayAnnotation.nominal(netlist, library))
    annotation.clock_constraint = options.clock_constraint
    nominal_report = sta.analyze_timing(netlist, annotation)
    nominal_total = annotation.total_delay()

    bounds: Dict[str, tuple] = {}
    for gate in netlist.gates:
        timing = library.timing(gate.cell)
        bounds[gate.name] = (timing.min_delay, timing.max_delay)

    counts = path_gate_counts(netlist)
    target = options.clock_constraint

    # Pass 1: allocate a bounded share of each gate's slack as extra delay
    # (power recovery), or remove delay where the nominal design violates.
    slacks = gate_slacks(netlist, annotation, target)
    for gate in netlist.gates:
        slack = slacks[gate.name]
        share_count = max(counts[gate.name], 1)
        low, high = bounds[gate.name]
        delay = annotation.delay_of(gate.name)
        if slack > options.slack_tolerance:
            delay = min(delay + options.slack_utilization * slack / share_count, high)
        elif slack < -options.slack_tolerance:
            delay = max(delay + slack / share_count, low)
        annotation.set_delay(gate.name, delay)

    # Fix-up passes: only repair violations introduced by the nominal design
    # being too slow (never consume more slack).
    for _ in range(options.fixup_iterations):
        slacks = gate_slacks(netlist, annotation, target)
        worst = min(slacks.values()) if slacks else 0.0
        if worst >= -options.slack_tolerance:
            break
        for gate in netlist.gates:
            slack = slacks[gate.name]
            if slack >= -options.slack_tolerance:
                continue
            low, _ = bounds[gate.name]
            share_count = max(counts[gate.name], 1)
            delay = annotation.delay_of(gate.name)
            annotation.set_delay(gate.name, max(delay + slack / share_count, low))

    sized_report = sta.analyze_timing(netlist, annotation)
    return SizingResult(
        annotation=annotation,
        nominal_critical_path=nominal_report.critical_path_delay,
        sized_critical_path=sized_report.critical_path_delay,
        clock_constraint=target,
        met_constraint=sized_report.critical_path_delay <= target + options.slack_tolerance,
        nominal_total_delay=nominal_total,
        sized_total_delay=annotation.total_delay(),
    )


# --------------------------------------------------------------------- #
# Swapping the oracle in
# --------------------------------------------------------------------- #
#: (module, attribute, oracle) triples :func:`reference_kernels` swaps in.
_SWAPS = ((sta, "arrival_times", arrival_times),
          (sta, "required_times", required_times),
          (sta, "gate_slacks", gate_slacks),
          (sta, "path_gate_counts", path_gate_counts),
          (flow, "optimize", optimize),
          (flow, "size_to_constraint", size_to_constraint))


@contextmanager
def reference_kernels() -> Iterator[None]:
    """Run the ``with`` block on the reference kernels.

    Inside the block, :func:`repro.synth.flow.synthesize` optimizes and
    sizes with this module's loops and every STA pass of
    :mod:`repro.timing.sta` is this module's.  The persistent synthesis
    cache is off and the in-process design memo is emptied on entry and
    exit, so every design the block needs is synthesized by the oracle
    and none of them outlives it.
    """
    saved = [(module, name, getattr(module, name)) for module, name, _ in _SWAPS]
    for module, name, oracle in _SWAPS:
        setattr(module, name, oracle)
    clear_design_cache()
    try:
        with using_settings(synth_cache=None):
            yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)
        clear_design_cache()


# --------------------------------------------------------------------- #
# Logic: the uint8 cell functions and the per-gate loop
# --------------------------------------------------------------------- #
def _u8(value) -> np.ndarray:
    return np.asarray(value, dtype=np.uint8)


def _inv(a):
    return _u8(1) - _u8(a)


def _buf(a):
    return _u8(a)


def _and2(a, b):
    return _u8(a) & _u8(b)


def _or2(a, b):
    return _u8(a) | _u8(b)


def _nand2(a, b):
    return _inv(_and2(a, b))


def _nor2(a, b):
    return _inv(_or2(a, b))


def _xor2(a, b):
    return _u8(a) ^ _u8(b)


def _xnor2(a, b):
    return _inv(_xor2(a, b))


def _and3(a, b, c):
    return _u8(a) & _u8(b) & _u8(c)


def _or3(a, b, c):
    return _u8(a) | _u8(b) | _u8(c)


def _mux2(d0, d1, sel):
    sel = _u8(sel)
    return (_u8(d0) & (_u8(1) - sel)) | (_u8(d1) & sel)


def _maj3(a, b, c):
    a, b, c = _u8(a), _u8(b), _u8(c)
    return (a & b) | (a & c) | (b & c)


def _aoi21(a, b, c):
    """Inverted (a AND b) OR c — a common compact carry cell."""
    return _inv((_u8(a) & _u8(b)) | _u8(c))


def _oai21(a, b, c):
    """Inverted (a OR b) AND c."""
    return _inv((_u8(a) | _u8(b)) & _u8(c))


#: Every cell's boolean function on 0/1 ``uint8`` values, written apart
#: from the bitwise kernels of :mod:`repro.circuit.cells` that it checks.
CELL_FUNCTIONS = {
    "INV": _inv, "BUF": _buf, "AND2": _and2, "OR2": _or2, "NAND2": _nand2,
    "NOR2": _nor2, "XOR2": _xor2, "XNOR2": _xnor2, "AND3": _and3, "OR3": _or3,
    "MUX2": _mux2, "MAJ3": _maj3, "AOI21": _aoi21, "OAI21": _oai21,
}


def evaluate_per_gate(netlist: Netlist,
                      input_values: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Every net's zero-delay value, one ``uint8`` call per gate in
    topological order, for any stimulus shape."""
    values = {CONST0: np.asarray(0, dtype=np.uint8), CONST1: np.asarray(1, dtype=np.uint8)}
    values.update({net: np.asarray(input_values[net], dtype=np.uint8)
                   for net in netlist.inputs})
    for gate in netlist.topological_order():
        values[gate.output] = CELL_FUNCTIONS[gate.cell](*[values[net] for net in gate.inputs])
    return values


def decode_bus(netlist: Netlist, bus: str, values: Mapping[str, np.ndarray]) -> np.ndarray:
    """Words of a registered bus from its nets' 0/1 values, net ``i`` giving bit ``i``,
    in the shape the nets' values broadcast to."""
    words = np.zeros((), dtype=np.uint64)
    for position, net in enumerate(netlist.buses[bus]):
        words = words | (np.asarray(values[net], dtype=np.uint64) << np.uint64(position))
    return words


def compute_words_per_gate(netlist: Netlist, operand_words: Mapping[str, np.ndarray],
                           output_bus: str = "S") -> np.ndarray:
    """``netlist.compute_words`` on the per-gate loop."""
    bits = netlist.expand_operands(operand_words)
    return decode_bus(netlist, output_bus, evaluate_per_gate(netlist, bits))


# --------------------------------------------------------------------- #
# Dense timing: the per-gate arrival loop, and pinning a fast-tier kernel
# --------------------------------------------------------------------- #
@contextmanager
def forced_kernel(kernel: str) -> Iterator[None]:
    """Run every fast-simulator call of the block on one kernel.

    ``"packed"`` puts every call on the packed timing program (a build
    that overflows its row limit still falls back to the levelised
    pass); ``"levelised"`` puts every call on the levelised pass.  It
    patches :data:`repro.timing.fast_sim.DENSE_MAX_TRANSITIONS`, so pool
    workers forked inside the block inherit it; workers forked before
    it keep the size rule, which changes no word, as the kernels are
    bit-identical.
    """
    limit = {"packed": 0, "levelised": sys.maxsize}[kernel]
    saved = fast_sim.DENSE_MAX_TRANSITIONS
    fast_sim.DENSE_MAX_TRANSITIONS = limit
    try:
        yield
    finally:
        fast_sim.DENSE_MAX_TRANSITIONS = saved


class ReferenceTimingSimulator:
    """The per-gate dense timing loop the levelised pass replaced.

    ``run_trace_multi`` and ``run_traces_multi`` take the arguments of the
    :class:`repro.timing.fast_sim.FastTimingSimulator` methods of the same
    names; traces run one after the other, and settled values come from a
    second per-gate logic pass.
    """

    def __init__(self, netlist: Netlist, annotation: DelayAnnotation) -> None:
        annotation.validate_against(netlist)
        self.netlist = netlist
        self._order = netlist.topological_order()
        self._delays = {gate.name: annotation.delay_of(gate.name) for gate in self._order}

    def run_trace_multi(self, operands: Mapping[str, np.ndarray],
                        clock_periods: Sequence[float], output_bus: str = "S",
                        chunk_size: int = 4096) -> Dict[float, TimingErrorTrace]:
        input_trace = self.netlist.expand_operands(operands)
        return self._run_trace_multi_dense(input_trace, trace_length(input_trace),
                                           clock_periods, self.netlist.buses[output_bus],
                                           chunk_size)

    def run_traces_multi(self, operand_traces: Sequence[Mapping[str, np.ndarray]],
                         clock_periods: Sequence[float],
                         output_bus: str = "S") -> BatchedTraceRun:
        timing = [self.run_trace_multi(operands, clock_periods, output_bus)
                  for operands in operand_traces]
        settled_values = [compute_words_per_gate(self.netlist, operands, output_bus)
                          for operands in operand_traces]
        return BatchedTraceRun(timing=timing, settled_values=settled_values)

    def _dense_transitions(self, previous_inputs: Mapping[str, np.ndarray],
                           current_inputs: Mapping[str, np.ndarray]
                           ) -> Dict[str, Dict[str, np.ndarray]]:
        """Per-output-net ``old``/``new`` values and ``arrival`` times.

        ``previous_inputs`` and ``current_inputs`` map every primary input
        net to equal-length 0/1 arrays, one entry per transition.
        """
        old_values = evaluate_per_gate(self.netlist, previous_inputs)
        new_values = evaluate_per_gate(self.netlist, current_inputs)

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
            results = self._dense_transitions(previous, current)
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

    def _stimulus_shape(self, inputs: Mapping[str, np.ndarray]) -> tuple:
        for net in self.netlist.inputs:
            value = np.asarray(inputs[net])
            if value.ndim > 0:
                return value.shape
        return ()


# --------------------------------------------------------------------- #
# Word decode: one unpacked uint64 entry per bit and cycle
# --------------------------------------------------------------------- #
def unpacked_rows_to_words(rows: np.ndarray, length: int) -> np.ndarray:
    """``repro.circuit.compiled.rows_to_words`` as a broadcast
    shift-and-reduce over the unpacked bit matrix."""
    rows = np.ascontiguousarray(rows, dtype=np.uint64)
    if rows.shape[0] == 0:
        return np.zeros(rows.shape[1:-1] + (int(length),), dtype=np.uint64)
    bits = unpack_bits(rows, length).astype(np.uint64)
    shifts = np.arange(rows.shape[0], dtype=np.uint64)
    return np.bitwise_or.reduce(
        bits << shifts.reshape((-1,) + (1,) * (bits.ndim - 1)), axis=0)


# --------------------------------------------------------------------- #
# Regression trees: one stable argsort per candidate column per node
# --------------------------------------------------------------------- #
def _best_threshold(column: np.ndarray, y: np.ndarray) -> Tuple[float, float]:
    """``(children's SSE, threshold)`` of the best split of one column,
    or ``(inf, 0.0)`` when the column is constant."""
    order = np.argsort(column, kind="stable")
    sorted_x, sorted_y = column[order], y[order]
    boundaries = np.flatnonzero(sorted_x[1:] != sorted_x[:-1])
    if boundaries.size == 0:
        return np.inf, 0.0
    prefix_sum, prefix_sq = np.cumsum(sorted_y), np.cumsum(sorted_y * sorted_y)
    left_count = (boundaries + 1).astype(np.float64)
    left_sum, left_sq = prefix_sum[boundaries], prefix_sq[boundaries]
    right_sum = prefix_sum[-1] - left_sum
    sse = ((left_sq - left_sum * left_sum / left_count)
           + ((prefix_sq[-1] - left_sq) - right_sum * right_sum / (y.shape[0] - left_count)))
    best = int(np.argmin(sse))
    split = boundaries[best]
    return float(sse[best]), float(0.5 * (sorted_x[split] + sorted_x[split + 1]))


class _MaskCopies:
    """A node's rows as boolean-mask copies of ``(X, y)``, ``y`` in training order."""

    @staticmethod
    def _root_rows(X: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return X, y

    @staticmethod
    def _targets(rows: Tuple[np.ndarray, np.ndarray]) -> Tuple[np.ndarray, int, float]:
        y = rows[1]
        return y, y.shape[0], float(y.mean())

    @staticmethod
    def _partition(rows, feature: int, threshold: float) -> tuple:
        X, y = rows
        right = X[:, feature] > threshold
        return (X[~right], y[~right]), (X[right], y[right])


class ReferenceTreeRegressor(_MaskCopies, DecisionTreeRegressor):
    """The regression tree grown on boolean-mask copies, one column at a time."""

    @staticmethod
    def _impurity(y: np.ndarray, mean: float) -> float:
        return float(np.sum((y - mean) ** 2))

    @staticmethod
    def _best_split(rows, y: np.ndarray, candidates: np.ndarray,
                    impurity: float) -> Tuple[int, float, float]:
        X = rows[0]
        best_feature, best_sse, best_threshold = -1, np.inf, 0.0
        for feature in candidates:
            sse, threshold = _best_threshold(X[:, feature], y)
            if sse < best_sse:
                best_feature, best_sse, best_threshold = int(feature), sse, threshold
        return best_feature, best_threshold, impurity - best_sse


class ReferenceForestRegressor(RandomForestRegressor):
    """:class:`RandomForestRegressor` bagging :class:`ReferenceTreeRegressor`."""

    _tree_class = ReferenceTreeRegressor


# --------------------------------------------------------------------- #
# Classification trees: boolean-mask copies, every candidate counted at once
# --------------------------------------------------------------------- #
class ReferenceTreeClassifier(_MaskCopies, DecisionTreeClassifier):
    """The classifier grown on boolean-mask copies of ``(X, y)``, its Gini counts summed
    over the candidate columns with NumPy."""

    @staticmethod
    def _impurity(y: np.ndarray, mean: float) -> float:
        """Gini impurity of 0/1 labels."""
        total, positives = y.shape[0], float(y.sum())
        return 1.0 - (positives / total) ** 2 - ((total - positives) / total) ** 2

    @staticmethod
    def _best_split(rows: tuple, y: np.ndarray, candidates: np.ndarray,
                    impurity: float) -> Tuple[int, int, float]:
        """Candidate of the largest Gini decrease, every candidate counted at once."""
        total = y.shape[0]
        ones_mask = rows[0][:, candidates].astype(bool)
        count_right = ones_mask.sum(axis=0).astype(np.float64)
        count_left = total - count_right
        pos_right = (ones_mask & y[:, None].astype(bool)).sum(axis=0).astype(np.float64)
        pos_left = float(y.sum()) - pos_right

        def weighted_gini(count: np.ndarray, positive: np.ndarray) -> np.ndarray:
            p = positive / np.maximum(count, 1)
            return count * (1.0 - p ** 2 - (1.0 - p) ** 2)

        gains = impurity - (weighted_gini(count_left, pos_left) +
                            weighted_gini(count_right, pos_right)) / total
        # Splits that send every sample to one side provide no information.
        gains[(count_left == 0) | (count_right == 0)] = -np.inf
        best = int(np.argmax(gains))
        return int(candidates[best]), 0, float(gains[best])

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Leaf value of every row, routing index sets down the tree."""
        return self._predict(X)


class ReferenceForestClassifier(RandomForestClassifier):
    """:class:`RandomForestClassifier` bagging :class:`ReferenceTreeClassifier`, and
    predicting one index-set walk per tree."""

    _tree_class = ReferenceTreeClassifier

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean of the trees' leaf values, summed in tree order."""
        trees = self._fitted_trees()
        X = np.asarray(X, dtype=np.uint8)
        accumulator = np.zeros(X.shape[0], dtype=np.float64)
        for tree in trees:
            accumulator += tree.predict_proba(X)
        return accumulator / len(trees)


# --------------------------------------------------------------------- #
# Pareto mask: every pair of rows
# --------------------------------------------------------------------- #
def nondominated_mask(values: np.ndarray) -> np.ndarray:
    """Boolean mask of the weakly non-dominated rows of ``(n, k)`` values,
    every pair compared, in blocks that bound peak memory."""
    values = np.asarray(values, dtype=np.float64)
    count = values.shape[0]
    mask = np.ones(count, dtype=bool)
    if count == 0:
        return mask
    block_rows = max(1, (4 << 20) // max(1, count * values.shape[1]))
    for start in range(0, count, block_rows):
        block = values[start:start + block_rows]
        no_worse = (values[None, :, :] <= block[:, None, :]).all(axis=2)
        strictly_better = (values[None, :, :] < block[:, None, :]).any(axis=2)
        mask[start:start + block_rows] = ~(no_worse & strictly_better).any(axis=1)
    return mask


# --------------------------------------------------------------------- #
# Sweep scoring: every CPR level, and every metric, converts again
# --------------------------------------------------------------------- #
def error_statistics_per_metric(exact, approximate, width: int = 32) -> ErrorStatistics:
    """``repro.analysis.metrics.error_statistics`` with each metric on its
    own fresh ``int64`` copies of the words."""
    def signed():
        exact_words = np.asarray(exact).astype(np.int64)
        approximate_words = np.asarray(approximate).astype(np.int64)
        if exact_words.shape != approximate_words.shape:
            raise AnalysisError("shape mismatch")
        if exact_words.size == 0:
            raise AnalysisError("error metrics need at least one sample")
        return exact_words, approximate_words

    def relative():
        exact_words, approximate_words = signed()
        denominator = np.where(exact_words == 0, np.int64(1), exact_words).astype(np.float64)
        return (approximate_words - exact_words) / denominator

    def distance():
        exact_words, approximate_words = signed()
        return np.abs(approximate_words - exact_words)

    if width <= 0:
        raise AnalysisError(f"width must be positive, got {width}")
    exact_words, approximate_words = signed()
    return ErrorStatistics(
        samples=int(exact_words.shape[0]),
        error_rate=float(np.mean(exact_words != approximate_words)),
        mean_error_distance=float(np.mean(distance())),
        normalized_mean_error_distance=float(np.mean(distance())) / float(2 ** width),
        mean_relative_error_distance=float(np.mean(np.abs(relative()))),
        rms_relative_error=float(np.sqrt(np.mean(relative() ** 2))),
        worst_case_error=int(np.max(distance())),
    )


def score_per_cpr(characterization, clock_plan, width: int,
                  workload: str) -> List[SweepPoint]:
    """``repro.explore.sweep.score_characterization`` with every CPR level
    combining and scoring the raw words again."""
    entry = characterization.entry
    family = family_of(entry)
    quadruple = family.quadruple_of(entry)
    provably_exact = family.is_provably_exact(entry)
    result_width = family.result_width(width)
    cost = structural_cost(characterization.synthesized)
    diamond = characterization.diamond_words[1:]
    gold = characterization.gold_words[1:]
    points: List[SweepPoint] = []
    for cpr, period in clock_plan.items():
        silver = characterization.timing_trace(period).sampled_words
        errors = combine_errors(diamond, gold, silver)
        points.append(SweepPoint(
            design=characterization.name,
            quadruple=quadruple,
            workload=workload,
            cpr=cpr,
            clock_period=period,
            stats=error_statistics_per_metric(diamond, silver, width=result_width),
            structural_rms=float(np.sqrt(np.mean(errors.re_struct ** 2))),
            timing_rms=float(np.sqrt(np.mean(errors.re_timing ** 2))),
            cost=cost,
            provably_exact=provably_exact,
        ))
    return points

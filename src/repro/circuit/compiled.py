"""Compiled bit-packed netlist programs: 64 simulation cycles per word.

This module lowers a :class:`~repro.circuit.netlist.Netlist` into a
structure-of-arrays *program* that NumPy can execute without touching the
Python object graph on the hot path:

* nets become dense integer IDs into a value matrix,
* gates become per-(level, cell) batches of operand/result index arrays,
* trace bits are packed 64 cycles per ``uint64`` word, so one bitwise
  NumPy operation evaluates a gate batch for 64 transitions at once.

Two programs are provided:

:class:`CompiledProgram`
    Zero-delay logic evaluation.  Bit-exact with the reference per-gate
    ``uint8`` loop in :meth:`Netlist.evaluate`; used transparently by
    :meth:`Netlist.evaluate` / :meth:`Netlist.compute_words` for 1-D
    stimulus arrays.

:class:`PackedTimingProgram`
    The timing half of the compiled engine.  Per-gate transport delays
    from a :class:`~repro.circuit.sdf.DelayAnnotation` give every net a
    *finite* set of possible final-transition arrival times (path sums of
    delays).  For each net ``n`` and each possible arrival value ``v``
    the program materialises a packed mask ``M[n, v] = (arrival(n) >= v)``
    and propagates it levelwise with pure bitwise OR/AND operations::

        arrival(n) >= v  <=>  changed(n) and
                              OR_i ( arrival(in_i) >= lift_i(v) )

    where ``lift_i(v)`` is the smallest value ``w`` in the arrival set of
    input ``i`` with ``w + delay(n) >= v``.  Because every threshold is a
    float64 sum built with the *same additions* the dense float simulator
    performs, the masks are bit-exact with the reference arrival-time
    propagation — there is no quantisation.  The number of packed
    operations is proportional to the number of (net, value) thresholds
    and *independent of the trace length per word*, which is what buys
    the order-of-magnitude speedup over the dense float path.

    When per-instance delay variation makes the arrival sets explode
    (every path a distinct float sum), compilation aborts with
    :class:`~repro.exceptions.CompilationError` and callers fall back to
    the dense reference engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.cells import cell
from repro.exceptions import CompilationError, SimulationError

#: Number of trace cycles packed into one engine word.
WORD_BITS = 64

#: Net name of the always-zero / always-one constants (mirrors netlist.py;
#: imported lazily there to avoid a circular import).
_CONST0 = "const0"
_CONST1 = "const1"


def packed_word_count(length: int) -> int:
    """Number of ``uint64`` words needed to hold ``length`` cycles."""
    return (int(length) + WORD_BITS - 1) // WORD_BITS


def transition_chunks(transitions: int, chunk_size: int) -> List[Tuple[int, int]]:
    """Word-aligned ``[start, stop)`` spans covering ``transitions`` cycles.

    ``chunk_size`` is rounded up to a multiple of :data:`WORD_BITS`
    so every chunk starts on a packed word boundary and fills whole words
    except possibly the last (ragged) one.  Because the timing simulators
    are transition-local, simulating the spans independently — each span
    reads input vectors ``[start, stop]`` — and concatenating the results
    in span order is bit-identical to one full-trace run.  This is the
    chunk-level unit of work shared by the packed engine's internal
    chunking and the planner's trace slices.
    """
    transitions = int(transitions)
    if transitions < 1:
        raise SimulationError(f"need at least one transition, got {transitions}")
    if chunk_size < 1:
        raise SimulationError(
            f"chunk size must be at least one transition, got {chunk_size}")
    aligned = -(-int(chunk_size) // WORD_BITS) * WORD_BITS
    return [(start, min(start + aligned, transitions))
            for start in range(0, transitions, aligned)]


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack 0/1 values along the last axis, 64 cycles per ``uint64`` word.

    Bit ``i`` of word ``j`` (LSB first) holds cycle ``64 * j + i``.  The
    tail of the last word is zero-padded.
    """
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    length = bits.shape[-1]
    words = packed_word_count(length)
    packed = np.packbits(bits, axis=-1, bitorder="little")
    pad = words * 8 - packed.shape[-1]
    if pad:
        packed = np.concatenate(
            [packed, np.zeros(packed.shape[:-1] + (pad,), dtype=np.uint8)], axis=-1)
    return np.ascontiguousarray(packed).view(np.uint64)


def unpack_bits(words: np.ndarray, length: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: expand words back into 0/1 ``uint8`` cycles."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    return np.unpackbits(words.view(np.uint8), axis=-1, count=int(length),
                         bitorder="little")


def rows_to_words(rows: np.ndarray, length: int) -> np.ndarray:
    """Assemble packed per-bit rows (LSB first) into ``uint64`` words.

    ``rows`` is a ``(bits, ..., words)`` packed array — bit positions
    along the first axis, packed words along the last, any batch axes in
    between.  The result has shape ``(..., length)``: bit ``k`` of every
    word comes from ``rows[k]``.  The assembly is one broadcast
    shift-and-reduce, not a per-position Python loop, so decoding a
    stacked multi-trace batch costs one NumPy dispatch.
    """
    rows = np.ascontiguousarray(rows, dtype=np.uint64)
    if rows.shape[0] == 0:
        return np.zeros(rows.shape[1:-1] + (int(length),), dtype=np.uint64)
    bits = unpack_bits(rows, length).astype(np.uint64)
    shifts = np.arange(rows.shape[0], dtype=np.uint64)
    return np.bitwise_or.reduce(
        bits << shifts.reshape((-1,) + (1,) * (bits.ndim - 1)), axis=0)


def levelise_netlist(netlist) -> Tuple[Dict[str, int], List[int]]:
    """Dense net IDs and per-gate levels of a netlist.

    Net IDs follow the shared indexing scheme of the compiled programs
    and the STA kernels: ``const0`` = 0, ``const1`` = 1, then the
    primary inputs, then every gate output in topological order.
    The returned level list is parallel to
    ``netlist.topological_order()``: inputs and constants sit at level
    0, a gate one above its deepest input.
    """
    order = netlist.topological_order()
    net_id: Dict[str, int] = {_CONST0: 0, _CONST1: 1}
    for net in netlist.inputs:
        net_id[net] = len(net_id)
    for gate in order:
        net_id[gate.output] = len(net_id)
    # Gate output IDs are assigned consecutively in topological order,
    # so appending keeps the list indexable by net ID.
    level: List[int] = [0] * (2 + len(netlist.inputs))
    gate_levels: List[int] = []
    for gate in order:
        gate_level = 1 + max(level[net_id[net]] for net in gate.inputs)
        level.append(gate_level)
        gate_levels.append(gate_level)
    return net_id, gate_levels


@dataclass(frozen=True)
class _EvalBatch:
    """All gates of one (level, cell) group: one kernel call per batch."""

    kernel: object
    out_ids: np.ndarray
    operand_ids: Tuple[np.ndarray, ...]


class CompiledProgram:
    """A netlist lowered to integer net IDs and levelised gate batches.

    The program is immutable and safe to cache per netlist; it holds no
    simulation state.  All evaluation methods allocate a fresh value
    matrix of shape ``(num_nets, words)``.
    """

    def __init__(self, netlist) -> None:
        self.netlist = netlist
        order = netlist.topological_order()

        net_id, gate_levels = levelise_netlist(netlist)
        self.net_id = net_id
        self.num_nets = len(net_id)
        self.input_ids = np.array([net_id[net] for net in netlist.inputs], dtype=np.int64)

        self.gate_level: Dict[str, int] = {}
        grouped: Dict[Tuple[int, str], List] = {}
        for gate, gate_level in zip(order, gate_levels):
            self.gate_level[gate.output] = gate_level
            grouped.setdefault((gate_level, gate.cell), []).append(gate)
        self.num_levels = max(gate_levels, default=0)

        self.batches: List[_EvalBatch] = []
        for (gate_level, cell_name) in sorted(grouped):
            gates = grouped[(gate_level, cell_name)]
            cell_def = cell(cell_name)
            if cell_def.packed_function is None:
                raise CompilationError(
                    f"cell {cell_name!r} has no packed kernel; cannot compile "
                    f"netlist {netlist.name!r}")
            out_ids = np.array([net_id[g.output] for g in gates], dtype=np.int64)
            operand_ids = tuple(
                np.array([net_id[g.inputs[pin]] for g in gates], dtype=np.int64)
                for pin in range(cell_def.arity))
            self.batches.append(_EvalBatch(cell_def.packed_function, out_ids, operand_ids))

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _execute(self, values: np.ndarray,
                 packed_inputs: Mapping[str, np.ndarray]) -> np.ndarray:
        """Fill ``values`` from the stimulus and run every gate batch."""
        values[0] = 0
        values[1] = ~np.uint64(0)
        for net, row in packed_inputs.items():
            values[self.net_id[net]] = row
        for batch in self.batches:
            operands = [values[ids] for ids in batch.operand_ids]
            values[batch.out_ids] = batch.kernel(*operands)
        return values

    def run_packed(self, packed_inputs: Mapping[str, np.ndarray], words: int) -> np.ndarray:
        """Execute the program on packed stimulus rows.

        ``packed_inputs`` maps every primary input net to a ``(words,)``
        ``uint64`` row.  Returns the full ``(num_nets, words)`` value
        matrix (constants included).
        """
        return self._execute(np.empty((self.num_nets, words), dtype=np.uint64),
                             packed_inputs)

    def run_packed_many(self, packed_inputs: Mapping[str, np.ndarray],
                        traces: int, words: int) -> np.ndarray:
        """Execute the program on a stacked batch of packed traces.

        ``packed_inputs`` maps every primary input net to a
        ``(traces, words)`` ``uint64`` matrix — one packed row per trace.
        Returns the ``(num_nets, traces, words)`` value tensor.  Every
        gate batch runs as **one** bitwise kernel call covering all
        traces; because the packed words of different traces never mix,
        slicing trace ``t`` out of the result is bit-identical to
        :meth:`run_packed` on that trace alone.
        """
        return self._execute(
            np.empty((self.num_nets, int(traces), int(words)), dtype=np.uint64),
            packed_inputs)

    def evaluate_bits(self, bit_inputs: Mapping[str, np.ndarray], length: int) -> np.ndarray:
        """Pack per-net 0/1 stimulus of ``length`` cycles and execute."""
        words = packed_word_count(length)
        packed = {net: pack_bits(bits) for net, bits in bit_inputs.items()}
        return self.run_packed(packed, words)

    def evaluate(self, bit_inputs: Mapping[str, np.ndarray], length: int
                 ) -> Dict[str, np.ndarray]:
        """Packed evaluation returning every net as a ``(length,)`` 0/1 array.

        This is the compiled replacement for the reference per-gate loop
        in :meth:`Netlist.evaluate`; inputs must already be validated.
        """
        values = self.run_packed(
            {net: pack_bits(np.ascontiguousarray(bits, dtype=np.uint8))
             for net, bits in bit_inputs.items()},
            packed_word_count(length))
        unpacked = unpack_bits(values, length)
        return {net: unpacked[row] for net, row in self.net_id.items()}

    def decode_words(self, values: np.ndarray, nets: Sequence[str], length: int) -> np.ndarray:
        """Assemble packed rows of ``nets`` (LSB first) into integer words."""
        return rows_to_words(values[[self.net_id[net] for net in nets]], length)

    def compute_words(self, bit_inputs: Mapping[str, np.ndarray], length: int,
                      output_nets: Sequence[str]) -> np.ndarray:
        """Packed end-to-end: evaluate and decode only the requested bus."""
        values = self.evaluate_bits(bit_inputs, length)
        return self.decode_words(values, output_nets, length)

    def evaluate_transitions(self, bit_inputs: Mapping[str, np.ndarray],
                             transitions: int) -> Tuple[np.ndarray, np.ndarray]:
        """Old/new settled values for ``transitions`` back-to-back transitions.

        ``bit_inputs`` holds ``transitions + 1`` cycles per net; the trace
        is evaluated once and the "new" matrix is derived with a one-bit
        cross-word funnel shift instead of a second evaluation pass.
        Both returned matrices span ``packed_word_count(transitions)``
        words; bits at positions ``>= transitions`` are unspecified.
        """
        full = self.evaluate_bits(bit_inputs, transitions + 1)
        shifted = full >> np.uint64(1)
        shifted[:, :-1] |= full[:, 1:] << np.uint64(63)
        words = packed_word_count(transitions)
        return full[:, :words], shifted[:, :words]

    def evaluate_transitions_many(self, bit_inputs: Mapping[str, np.ndarray],
                                  transitions: int) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked :meth:`evaluate_transitions` over a batch of traces.

        ``bit_inputs`` holds a ``(traces, transitions + 1)`` 0/1 matrix
        per net (rows shorter than the batch must be zero-padded by the
        caller; the padded bits are evaluated but carry no meaning).
        Returns ``(old, new)`` value tensors of shape
        ``(num_nets, traces, packed_word_count(transitions))``.  The
        funnel shift deriving the "new" matrix runs along the packed
        word axis of each trace independently, so every trace slice is
        bit-identical to a standalone :meth:`evaluate_transitions`.
        """
        words_full = packed_word_count(transitions + 1)
        packed = {net: pack_bits(bits) for net, bits in bit_inputs.items()}
        traces = next(iter(packed.values())).shape[0] if packed else 0
        full = self.run_packed_many(packed, traces, words_full)
        shifted = full >> np.uint64(1)
        shifted[..., :-1] |= full[..., 1:] << np.uint64(63)
        words = packed_word_count(transitions)
        return full[..., :words], shifted[..., :words]


@dataclass(frozen=True)
class _ThresholdBatch:
    """All threshold rows of one (level, fan-in count) group.

    After renumbering, the rows of a batch occupy the contiguous block
    ``[start, stop)`` of the mask matrix, so the propagation writes a
    slice instead of scattering through an index array.  Clock-specialised
    plans restrict a batch to a subset of its rows; ``out_rows`` then
    carries the explicit (non-contiguous) targets.
    """

    start: int
    stop: int
    changed_rows: np.ndarray
    source_rows: Tuple[np.ndarray, ...]
    out_rows: Optional[np.ndarray] = None


@dataclass(frozen=True)
class _TimingPlan:
    """Propagation schedule restricted to the cone of a set of root rows."""

    runtime_rows: np.ndarray
    runtime_nets: np.ndarray
    batches: List[_ThresholdBatch]


class PackedTimingProgram:
    """Arrival-threshold masks of a delay-annotated netlist, fully packed.

    See the module docstring for the algorithm.  The program is compiled
    once per (netlist, annotation) pair; :meth:`run` then produces the
    mask matrix for one packed chunk of transitions, and
    :meth:`late_rows` maps a clock period to the mask rows that answer
    ``arrival > clock`` for a list of nets.

    Compilation is *cone-directed*: arrival-value candidate sets are
    derived bottom-up for every net, but threshold rows are materialised
    top-down from the query roots, so only masks that can influence a
    lateness answer are ever built.  By default the roots are **every**
    threshold of every sampleable net (primary outputs and bus members)
    — the general program, able to answer any clock period.  Passing
    ``clock_periods`` restricts the roots to the one lateness threshold
    each clock samples per net; the resulting program is typically an
    order of magnitude smaller (cheaper to compile *and* to run) and is
    bit-identical to the general program on those clocks.  Querying a
    clock outside the specialisation raises, it never answers wrongly.
    """

    #: Default ceiling on threshold rows per gate (beyond it, compilation
    #: aborts and the dense engine takes over).
    DEFAULT_ROWS_PER_GATE = 48

    def __init__(self, program: CompiledProgram, annotation,
                 row_limit: Optional[int] = None,
                 clock_periods: Optional[Sequence[float]] = None) -> None:
        self.program = program
        netlist = program.netlist
        if row_limit is None:
            row_limit = (self.DEFAULT_ROWS_PER_GATE * max(netlist.num_gates, 1)
                         + len(netlist.inputs) + 64)
        net_id = program.net_id
        self.clock_periods = (None if clock_periods is None else
                              tuple(sorted({float(clk) for clk in clock_periods})))

        def _overflow() -> CompilationError:
            return CompilationError(
                f"timing program for {netlist.name!r} exceeds {row_limit} "
                f"threshold rows (irregular delays); use the dense reference engine")

        # ---------------------------------------------------------------- #
        # Arrival-value candidate sets, bottom-up.  Every threshold is a
        # float64 sum built with the same additions the dense simulator
        # performs (Python floats *are* IEEE doubles), so the masks stay
        # bit-exact with the reference arrival propagation.  The merge
        # runs on plain float sets — for the small per-net sets of
        # regular adders that is several times cheaper than per-gate
        # ``np.unique`` dispatch — and converts to arrays once at the
        # end, where ``searchsorted`` wants them.
        # ---------------------------------------------------------------- #
        value_sets: List[tuple] = [()] * program.num_nets
        for net in netlist.inputs:
            value_sets[net_id[net]] = (0.0,)
        # out nid -> (delay, live input nids, level); only gates whose
        # output can move (some input with a non-empty arrival set).
        gate_of: Dict[int, Tuple[float, Tuple[int, ...], int]] = {}
        for gate in netlist.topological_order():
            out = net_id[gate.output]
            delay = annotation.delay_of(gate.name)
            live = tuple(i for i in (net_id[net] for net in gate.inputs)
                         if value_sets[i])
            if not live:
                continue  # constant-driven: the output can never change
            gate_of[out] = (delay, live, program.gate_level[gate.output])
            if len(live) == 1:
                # A sorted unique set shifted by a constant stays sorted
                # and unique; no merge needed.
                values = tuple(value + delay for value in value_sets[live[0]])
            else:
                merged = set()
                for source in live:
                    merged.update(value + delay for value in value_sets[source])
                values = tuple(sorted(merged))
            if len(values) > row_limit:
                # A single net with more candidate thresholds than the
                # whole row budget is the irregular-delay explosion the
                # limit exists for; abort before the sets snowball.
                raise _overflow()
            value_sets[out] = values
        empty = np.empty(0)
        values_of: List[np.ndarray] = [
            np.asarray(values, dtype=np.float64) if values else empty
            for values in value_sets]

        # ---------------------------------------------------------------- #
        # Query roots: the (net, threshold) pairs a run may sample.
        # ---------------------------------------------------------------- #
        roots: List[Tuple[int, int]] = []
        seen_nets: set = set()
        sample_order = list(netlist.outputs) + [
            net for nets in netlist.buses.values() for net in nets]
        for net in sample_order:
            if net in seen_nets:
                continue
            seen_nets.add(net)
            nid = net_id.get(net)
            if nid is None:
                continue
            size = values_of[nid].shape[0]
            if not size:
                continue
            if self.clock_periods is None:
                roots.extend((nid, k) for k in range(size))
            else:
                indices = {int(np.searchsorted(values_of[nid], clk, side="right"))
                           for clk in self.clock_periods}
                roots.extend((nid, k) for k in sorted(indices) if k < size)

        # ---------------------------------------------------------------- #
        # Threshold-row discovery walks top-down from the roots: one
        # runtime (changed) row per live net it reaches and one threshold
        # node per distinct source set of a gate (per-gate dedup), so no
        # row outside the roots' backward cone is ever created.  The
        # general program is simply the cone of every threshold.
        # ---------------------------------------------------------------- #
        pair_row, nodes, runtime_order, runtime_nets, next_row = self._discover_cone(
            gate_of, values_of, roots, row_limit, _overflow)

        # ---------------------------------------------------------------- #
        # Renumber: row 0, then the runtime block, then batch-contiguous
        # threshold rows ordered by (level, fanin) so every batch writes
        # one slice of the mask matrix.
        # ---------------------------------------------------------------- #
        remap = np.full(next_row, -1, dtype=np.int64)
        remap[0] = 0
        cursor = 1
        for row in runtime_order:
            remap[row] = cursor
            cursor += 1
        self.runtime_nets = np.array(runtime_nets, dtype=np.int64)
        self.runtime_stop = cursor

        grouped: Dict[Tuple[int, int], List[int]] = {}
        for row, (level, fanin, _, _) in nodes.items():
            grouped.setdefault((level, fanin), []).append(row)
        self.batches: List[_ThresholdBatch] = []
        for (level, fanin), members in sorted(grouped.items()):
            start = cursor
            for row in members:
                remap[row] = cursor
                cursor += 1
            changed_rows = np.empty(len(members), dtype=np.int64)
            source_rows = tuple(np.empty(len(members), dtype=np.int64)
                                for _ in range(fanin))
            for position, row in enumerate(members):
                _, _, changed_row, key = nodes[row]
                changed_rows[position] = remap[changed_row]
                for pin in range(fanin):
                    source_rows[pin][position] = remap[key[pin]]
            self.batches.append(_ThresholdBatch(start=start, stop=cursor,
                                                changed_rows=changed_rows,
                                                source_rows=source_rows))

        self.num_rows = cursor
        self.values_of = values_of
        rows_of: List[np.ndarray] = [
            np.full(values.shape[0], -1, dtype=np.int64) for values in values_of]
        for (nid, k), row in pair_row.items():
            rows_of[nid][k] = remap[row]
        self.rows_of = rows_of
        self._dependencies = {
            int(remap[row]): (int(remap[node[2]]),
                              tuple(int(remap[source]) for source in node[3]))
            for row, node in nodes.items()}
        self._plan_cache: Dict[frozenset, _TimingPlan] = {}

    @staticmethod
    def _discover_cone(gate_of, values_of, roots, row_limit, overflow):
        """Walk top-down from the roots, creating only reachable rows.

        Returns ``(pair_row, nodes, runtime_order, runtime_nets,
        next_row)``: the row of every visited (net, threshold) pair (0
        for a threshold no input transition can reach), the threshold
        nodes as ``row -> (level, fan-in, changed row, source rows)``,
        and the runtime rows with their nets in creation order.  Nothing
        outside the roots' backward cone is materialised, which is what
        makes clock-specialised compilation an order of magnitude
        cheaper than the general program on multi-clock sweeps.
        """
        pair_row: Dict[Tuple[int, int], int] = {}
        dedup: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        nodes: Dict[int, Tuple[int, int, int, Tuple[int, ...]]] = {}
        runtime_order: List[int] = []
        runtime_nets: List[int] = []
        lift_cache: Dict[int, List[Tuple[int, np.ndarray]]] = {}
        next_row = 1  # row 0 is the all-zero mask

        def lift_table(nid: int) -> List[Tuple[int, np.ndarray]]:
            # Per visited gate, one vectorised searchsorted per input:
            # ``(source nid, lift index of every non-minimal threshold)``.
            table = lift_cache.get(nid)
            if table is None:
                delay, live, _ = gate_of[nid]
                non_minimal = values_of[nid][1:]
                table = lift_cache[nid] = [
                    (source, np.searchsorted(values_of[source] + delay,
                                             non_minimal, side="left"))
                    for source in live]
            return table

        stack: List[Tuple[int, int, bool]] = [(nid, k, False)
                                              for nid, k in reversed(roots)]
        while stack:
            nid, k, expanded = stack.pop()
            if (nid, k) in pair_row:
                continue
            if k == 0:
                # The minimal threshold of a net is its changed mask,
                # filled straight from the settled-value diff at runtime.
                pair_row[(nid, 0)] = next_row
                runtime_order.append(next_row)
                runtime_nets.append(nid)
                next_row += 1
                if next_row > row_limit:
                    raise overflow()
                continue
            children: List[Tuple[int, int]] = [(nid, 0)]
            for source, indices in lift_table(nid):
                index = int(indices[k - 1])
                if index < values_of[source].shape[0]:
                    children.append((source, index))
            if not expanded:
                stack.append((nid, k, True))
                stack.extend((child_nid, child_k, False)
                             for child_nid, child_k in children)
                continue
            sources = tuple(sorted({pair_row[child] for child in children[1:]}
                                   - {0}))
            if not sources:  # unreachable threshold: mask is identically zero
                pair_row[(nid, k)] = 0
                continue
            key = (nid, sources)
            existing = dedup.get(key)
            if existing is not None:
                pair_row[(nid, k)] = existing
                continue
            row = dedup[key] = pair_row[(nid, k)] = next_row
            nodes[row] = (gate_of[nid][2], len(sources), pair_row[(nid, 0)],
                          sources)
            next_row += 1
            if next_row > row_limit:
                raise overflow()
        return pair_row, nodes, runtime_order, runtime_nets, next_row

    # ------------------------------------------------------------------ #
    def plan_for(self, root_rows: Sequence[int]) -> "_TimingPlan":
        """Specialised propagation plan covering only ``root_rows``.

        A trace run at a fixed set of clock periods samples a handful of
        lateness thresholds; everything not in their backward cone is
        dead work.  Plans are cached per root set — for the paper's
        three-clock sweeps they shrink the propagation to a quarter of
        the rows or less.
        """
        key = frozenset(int(row) for row in root_rows if row)
        cached = self._plan_cache.get(key)
        if cached is not None:
            return cached
        alive = set()
        stack = list(key)
        while stack:
            row = stack.pop()
            if row in alive or row == 0:
                continue
            alive.add(row)
            node = self._dependencies.get(row)
            if node is not None:
                stack.append(node[0])
                stack.extend(node[1])

        runtime_selection = np.array(
            sorted(row for row in alive if row < self.runtime_stop), dtype=np.int64)
        plan_batches: List[_ThresholdBatch] = []
        for batch in self.batches:
            positions = np.array([k for k, row in enumerate(range(batch.start, batch.stop))
                                  if row in alive], dtype=np.int64)
            if not positions.size:
                continue
            if positions.size == batch.stop - batch.start:
                plan_batches.append(batch)
                continue
            plan_batches.append(_ThresholdBatch(
                start=batch.start, stop=batch.stop,
                changed_rows=batch.changed_rows[positions],
                source_rows=tuple(rows[positions] for rows in batch.source_rows),
                out_rows=positions + batch.start))
        plan = _TimingPlan(
            runtime_rows=runtime_selection,
            runtime_nets=self.runtime_nets[runtime_selection - 1],
            batches=plan_batches)
        self._plan_cache[key] = plan
        return plan

    def run(self, changed: np.ndarray, plan: Optional["_TimingPlan"] = None) -> np.ndarray:
        """Propagate threshold masks for one packed chunk.

        ``changed`` is the ``(num_nets, words)`` packed old-vs-new diff of
        settled values — or a stacked ``(num_nets, traces, words)`` batch
        (see :meth:`run_many`).  Returns the ``(num_rows, ...)`` mask
        matrix with the same trailing shape; with a ``plan`` only the
        rows in the plan's cone hold defined values (exactly the ones
        its roots sample).
        """
        masks = np.empty((self.num_rows,) + changed.shape[1:], dtype=np.uint64)
        masks[0] = 0
        if plan is None:
            masks[1:self.runtime_stop] = changed[self.runtime_nets]
            batches: Sequence[_ThresholdBatch] = self.batches
        else:
            masks[plan.runtime_rows] = changed[plan.runtime_nets]
            batches = plan.batches
        for batch in batches:
            if batch.out_rows is None:
                block = masks[batch.start:batch.stop]
                np.take(masks, batch.source_rows[0], axis=0, out=block)
            else:
                block = masks[batch.source_rows[0]]
            for source in batch.source_rows[1:]:
                block |= masks[source]
            block &= masks[batch.changed_rows]
            if batch.out_rows is not None:
                masks[batch.out_rows] = block
        return masks

    def run_many(self, changed: np.ndarray,
                 plan: Optional["_TimingPlan"] = None) -> np.ndarray:
        """Batched :meth:`run` over a stacked multi-trace diff tensor.

        ``changed`` has shape ``(num_nets, traces, words)``; the result
        has shape ``(num_rows, traces, words)``.  Every threshold batch
        propagates with **one** bitwise operation covering all traces,
        and because packed words of different traces never mix, slicing
        trace ``t`` out of the result is bit-identical to a standalone
        :meth:`run` on that trace's diff matrix.
        """
        if changed.ndim != 3:
            raise SimulationError(
                f"run_many expects a (num_nets, traces, words) tensor, "
                f"got shape {changed.shape}")
        return self.run(changed, plan=plan)

    def late_rows(self, nets: Sequence[str], clock_period: float) -> np.ndarray:
        """Mask row answering ``arrival > clock_period`` for each net.

        Nets that can never be late at this clock map to row 0 (all-zero).
        Only sampleable nets (primary outputs and bus members) survive
        compilation; querying any other net — or a clock period a
        clock-specialised program was not compiled for — raises.
        """
        rows = np.zeros(len(nets), dtype=np.int64)
        for k, net in enumerate(nets):
            nid = self.program.net_id[net]
            values = self.values_of[nid]
            idx = int(np.searchsorted(values, clock_period, side="right"))
            if idx < values.shape[0]:
                row = int(self.rows_of[nid][idx])
                if row < 0:
                    if self.clock_periods is not None:
                        raise SimulationError(
                            f"net {net!r} has no threshold row for clock period "
                            f"{clock_period!r}: the timing program was specialised "
                            f"to clock periods {self.clock_periods}")
                    raise SimulationError(
                        f"net {net!r} was pruned from the timing program and "
                        "cannot be sampled")
                rows[k] = row
        return rows


def compile_netlist(netlist) -> CompiledProgram:
    """Lower ``netlist`` into a :class:`CompiledProgram` (no caching here;
    use :meth:`Netlist.compiled` for the cached accessor)."""
    return CompiledProgram(netlist)

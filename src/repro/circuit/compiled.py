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
    Zero-delay logic evaluation: each gate batch runs its cell's one
    bitwise kernel (:attr:`repro.circuit.cells.Cell.kernel`).  It is the
    only logic evaluator: :meth:`Netlist.evaluate` and
    :meth:`Netlist.compute_words` run it for every stimulus shape, and
    the timing simulators take every net's settled values from it.

:class:`PackedTimingProgram`
    The timing half of the compiled engine.  Per-gate transport delays
    from a :class:`~repro.circuit.sdf.DelayAnnotation` give every net a
    *finite* set of possible final-transition arrival times (path sums of
    delays).  A program is built for the clock periods its caller
    samples: each clock reads one threshold ``v`` per output net, and for
    each net ``n`` and arrival value ``v`` those thresholds depend on the
    program materialises a packed mask ``M[n, v] = (arrival(n) >= v)``
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
    the levelised pass of :class:`~repro.timing.fast_sim.FastTimingSimulator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

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


def transition_chunks(transitions: int, size: int) -> List[Tuple[int, int]]:
    """Word-aligned ``[start, stop)`` spans covering ``transitions`` cycles.

    ``size`` (transitions per span) is rounded up to a multiple of
    :data:`WORD_BITS` so every chunk starts on a packed word boundary and
    fills whole words except possibly the last (ragged) one.  Because the
    timing simulators are transition-local, simulating the spans
    independently — each span reads input vectors ``[start, stop]`` — and
    concatenating the results in span order is bit-identical to one
    full-trace run.  This is the chunk-level unit of work shared by the
    fast simulator's internal chunking and the planner's trace slices.
    """
    transitions = int(transitions)
    if transitions < 1:
        raise SimulationError(f"need at least one transition, got {transitions}")
    if size < 1:
        raise SimulationError(
            f"chunk size must be at least one transition, got {size}")
    aligned = -(-int(size) // WORD_BITS) * WORD_BITS
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


#: ``_SPREAD[256 * k + b]`` moves bit ``i`` of the byte ``b`` to bit ``8 * i + k`` of a
#: little-endian ``uint64``: byte ``i`` of it then holds, at bit ``k``, cycle ``i`` of the
#: 8 cycles ``b`` packs.
_SPREAD = (np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                         bitorder="little").view("<u8").ravel()
           << np.arange(8, dtype=np.uint64)[:, None]).astype("<u8").ravel()

#: Table offset of each bit position: its place ``k`` within its byte of the word.
_PLACE = (np.arange(WORD_BITS) % 8 * 256).astype(np.uint16)


def rows_to_words(rows: np.ndarray, length: int) -> np.ndarray:
    """Assemble packed per-bit rows (LSB first) into ``uint64`` words.

    ``rows`` is a ``(bits, ..., words)`` packed array — bit positions
    along the first axis, packed words along the last, any batch axes in
    between.  The result has shape ``(..., length)``: bit ``k`` of every
    word comes from ``rows[k]``.

    The decode is a byte-wise bit-matrix transpose (Warren, *Hacker's
    Delight*, section 7-3).  One table lookup spreads a byte of row ``k``
    (8 cycles of bit ``k``) into bit ``k % 8`` of 8 bytes, one per cycle;
    OR-ing the lookups of 8 rows gives those cycles' bytes of the word,
    which are written into the words through a little-endian byte view.
    No unpacked per-cycle bit matrix is built, and a stacked batch costs
    the same NumPy calls as one trace.
    """
    rows = np.ascontiguousarray(rows, dtype=np.uint64)
    bits, batch, length = rows.shape[0], rows.shape[1:-1], int(length)
    if bits > WORD_BITS:
        raise SimulationError(f"a word holds {WORD_BITS} bits, got {bits} rows")
    words = np.zeros(batch + (length,), dtype="<u8")
    if bits and length:
        octets = -(-length // 8)
        index = np.add(rows.view(np.uint8)[..., :octets],
                       _PLACE[:bits].reshape((bits,) + (1,) * (len(batch) + 1)))
        spread = _SPREAD.take(index)
        # packed[g] ORs the lookups of rows 8g..8g+7: byte i of its entry m
        # is byte g of the word of cycle 8m + i.
        packed = spread[::8].copy()
        for place in range(1, min(bits, 8)):
            rest = spread[place::8]
            packed[:rest.shape[0]] |= rest
        out = words.view(np.uint8).reshape(batch + (length, 8))
        for byte, cycles in enumerate(packed.view(np.uint8)):
            out[..., byte] = cycles[..., :length]
    return words.astype(np.uint64, copy=False)


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

        self.batches: List[_EvalBatch] = []
        for (gate_level, cell_name) in sorted(grouped):
            gates = grouped[(gate_level, cell_name)]
            cell_def = cell(cell_name)
            out_ids = np.array([net_id[g.output] for g in gates], dtype=np.int64)
            operand_ids = tuple(
                np.array([net_id[g.inputs[pin]] for g in gates], dtype=np.int64)
                for pin in range(cell_def.arity))
            self.batches.append(_EvalBatch(cell_def.kernel, out_ids, operand_ids))

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

        :meth:`Netlist.evaluate` validates and flattens the stimulus.
        """
        unpacked = unpack_bits(self.evaluate_bits(bit_inputs, length), length)
        return {net: unpacked[row] for net, row in self.net_id.items()}

    def decode_words(self, values: np.ndarray, nets: Sequence[str], length: int) -> np.ndarray:
        """Assemble packed rows of ``nets`` (LSB first) into integer words."""
        return rows_to_words(values[[self.net_id[net] for net in nets]], length)

    def compute_words(self, bit_inputs: Mapping[str, np.ndarray], length: int,
                      output_nets: Sequence[str]) -> np.ndarray:
        """Packed end-to-end: evaluate and decode only the requested bus."""
        values = self.evaluate_bits(bit_inputs, length)
        return self.decode_words(values, output_nets, length)

    def evaluate_transitions_many(self, bit_inputs: Mapping[str, np.ndarray],
                                  transitions: int) -> Tuple[np.ndarray, np.ndarray]:
        """Old/new settled values of a stacked batch of traces.

        ``bit_inputs`` holds a ``(traces, transitions + 1)`` 0/1 matrix
        per net (rows shorter than the batch must be zero-padded by the
        caller; the padded bits are evaluated but carry no meaning).
        Returns ``(old, new)`` value tensors of shape
        ``(num_nets, traces, packed_word_count(transitions))``: bit ``t``
        of a trace's ``old`` row holds the net's value at vector ``t``,
        of its ``new`` row the value at vector ``t + 1``; bits at
        positions ``>= transitions`` are unspecified.
        The batch is evaluated once and the "new" tensor is derived with
        a one-bit cross-word funnel shift instead of a second evaluation
        pass; the shift runs along the packed word axis of each trace
        independently, so traces never mix.
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
    slice instead of scattering through an index array.
    """

    start: int
    stop: int
    changed_rows: np.ndarray
    source_rows: Tuple[np.ndarray, ...]


class PackedTimingProgram:
    """Arrival-threshold masks of a delay-annotated netlist, fully packed.

    See the module docstring for the algorithm.  A program is compiled
    for one (netlist, annotation, clock set): per sampleable net (primary
    outputs and bus members) each clock period samples one lateness
    threshold, and only the rows those thresholds depend on are built.
    :meth:`run_many` then produces the mask tensor for one packed chunk
    of transitions, and :meth:`late_rows` maps a clock period to the
    mask rows that answer ``arrival > clock`` for a list of nets.  A
    clock period that samples a threshold outside the program raises;
    it never answers wrongly.

    Compilation is *cone-directed*: arrival-value candidate sets are
    derived bottom-up for every net, but threshold rows are materialised
    top-down from the sampled thresholds, so only masks that can
    influence a lateness answer are ever built.
    """

    #: Ceiling on threshold rows per gate (beyond it, compilation aborts
    #: and the levelised pass takes over).
    DEFAULT_ROWS_PER_GATE = 48

    def __init__(self, program: CompiledProgram, annotation,
                 clock_periods: Sequence[float]) -> None:
        self.program = program
        netlist = program.netlist
        max_rows = (self.DEFAULT_ROWS_PER_GATE * max(netlist.num_gates, 1)
                    + len(netlist.inputs) + 64)
        net_id = program.net_id
        self.clock_periods = tuple(sorted({float(clk) for clk in clock_periods}))

        def _overflow() -> CompilationError:
            return CompilationError(
                f"timing program for {netlist.name!r} exceeds {max_rows} "
                f"threshold rows (irregular delays); use the levelised pass")

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
            if len(values) > max_rows:
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
        # Roots: the one (net, threshold) pair each clock samples per
        # sampleable net.
        # ---------------------------------------------------------------- #
        roots: List[Tuple[int, int]] = []
        sample_order = dict.fromkeys(list(netlist.outputs) + [
            net for nets in netlist.buses.values() for net in nets])
        for net in sample_order:
            nid = net_id.get(net)
            if nid is None:
                continue
            values = values_of[nid]
            indices = {int(np.searchsorted(values, clk, side="right"))
                       for clk in self.clock_periods}
            roots.extend((nid, k) for k in sorted(indices) if k < values.shape[0])

        # ---------------------------------------------------------------- #
        # Threshold-row discovery walks top-down from the roots: one
        # runtime (changed) row per live net it reaches and one threshold
        # node per distinct source set of a gate (per-gate dedup), so no
        # row outside the roots' backward cone is ever created.
        # ---------------------------------------------------------------- #
        pair_row, nodes, runtime_order, runtime_nets, next_row = self._discover_cone(
            gate_of, values_of, roots, max_rows, _overflow)

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

    @staticmethod
    def _discover_cone(gate_of, values_of, roots, max_rows, overflow):
        """Walk top-down from the roots, creating only reachable rows.

        Returns ``(pair_row, nodes, runtime_order, runtime_nets,
        next_row)``: the row of every visited (net, threshold) pair (0
        for a threshold no input transition can reach), the threshold
        nodes as ``row -> (level, fan-in, changed row, source rows)``,
        and the runtime rows with their nets in creation order.  Nothing
        outside the roots' backward cone is materialised, which keeps a
        program for a few clocks an order of magnitude smaller than one
        holding every threshold.
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
                if next_row > max_rows:
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
            if next_row > max_rows:
                raise overflow()
        return pair_row, nodes, runtime_order, runtime_nets, next_row

    # ------------------------------------------------------------------ #
    def run_many(self, changed: np.ndarray) -> np.ndarray:
        """Propagate threshold masks for one packed chunk of stacked traces.

        ``changed`` is the ``(num_nets, traces, words)`` packed
        old-vs-new diff of settled values; the result is the
        ``(num_rows, traces, words)`` mask tensor.  Every threshold batch
        propagates with **one** bitwise operation covering all traces,
        and because packed words of different traces never mix, each
        trace's slice of the result depends on that trace alone.
        """
        if changed.ndim != 3:
            raise SimulationError(
                f"run_many expects a (num_nets, traces, words) tensor, "
                f"got shape {changed.shape}")
        masks = np.empty((self.num_rows,) + changed.shape[1:], dtype=np.uint64)
        masks[0] = 0
        masks[1:self.runtime_stop] = changed[self.runtime_nets]
        for batch in self.batches:
            block = masks[batch.start:batch.stop]
            np.take(masks, batch.source_rows[0], axis=0, out=block)
            for source in batch.source_rows[1:]:
                block |= masks[source]
            block &= masks[batch.changed_rows]
        return masks

    def late_rows(self, nets: Sequence[str], clock_period: float) -> np.ndarray:
        """Mask row answering ``arrival > clock_period`` for each net.

        Nets that can never be late at this clock map to row 0 (all-zero).
        Only the thresholds the program's clock periods sample on
        sampleable nets (primary outputs and bus members) have rows;
        querying any other net, or a clock period that samples another
        threshold, raises.
        """
        rows = np.zeros(len(nets), dtype=np.int64)
        for k, net in enumerate(nets):
            nid = self.program.net_id[net]
            values = self.values_of[nid]
            idx = int(np.searchsorted(values, clock_period, side="right"))
            if idx < values.shape[0]:
                row = int(self.rows_of[nid][idx])
                if row < 0:
                    raise SimulationError(
                        f"net {net!r} has no threshold row for clock period "
                        f"{clock_period!r}: the timing program was built for clock "
                        f"periods {self.clock_periods}")
                rows[k] = row
        return rows


def compile_netlist(netlist) -> CompiledProgram:
    """Lower ``netlist`` into a :class:`CompiledProgram` (no caching here;
    use :meth:`Netlist.compiled` for the cached accessor)."""
    return CompiledProgram(netlist)

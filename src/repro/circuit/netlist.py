"""Netlist graph and zero-delay logic evaluation.

A :class:`Netlist` is a flat gate-level description: named nets, primary
inputs/outputs, and :class:`Gate` instances referencing cells from
:mod:`repro.circuit.cells`.  Nets are identified by strings; the special
nets :data:`CONST0` and :data:`CONST1` are always available and carry
constant values.

Buses (e.g. the 32 bits of operand ``A``) are registered by the adder
generators so that encoding integer operands into per-net values and
decoding output words back into integers is uniform across the library.

Every evaluation runs the netlist lowered once into a bit-packed
:class:`~repro.circuit.compiled.CompiledProgram` (64 cycles per
``uint64`` word), whatever the stimulus shape: a scalar, a cycle array
or a matrix is broadcast, flattened into one cycle batch, evaluated and
reshaped.  :meth:`Netlist.expand_operands` is the one expansion of
word-level operands into per-net bits, shared by
:meth:`Netlist.compute_words` and both timing simulators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuit.cells import Cell, cell
from repro.exceptions import NetlistError, SimulationError
from repro.utils.bitops import mask

#: Name of the always-zero net.
CONST0 = "const0"
#: Name of the always-one net.
CONST1 = "const1"

BitValues = Union[int, np.ndarray]


@dataclass(frozen=True)
class Gate:
    """One cell instance: a named gate driving exactly one net."""

    name: str
    cell: str
    inputs: Tuple[str, ...]
    output: str

    @property
    def cell_def(self) -> Cell:
        """The functional cell definition backing this instance."""
        return cell(self.cell)


class Netlist:
    """A combinational gate-level netlist.

    Only combinational logic is modelled: the adders under study are
    combinational blocks between input and output registers, and the
    two-vector timing simulation in :mod:`repro.timing` models the
    registers implicitly.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self.gates: List[Gate] = []
        self.buses: Dict[str, List[str]] = {}
        self._drivers: Dict[str, Gate] = {}
        self._gate_names: Dict[str, Gate] = {}
        self._nets: Dict[str, None] = {CONST0: None, CONST1: None}
        self._order_cache: Optional[List[Gate]] = None
        self._compiled_cache = None  # CompiledProgram

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_input(self, net: str) -> str:
        """Declare a primary input net and return its name."""
        if net in self._nets:
            raise NetlistError(f"net {net!r} already exists in netlist {self.name!r}")
        self._nets[net] = None
        self.inputs.append(net)
        self._invalidate_caches()
        return net

    def add_output(self, net: str) -> str:
        """Mark an existing net as a primary output (order of calls is the bit order)."""
        if net not in self._nets:
            raise NetlistError(f"cannot mark unknown net {net!r} as output")
        self.outputs.append(net)
        return net

    def add_gate(self, name: str, cell_name: str, inputs: Sequence[str], output: str) -> Gate:
        """Instantiate a cell driving a new net ``output``."""
        if name in self._gate_names:
            raise NetlistError(f"gate name {name!r} already used")
        cell_def = cell(cell_name)
        if len(inputs) != cell_def.arity:
            raise NetlistError(
                f"gate {name!r}: cell {cell_name} expects {cell_def.arity} inputs, "
                f"got {len(inputs)}")
        for net in inputs:
            if net not in self._nets:
                raise NetlistError(f"gate {name!r} reads undeclared net {net!r}")
        if output in self._nets:
            raise NetlistError(f"gate {name!r} would redefine existing net {output!r}")
        gate = Gate(name=name, cell=cell_name, inputs=tuple(inputs), output=output)
        self._nets[output] = None
        self._drivers[output] = gate
        self._gate_names[name] = gate
        self.gates.append(gate)
        self._invalidate_caches()
        return gate

    def install_gates(self, records: Sequence[Tuple[str, str, Tuple[str, ...], str]]) -> None:
        """Bulk-append pre-validated ``(name, cell, inputs, output)`` gates.

        Trusted fast path for callers that already uphold every invariant
        :meth:`add_gate` checks — unique gate and net names, declared
        inputs, correct arity, topological order.  The indexed optimizer
        guarantees these by construction when materialising its result
        (and the synthesis flow re-verifies with ``check_netlist``).
        """
        nets = self._nets
        drivers = self._drivers
        gate_names = self._gate_names
        append = self.gates.append
        for name, cell_name, inputs, output in records:
            gate = Gate(name=name, cell=cell_name, inputs=inputs, output=output)
            nets[output] = None
            drivers[output] = gate
            gate_names[name] = gate
            append(gate)
        self._invalidate_caches()

    def register_bus(self, name: str, nets: Sequence[str]) -> None:
        """Associate an ordered list of nets (LSB first) with a bus name."""
        for net in nets:
            if net not in self._nets:
                raise NetlistError(f"bus {name!r} references unknown net {net!r}")
        self.buses[name] = list(nets)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def nets(self) -> Iterable[str]:
        """All net names, including constants."""
        return self._nets.keys()

    @property
    def num_gates(self) -> int:
        """Number of cell instances."""
        return len(self.gates)

    def driver_of(self, net: str) -> Optional[Gate]:
        """Gate driving ``net`` or None for inputs/constants."""
        return self._drivers.get(net)

    def gate(self, name: str) -> Gate:
        """Look up a gate instance by name."""
        try:
            return self._gate_names[name]
        except KeyError:
            raise NetlistError(f"no gate named {name!r} in netlist {self.name!r}") from None

    def fanout_map(self) -> Dict[str, List[Gate]]:
        """Map from net name to the gates reading it."""
        fanout: Dict[str, List[Gate]] = {net: [] for net in self._nets}
        for gate in self.gates:
            for net in gate.inputs:
                fanout[net].append(gate)
        return fanout

    def logic_depth(self) -> int:
        """Maximum number of gates on any input-to-output path."""
        depth: Dict[str, int] = {net: 0 for net in self._nets}
        for gate in self.topological_order():
            depth[gate.output] = 1 + max((depth[net] for net in gate.inputs), default=0)
        return max((depth[net] for net in self.outputs), default=0)

    # ------------------------------------------------------------------ #
    # Ordering and evaluation
    # ------------------------------------------------------------------ #
    def _invalidate_caches(self) -> None:
        self._order_cache = None
        self._compiled_cache = None

    def compiled(self):
        """The cached bit-packed program for this netlist, compiled at
        most once per topology."""
        if self._compiled_cache is None:
            from repro.circuit.compiled import compile_netlist
            self._compiled_cache = compile_netlist(self)
        return self._compiled_cache

    def __getstate__(self) -> Dict[str, object]:
        """Pickle without the derived caches.

        The compiled program holds kernel references and large index
        arrays that are cheaper to rebuild in the receiving process
        (where it is cached again) than to serialise — this is what lets
        the multiprocess runtime backend ship netlists to workers.
        """
        state = self.__dict__.copy()
        state["_order_cache"] = None
        state["_compiled_cache"] = None
        return state

    def topological_order(self) -> List[Gate]:
        """Gates ordered so every gate appears after its drivers.

        Because :meth:`add_gate` refuses to read undeclared nets, the
        insertion order is already topological; this method validates the
        invariant and caches the result.
        """
        if self._order_cache is not None:
            return self._order_cache
        seen = set(self.inputs) | {CONST0, CONST1}
        for gate in self.gates:
            for net in gate.inputs:
                if net not in seen:
                    raise NetlistError(
                        f"netlist {self.name!r} is not topologically ordered: gate "
                        f"{gate.name!r} reads {net!r} before it is driven")
            seen.add(gate.output)
        self._order_cache = list(self.gates)
        return self._order_cache

    def evaluate(self, input_values: Mapping[str, BitValues]) -> Dict[str, np.ndarray]:
        """Zero-delay logic evaluation on the compiled program.

        ``input_values`` maps every primary input net to 0/1 values: a
        scalar or an array, all broadcastable to one shape.  Returns the
        value of every net, constants included, as a ``uint8`` array of
        that shape.
        """
        checked = []
        for net in self.inputs:
            if net not in input_values:
                raise SimulationError(f"missing value for primary input {net!r}")
            checked.append(_binary(net, input_values[net]))
        try:
            stimulus = np.broadcast_arrays(*checked)
        except ValueError:
            raise SimulationError("input values do not broadcast to one shape") from None
        shape = stimulus[0].shape if stimulus else ()
        size = int(np.prod(shape))
        values = self.compiled().evaluate(
            {net: bits.reshape(size) for net, bits in zip(self.inputs, stimulus)}, size)
        return {net: row.reshape(shape) for net, row in values.items()}

    # ------------------------------------------------------------------ #
    # Word-level convenience
    # ------------------------------------------------------------------ #
    def encode_bus(self, bus: str, words: np.ndarray) -> Dict[str, np.ndarray]:
        """Expand integer words into per-net values of a registered bus (LSB first)."""
        if bus not in self.buses:
            raise NetlistError(f"netlist {self.name!r} has no bus {bus!r}")
        nets = self.buses[bus]
        words = np.asarray(words, dtype=np.uint64)
        if words.size and int(words.max()) > mask(len(nets)):
            raise SimulationError(f"word value exceeds {len(nets)}-bit bus {bus!r}")
        return {net: ((words >> np.uint64(i)) & np.uint64(1)).astype(np.uint8)
                for i, net in enumerate(nets)}

    def expand_operands(self, operands: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Expand word-level operands into per-net 0/1 ``uint8`` values.

        Keys of ``operands`` may be registered bus names (values are
        integer words, one per cycle) or individual primary-input nets
        (values are 0/1).  Every entry must have the same shape, every
        value must fit its bus or be 0/1, and the expansion must drive
        every primary input; a
        :class:`~repro.exceptions.SimulationError` is raised otherwise.
        This is the one expansion behind :meth:`compute_words` and both
        timing simulators.
        """
        expanded: Dict[str, np.ndarray] = {}
        shape: Optional[Tuple[int, ...]] = None
        for name, values in operands.items():
            values = np.asarray(values)
            if name in self.buses:
                expanded.update(self.encode_bus(name, values))
            elif name in self.inputs:
                expanded[name] = _binary(name, values)
            else:
                raise SimulationError(f"unknown operand {name!r}: not a bus or input net")
            if shape is None:
                shape = values.shape
            elif values.shape != shape:
                raise SimulationError("all operands must have the same shape")
        missing = [net for net in self.inputs if net not in expanded]
        if missing:
            raise SimulationError(f"operand trace does not drive inputs {missing}")
        return expanded

    def compute_words(self, operand_words: Mapping[str, np.ndarray],
                      output_bus: str = "S") -> np.ndarray:
        """Evaluate the netlist on word-level operands and decode an output bus.

        ``operand_words`` is what :meth:`expand_operands` takes, of any
        shape; the words come back in that shape.  Only the requested
        output bus is unpacked from the packed value matrix, which keeps
        word-level characterisation traffic proportional to the bus
        width rather than the netlist size.
        """
        if output_bus not in self.buses:
            raise NetlistError(f"netlist {self.name!r} has no bus {output_bus!r}")
        bits = self.expand_operands(operand_words)
        shape = next(iter(bits.values())).shape if bits else ()
        size = int(np.prod(shape))
        words = self.compiled().compute_words(
            {net: values.reshape(size) for net, values in bits.items()}, size,
            self.buses[output_bus])
        return words.reshape(shape)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"Netlist({self.name!r}, gates={self.num_gates}, "
                f"inputs={len(self.inputs)}, outputs={len(self.outputs)})")


def _binary(net: str, values: BitValues) -> np.ndarray:
    """``values`` of one input net as ``uint8``, checked to be 0/1 only."""
    values = np.asarray(values)
    if values.size and (values.max() > 1 or values.min() < 0):
        raise SimulationError(f"input {net!r} carries non-binary values")
    return values.astype(np.uint8, copy=False)

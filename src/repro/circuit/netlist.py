"""Netlist graph and zero-delay logic evaluation.

A :class:`Netlist` is a flat gate-level description: named nets, primary
inputs/outputs, and :class:`Gate` instances referencing cells from
:mod:`repro.circuit.cells`.  Nets are identified by strings; the special
nets :data:`CONST0` and :data:`CONST1` are always available and carry
constant values.

Buses (e.g. the 32 bits of operand ``A``) are registered by the adder
generators so that encoding integer operands into per-net values and
decoding output words back into integers is uniform across the library.

The stimulus shape picks the evaluation path.  A batch of equally long
1-D cycle arrays runs the netlist lowered once into a bit-packed
:class:`~repro.circuit.compiled.CompiledProgram` (64 cycles per
``uint64`` word); any other shape (scalars, matrices) walks the gates in
topological order with per-gate ``uint8`` NumPy calls.  Both are
bit-exact against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

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
        self._eval_plan: Optional[List[Tuple[Callable, Tuple[str, ...], str]]] = None
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

    def cell_histogram(self) -> Dict[str, int]:
        """Number of instances of each cell type."""
        histogram: Dict[str, int] = {}
        for gate in self.gates:
            histogram[gate.cell] = histogram.get(gate.cell, 0) + 1
        return histogram

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
        self._eval_plan = None
        self._compiled_cache = None

    def evaluation_plan(self) -> List[Tuple[Callable, Tuple[str, ...], str]]:
        """Cached ``(cell function, input nets, output net)`` triples.

        Resolving each gate's cell definition once here keeps the
        per-gate evaluation loop free of per-call dictionary lookups.
        """
        if self._eval_plan is None:
            self._eval_plan = [(cell(gate.cell).function, gate.inputs, gate.output)
                               for gate in self.topological_order()]
        return self._eval_plan

    def compiled(self):
        """The cached bit-packed program for this netlist, compiled at
        most once per topology."""
        if self._compiled_cache is None:
            from repro.circuit.compiled import compile_netlist
            self._compiled_cache = compile_netlist(self)
        return self._compiled_cache

    def __getstate__(self) -> Dict[str, object]:
        """Pickle without the derived caches.

        The evaluation plan and the compiled programs hold kernel
        references and large index arrays that are cheaper to rebuild in
        the receiving process (where they are cached again) than to
        serialise — this is what lets the multiprocess runtime backend
        ship netlists to workers.
        """
        state = self.__dict__.copy()
        state["_order_cache"] = None
        state["_eval_plan"] = None
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
        """Zero-delay logic evaluation.

        ``input_values`` maps every primary input net to a 0/1 scalar or
        array; all arrays must share a shape.  Returns the value of every
        net: from the bit-packed program when the stimulus is a batch of
        equally long 1-D arrays, else from the per-gate ``uint8`` loop.
        """
        checked: Dict[str, np.ndarray] = {}
        for net in self.inputs:
            if net not in input_values:
                raise SimulationError(f"missing value for primary input {net!r}")
            arr = np.asarray(input_values[net], dtype=np.uint8)
            if arr.size and arr.max() > 1:
                raise SimulationError(f"input {net!r} carries non-binary values")
            checked[net] = arr

        length = self._packed_length(checked)
        if length is not None:
            return self.compiled().evaluate(checked, length)

        values: Dict[str, np.ndarray] = {
            CONST0: np.asarray(0, dtype=np.uint8),
            CONST1: np.asarray(1, dtype=np.uint8),
        }
        values.update(checked)
        for function, input_nets, output in self.evaluation_plan():
            values[output] = function(*[values[net] for net in input_nets])
        return values

    def _packed_length(self, checked: Mapping[str, np.ndarray]) -> Optional[int]:
        """Trace length when the stimulus fits the packed program, else None."""
        length: Optional[int] = None
        for arr in checked.values():
            if arr.ndim != 1:
                return None
            if length is None:
                length = int(arr.shape[0])
            elif int(arr.shape[0]) != length:
                return None
        if not length:
            return None
        return length

    def evaluate_outputs(self, input_values: Mapping[str, BitValues]) -> List[np.ndarray]:
        """Zero-delay evaluation returning only the primary outputs, in order.

        Constant or pass-through outputs are broadcast to the shape of the
        primary-input stimulus so callers always receive consistent shapes.
        """
        values = self.evaluate(input_values)
        shape = ()
        for net in self.inputs:
            arr = np.asarray(values[net])
            if arr.ndim > 0:
                shape = arr.shape
                break
        outputs = []
        for net in self.outputs:
            arr = np.asarray(values[net], dtype=np.uint8)
            if arr.shape != shape:
                arr = np.broadcast_to(arr, shape).copy()
            outputs.append(arr)
        return outputs

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

    def decode_bus(self, bus: str, values: Mapping[str, np.ndarray]) -> np.ndarray:
        """Assemble per-net values of a registered bus back into integer words."""
        if bus not in self.buses:
            raise NetlistError(f"netlist {self.name!r} has no bus {bus!r}")
        nets = self.buses[bus]
        shape = None
        for net in nets:
            arr = np.asarray(values[net])
            if arr.ndim > 0:
                shape = arr.shape
                break
        words = np.zeros(shape if shape is not None else (), dtype=np.uint64)
        for i, net in enumerate(nets):
            bit = np.asarray(values[net], dtype=np.uint64)
            words = words | (bit << np.uint64(i))
        return words

    def compute_words(self, operand_words: Mapping[str, np.ndarray],
                      output_bus: str = "S") -> np.ndarray:
        """Evaluate the netlist on word-level operands and decode an output bus.

        Keys of ``operand_words`` may be registered bus names (values are
        integer words) or individual primary-input nets (values are 0/1).
        On the bit-packed program only the requested output bus is
        unpacked from the packed value matrix, which keeps word-level
        characterisation traffic proportional to the bus width rather
        than the netlist size.
        """
        if output_bus not in self.buses:
            raise NetlistError(f"netlist {self.name!r} has no bus {output_bus!r}")
        input_values: Dict[str, np.ndarray] = {}
        for name, words in operand_words.items():
            if name in self.buses:
                input_values.update(self.encode_bus(name, words))
            elif name in self.inputs:
                arr = np.asarray(words, dtype=np.uint8)
                if arr.size and arr.max() > 1:
                    raise SimulationError(f"input {name!r} carries non-binary values")
                input_values[name] = arr
            else:
                raise NetlistError(f"unknown operand {name!r}: not a bus or input net")
        missing = [net for net in self.inputs if net not in input_values]
        if missing:
            raise SimulationError(f"operands do not cover primary inputs {missing}")

        length = self._packed_length(input_values)
        if length is not None:
            return self.compiled().compute_words(input_values, length,
                                                 self.buses[output_bus])
        return self.decode_bus(output_bus, self.evaluate(input_values))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"Netlist({self.name!r}, gates={self.num_gates}, "
                f"inputs={len(self.inputs)}, outputs={len(self.outputs)})")

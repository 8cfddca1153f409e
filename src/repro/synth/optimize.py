"""Logic optimisation: constant propagation and dead-logic removal.

The structural generators purposely emit straightforward logic (a
constant-0 speculated carry still feeds regular carry-look-ahead cells,
unused block carry-outs are still computed).  A synthesis tool would
sweep all of that away; :func:`optimize` reproduces the two passes that
matter for the timing behaviour of the paper's designs, alternating them
until the netlist stops shrinking:

* constant propagation — folds constants through the logic and
  simplifies gates with constant or redundant inputs (an AND with a
  constant-0 speculated carry disappears, a MUX with a constant select
  becomes a wire, ...);
* dead-logic removal — removes logic that no primary output depends on
  (e.g. the carry-out chain of a speculative segment whose COMP block is
  absent).

Both passes run in place over an integer-indexed in-memory view of the
netlist (:class:`_IndexedDesign`) with path-compressed alias resolution;
a real :class:`~repro.circuit.netlist.Netlist` is materialised once, at
the end.  ``tests/reference_kernels.py`` keeps the netlist-per-pass
formulation as a test oracle, which shares the simplification table and
the fresh-name allocator below and must produce gate-identical netlists
(``tests/test_synth_vector.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.circuit.netlist import CONST0, CONST1, Netlist

#: Returned by the simplifier: either a constant, an alias to another net,
#: or a (possibly rewritten) gate.
_Simplified = Tuple[str, object]


def _simplify(cell: str, inputs: List[object], values: List[Optional[int]]) -> _Simplified:
    """Simplify one gate given its input tokens and their constant values.

    ``inputs`` are opaque tokens (net IDs in :func:`optimize`, net names
    in the test oracle); ``values[i]`` is 0/1 when token ``i`` is a
    constant, else ``None``.  Returns ``("const", 0/1)``,
    ``("alias", token)`` or ``("gate", (cell, tokens))`` where a token may
    be wrapped in :class:`_Inverted`.
    """
    if all(value is not None for value in values):
        from repro.circuit.cells import cell as cell_lookup
        result = int(cell_lookup(cell).evaluate(*values))
        return ("const", result)

    def gate(new_cell: str, *nets: object) -> _Simplified:
        return ("gate", (new_cell, list(nets)))

    if cell == "BUF":
        return ("alias", inputs[0])
    if cell == "INV":
        return gate("INV", inputs[0])

    if cell in ("AND2", "AND3"):
        if 0 in values:
            return ("const", 0)
        live = [net for net, value in zip(inputs, values) if value is None]
        if len(live) == 1:
            return ("alias", live[0])
        if len(live) == 2:
            return gate("AND2", *live)
        return gate(cell, *inputs)
    if cell in ("OR2", "OR3"):
        if 1 in values:
            return ("const", 1)
        live = [net for net, value in zip(inputs, values) if value is None]
        if len(live) == 1:
            return ("alias", live[0])
        if len(live) == 2:
            return gate("OR2", *live)
        return gate(cell, *inputs)
    if cell == "NAND2":
        if 0 in values:
            return ("const", 1)
        live = [net for net, value in zip(inputs, values) if value is None]
        if len(live) == 1:
            return gate("INV", live[0])
        return gate(cell, *inputs)
    if cell == "NOR2":
        if 1 in values:
            return ("const", 0)
        live = [net for net, value in zip(inputs, values) if value is None]
        if len(live) == 1:
            return gate("INV", live[0])
        return gate(cell, *inputs)
    if cell in ("XOR2", "XNOR2"):
        invert = cell == "XNOR2"
        live = [net for net, value in zip(inputs, values) if value is None]
        constant_parity = sum(value for value in values if value is not None) % 2
        if constant_parity == 1:
            invert = not invert
        if len(live) == 1:
            return gate("INV", live[0]) if invert else ("alias", live[0])
        return gate("XNOR2" if invert else "XOR2", *live)
    if cell == "MUX2":
        d0, d1, sel = inputs
        sel_value = values[2]
        if sel_value == 0:
            return ("alias", d0) if values[0] is None else ("const", values[0])
        if sel_value == 1:
            return ("alias", d1) if values[1] is None else ("const", values[1])
        if values[0] == 0 and values[1] == 1:
            return ("alias", sel)
        if values[0] == 1 and values[1] == 0:
            return gate("INV", sel)
        if d0 == d1:
            return ("alias", d0)
        if values[0] == 0:
            return gate("AND2", d1, sel)
        if values[1] == 0:
            return gate("AND2", d0, _invert_marker(sel))
        if values[0] == 1:
            return gate("OR2", d1, _invert_marker(sel))
        if values[1] == 1:
            return gate("OR2", d0, sel)
        return gate(cell, *inputs)
    if cell == "MAJ3":
        a, b, c = inputs
        if 0 in values:
            live = [net for net, value in zip(inputs, values) if value is None]
            if len(live) == 2:
                return gate("AND2", *live)
            if len(live) == 1:
                return ("const", 0) if values.count(0) >= 2 else ("alias", live[0])
        if 1 in values:
            live = [net for net, value in zip(inputs, values) if value is None]
            if len(live) == 2:
                return gate("OR2", *live)
            if len(live) == 1:
                return ("const", 1) if values.count(1) >= 2 else ("alias", live[0])
        return gate(cell, *inputs)
    if cell == "AOI21":
        a, b, c = inputs
        if values[2] == 1:
            return ("const", 0)
        if values[2] == 0:
            live = [net for net, value in zip((a, b), values[:2]) if value is None]
            if len(live) == 2:
                return gate("NAND2", a, b)
            if len(live) == 1:
                return gate("INV", live[0]) if 1 in values[:2] else ("const", 1)
        if values[0] == 0 or values[1] == 0:
            return gate("INV", c)
        if values[0] == 1:
            return gate("NOR2", b, c)
        if values[1] == 1:
            return gate("NOR2", a, c)
        return gate(cell, *inputs)
    if cell == "OAI21":
        a, b, c = inputs
        if values[2] == 0:
            return ("const", 1)
        if values[2] == 1:
            live = [net for net, value in zip((a, b), values[:2]) if value is None]
            if len(live) == 2:
                return gate("NOR2", a, b)
            if len(live) == 1:
                return gate("INV", live[0]) if 0 in values[:2] else ("const", 0)
        if values[0] == 1 or values[1] == 1:
            return gate("INV", c)
        if values[0] == 0:
            return gate("NAND2", b, c)
        if values[1] == 0:
            return gate("NAND2", a, c)
        return gate(cell, *inputs)
    return ("gate", (cell, list(inputs)))


class _Inverted:
    """Sentinel wrapper signalling that a token must be inverted before use."""

    __slots__ = ("net",)

    def __init__(self, net: object) -> None:
        self.net = net


def _invert_marker(net: object) -> _Inverted:
    return _Inverted(net)


def _fresh_inverter_names(gate_name: str, output_net: str, pin: int,
                          taken_gates: Set[str], taken_nets: Set[str]
                          ) -> Tuple[str, str]:
    """Collision-free (gate name, net name) for an expanded inverter.

    The natural ``{output_net}_inv_{pin}`` can collide with a net that
    already exists in the design (nothing stops a generator from naming a
    net that way); serial suffixes disambiguate.  Claims the names in the
    ``taken`` sets so one pass never mints the same name twice.
    """
    fresh_gate = f"{gate_name}_inv_{pin}"
    fresh_net = f"{output_net}_inv_{pin}"
    serial = 1
    while fresh_net in taken_nets or fresh_gate in taken_gates:
        fresh_gate = f"{gate_name}_inv_{pin}_{serial}"
        fresh_net = f"{output_net}_inv_{pin}_{serial}"
        serial += 1
    taken_gates.add(fresh_gate)
    taken_nets.add(fresh_net)
    return fresh_gate, fresh_net


# --------------------------------------------------------------------- #
# Indexed optimisation passes
# --------------------------------------------------------------------- #
class _IndexedDesign:
    """A netlist lowered to integer net IDs for the in-place passes.

    IDs follow the levelisation scheme shared with the timing kernels:
    ``const0`` = 0, ``const1`` = 1, inputs, then every further net in
    creation order.  Gates are mutable ``[name, cell, input IDs, output
    ID]`` records; aliasing is a path-compressed forest over an ID-indexed
    list, so no per-pass netlist object or dict-of-strings chasing is
    needed until :meth:`materialise` builds the final result.
    """

    def __init__(self, netlist: Netlist) -> None:
        self.name = netlist.name
        self.inputs = list(netlist.inputs)
        self.net_names: List[str] = []
        self.net_id: Dict[str, int] = {}
        #: alias[i] == i means net i is its own root.
        self.alias: List[int] = []
        for name in (CONST0, CONST1, *self.inputs):
            self.intern(name)
        self.gates: List[list] = []
        for gate in netlist.topological_order():
            input_ids = [self.net_id[net] for net in gate.inputs]
            self.gates.append([gate.name, gate.cell, input_ids,
                               self.intern(gate.output)])
        self.output_ids = [self.net_id[net] for net in netlist.outputs]
        self.bus_ids = {bus: [self.net_id[net] for net in nets]
                        for bus, nets in netlist.buses.items()}

    def intern(self, name: str) -> int:
        """The ID of ``name``, allocating a fresh unaliased one if new."""
        net_id = self.net_id.get(name)
        if net_id is None:
            net_id = self.net_id[name] = len(self.net_names)
            self.net_names.append(name)
            self.alias.append(net_id)
        return net_id

    def resolve(self, net_id: int) -> int:
        """Root of ``net_id`` in the alias forest, with path compression."""
        alias = self.alias
        root = alias[net_id]
        while alias[root] != root:
            root = alias[root]
        while alias[net_id] != root:
            alias[net_id], net_id = root, alias[net_id]
        return root

    def materialise(self) -> Netlist:
        """Build the real netlist for the current gate list."""
        new = Netlist(self.name)
        names = self.net_names
        for net in self.inputs:
            new.add_input(net)
        # The pass invariants (collision-checked names, topological gate
        # order, inputs resolved to live nets) are exactly what add_gate
        # would re-check per gate; install in bulk instead.
        new.install_gates([
            (name, cell_name, tuple(names[net] for net in input_ids),
             names[output_id])
            for name, cell_name, input_ids, output_id in self.gates])
        for net in self.output_ids:
            new.add_output(names[net])
        for bus, nets in self.bus_ids.items():
            new.register_bus(bus, [names[net] for net in nets])
        return new


def _propagate_pass(design: _IndexedDesign) -> None:
    """One constant-propagation sweep over the indexed design (in place)."""
    resolve = design.resolve
    names = design.net_names
    taken_nets = {names[0], names[1], *design.inputs}
    taken_nets.update(names[record[3]] for record in design.gates)
    taken_gates = {record[0] for record in design.gates}
    alias = design.alias
    new_gates: List[list] = []
    for record in design.gates:
        name, cell_name, input_ids, output_id = record
        resolved = [resolve(net) for net in input_ids]
        # Fast path: no constant inputs and no possible structural rewrite
        # means _simplify provably returns the gate unchanged.
        if (min(resolved) > 1 and cell_name != "BUF"
                and not (cell_name == "MUX2" and resolved[0] == resolved[1])):
            record[2] = resolved
            new_gates.append(record)
            continue
        values = [net if net < 2 else None for net in resolved]
        kind, payload = _simplify(cell_name, resolved, values)
        if kind == "const":
            alias[output_id] = 1 if payload else 0
            continue
        if kind == "alias":
            alias[output_id] = resolve(payload)
            continue
        new_cell, cell_inputs = payload
        final_inputs: List[int] = []
        for token in cell_inputs:
            if isinstance(token, _Inverted):
                inv_gate, inv_net = _fresh_inverter_names(
                    name, names[output_id], len(final_inputs),
                    taken_gates, taken_nets)
                inv_id = design.intern(inv_net)
                new_gates.append([inv_gate, "INV", [token.net], inv_id])
                final_inputs.append(inv_id)
            else:
                final_inputs.append(token)
        new_gates.append([name, new_cell, final_inputs, output_id])
    design.gates = new_gates
    design.output_ids = [resolve(net) for net in design.output_ids]
    design.bus_ids = {bus: [resolve(net) for net in nets]
                      for bus, nets in design.bus_ids.items()}


def _prune_pass(design: _IndexedDesign) -> None:
    """Drop gates no primary output depends on (in place)."""
    needed = bytearray(len(design.net_names))
    for net in design.output_ids:
        needed[net] = 1
    kept: List[bool] = []
    for record in reversed(design.gates):
        keep = bool(needed[record[3]])
        if keep:
            for net in record[2]:
                needed[net] = 1
        kept.append(keep)
    kept.reverse()
    design.gates = [record for record, keep in zip(design.gates, kept) if keep]


def optimize(netlist: Netlist, max_passes: int = 4) -> Netlist:
    """Run constant propagation and pruning until the netlist stops shrinking."""
    design = _IndexedDesign(netlist)
    for _ in range(max_passes):
        before = len(design.gates)
        _propagate_pass(design)
        _prune_pass(design)
        if len(design.gates) >= before:
            break
    return design.materialise()

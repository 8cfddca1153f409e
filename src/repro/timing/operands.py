"""Word-level operand expansion shared by the timing simulators.

Both simulators accept the same stimulus dict: keys are registered bus
names (values are integer words, one per cycle) or individual primary
input nets (values are 0/1 arrays).  This module centralises the
expansion into per-net bit traces and its validation, which used to be
copy-pasted between the fast and the event-driven simulator.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from repro.circuit.netlist import Netlist
from repro.exceptions import SimulationError
from repro.utils.lru import IdentityMemo

#: Entries kept by :func:`expand_operand_traces_interned`; each holds the
#: expanded per-net bit arrays of one (operand arrays, bus layout) pair.
_INTERN_CACHE: "IdentityMemo[Dict[str, np.ndarray]]" = IdentityMemo(16)


def expand_operand_traces(netlist: Netlist,
                          operands: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Expand word-level buses / scalar nets into per-net 0/1 bit traces.

    Every entry of ``operands`` must carry the same number of cycles, and
    the expansion must drive every primary input of ``netlist``; a
    :class:`~repro.exceptions.SimulationError` is raised otherwise.
    """
    expanded: Dict[str, np.ndarray] = {}
    length: Optional[int] = None
    for name, values in operands.items():
        values = np.asarray(values)
        if name in netlist.buses:
            expanded.update(netlist.encode_bus(name, values.astype(np.uint64)))
        elif name in netlist.inputs:
            expanded[name] = values.astype(np.uint8)
        else:
            raise SimulationError(f"unknown operand {name!r}: not a bus or input net")
        current_length = int(values.shape[0])
        if length is None:
            length = current_length
        elif current_length != length:
            raise SimulationError("all operand traces must have the same length")
    missing = [net for net in netlist.inputs if net not in expanded]
    if missing:
        raise SimulationError(f"operand trace does not drive inputs {missing}")
    return expanded


def expand_operand_traces_interned(netlist: Netlist,
                                   operands: Mapping[str, np.ndarray]
                                   ) -> Dict[str, np.ndarray]:
    """Like :func:`expand_operand_traces`, memoised per operand identity.

    A design-space sweep expands the *same* workload trace once per
    design; the expansion only depends on the operand arrays and the
    netlist's bus layout (the ordered net lists of the buses driven), so
    two designs sharing a layout can share the expanded bit traces.
    Entries are keyed by the identity of the operand arrays (an
    :class:`~repro.utils.lru.IdentityMemo`, so a recycled ``id`` can
    never alias) plus the layout signature, in a small
    least-recently-used cache.

    Callers must treat the returned arrays as read-only — they are
    shared with every other caller of the same key.
    """
    signature = []
    sources = []
    for name in sorted(operands):
        sources.append(operands[name])
        layout = tuple(netlist.buses[name]) if name in netlist.buses else None
        signature.append((name, layout))
    # The full input list takes part in the key: expansion validates that
    # every primary input is driven, and that check must not be skipped
    # for a netlist with extra inputs that happens to share bus layouts.
    extra = (tuple(netlist.inputs), tuple(signature))
    anchors = tuple(sources)
    expanded = _INTERN_CACHE.get(anchors, extra=extra)
    if expanded is None:
        expanded = _INTERN_CACHE.put(anchors,
                                     expand_operand_traces(netlist, operands),
                                     extra=extra)
    return expanded


def trace_length(bit_traces: Mapping[str, np.ndarray]) -> int:
    """Common cycle count of expanded bit traces (validated)."""
    lengths = {int(values.shape[0]) for values in bit_traces.values()}
    if len(lengths) != 1:
        raise SimulationError("inconsistent trace lengths after expansion")
    return lengths.pop()

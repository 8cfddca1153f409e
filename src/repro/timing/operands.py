"""Memoised operand expansion and trace length for the timing simulators.

Both simulators accept the stimulus dict of
:meth:`~repro.circuit.netlist.Netlist.expand_operands`: keys are
registered bus names (values are integer words, one per cycle) or
individual primary input nets (values are 0/1 arrays).  That method is
the one expansion into per-net bit traces and its validation; this
module memoises it across designs for batched sweeps and reads the
common cycle count of its result.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.circuit.netlist import Netlist
from repro.exceptions import SimulationError
from repro.utils.lru import IdentityMemo

#: Entries kept by :func:`expand_operand_traces_interned`; each holds the
#: expanded per-net bit arrays of one (operand arrays, bus layout) pair.
_INTERN_CACHE: "IdentityMemo[Dict[str, np.ndarray]]" = IdentityMemo(16)


def expand_operand_traces_interned(netlist: Netlist,
                                   operands: Mapping[str, np.ndarray]
                                   ) -> Dict[str, np.ndarray]:
    """:meth:`Netlist.expand_operands`, memoised per operand identity.

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
        expanded = _INTERN_CACHE.put(anchors, netlist.expand_operands(operands),
                                     extra=extra)
    return expanded


def trace_length(bit_traces: Mapping[str, np.ndarray]) -> int:
    """Common cycle count of expanded bit traces, which must be 1-D."""
    shapes = {values.shape for values in bit_traces.values()}
    if len(shapes) != 1 or len(next(iter(shapes))) != 1:
        raise SimulationError("a timing trace needs one 1-D array per operand")
    return shapes.pop()[0]

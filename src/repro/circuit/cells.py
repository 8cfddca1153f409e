"""Functional models of the standard-cell set.

Each :class:`Cell` has a name, its input pins and one boolean *kernel*
written with the bitwise operators ``&``, ``|``, ``^`` and ``~`` only.
The cell set is intentionally small — the adder generators in
:mod:`repro.synth` only need basic gates — but large enough to express
carry-look-ahead, parallel-prefix and compensation logic compactly.

The kernel is the cell's only definition, and it serves every operand
form.  On ``uint64`` words whose 64 bits are 64 independent simulation
cycles it runs as it is: the compiled programs of
:mod:`repro.circuit.compiled` evaluate a whole gate batch for 64 cycles
per NumPy call.  Inversion is bitwise NOT, so every bit lane stays
independent.  On 0/1 Python ints or ``uint8`` arrays,
:meth:`Cell.evaluate` masks the result with ``& 1``: ``~`` sets every
higher bit, and bit 0 alone carries the cell's value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence

import numpy as np

from repro.exceptions import NetlistError

BitArray = np.ndarray
EvalFn = Callable[..., BitArray]


def _inv(a):
    return ~a


def _buf(a):
    return a


def _and2(a, b):
    return a & b


def _or2(a, b):
    return a | b


def _nand2(a, b):
    return ~(a & b)


def _nor2(a, b):
    return ~(a | b)


def _xor2(a, b):
    return a ^ b


def _xnor2(a, b):
    return ~(a ^ b)


def _and3(a, b, c):
    return a & b & c


def _or3(a, b, c):
    return a | b | c


def _mux2(d0, d1, sel):
    return (d0 & ~sel) | (d1 & sel)


def _maj3(a, b, c):
    return (a & b) | (a & c) | (b & c)


def _aoi21(a, b, c):
    """Inverted (a AND b) OR c — a common compact carry cell."""
    return ~((a & b) | c)


def _oai21(a, b, c):
    """Inverted (a OR b) AND c."""
    return ~((a | b) & c)


@dataclass(frozen=True)
class Cell:
    """A standard cell: name, port names and boolean kernel.

    ``kernel`` is the bitwise function of the cell: applied to packed
    ``uint64`` words it is what the compiled programs of
    :mod:`repro.circuit.compiled` run, and :meth:`evaluate` applies it
    to 0/1 values.
    """

    name: str
    inputs: Sequence[str]
    kernel: EvalFn
    description: str = ""

    @property
    def arity(self) -> int:
        """Number of input pins."""
        return len(self.inputs)

    def evaluate(self, *operands) -> BitArray:
        """Evaluate the cell on 0/1 Python ints or on 0/1 ``uint8`` arrays.

        One call takes one of the two: an inverted Python int is
        negative, which NumPy refuses to combine with an unsigned array.
        """
        if len(operands) != self.arity:
            raise NetlistError(
                f"cell {self.name} expects {self.arity} inputs, got {len(operands)}")
        return self.kernel(*operands) & 1


CELLS: Dict[str, Cell] = {
    "INV": Cell("INV", ("a",), _inv, "inverter"),
    "BUF": Cell("BUF", ("a",), _buf, "buffer"),
    "AND2": Cell("AND2", ("a", "b"), _and2, "2-input AND"),
    "OR2": Cell("OR2", ("a", "b"), _or2, "2-input OR"),
    "NAND2": Cell("NAND2", ("a", "b"), _nand2, "2-input NAND"),
    "NOR2": Cell("NOR2", ("a", "b"), _nor2, "2-input NOR"),
    "XOR2": Cell("XOR2", ("a", "b"), _xor2, "2-input XOR"),
    "XNOR2": Cell("XNOR2", ("a", "b"), _xnor2, "2-input XNOR"),
    "AND3": Cell("AND3", ("a", "b", "c"), _and3, "3-input AND"),
    "OR3": Cell("OR3", ("a", "b", "c"), _or3, "3-input OR"),
    "MUX2": Cell("MUX2", ("d0", "d1", "sel"), _mux2, "2:1 multiplexer"),
    "MAJ3": Cell("MAJ3", ("a", "b", "c"), _maj3, "3-input majority (carry cell)"),
    "AOI21": Cell("AOI21", ("a", "b", "c"), _aoi21, "AND-OR-invert 2-1"),
    "OAI21": Cell("OAI21", ("a", "b", "c"), _oai21, "OR-AND-invert 2-1"),
}


def cell(name: str) -> Cell:
    """Look up a cell by name, raising :class:`NetlistError` for unknown cells."""
    try:
        return CELLS[name]
    except KeyError:
        raise NetlistError(f"unknown cell type {name!r}; known cells: {sorted(CELLS)}") from None

"""Functional models of the standard-cell set.

Each :class:`Cell` has a name, an input arity and a vectorised evaluation
function working on NumPy ``uint8`` arrays of 0/1 values (plain Python
ints also work because NumPy broadcasting handles scalars).  The cell set
is intentionally small — the adder generators in :mod:`repro.synth` only
need basic gates — but large enough to express carry-look-ahead,
parallel-prefix and compensation logic compactly.

Every cell additionally carries a *packed* kernel operating on ``uint64``
words whose 64 bits are 64 independent simulation cycles.  The packed
kernels are what the compiled programs in :mod:`repro.circuit.compiled`
execute: one NumPy bitwise operation evaluates a gate for 64 cycles at
once.  Packed kernels express inversion as bitwise NOT (``~``) instead of
``1 - x`` so every bit lane stays independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence

import numpy as np

from repro.exceptions import NetlistError

BitArray = np.ndarray
EvalFn = Callable[..., BitArray]


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


# --------------------------------------------------------------------- #
# Packed (64-cycles-per-word) kernels.  Operands are uint64 arrays whose
# bits are independent cycles, so inversion must be bitwise NOT.
# --------------------------------------------------------------------- #
def _p_inv(a):
    return ~a


def _p_buf(a):
    return a.copy()


def _p_and2(a, b):
    return a & b


def _p_or2(a, b):
    return a | b


def _p_nand2(a, b):
    return ~(a & b)


def _p_nor2(a, b):
    return ~(a | b)


def _p_xor2(a, b):
    return a ^ b


def _p_xnor2(a, b):
    return ~(a ^ b)


def _p_and3(a, b, c):
    return a & b & c


def _p_or3(a, b, c):
    return a | b | c


def _p_mux2(d0, d1, sel):
    return (d0 & ~sel) | (d1 & sel)


def _p_maj3(a, b, c):
    return (a & b) | (a & c) | (b & c)


def _p_aoi21(a, b, c):
    return ~((a & b) | c)


def _p_oai21(a, b, c):
    return ~((a | b) & c)


@dataclass(frozen=True)
class Cell:
    """A standard cell: name, port names and boolean function.

    ``packed_function`` is the bit-parallel kernel the compiled programs
    of :mod:`repro.circuit.compiled` run; every cell has one.
    """

    name: str
    inputs: Sequence[str]
    function: EvalFn
    packed_function: EvalFn
    description: str = ""

    @property
    def arity(self) -> int:
        """Number of input pins."""
        return len(self.inputs)

    def evaluate(self, *operands) -> BitArray:
        """Evaluate the cell on 0/1 scalars or arrays."""
        if len(operands) != self.arity:
            raise NetlistError(
                f"cell {self.name} expects {self.arity} inputs, got {len(operands)}")
        return self.function(*operands)


CELLS: Dict[str, Cell] = {
    "INV": Cell("INV", ("a",), _inv, _p_inv, "inverter"),
    "BUF": Cell("BUF", ("a",), _buf, _p_buf, "buffer"),
    "AND2": Cell("AND2", ("a", "b"), _and2, _p_and2, "2-input AND"),
    "OR2": Cell("OR2", ("a", "b"), _or2, _p_or2, "2-input OR"),
    "NAND2": Cell("NAND2", ("a", "b"), _nand2, _p_nand2, "2-input NAND"),
    "NOR2": Cell("NOR2", ("a", "b"), _nor2, _p_nor2, "2-input NOR"),
    "XOR2": Cell("XOR2", ("a", "b"), _xor2, _p_xor2, "2-input XOR"),
    "XNOR2": Cell("XNOR2", ("a", "b"), _xnor2, _p_xnor2, "2-input XNOR"),
    "AND3": Cell("AND3", ("a", "b", "c"), _and3, _p_and3, "3-input AND"),
    "OR3": Cell("OR3", ("a", "b", "c"), _or3, _p_or3, "3-input OR"),
    "MUX2": Cell("MUX2", ("d0", "d1", "sel"), _mux2, _p_mux2, "2:1 multiplexer"),
    "MAJ3": Cell("MAJ3", ("a", "b", "c"), _maj3, _p_maj3, "3-input majority (carry cell)"),
    "AOI21": Cell("AOI21", ("a", "b", "c"), _aoi21, _p_aoi21, "AND-OR-invert 2-1"),
    "OAI21": Cell("OAI21", ("a", "b", "c"), _oai21, _p_oai21, "OR-AND-invert 2-1"),
}


def cell(name: str) -> Cell:
    """Look up a cell by name, raising :class:`NetlistError` for unknown cells."""
    try:
        return CELLS[name]
    except KeyError:
        raise NetlistError(f"unknown cell type {name!r}; known cells: {sorted(CELLS)}") from None

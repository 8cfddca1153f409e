"""Bit-manipulation helpers used throughout the library.

The behavioural adder models work on plain Python integers (exact,
arbitrary precision) and on NumPy ``uint64`` arrays (vectorised
characterisation over millions of vectors).  The helpers in this module
provide the small set of bit-field operations both paths need, with a
consistent LSB-first bit-numbering convention: bit ``0`` is the least
significant bit.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.exceptions import ConfigurationError

IntOrArray = Union[int, np.ndarray]


def mask(width: int) -> int:
    """Return an integer with the ``width`` least-significant bits set.

    ``mask(0)`` is ``0`` and negative widths are rejected.
    """
    if width < 0:
        raise ConfigurationError(f"mask width must be non-negative, got {width}")
    return (1 << width) - 1


def bit_field(value: IntOrArray, offset: int, width: int) -> IntOrArray:
    """Extract ``width`` bits starting at bit ``offset`` (LSB-first).

    Works on Python integers and on NumPy integer arrays alike.
    """
    if offset < 0:
        raise ConfigurationError(f"bit offset must be non-negative, got {offset}")
    field_mask = mask(width)
    if isinstance(value, np.ndarray):
        return (value >> np.uint64(offset)) & np.uint64(field_mask)
    return (int(value) >> offset) & field_mask


def set_bit_field(value: IntOrArray, offset: int, width: int, field: IntOrArray) -> IntOrArray:
    """Return ``value`` with bits ``[offset, offset + width)`` replaced by ``field``."""
    if offset < 0:
        raise ConfigurationError(f"bit offset must be non-negative, got {offset}")
    field_mask = mask(width)
    if isinstance(value, np.ndarray):
        cleared = value & ~np.uint64(field_mask << offset)
        field_arr = (np.asarray(field).astype(np.uint64) & np.uint64(field_mask)) << np.uint64(offset)
        return cleared | field_arr
    return (int(value) & ~(field_mask << offset)) | ((int(field) & field_mask) << offset)


def extract_bits_matrix(values: np.ndarray, width: int) -> np.ndarray:
    """Unpack a vector of integers into a ``(len(values), width)`` 0/1 matrix.

    Column ``j`` holds bit ``j`` (LSB-first).  Used to build bit-level
    feature matrices for the timing-error prediction model.
    """
    values = np.asarray(values, dtype=np.uint64)
    shifts = np.arange(width, dtype=np.uint64)
    return ((values[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)

"""Shared low-level utilities: bit manipulation, RNG handling, validation."""

from repro.utils.bitops import (
    bit_field,
    extract_bits_matrix,
    mask,
    set_bit_field,
)
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import (
    check_non_negative_int,
    check_positive_int,
    check_probability,
    is_positive_finite,
)

__all__ = [
    "bit_field",
    "extract_bits_matrix",
    "mask",
    "set_bit_field",
    "ensure_rng",
    "spawn_rngs",
    "check_non_negative_int",
    "check_positive_int",
    "check_probability",
    "is_positive_finite",
]

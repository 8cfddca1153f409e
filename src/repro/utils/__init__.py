"""Shared low-level utilities: bit manipulation, RNG handling, validation."""

from repro.utils.bitops import (
    bit_field,
    bit_length_of,
    bits_to_int,
    extract_bit,
    extract_bits_matrix,
    int_to_bits,
    mask,
    saturate_field,
    set_bit_field,
    signed_magnitude_position,
)
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import (
    check_in_range,
    check_non_negative_int,
    check_positive_int,
    check_probability,
    is_positive_finite,
)

__all__ = [
    "bit_field",
    "bit_length_of",
    "bits_to_int",
    "extract_bit",
    "extract_bits_matrix",
    "int_to_bits",
    "mask",
    "saturate_field",
    "set_bit_field",
    "signed_magnitude_position",
    "ensure_rng",
    "spawn_rngs",
    "check_in_range",
    "check_non_negative_int",
    "check_positive_int",
    "check_probability",
    "is_positive_finite",
]

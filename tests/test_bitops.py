"""Unit tests for repro.utils.bitops."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.exceptions import ConfigurationError
from repro.utils import bitops


class TestMask:
    def test_zero_width(self):
        assert bitops.mask(0) == 0

    def test_small_widths(self):
        assert bitops.mask(1) == 1
        assert bitops.mask(4) == 0xF
        assert bitops.mask(32) == 0xFFFFFFFF

    def test_negative_width_rejected(self):
        with pytest.raises(ConfigurationError):
            bitops.mask(-1)


class TestBitField:
    def test_extract_scalar(self):
        assert bitops.bit_field(0b1011_0110, 2, 4) == 0b1101

    def test_extract_array(self):
        values = np.array([0b1111, 0b1010], dtype=np.uint64)
        field = bitops.bit_field(values, 1, 2)
        assert field.tolist() == [0b11, 0b01]

    def test_negative_offset_rejected(self):
        with pytest.raises(ConfigurationError):
            bitops.bit_field(5, -1, 2)

    def test_set_field_scalar(self):
        assert bitops.set_bit_field(0b0000_0000, 2, 3, 0b101) == 0b0001_0100

    def test_set_field_array(self):
        values = np.array([0, 0xFF], dtype=np.uint64)
        updated = bitops.set_bit_field(values, 4, 4, 0b1010)
        assert updated.tolist() == [0xA0, 0xAF]

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=0, max_value=28),
           st.integers(min_value=1, max_value=8))
    def test_roundtrip_property(self, value, offset, width):
        field = bitops.bit_field(value, offset, width)
        rebuilt = bitops.set_bit_field(value, offset, width, field)
        assert rebuilt == value


class TestExtractBitsMatrix:
    def test_shape_and_values(self):
        matrix = bitops.extract_bits_matrix(np.array([0b0110, 0b1001], dtype=np.uint64), 4)
        assert matrix.shape == (2, 4)
        assert matrix[0].tolist() == [0, 1, 1, 0]
        assert matrix[1].tolist() == [1, 0, 0, 1]

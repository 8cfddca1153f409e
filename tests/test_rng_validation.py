"""Unit tests for repro.utils.rng and repro.utils.validation."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.utils.rng import derive_seed, ensure_rng, spawn_rngs
from repro.utils.validation import (
    check_non_negative_int,
    check_positive_int,
    check_probability,
)


class TestEnsureRng:
    def test_from_int_is_deterministic(self):
        first = ensure_rng(42).integers(0, 1000, 5)
        second = ensure_rng(42).integers(0, 1000, 5)
        assert first.tolist() == second.tolist()

    def test_passthrough_generator(self):
        generator = np.random.default_rng(1)
        assert ensure_rng(generator) is generator

    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(7, 5)) == 5

    def test_deterministic(self):
        first = [g.integers(0, 100) for g in spawn_rngs(7, 3)]
        second = [g.integers(0, 100) for g in spawn_rngs(7, 3)]
        assert first == second

    def test_streams_differ(self):
        streams = spawn_rngs(7, 2)
        assert streams[0].integers(0, 2**31) != streams[1].integers(0, 2**31)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)


class TestDeriveSeed:
    def test_none_stays_none(self):
        assert derive_seed(None, 3) is None

    def test_deterministic_and_salted(self):
        assert derive_seed(5, 1) == derive_seed(5, 1)
        assert derive_seed(5, 1) != derive_seed(5, 2)


class TestValidationHelpers:
    def test_positive_int_accepts(self):
        assert check_positive_int("x", 3) == 3

    @pytest.mark.parametrize("value", [0, -1, 1.5, True])
    def test_positive_int_rejects(self, value):
        with pytest.raises(ConfigurationError):
            check_positive_int("x", value)

    def test_non_negative_accepts_zero(self):
        assert check_non_negative_int("x", 0) == 0

    def test_non_negative_rejects(self):
        with pytest.raises(ConfigurationError):
            check_non_negative_int("x", -2)

    def test_probability_bounds(self):
        assert check_probability("p", 0.0) == 0.0
        assert check_probability("p", 1.0) == 1.0
        with pytest.raises(ConfigurationError):
            check_probability("p", 1.5)

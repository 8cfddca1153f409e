"""Tests for workload generators and operand traces."""

import pickle

import numpy as np
import pytest

from repro.exceptions import WorkloadError
from repro.utils.bitops import mask
from repro.workloads.generators import (
    WorkloadSpec,
    correlated_workload,
    gaussian_workload,
    ramp_workload,
    sparse_workload,
    uniform_workload,
)
from repro.workloads.traces import OperandTrace


class TestOperandTrace:
    def test_basic_properties(self):
        trace = OperandTrace(np.array([1, 2, 3], dtype=np.uint64),
                             np.array([4, 5, 6], dtype=np.uint64), width=8, name="t")
        assert trace.length == 3 and len(trace) == 3
        assert trace.transitions == 2

    def test_operand_bits_memoized_and_never_pickled(self):
        trace = OperandTrace(np.array([1, 6], dtype=np.uint64),
                             np.array([4, 3], dtype=np.uint64), width=3)
        bits = trace.operand_bits()
        assert bits.dtype == np.uint8
        assert bits.tolist() == [[1, 0, 0, 0, 0, 1], [0, 1, 1, 1, 1, 0]]  # A, then B, LSB first
        assert trace.operand_bits() is bits and not bits.flags.writeable
        clone = pickle.loads(pickle.dumps(trace))
        assert "_bits_cache" not in clone.__dict__
        assert np.array_equal(clone.operand_bits(), bits)

    def test_as_operands_contains_cin(self):
        trace = uniform_workload(5, width=8, seed=0)
        operands = trace.as_operands(cin=1)
        assert set(operands) == {"A", "B", "cin"}
        assert operands["cin"].tolist() == [1] * 5

    def test_range_validation(self):
        with pytest.raises(WorkloadError):
            OperandTrace(np.array([300], dtype=np.uint64), np.array([0], dtype=np.uint64),
                         width=8)

    def test_shape_validation(self):
        with pytest.raises(WorkloadError):
            OperandTrace(np.zeros(3, dtype=np.uint64), np.zeros(2, dtype=np.uint64), width=8)

    def test_split(self):
        trace = uniform_workload(100, width=8, seed=0)
        first, second = trace.split(0.6)
        assert first.length == 60 and second.length == 40
        assert np.array_equal(np.concatenate([first.a, second.a]), trace.a)

    def test_split_bounds(self):
        trace = uniform_workload(10, width=8, seed=0)
        with pytest.raises(WorkloadError):
            trace.split(0.0)
        with pytest.raises(WorkloadError):
            trace.split(0.99)

    def test_take(self):
        trace = uniform_workload(10, width=8, seed=0)
        assert trace.take(4).length == 4
        with pytest.raises(WorkloadError):
            trace.take(11)


class TestGenerators:
    @pytest.mark.parametrize("generator", [uniform_workload, correlated_workload,
                                           gaussian_workload, sparse_workload, ramp_workload])
    def test_respects_width_and_length(self, generator):
        trace = generator(64, width=16, seed=5)
        assert trace.length == 64
        assert trace.width == 16
        assert int(trace.a.max()) <= mask(16)
        assert int(trace.b.max()) <= mask(16)

    def test_uniform_is_seed_deterministic(self):
        first = uniform_workload(32, seed=3)
        second = uniform_workload(32, seed=3)
        assert np.array_equal(first.a, second.a)

    def test_uniform_spans_the_range(self):
        trace = uniform_workload(3000, width=32, seed=1)
        assert int(trace.a.max()) > 2**31

    def test_correlated_has_smaller_steps_than_uniform(self):
        correlated = correlated_workload(500, width=32, seed=2, correlation=0.98)
        uniform = uniform_workload(500, width=32, seed=2)
        correlated_step = np.mean(np.abs(np.diff(correlated.a.astype(np.int64))))
        uniform_step = np.mean(np.abs(np.diff(uniform.a.astype(np.int64))))
        assert correlated_step < uniform_step

    def test_sparse_mostly_small_values(self):
        trace = sparse_workload(500, width=32, seed=3, density=0.1)
        small = np.mean(trace.a < 2**8)
        assert small > 0.5

    def test_gaussian_centered(self):
        trace = gaussian_workload(2000, width=32, seed=4)
        mean = float(trace.a.mean()) / mask(32)
        assert 0.4 < mean < 0.6

    def test_ramp_is_deterministic(self):
        assert np.array_equal(ramp_workload(16, width=8).a, ramp_workload(16, width=8).a)

    def test_invalid_length(self):
        with pytest.raises(Exception):
            uniform_workload(0)


class TestWorkloadSpec:
    def test_generate_uniform(self):
        spec = WorkloadSpec(kind="uniform", length=20, width=16, seed=1)
        trace = spec.generate()
        assert trace.length == 20 and trace.width == 16

    def test_generate_with_parameters(self):
        spec = WorkloadSpec(kind="sparse", length=20, width=16, seed=1,
                            parameters=(("density", 0.5),))
        assert spec.generate().length == 20

    def test_unknown_kind(self):
        with pytest.raises(WorkloadError):
            WorkloadSpec(kind="bogus", length=10).generate()

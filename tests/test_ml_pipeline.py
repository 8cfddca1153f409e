"""Tests for feature extraction, datasets, metrics and the bit-level timing model."""

import numpy as np
import pytest

from repro.core.config import ISAConfig
from repro.core.isa import InexactSpeculativeAdder
from repro.exceptions import AnalysisError, ModelError
from repro.ml.dataset import build_bit_datasets, dataset_summary
from repro.ml.features import build_feature_matrix, feature_count, feature_names
from repro.ml.metrics import LOG_FLOOR, abper, avpe, classification_summary, floored
from repro.ml.model import BitLevelTimingModel, TimingModelOptions
from repro.timing.errors import TimingErrorTrace
from repro.timing.fast_sim import FastTimingSimulator
from repro.workloads.generators import uniform_workload
from repro.workloads.traces import OperandTrace


class TestFeatures:
    def test_shapes_and_names(self):
        trace = uniform_workload(50, width=16, seed=0)
        gold = trace.a + trace.b
        features = build_feature_matrix(trace, gold, bit=3)
        assert features.shape == (49, feature_count(16))
        assert len(feature_names(16)) == feature_count(16)

    def test_output_bit_features_are_last_two_columns(self):
        trace = OperandTrace(np.array([1, 2, 3], dtype=np.uint64),
                             np.array([0, 0, 0], dtype=np.uint64), width=4)
        gold = trace.a + trace.b  # 1, 2, 3
        features = build_feature_matrix(trace, gold, bit=0)
        # bit 0 of gold: 1, 0, 1 -> previous = [1, 0], current = [0, 1]
        assert features[:, -2].tolist() == [1, 0]
        assert features[:, -1].tolist() == [0, 1]

    def test_length_mismatch_rejected(self):
        trace = uniform_workload(10, width=8, seed=0)
        with pytest.raises(ModelError):
            build_feature_matrix(trace, np.zeros(5, dtype=np.uint64), bit=0)

    def test_single_vector_trace_rejected(self):
        trace = OperandTrace(np.array([1], dtype=np.uint64), np.array([2], dtype=np.uint64),
                             width=8)
        with pytest.raises(ModelError):
            build_feature_matrix(trace, np.array([3], dtype=np.uint64), bit=0)


class TestDatasets:
    def _setup(self):
        trace = uniform_workload(60, width=8, seed=1)
        gold = trace.a + trace.b
        # synthetic timing trace: bit 2 flips whenever operand bit 0 of A is set
        settled = gold[1:]
        flips = ((trace.a[1:] & np.uint64(1)) << np.uint64(2))
        sampled = settled ^ flips
        timing = TimingErrorTrace(clock_period=1e-10, sampled_words=sampled,
                                  settled_words=settled, output_width=9)
        return trace, gold, timing

    def test_one_dataset_per_bit(self):
        trace, gold, timing = self._setup()
        datasets = build_bit_datasets(trace, gold, timing)
        assert len(datasets) == 9
        assert all(dataset.samples == trace.transitions for dataset in datasets)

    def test_error_rates_match_injection(self):
        trace, gold, timing = self._setup()
        datasets = build_bit_datasets(trace, gold, timing)
        summary = dataset_summary(datasets)
        assert summary[2] > 0
        assert summary[5] == 0.0

    def test_transition_count_mismatch_rejected(self):
        trace, gold, timing = self._setup()
        short = uniform_workload(30, width=8, seed=2)
        with pytest.raises(ModelError):
            build_bit_datasets(short, short.a + short.b, timing)


class TestMetrics:
    def test_abper_counts_disagreements(self):
        predicted = np.array([[1, 1], [0, 1]])
        real = np.array([[1, 0], [0, 1]])
        assert abper(predicted, real) == pytest.approx(0.25)

    def test_abper_shape_mismatch(self):
        with pytest.raises(AnalysisError):
            abper(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_avpe_definition(self):
        predicted = np.array([10, 20, 30])
        real = np.array([10, 25, 30])
        assert avpe(predicted, real) == pytest.approx((0 + 5 / 25 + 0) / 3)

    def test_avpe_ignores_zero_real_values(self):
        assert avpe(np.array([1, 5]), np.array([0, 5])) == pytest.approx(0.0)

    def test_avpe_all_zero_rejected(self):
        with pytest.raises(AnalysisError):
            avpe(np.array([1]), np.array([0]))

    def test_floored(self):
        assert floored(0.0) == LOG_FLOOR
        assert floored(0.5) == 0.5

    def test_classification_summary(self):
        predicted = np.array([1, 1, 0, 0])
        real = np.array([1, 0, 1, 0])
        summary = classification_summary(predicted, real)
        assert summary["accuracy"] == pytest.approx(0.5)
        assert summary["precision"] == pytest.approx(0.5)
        assert summary["recall"] == pytest.approx(0.5)
        assert summary["error_rate"] == pytest.approx(0.5)


class TestBitLevelTimingModel:
    @pytest.fixture(scope="class")
    def trained_setup(self, request):
        """Train a model on a 16-bit ISA overclocked with the fast simulator."""
        from repro.synth.flow import synthesize
        config = ISAConfig(width=16, block_size=4, spec_size=0, correction=0, reduction=2)
        design = synthesize(config)
        adder = InexactSpeculativeAdder(config)
        train = uniform_workload(500, width=16, seed=11)
        test = uniform_workload(300, width=16, seed=12)
        simulator = FastTimingSimulator(design.netlist, design.annotation)
        clock = design.critical_path_delay * 0.85
        train_timing = simulator.run_trace(train.as_operands(), clock)
        test_timing = simulator.run_trace(test.as_operands(), clock)
        model = BitLevelTimingModel(design=config.name, clock_period=clock, output_width=17,
                                    options=TimingModelOptions(n_estimators=4, max_depth=6))
        model.fit(train, adder.add_many(train.a, train.b), train_timing)
        return model, adder, test, test_timing

    def test_model_reports_fitted_state(self, trained_setup):
        model, _, _, _ = trained_setup
        assert model.is_fitted
        assert "BitLevelTimingModel" in model.describe()

    def test_prediction_shapes(self, trained_setup):
        model, adder, test, _ = trained_setup
        gold = adder.add_many(test.a, test.b)
        errors = model.predict_error_matrix(test, gold)
        assert errors.shape == (test.transitions, 17)
        classes = model.predict_timing_classes(test, gold)
        assert np.array_equal(classes, 1 - errors)
        silver = model.predict_silver(test, gold)
        assert silver.shape == (test.transitions,)

    def test_model_beats_or_matches_trivial_predictor(self, trained_setup):
        """The trained model's ABPER must not exceed the all-correct baseline's."""
        model, adder, test, test_timing = trained_setup
        gold = adder.add_many(test.a, test.b)
        metrics = model.evaluate(test, gold, test_timing)
        baseline = float(test_timing.error_bits().mean())
        assert metrics["abper"] <= baseline + 0.02
        assert metrics["avpe"] >= 0.0

    def test_evaluate_predicts_once(self, trained_setup, monkeypatch):
        """One evaluation is one prediction: the timing classes, the silver
        words and the classification summary all come from one error matrix."""
        from repro.ml.forest import RandomForestClassifier
        model, adder, test, test_timing = trained_setup
        gold = adder.add_many(test.a, test.b)
        expected_summary = classification_summary(model.predict_error_matrix(test, gold),
                                                  test_timing.error_bits())
        expected_abper = abper(model.predict_timing_classes(test, gold),
                               test_timing.timing_classes())
        expected_avpe = avpe(model.predict_silver(test, gold), test_timing.sampled_words)
        calls = {"matrix": 0, "forest": 0}

        def counting(owner, name, key):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counting(BitLevelTimingModel, "predict_error_matrix", "matrix")
        counting(RandomForestClassifier, "predict_proba", "forest")
        metrics = model.evaluate(test, gold, test_timing)
        assert calls == {"matrix": 1, "forest": len(model.trained_bits)}
        assert metrics["abper"] == expected_abper
        assert metrics["avpe"] == expected_avpe
        for key in ("precision", "recall", "error_rate"):
            assert metrics[key] == expected_summary[key]

    def test_unfitted_model_rejected(self):
        model = BitLevelTimingModel(design="x", clock_period=1e-10, output_width=5)
        trace = uniform_workload(10, width=4, seed=0)
        with pytest.raises(ModelError):
            model.predict_error_matrix(trace, trace.a + trace.b)

    def test_output_width_mismatch_rejected(self):
        model = BitLevelTimingModel(design="x", clock_period=1e-10, output_width=5)
        trace = uniform_workload(20, width=4, seed=0)
        gold = trace.a + trace.b
        timing = TimingErrorTrace(clock_period=1e-10, sampled_words=gold[1:],
                                  settled_words=gold[1:], output_width=6)
        with pytest.raises(ModelError):
            model.fit(trace, gold, timing)

    def test_error_free_training_gives_constant_model(self):
        trace = uniform_workload(40, width=8, seed=5)
        gold = trace.a + trace.b
        timing = TimingErrorTrace(clock_period=1e-10, sampled_words=gold[1:],
                                  settled_words=gold[1:], output_width=9)
        model = BitLevelTimingModel(design="clean", clock_period=1e-10, output_width=9)
        model.fit(trace, gold, timing)
        assert model.trained_bits == []
        predictions = model.predict_error_matrix(trace, gold)
        assert predictions.sum() == 0
        assert np.array_equal(model.predict_silver(trace, gold), gold[1:])

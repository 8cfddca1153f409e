"""Integration tests for the experiment drivers (tiny trace lengths).

These tests run the real pipelines end to end — synthesis, timing
simulation, model training, error combination — but with very short
traces and the fast simulator so the suite stays quick.  The qualitative
checks mirror the paper's headline observations.
"""

import dataclasses

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.common import StudyConfig, characterize_design
from repro.experiments.designs import (
    FIG10_QUADRUPLE,
    PAPER_QUADRUPLES,
    exact_entry,
    isa_entry,
    paper_design_entries,
)
from repro.experiments.fig9_rms import fig9_rows_from_characterization
from repro.experiments.fig10_distribution import run_fig10
from repro.experiments.prediction import run_prediction_study, study_design
from repro.ml.forest import RandomForestClassifier
from repro.ml.model import BitLevelTimingModel, TimingModelOptions
from repro.ml.tree import DecisionTreeClassifier


@pytest.fixture(scope="module")
def tiny_config():
    """Very small study configuration used by the integration tests."""
    return StudyConfig(characterization_length=250, training_length=250,
                       evaluation_length=200, seed=5, simulator="fast")


@pytest.fixture(scope="module")
def tiny_entries():
    """A representative subset of designs: one per block size plus the exact adder."""
    return [isa_entry((8, 0, 0, 4)), isa_entry((16, 2, 1, 6)), exact_entry()]


class TestDesignCatalogue:
    def test_paper_has_eleven_isa_designs(self):
        assert len(PAPER_QUADRUPLES) == 11

    def test_entries_include_exact_last(self):
        entries = paper_design_entries()
        assert len(entries) == 12
        assert entries[-1].is_exact
        assert entries[0].name == "(8,0,0,0)"

    def test_fig10_design_is_in_the_catalogue(self):
        assert FIG10_QUADRUPLE in PAPER_QUADRUPLES

    def test_isa_entry_roundtrip(self):
        entry = isa_entry((16, 7, 0, 8))
        assert entry.name == "(16,7,0,8)"
        assert not entry.is_exact


class TestStudyConfig:
    def test_defaults(self):
        config = StudyConfig()
        assert config.simulator == "event"
        assert len(config.clock_plan.periods) == 3

    def test_invalid_simulator(self):
        with pytest.raises(ConfigurationError):
            StudyConfig(simulator="spice")

    def test_too_short_traces_rejected(self):
        with pytest.raises(ConfigurationError):
            StudyConfig(training_length=2)

    def test_scaled_down(self):
        config = StudyConfig(trace_scale=1.0).scaled_down(0.1)
        assert config.trace_scale == pytest.approx(0.1)
        assert config.characterization_trace().length == 400
        with pytest.raises(ConfigurationError):
            StudyConfig().scaled_down(0)

    def test_traces_are_deterministic(self, tiny_config):
        assert np.array_equal(tiny_config.characterization_trace().a,
                              tiny_config.characterization_trace().a)
        assert not np.array_equal(tiny_config.characterization_trace().a,
                                  tiny_config.training_trace().a)


class TestCharacterization:
    def test_characterize_isa(self, tiny_config):
        entry = isa_entry((8, 0, 0, 4))
        trace = tiny_config.characterization_trace()
        characterization = characterize_design(entry, trace, tiny_config,
                                               collect_structural_stats=True)
        assert characterization.name == "(8,0,0,4)"
        assert characterization.structural_stats is not None
        assert set(characterization.timing_traces) == set(tiny_config.clock_plan.periods)
        # the golden words differ from the exact (diamond) words on some cycles
        assert np.any(characterization.gold_words != characterization.diamond_words)
        # and the timing simulation settles to the golden words
        for timing in characterization.timing_traces.values():
            assert np.array_equal(timing.settled_words, characterization.gold_words[1:])

    def test_characterize_exact(self, tiny_config):
        characterization = characterize_design(exact_entry(), tiny_config.characterization_trace(),
                                               tiny_config)
        assert np.array_equal(characterization.gold_words, characterization.diamond_words)
        assert characterization.structural_stats is None

    def test_unknown_clock_lookup_rejected(self, tiny_config):
        characterization = characterize_design(isa_entry((8, 0, 0, 0)),
                                               tiny_config.characterization_trace(), tiny_config)
        with pytest.raises(ConfigurationError):
            characterization.timing_trace(1.0)


class TestFig9:
    @pytest.fixture(scope="class")
    def fig9_result(self, tiny_config, tiny_entries):
        trace = tiny_config.characterization_trace()
        characterizations = [characterize_design(entry, trace, tiny_config)
                             for entry in tiny_entries]
        rows = []
        for characterization in characterizations:
            rows.extend(fig9_rows_from_characterization(characterization, tiny_config))
        from repro.experiments.fig9_rms import Fig9Result
        return Fig9Result(rows=rows, cpr_levels=tiny_config.clock_plan.cpr_levels)

    def test_row_count(self, fig9_result, tiny_entries, tiny_config):
        assert len(fig9_result.rows) == len(tiny_entries) * len(tiny_config.clock_plan.cpr_levels)

    def test_exact_adder_has_no_structural_error(self, fig9_result):
        for cpr in (0.05, 0.10, 0.15):
            assert fig9_result.row("exact", cpr).structural_rms == 0.0

    def test_isa_structural_error_is_cpr_independent(self, fig9_result):
        values = {fig9_result.row("(8,0,0,4)", cpr).structural_rms for cpr in (0.05, 0.10, 0.15)}
        assert len(values) == 1

    def test_low_accuracy_isa_has_larger_structural_error(self, fig9_result):
        low = fig9_result.row("(8,0,0,4)", 0.05).structural_rms
        high = fig9_result.row("(16,2,1,6)", 0.05).structural_rms
        assert low > high

    def test_timing_error_grows_with_cpr(self, fig9_result):
        for design in ("exact", "(16,2,1,6)"):
            series = [fig9_result.row(design, cpr).timing_rms for cpr in (0.05, 0.10, 0.15)]
            assert series[0] <= series[1] <= series[2]

    def test_formatting(self, fig9_result):
        text = fig9_result.format_table()
        assert "Fig. 9" in text and "(8,0,0,4)" in text and "exact" in text
        nested = fig9_result.to_dict()
        assert "5%" in nested and "exact" in nested["5%"]
        assert fig9_result.best_design(0.05) != ""
        assert fig9_result.worst_design(0.15) != ""

    def test_unknown_row_lookup(self, fig9_result):
        with pytest.raises(KeyError):
            fig9_result.row("nope", 0.05)


class TestFig10:
    def test_distribution_shape(self, tiny_config):
        result = run_fig10(tiny_config)
        assert result.distribution.design == "(8,0,0,4)"
        assert result.distribution.structural.shape == (33,)
        # structural errors concentrate just below the block boundaries
        peaks = result.structural_peak_positions(top=4)
        assert all(4 <= position < 24 for position in peaks)
        assert "Fig. 10" in result.format_table()

    def test_supplied_characterization_must_have_stats(self, tiny_config):
        entry = isa_entry(FIG10_QUADRUPLE)
        characterization = characterize_design(entry, tiny_config.characterization_trace(),
                                               tiny_config, collect_structural_stats=False)
        with pytest.raises(ValueError):
            run_fig10(tiny_config, characterization=characterization)


class TestPredictionStudy:
    def test_single_design_study(self, tiny_config):
        rows = study_design(isa_entry((16, 1, 0, 2)), tiny_config,
                            tiny_config.training_trace(), tiny_config.evaluation_trace())
        assert len(rows) == 3
        for row in rows:
            assert row.abper >= 1e-6
            assert row.avpe >= 1e-6
            assert 0.0 <= row.precision <= 1.0
            assert 0.0 <= row.recall <= 1.0

    def test_study_predicts_each_cell_once(self, tiny_config, monkeypatch):
        """Each (design, CPR) cell predicts its held-out trace once: one
        error matrix, and one feature matrix per trained bit for the fit
        and one for the prediction (a bit that trains constant gets none)."""
        import repro.ml.model as model_module
        calls = {"matrix": 0, "features": 0}
        predict, build = (model_module.BitLevelTimingModel.predict_error_matrix,
                          model_module.build_feature_matrix)

        def counted_predict(*args, **kwargs):
            calls["matrix"] += 1
            return predict(*args, **kwargs)

        def counted_build(*args, **kwargs):
            calls["features"] += 1
            return build(*args, **kwargs)

        monkeypatch.setattr(model_module.BitLevelTimingModel, "predict_error_matrix",
                            counted_predict)
        monkeypatch.setattr(model_module, "build_feature_matrix", counted_build)
        rows = study_design(isa_entry((16, 1, 0, 2)), tiny_config,
                            tiny_config.training_trace(), tiny_config.evaluation_trace())
        assert calls["matrix"] == len(rows)
        assert calls["features"] == 2 * sum(row.trained_bits for row in rows)

    def test_full_study_formatting(self, tiny_config):
        config = StudyConfig(characterization_length=100, training_length=120,
                             evaluation_length=100, seed=3, simulator="fast")
        result = run_prediction_study(config)
        assert len(result.rows) == 12 * 3
        abper_table = result.format_abper_table()
        avpe_table = result.format_avpe_table()
        assert "Fig. 7" in abper_table and "Fig. 8" in avpe_table
        assert "(16,7,0,8)" in abper_table
        assert "exact" in result.to_dict()["5%"]


class TestForestPool:
    """``run_prediction_study`` fits each distinct per-bit problem once, through one pool
    of fitted forests, and its rows are those of models that each fit every bit."""

    @staticmethod
    def study(config, monkeypatch):
        """The study's rows, and the ``(seed, X, y)`` of every forest and the count of
        trees it fitted."""
        fits, trees = [], []
        forest_fit, tree_fit = RandomForestClassifier.fit, DecisionTreeClassifier.fit

        def counted_forest(self, X, y):
            fits.append((self.seed, X.shape, X.tobytes(), y.tobytes()))
            return forest_fit(self, X, y)

        def counted_tree(self, X, y):
            trees.append(1)
            return tree_fit(self, X, y)

        with monkeypatch.context() as patch:
            patch.setattr(RandomForestClassifier, "fit", counted_forest)
            patch.setattr(DecisionTreeClassifier, "fit", counted_tree)
            rows = run_prediction_study(config).rows
        return rows, fits, len(trees)

    def test_each_distinct_problem_fitted_once_and_rows_unchanged(self, tiny_config,
                                                                  monkeypatch):
        rows, fits, trees = self.study(tiny_config, monkeypatch)
        fit = BitLevelTimingModel.fit

        def fresh_pool(self, trace, gold_words, timing_trace, pool=None):
            return fit(self, trace, gold_words, timing_trace, {})

        # The same study with a fresh pool for every model: each fits every trained bit.
        with monkeypatch.context() as patch:
            patch.setattr(BitLevelTimingModel, "fit", fresh_pool)
            unpooled_rows, every_fit, _ = self.study(tiny_config, monkeypatch)
        assert repr(rows) == repr(unpooled_rows)
        assert len(every_fit) == sum(row.trained_bits for row in rows)
        assert len(fits) < len(every_fit)  # designs sharing a low block share problems
        assert sorted(fits) == sorted(set(every_fit))
        assert trees == tiny_config.model.n_estimators * len(fits)

    @pytest.mark.parametrize("seed", [None, "generator"])
    def test_a_forest_that_would_grow_again_differently_is_never_shared(
            self, tiny_config, monkeypatch, seed):
        seed = np.random.default_rng(11) if seed == "generator" else seed
        config = dataclasses.replace(tiny_config, model=TimingModelOptions(seed=seed))
        rows, fits, trees = self.study(config, monkeypatch)
        assert len(fits) == sum(row.trained_bits for row in rows)
        assert trees == config.model.n_estimators * len(fits)

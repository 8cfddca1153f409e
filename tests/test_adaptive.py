"""Tests of the adaptive frontier-guided explorer (repro.explore.adaptive).

The contract under test: the quadruple feature matrix agrees with the
analytic `ISAConfig` properties; the search respects its budget and
stays inside the candidate space; the same seed reproduces the same
batches (and therefore a warm result cache serves a re-run with zero
simulated jobs); the recovered frontier is a subset of the measured
points; and — the headline claim — at width 16 the search recovers at
least 90 % of the exhaustive frontier while simulating at most 20 % of
the 889-quadruple space, under the serial and multiprocess backends
alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ISAConfig
from repro.exceptions import ConfigurationError
from repro.experiments.designs import exact_entry
from repro.explore.adaptive import (
    AdaptiveSpec,
    RoundLog,
    candidate_matrix,
    frontier_recall,
    quadruple_features,
    run_adaptive,
)
from repro.explore.cli import main as explore_main
from repro.explore.pareto import aggregate_points, frontier_keys, pareto_frontier
from repro.explore.space import DesignSpace
from repro.explore.sweep import SweepSpec, run_sweep, sweep_clock_plan
from repro.obs import telemetry_run
from repro.runtime import CachingBackend, SerialBackend
from repro.settings import using_settings
from repro.workloads.generators import WorkloadSpec

WIDTH = 16


def sweep_template(width=WIDTH, length=64, cpr_levels=(0.0, 0.10)) -> SweepSpec:
    """Template sweep of the adaptive tests: entries replaced per batch."""
    return SweepSpec(entries=(exact_entry(width),),
                     clock_plan=sweep_clock_plan(cpr_levels),
                     workloads=(WorkloadSpec("uniform", length, width=width, seed=11),),
                     width=width)


@pytest.fixture(scope="module")
def exhaustive_width16():
    """Exhaustive width-16 sweep: the reference frontier of the recall tests."""
    space = DesignSpace(width=WIDTH)
    template = sweep_template()
    result = run_sweep(template.with_entries(space.entries(include_exact=True)),
                       backend="serial")
    frontier = pareto_frontier(aggregate_points(result.points))
    return space, template, frontier


class TestQuadrupleFeatures:
    def test_provable_exactness_matches_isaconfig(self):
        space = DesignSpace(width=WIDTH)
        quadruples = candidate_matrix(space)
        features = quadruple_features(quadruples, WIDTH)
        column = features[:, 6]
        for row, quadruple in zip(column, space.iter_quadruples()):
            config = ISAConfig.from_quadruple(quadruple, width=WIDTH)
            assert bool(row) == config.is_provably_exact

    def test_feature_values(self):
        features = quadruple_features(np.array([[8, 2, 1, 4]]), 16)
        block, spec, correction, reduction, overhead = features[0, :5]
        assert (block, spec, correction, reduction) == (8.0, 2.0, 1.0, 4.0)
        assert overhead == 7.0
        assert features[0, 5] == 2.0  # num_blocks
        assert features[0, 7] == pytest.approx(2 / 8)
        assert features[0, 10] == pytest.approx(8 / 16)

    def test_candidate_matrix_matches_enumeration(self):
        space = DesignSpace(width=8)
        matrix = candidate_matrix(space)
        assert matrix.shape == (space.size, 4)
        assert [tuple(row) for row in matrix] == space.quadruples()


class TestAdaptiveSpecValidation:
    def test_width_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            AdaptiveSpec(space=DesignSpace(width=8), sweep=sweep_template(width=16))

    def test_bad_knobs_rejected(self):
        space, template = DesignSpace(width=WIDTH), sweep_template()
        with pytest.raises(ConfigurationError):
            AdaptiveSpec(space=space, sweep=template, batch_size=0)
        with pytest.raises(ConfigurationError):
            AdaptiveSpec(space=space, sweep=template, budget_fraction=0.0)
        with pytest.raises(ConfigurationError):
            AdaptiveSpec(space=space, sweep=template, budget_fraction=1.5)
        with pytest.raises(ConfigurationError):
            AdaptiveSpec(space=space, sweep=template, budget=0)
        with pytest.raises(ConfigurationError):
            AdaptiveSpec(space=space, sweep=template, patience=0)
        with pytest.raises(ConfigurationError):
            AdaptiveSpec(space=space, sweep=template, explore_fraction=1.0)
        with pytest.raises(ConfigurationError):
            AdaptiveSpec(space=space, sweep=template,
                         neighbor_fraction=0.6, explore_fraction=0.4)

    def test_resolved_budget(self):
        spec = AdaptiveSpec(space=DesignSpace(width=WIDTH), sweep=sweep_template(),
                            budget_fraction=0.2)
        assert spec.resolved_budget(889) == 177  # floor: never over the fraction
        assert spec.resolved_budget(3) == 1
        absolute = AdaptiveSpec(space=DesignSpace(width=WIDTH),
                                sweep=sweep_template(), budget=40)
        assert absolute.resolved_budget(889) == 40


class TestFrontierRecall:
    def test_identity_and_empty(self, exhaustive_width16):
        _, _, frontier = exhaustive_width16
        assert frontier_recall(frontier, frontier) == 1.0
        assert frontier_recall([], frontier) == 1.0
        assert frontier_recall(frontier, []) == 0.0


class TestAdaptiveSearch:
    def test_recall_at_width16_serial(self, exhaustive_width16):
        """The headline claim: >= 90 % frontier recall simulating <= 20 %
        of the 889-quadruple width-16 space."""
        space, template, reference = exhaustive_width16
        spec = AdaptiveSpec(space=space, sweep=template, seed=7)
        result = run_adaptive(spec, backend="serial")
        assert result.candidates == 889
        assert result.simulated <= int(np.ceil(0.2 * 889))
        assert result.fraction_simulated <= 0.2 + 1e-9
        assert frontier_recall(reference, result.frontier) >= 0.9

    def test_multiprocess_matches_serial(self, exhaustive_width16):
        """Batch selection is seed-deterministic, so the measured
        frontier is identical through either backend."""
        space, template, _ = exhaustive_width16
        spec = AdaptiveSpec(space=space, sweep=template, budget=60, seed=7)
        serial = run_adaptive(spec, backend="serial")
        parallel = run_adaptive(spec, backend="multiprocess", workers=2)
        assert frontier_keys(serial.frontier) == frontier_keys(parallel.frontier)
        assert serial.simulated == parallel.simulated == 60
        assert [log.simulated for log in serial.rounds] == \
            [log.simulated for log in parallel.rounds]

    def test_multiprocess_recall(self, exhaustive_width16):
        space, template, reference = exhaustive_width16
        spec = AdaptiveSpec(space=space, sweep=template, seed=7)
        result = run_adaptive(spec, backend="multiprocess", workers=2)
        assert frontier_recall(reference, result.frontier) >= 0.9
        assert result.fraction_simulated <= 0.2 + 1e-9

    def test_warm_cache_rerun_simulates_nothing(self, tmp_path):
        space = DesignSpace(width=WIDTH)
        spec = AdaptiveSpec(space=space, sweep=sweep_template(), budget=30, seed=7)
        backend = CachingBackend(SerialBackend(), tmp_path)
        cold = run_adaptive(spec, backend=backend)
        cold_misses = backend.stats.misses
        assert cold_misses > 0
        warm = run_adaptive(spec, backend=backend)
        assert backend.stats.misses == cold_misses  # zero new simulations
        assert frontier_keys(cold.frontier) == frontier_keys(warm.frontier)

    def test_budget_and_rounds_respected(self):
        space = DesignSpace(width=WIDTH)
        spec = AdaptiveSpec(space=space, sweep=sweep_template(), budget=20,
                            batch_size=4, max_rounds=3, seed=7)
        result = run_adaptive(spec, backend="serial")
        # seed batch (2 x batch) plus at most max_rounds acquisition batches
        assert result.simulated <= 8 + 3 * 4
        assert len(result.rounds) <= 4
        assert result.budget == 20

    def test_frontier_is_measured_only(self):
        space = DesignSpace(width=WIDTH, block_sizes=(8,), max_overhead_bits=2)
        spec = AdaptiveSpec(space=space, sweep=sweep_template(), budget_fraction=0.5,
                            batch_size=4, seed=7)
        result = run_adaptive(spec, backend="serial")
        measured = {point.design for point in result.points}
        assert all(point.design in measured for point in result.frontier)
        simulated_quadruples = {point.quadruple for point in result.points
                                if point.quadruple is not None}
        assert len(simulated_quadruples) == result.simulated

    def test_progress_callback_and_round_logs(self):
        space = DesignSpace(width=WIDTH, block_sizes=(8,), max_overhead_bits=2)
        seen = []
        spec = AdaptiveSpec(space=space, sweep=sweep_template(), budget=12,
                            batch_size=4, seed=7)
        result = run_adaptive(spec, backend="serial", progress=seen.append)
        assert seen == result.rounds
        assert all(isinstance(log, RoundLog) for log in seen)
        assert seen[0].index == 0 and seen[0].scored == 0
        assert "seed" in seen[0].describe()
        assert seen[-1].total_simulated == result.simulated
        if len(seen) > 1:
            assert seen[1].scored > 0
            assert "round 1" in seen[1].describe()

    def test_phases_cover_the_search(self):
        """Surrogate fits, batch selection and frontier filtering are
        phases, so the run's own manifest attributes nearly all its time."""
        spec = AdaptiveSpec(space=DesignSpace(width=WIDTH), sweep=sweep_template(),
                            budget=60, seed=7)
        # Synthesis-cache reads and writes carry no span, so a configured
        # cache would dilute the ratio this test is about.
        with using_settings(synth_cache=None), \
                telemetry_run(None, command="adaptive", inline=True) as handle:
            result = run_adaptive(spec, backend="serial")
        phases, rounds = handle.manifest["phases"], len(result.rounds)
        assert rounds > 1
        assert phases["surrogate"]["calls"] == phases["select"]["calls"] == rounds - 1
        assert phases["pareto"]["calls"] == rounds
        assert handle.manifest["attributed_fraction"] >= 0.9

    def test_describe_mentions_budget_and_fraction(self):
        space = DesignSpace(width=WIDTH, block_sizes=(8,), max_overhead_bits=2)
        spec = AdaptiveSpec(space=space, sweep=sweep_template(), budget=8,
                            batch_size=4, seed=7)
        result = run_adaptive(spec, backend="serial")
        text = result.describe()
        assert "budget 8" in text
        assert "% of the space" in text


class TestAdaptiveCli:
    def test_adaptive_flag_runs_search(self, tmp_path, capsys):
        output = tmp_path / "report.txt"
        exit_code = explore_main([
            "--width", "8", "--adaptive", "--budget", "12", "--batch-size", "4",
            "--rounds", "2", "--length", "32", "--no-cache", "--no-synth-cache",
            "--output", str(output)])
        assert exit_code == 0
        text = output.read_text()
        assert "adaptive search" in text
        assert "Pareto frontier" in text
        assert "explored 12 of 160 designs" in text

    def test_adaptive_flag_validation(self, capsys):
        with pytest.raises(SystemExit):
            explore_main(["--adaptive", "--budget-fraction", "0"])
        with pytest.raises(SystemExit):
            explore_main(["--adaptive", "--budget", "0"])
        with pytest.raises(SystemExit):
            explore_main(["--adaptive", "--batch-size", "0"])
        with pytest.raises(SystemExit):
            explore_main(["--adaptive", "--rounds", "-1"])

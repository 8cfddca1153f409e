"""Tests for the command-line runner and the top-level public API."""

import os

import pytest

import repro
from repro.experiments.runner import build_parser, main, run_all
from repro.experiments.common import StudyConfig, shutdown_backends


def figure_sections(report: str) -> str:
    """A report minus its timing footer (the only run-dependent line)."""
    return "\n".join(line for line in report.splitlines()
                     if not line.startswith("(regenerated"))


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_quickstart_flow(self):
        adder = repro.InexactSpeculativeAdder(repro.ISAConfig.from_quadruple((8, 0, 0, 4)))
        result = adder.add_detailed(0x12345678, 0x0FEDCBA9)
        assert result.value >= 0
        assert result.structural_error == result.value - (0x12345678 + 0x0FEDCBA9)

    def test_exported_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_synthesize_and_plan(self):
        design = repro.synthesize(repro.ISAConfig(width=16, block_size=8, reduction=2))
        assert design.critical_path_delay > 0
        plan = repro.ClockPlan.paper()
        assert len(plan.periods) == 3

    def test_combine_errors_export(self):
        errors = repro.combine_errors([8], [6], [7])
        assert errors.e_joint.tolist() == [-1]

    def test_uniform_workload_export(self):
        trace = repro.uniform_workload(8, width=16, seed=0)
        assert trace.length == 8


class TestRunnerCli:
    def test_parser_defaults(self):
        arguments = build_parser().parse_args([])
        assert arguments.scale == 1.0
        assert arguments.simulator == "event"
        assert set(arguments.figures) == {"fig7", "fig8", "fig9", "fig10"}

    def test_parser_rejects_bad_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--figures", "fig99"])

    def test_parser_runtime_knobs(self):
        arguments = build_parser().parse_args(
            ["--backend", "multiprocess", "--jobs", "4"])
        assert arguments.backend == "multiprocess"
        assert arguments.jobs == 4
        defaults = build_parser().parse_args([])
        assert defaults.backend is None  # falls back to $REPRO_BACKEND or serial
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--engine", "auto"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--backend", "cluster"])

    def test_main_simulator_and_backend_flow(self, tmp_path):
        output = tmp_path / "report.txt"
        # --no-cache keeps the footer's backend label exact even when the
        # suite itself runs under $REPRO_CACHE_DIR (the CI cache leg).
        exit_code = main(["--scale", "0.05", "--simulator", "fast",
                          "--backend", "multiprocess", "--jobs", "2", "--no-cache",
                          "--figures", "fig10", "--output", str(output)])
        assert exit_code == 0
        text = output.read_text()
        assert "Fig. 10" in text
        expected = min(2, os.cpu_count() or 1)
        assert f"simulator=fast, backend=multiprocess[{expected}]" in text

    def test_run_all_fig9_only(self):
        config = StudyConfig(characterization_length=120, training_length=120,
                             evaluation_length=100, seed=2, simulator="fast")
        report = run_all(config, ["fig9"])
        assert "Fig. 9" in report
        assert "Fig. 7" not in report
        assert "regenerated fig9" in report

    def test_run_all_fig10_reuses_characterization(self):
        config = StudyConfig(characterization_length=120, training_length=120,
                             evaluation_length=100, seed=2, simulator="fast")
        report = run_all(config, ["fig9", "fig10"])
        assert "Fig. 10" in report and "Fig. 9" in report

    def test_main_writes_output_file(self, tmp_path, repro_env):
        output = tmp_path / "report.txt"
        repro_env(REPRO_TRACE_SCALE="1.0")
        exit_code = main(["--scale", "0.05", "--simulator", "fast",
                          "--figures", "fig9", "--output", str(output)])
        assert exit_code == 0
        assert output.exists()
        assert "Fig. 9" in output.read_text()

    def test_parser_cache_flags(self):
        arguments = build_parser().parse_args(["--cache-dir", "/tmp/c"])
        assert arguments.cache_dir == "/tmp/c"
        assert arguments.no_cache is False
        defaults = build_parser().parse_args([])
        assert defaults.cache_dir is None  # falls back to $REPRO_CACHE_DIR
        with pytest.raises(SystemExit):
            main(["--cache-dir", "/tmp/c", "--no-cache"])

    def test_main_warm_cache_run_is_bit_identical(self, tmp_path):
        """Acceptance: a warm cache reproduces the figures byte-identically
        with zero simulated jobs (all hits, no misses in the footer)."""
        cache_dir = tmp_path / "cache"
        cold_path, warm_path = tmp_path / "cold.txt", tmp_path / "warm.txt"
        base = ["--scale", "0.05", "--simulator", "fast",
                "--figures", "fig9", "fig10", "--cache-dir", str(cache_dir)]
        assert main(base + ["--output", str(cold_path)]) == 0
        # fresh shared-backend registry, as a new CLI process would have
        shutdown_backends()
        assert main(base + ["--output", str(warm_path)]) == 0
        shutdown_backends()
        cold, warm = cold_path.read_text(), warm_path.read_text()
        assert figure_sections(cold) == figure_sections(warm)
        assert "cache=0 hits / 12 misses" in cold
        assert "cache=12 hits / 0 misses" in warm

    def test_no_cache_overrides_env(self, tmp_path, repro_env):
        repro_env(REPRO_CACHE_DIR=str(tmp_path / "cache"), REPRO_SYNTH_CACHE=None)
        output = tmp_path / "report.txt"
        assert main(["--scale", "0.05", "--simulator", "fast", "--figures", "fig9",
                     "--no-cache", "--output", str(output)]) == 0
        report = output.read_text()
        assert "cache=" not in report
        assert not (tmp_path / "cache").exists()

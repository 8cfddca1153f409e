"""Tests of the runtime settings (repro.settings).

The contract under test: every ``REPRO_*`` variable parses through one
table, an unset or empty variable means the field's default and a bad
value names its variable and value; nothing is resolved at import; a
StudyConfig takes its runtime knobs from the active settings; and the
CLIs apply their runtime flags to their own run without touching the
environment.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.common import StudyConfig
from repro.experiments.runner import main as runner_main
from repro.explore.cli import main as explore_main
from repro.settings import SETTINGS, RuntimeSettings, active_settings, using_settings

#: Per settings field: accepted raw values with what they parse to, and
#: rejected raw values.
CASES = {
    "backend": ({"serial": "serial", "multiprocess": "multiprocess"}, ["cluster", "Serial"]),
    "workers": ({"2": 2, " 4 ": 4}, ["auto", "0", "-1", "1.5"]),
    "trace_scale": ({"0.5": 0.5, "2": 2.0}, ["fast", "0", "-1", "nan"]),
    "cache_dir": ({"/tmp/c": "/tmp/c", " /tmp/c ": "/tmp/c"}, []),
    "cache_limit_mb": ({"128.5": 128.5}, ["big", "0", "-3"]),
    "synth_cache": ({"/tmp/s": "/tmp/s"}, []),
    "synth_cache_limit_mb": ({"2.5": 2.5}, ["not-a-number", "-1", "0"]),
    "max_retries": ({"5": 5, "0": 0}, ["banana", "-1", "1.5"]),
    "task_timeout": ({"2.5": 2.5, "60": 60.0}, ["soon", "0", "-2.5"]),
    "telemetry_dir": ({"/tmp/t": "/tmp/t"}, []),
    "fault_plan": ({'{"faults": []}': '{"faults": []}', "plan.json": "plan.json"}, []),
}


class TestSettingsTable:
    def test_one_field_per_variable(self):
        names = [item.name for item in fields(RuntimeSettings)]
        assert [setting.name for setting in SETTINGS] == names
        variables = [setting.variable for setting in SETTINGS]
        assert len(set(variables)) == len(variables) == 11
        assert all(variable.startswith("REPRO_") for variable in variables)
        assert set(CASES) == set(names)
        assert RuntimeSettings.from_env({}) == RuntimeSettings()

    @pytest.mark.parametrize("setting", SETTINGS, ids=lambda setting: setting.name)
    def test_each_setting_parses_its_variable(self, setting):
        accepted, rejected = CASES[setting.name]
        for environ in ({}, {setting.variable: ""}, {setting.variable: "  "}):
            assert getattr(RuntimeSettings.from_env(environ), setting.name) == setting.default
        for raw, value in accepted.items():
            parsed = RuntimeSettings.from_env({setting.variable: raw})
            assert getattr(parsed, setting.name) == value
        for raw in rejected:
            with pytest.raises(ConfigurationError) as excinfo:
                RuntimeSettings.from_env({setting.variable: raw})
            message = str(excinfo.value)
            assert setting.variable in message and repr(raw.strip()) in message


class TestActivation:
    def test_nothing_is_resolved_at_import(self):
        script = ("import importlib, pkgutil, repro, repro.settings\n"
                  "for module in pkgutil.walk_packages(repro.__path__, prefix='repro.'):\n"
                  "    importlib.import_module(module.name)\n"
                  "assert repro.settings._ACTIVE is None\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        # A malformed variable would raise if anything resolved it.
        env = dict(os.environ, PYTHONPATH=src, REPRO_WORKERS="none")
        subprocess.run([sys.executable, "-c", script], env=env, check=True)

    def test_using_settings_restores_the_previous_ones(self):
        before = active_settings()
        with using_settings(max_retries=7) as inner:
            assert active_settings() is inner and inner.max_retries == 7
            with using_settings(RuntimeSettings(), backend="multiprocess"):
                assert active_settings().backend == "multiprocess"
                assert active_settings().max_retries == RuntimeSettings().max_retries
            assert active_settings() is inner
        assert active_settings() is before

    def test_study_config_defaults_follow_the_settings(self, tmp_path):
        knobs = {"backend": "multiprocess", "workers": 3, "trace_scale": 0.25,
                 "cache_dir": str(tmp_path), "cache_limit_mb": 64.0}
        with using_settings(**knobs):
            config = StudyConfig()
        for name, value in knobs.items():
            assert getattr(config, name) == value


#: One cheap run of each CLI, serial and without a result cache.
CLI_RUNS = {
    "explore": (explore_main, ["--width", "8", "--max-designs", "2", "--length", "16"]),
    "experiments": (runner_main, ["--family", "multiplier", "--width", "4",
                                  "--scale", "0.05", "--simulator", "fast"]),
}


class TestCliEnvironment:
    @pytest.mark.parametrize("flag", ["--no-synth-cache", "--synth-cache-dir",
                                      "--max-retries", "--task-timeout"])
    @pytest.mark.parametrize("cli", sorted(CLI_RUNS))
    def test_cli_leaves_the_environment_alone(self, cli, flag, tmp_path, monkeypatch):
        """Runtime flags configure the CLI's own run, never ``os.environ``."""
        monkeypatch.setenv("REPRO_SYNTH_CACHE", str(tmp_path / "suite-synth"))
        monkeypatch.delenv("REPRO_MAX_RETRIES", raising=False)
        monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
        value = {"--no-synth-cache": [], "--synth-cache-dir": [str(tmp_path / "synth")],
                 "--max-retries": ["3"], "--task-timeout": ["600"]}[flag]
        main, argv = CLI_RUNS[cli]
        before = dict(os.environ)
        assert main(argv + ["--backend", "serial", "--no-cache", flag, *value]) == 0
        assert dict(os.environ) == before
        if flag == "--synth-cache-dir":
            assert list((tmp_path / "synth").glob("*/*/result.pkl"))

"""Runtime settings: every ``REPRO_*`` knob, read in one place.

:class:`RuntimeSettings` has one field per environment variable; each
field declares its variable, the parser of the variable's text, its
default and the CLI flag that overrides it (:data:`SETTINGS` lists them
as a table).  An unset or empty variable means the default, and a bad
value raises :class:`~repro.exceptions.ConfigurationError` naming the
variable and the value.

One instance is *active* per process (:func:`active_settings`).  It is
resolved from the environment on first use — never at import, so a
program may set or clear variables before its first run — and every
consumer reads its knob from it: the execution backend, the retry
policy, the result and synthesis caches, the fault plan and
telemetry.  :func:`using_settings` activates a variant for a block
and restores the previous settings on exit (each CLI run, tests); the
multiprocess backend hands the driver's settings to its workers through
the pool initializer (:func:`activate_settings`).  Nothing writes the
environment.

The CLIs override settings through one argparse parent,
:func:`runtime_arguments`, and :func:`settings_from_arguments`.
"""

from __future__ import annotations

import argparse
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterator, Mapping, NamedTuple, Optional

from repro.exceptions import ConfigurationError

#: Names accepted by ``REPRO_BACKEND``, ``--backend`` and ``StudyConfig.backend``.
BACKENDS = ("serial", "multiprocess")


def _backend(raw: str) -> str:
    if raw not in BACKENDS:
        raise ValueError(f"one of {BACKENDS}")
    return raw


def _number(kind: type, description: str, inclusive: bool = False) -> Callable[[str], object]:
    """Parser of a ``kind`` number above zero (or at it, when ``inclusive``)."""
    def parse(raw: str):
        try:
            value = kind(raw)
        except ValueError:
            raise ValueError(description) from None
        if not (value > 0 or inclusive and value == 0):
            raise ValueError(description)
        return value
    return parse


def _knob(default, variable: str, parse: Callable[[str], object],
          flag: Optional[str] = None):
    return field(default=default,
                 metadata={"variable": variable, "parse": parse, "flag": flag})


@dataclass(frozen=True)
class RuntimeSettings:
    """How the runtime runs: one field per ``REPRO_*`` variable."""

    backend: str = _knob("serial", "REPRO_BACKEND", _backend, "--backend")
    workers: Optional[int] = _knob(
        None, "REPRO_WORKERS", _number(int, "a positive integer worker count"), "--jobs")
    trace_scale: float = _knob(
        1.0, "REPRO_TRACE_SCALE",
        _number(float, "a positive number (trace-length scale factor)"))
    cache_dir: Optional[str] = _knob(None, "REPRO_CACHE_DIR", str, "--cache-dir")
    cache_limit_mb: Optional[float] = _knob(
        None, "REPRO_CACHE_LIMIT_MB", _number(float, "a positive size in mebibytes"),
        "--cache-limit-mb")
    synth_cache: Optional[str] = _knob(None, "REPRO_SYNTH_CACHE", str, "--synth-cache-dir")
    synth_cache_limit_mb: Optional[float] = _knob(
        None, "REPRO_SYNTH_CACHE_LIMIT_MB", _number(float, "a positive number of mebibytes"))
    # Two retries (three attempts) absorb one transient fault plus one
    # unlucky recurrence without masking a persistent failure for long.
    max_retries: int = _knob(
        2, "REPRO_MAX_RETRIES",
        _number(int, "a non-negative integer retry count", inclusive=True), "--max-retries")
    task_timeout: Optional[float] = _knob(
        None, "REPRO_TASK_TIMEOUT", _number(float, "a positive number of seconds"),
        "--task-timeout")
    telemetry_dir: Optional[str] = _knob(None, "REPRO_TELEMETRY_DIR", str, "--telemetry-dir")
    fault_plan: Optional[str] = _knob(None, "REPRO_FAULT_PLAN", str)

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None) -> "RuntimeSettings":
        """The settings ``environ``'s variables name (default: ``os.environ``)."""
        environ = os.environ if environ is None else environ
        values = {}
        for setting in SETTINGS:
            raw = environ.get(setting.variable, "").strip()
            if not raw:
                continue
            try:
                values[setting.name] = setting.parse(raw)
            except ValueError as error:
                raise ConfigurationError(
                    f"{setting.variable} must be {error}, got {raw!r}") from None
        return cls(**values)


class Setting(NamedTuple):
    """One row of the settings table."""

    name: str
    variable: str
    parse: Callable[[str], object]
    default: object
    flag: Optional[str]


#: The settings table: one row per :class:`RuntimeSettings` field.
SETTINGS = tuple(Setting(item.name, item.metadata["variable"], item.metadata["parse"],
                         item.default, item.metadata["flag"])
                 for item in fields(RuntimeSettings))

_ACTIVE: Optional[RuntimeSettings] = None


def active_settings() -> RuntimeSettings:
    """The settings this process runs under (the environment's until others are activated)."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = RuntimeSettings.from_env()
    return _ACTIVE


def activate_settings(settings: RuntimeSettings) -> None:
    """Make ``settings`` the process's active settings (also the pool initializer)."""
    global _ACTIVE
    _ACTIVE = settings


@contextmanager
def using_settings(settings: Optional[RuntimeSettings] = None,
                   **changes) -> Iterator[RuntimeSettings]:
    """Activate ``settings`` (default: the active ones) with ``changes`` for the
    block, then restore whatever was active before."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = replace(settings if settings is not None else active_settings(), **changes)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous


def runtime_arguments() -> argparse.ArgumentParser:
    """The runtime flags both CLIs take, as an argparse parent parser."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--backend", choices=BACKENDS, default=None,
                        help="execution backend scheduling the characterization jobs "
                             "(default: $REPRO_BACKEND or serial)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes of the multiprocess backend "
                             "(default: $REPRO_WORKERS or one per CPU)")
    parser.add_argument("--cache-dir", type=str, default=None, metavar="DIR",
                        help="persistent on-disk result cache: jobs already in the "
                             "cache skip simulation and reproduce bit-identically, "
                             "so a re-run (or a grown sweep) simulates only unseen "
                             "jobs (default: $REPRO_CACHE_DIR, or no cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache even when $REPRO_CACHE_DIR is set")
    parser.add_argument("--synth-cache-dir", type=str, default=None, metavar="DIR",
                        help="persistent synthesis cache: designs synthesized by any "
                             "run or process load from disk bit-identically instead "
                             "of re-running the flow (default: $REPRO_SYNTH_CACHE, "
                             "or no cache)")
    parser.add_argument("--no-synth-cache", action="store_true",
                        help="disable the synthesis cache even when $REPRO_SYNTH_CACHE "
                             "is set")
    parser.add_argument("--max-retries", type=int, default=None, metavar="N",
                        help="transient-failure retries per task, on top of the first "
                             "attempt (default: $REPRO_MAX_RETRIES or 2)")
    parser.add_argument("--task-timeout", type=float, default=None, metavar="SECONDS",
                        help="per-task wall-clock budget; stalled multiprocess tasks "
                             "are re-dispatched, over-budget serial tasks retried "
                             "(default: $REPRO_TASK_TIMEOUT or none)")
    parser.add_argument("--timings", action="store_true",
                        help="append a phase breakdown (synthesize — split into "
                             "synth.optimize / synth.sizing / synth.sta sub-phases — "
                             "then lower / pack / simulate / score, and an adaptive "
                             "search's surrogate / select / pareto) to the footer; "
                             "multiprocess worker phases are merged back, with the "
                             "driver's blocked time reported as schedule.wait")
    parser.add_argument("--telemetry-dir", type=str, default=None, metavar="DIR",
                        help="append a run manifest (config, host, phases, worker "
                             "utilisation, cache metrics) to DIR/manifests.jsonl; "
                             "summarise with repro-stats "
                             "(default: $REPRO_TELEMETRY_DIR, or no telemetry)")
    return parser


def settings_from_arguments(parser: argparse.ArgumentParser, arguments) -> RuntimeSettings:
    """The active settings overridden by the runtime flags of ``arguments``.

    Flags are validated here (through ``parser.error``); a flag a CLI
    does not define leaves its field as it is.
    """
    if arguments.no_cache and arguments.cache_dir:
        parser.error("--no-cache and --cache-dir are mutually exclusive")
    if arguments.no_synth_cache and arguments.synth_cache_dir:
        parser.error("--no-synth-cache and --synth-cache-dir are mutually exclusive")
    if arguments.max_retries is not None and arguments.max_retries < 0:
        parser.error("--max-retries must be non-negative")
    if arguments.task_timeout is not None and arguments.task_timeout <= 0:
        parser.error("--task-timeout must be positive")
    changes = {}
    for setting in SETTINGS:
        if setting.flag is not None:
            value = getattr(arguments, setting.flag[2:].replace("-", "_"), None)
            if value is not None:
                changes[setting.name] = value
    if arguments.no_cache:
        changes["cache_dir"] = None
    if arguments.no_synth_cache:
        changes["synth_cache"] = None
    return replace(active_settings(), **changes)

"""Run manifests: one JSONL record per run, appended to a telemetry dir.

A :class:`telemetry_run` session activates a
:class:`~repro.obs.trace.Tracer` and a
:class:`~repro.obs.metrics.MetricsRegistry` for the duration of a run
(a CLI invocation, a ``run_jobs`` batch, a ``run_sweep``) and, on exit,
snapshots everything into one *run manifest* — schema version, run id,
command, caller-supplied config, host facts, ``repro.__version__``,
elapsed wall seconds, per-phase totals (driver *and* merged worker
time), the hierarchical span aggregates, per-worker utilisation and the
metric snapshot — appended as a single JSON line to
``<telemetry_dir>/manifests.jsonl``.

Sessions *suppress nesting*: ``run_sweep`` delegates to ``run_jobs``,
and a CLI wraps both — only the outermost session writes a manifest
(inner calls see the ambient session and become pass-throughs), so one
run is one record no matter how many layers it crossed.

Activation is driven by an explicit directory argument or the
``telemetry_dir`` of the active runtime settings (:mod:`repro.settings`:
``REPRO_TELEMETRY_DIR`` or ``--telemetry-dir``; see
:func:`resolve_telemetry_dir`).  ``inline=True`` builds the manifest
without a directory (``repro-explore --json`` embeds it in its payload).

Manifests are additive observation only: they never influence job
digests, cache keys or results — the regression tests pin that enabling
telemetry changes zero result bytes.
"""

from __future__ import annotations

import json
import os
import platform
import time
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Iterator, List, Optional

from repro._version import __version__
from repro.obs.metrics import MetricsRegistry, metrics_run
from repro.obs.trace import Tracer, trace_run
from repro.settings import active_settings

#: File every run manifest is appended to inside the telemetry dir.
MANIFEST_FILE = "manifests.jsonl"

#: Bumped whenever the manifest record layout changes incompatibly.
MANIFEST_SCHEMA = 1

#: Whether a telemetry session is already active in this context (inner
#: sessions become pass-throughs so one run writes one manifest).
_SESSION_ACTIVE: ContextVar[bool] = ContextVar("repro_obs_session",
                                               default=False)

#: Process-wide run-id sequence (uniquifies manifests within a second).
_RUN_SEQUENCE = 0


def resolve_telemetry_dir(value=None) -> Optional[str]:
    """The telemetry directory: explicit ``value``, else the active settings'."""
    if value:
        return str(value)
    return active_settings().telemetry_dir or None


def host_facts() -> dict:
    """Where a run happened: platform, python, cpu count."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "hostname": platform.node(),
    }


def append_manifest(directory, manifest: dict) -> Path:
    """Append one manifest as a JSON line (single ``O_APPEND`` write)."""
    root = Path(directory).expanduser()
    root.mkdir(parents=True, exist_ok=True)
    path = root / MANIFEST_FILE
    line = json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n"
    descriptor = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(descriptor, line.encode("utf-8"))
    finally:
        os.close(descriptor)
    return path


def load_manifests(directory) -> List[dict]:
    """Every parseable manifest of a telemetry directory, in append order."""
    path = Path(directory).expanduser() / MANIFEST_FILE
    manifests: List[dict] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    manifests.append(json.loads(line))
                except ValueError:
                    continue
    except OSError:
        return []
    return manifests


class TelemetryHandle:
    """What a :func:`telemetry_run` block exposes to its body.

    ``enabled`` is False for pass-through sessions (no directory and not
    inline, or an outer session already active); the tracer/registry are
    then ``None`` and :meth:`annotate` is a no-op.  After the block
    exits, ``manifest`` holds the built record (or ``None``).
    """

    def __init__(self, directory: Optional[str], command: str,
                 config: Optional[dict], enabled: bool) -> None:
        self.directory = directory
        self.command = command
        self.config = dict(config) if config else {}
        self.enabled = enabled
        self.tracer: Optional[Tracer] = None
        self.metrics: Optional[MetricsRegistry] = None
        self.manifest: Optional[dict] = None
        self.manifest_path: Optional[Path] = None
        self.extra: dict = {}

    def annotate(self, **fields) -> None:
        """Attach extra top-level fields to the manifest (e.g. results)."""
        if self.enabled:
            self.extra.update(fields)

    # ------------------------------------------------------------------ #
    def build_manifest(self, elapsed_s: float, started_at: float) -> dict:
        global _RUN_SEQUENCE
        _RUN_SEQUENCE += 1
        assert self.tracer is not None and self.metrics is not None
        snapshot = self.tracer.snapshot()
        attributed = self.tracer.attributed_wall_s()
        # Attribution counts real compute (top-level phases, driver and
        # merged workers); "accounted" adds the driver's blocked-on-
        # workers time back, so it approaches the elapsed wall whenever
        # the instrumentation has no blind spots.
        wait = snapshot["phases"].get("schedule.wait", {}).get("wall_s", 0.0)
        accounted = attributed + wait
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "run_id": f"{int(started_at * 1e6):d}-{os.getpid()}-{_RUN_SEQUENCE}",
            "command": self.command,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z",
                                       time.localtime(started_at)),
            "library_version": __version__,
            "host": host_facts(),
            "config": self.config,
            "elapsed_s": elapsed_s,
            "phases": snapshot["phases"],
            "spans": snapshot["spans"],
            "workers": snapshot["workers"],
            "metrics": self.metrics.snapshot(),
            "attributed_s": attributed,
            "attributed_fraction": (attributed / elapsed_s
                                    if elapsed_s > 0 else 0.0),
            "accounted_s": accounted,
            "accounted_fraction": (accounted / elapsed_s
                                   if elapsed_s > 0 else 0.0),
        }
        manifest.update(self.extra)
        return manifest


@contextmanager
def telemetry_run(directory=None, command: str = "run",
                  config: Optional[dict] = None,
                  inline: bool = False) -> Iterator[TelemetryHandle]:
    """One observed run: ambient tracer + metrics, manifest on exit.

    ``directory`` (or, if falsy, the active settings' ``telemetry_dir``) receives the
    manifest; ``inline=True`` builds the manifest even without a
    directory.  When neither applies — or a session is already active
    in this context — the handle is a disabled pass-through and the
    block runs unobserved (beyond any outer session's instruments).
    """
    directory = resolve_telemetry_dir(directory)
    enabled = (directory is not None or inline) and not _SESSION_ACTIVE.get()
    handle = TelemetryHandle(directory, command, config, enabled)
    if not handle.enabled:
        yield handle
        return
    session_token = _SESSION_ACTIVE.set(True)
    started_at = time.time()
    started = time.perf_counter()
    try:
        with trace_run() as tracer, metrics_run() as registry:
            handle.tracer = tracer
            handle.metrics = registry
            yield handle
    finally:
        elapsed = time.perf_counter() - started
        _SESSION_ACTIVE.reset(session_token)
        try:
            handle.manifest = handle.build_manifest(elapsed, started_at)
            if handle.directory is not None:
                handle.manifest_path = append_manifest(handle.directory,
                                                       handle.manifest)
        except OSError:
            # Telemetry is advisory: an unwritable directory must never
            # fail the run it observes.
            handle.manifest_path = None

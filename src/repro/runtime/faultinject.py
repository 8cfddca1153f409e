"""Deterministic fault injection for resilience tests and chaos CI.

A *fault plan* is a small JSON document naming faults to inject at
instrumented points of the runtime — worker task entry
(:data:`POINT_TASK`) and result-store writes (:data:`POINT_STORE_WRITE`
/ :data:`POINT_STORE_WRITE_DONE`).  The plan is the ``fault_plan`` field
of the active runtime settings (:mod:`repro.settings`), set by the
``REPRO_FAULT_PLAN`` environment variable (either the JSON itself or a
path to a file holding it); multiprocess workers receive it with the
rest of the driver's settings through the pool initializer, so they arm
the same plan.

Plan format::

    {"faults": [
        {"kind": "kill-worker", "every": 40},
        {"kind": "task-error", "at": 2},
        {"kind": "delay", "at": 1, "seconds": 0.5, "times": 1},
        {"kind": "store-error", "point": "store.write", "every": 5,
         "match": "chaos-cache"},
        {"kind": "truncate", "point": "store.write.done", "at": 3}
     ],
     "state_dir": "/tmp/faults"}

Each fault spec counts the events of its point **globally**, across
every process of a run: an event claims the next ordinal of the spec
through a token file created with ``O_CREAT | O_EXCL`` in ``state_dir``.
A spec fires on the ``at``-th event (once) or on every ``every``-th
event; ``match`` restricts the count to events whose key (job name,
store path) contains the substring.  ``times`` caps the firings across
all processes through the same kind of token files.  A firing that
takes effect leaves a ``fault<index>-fired<ordinal>`` marker in
``state_dir``, so a run can prove that its faults were injected (a
``kill-worker`` spec leaves none in the immune driver).

``state_dir`` defaults to a temp directory derived from the plan text
and the driver's pid: every process of one run shares it, and every run
starts its ordinals afresh.  Runs that must fire identically each need
their own ``state_dir``.  Because ordinals are global, the same plan
against the same deterministic task stream fires on the same event
whatever the worker count or the way the planner splits the batch.

Fault kinds
-----------
``kill-worker``
    ``os._exit(1)`` — but only inside a worker process
    (:func:`multiprocessing.parent_process` is set); the driver is
    immune, so a plan armed for a whole test suite can never kill the
    test runner itself.
``task-error``
    Raise a transient :class:`OSError` from the task body (retryable).
``delay``
    Sleep ``seconds`` inside the task (exercises per-task timeouts).
``store-error``
    Raise :class:`OSError` from inside a result-store write (absorbed
    as a warn-and-continue miss by :meth:`ResultStore.store`).
``truncate``
    Truncate the just-written cache entry file to half its size (the
    next load sees corruption and recomputes — the corruption-as-miss
    path).

Malformed plans raise :class:`~repro.exceptions.ConfigurationError`
naming the variable and the offending value, like every ``REPRO_*``
knob.
"""

from __future__ import annotations

import functools
import hashlib
import json
import multiprocessing
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.obs.metrics import metric_count
from repro.settings import active_settings

#: Environment variable holding the fault plan (JSON text, or a path to
#: a JSON file); unset or empty disables injection entirely.  Named in
#: the errors of malformed plans.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Instrumented points a fault spec may attach to.
POINT_TASK = "task"
POINT_STORE_WRITE = "store.write"
POINT_STORE_WRITE_DONE = "store.write.done"
POINTS = (POINT_TASK, POINT_STORE_WRITE, POINT_STORE_WRITE_DONE)

#: Fault kind -> the point it defaults to when the spec names none.
KINDS = {
    "kill-worker": POINT_TASK,
    "task-error": POINT_TASK,
    "delay": POINT_TASK,
    "store-error": POINT_STORE_WRITE,
    "truncate": POINT_STORE_WRITE_DONE,
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject: what, where, and on which events."""

    kind: str
    point: str
    at: Optional[int] = None
    every: Optional[int] = None
    times: Optional[int] = None
    seconds: float = 0.0
    match: Optional[str] = None

    def due(self, counter: int) -> bool:
        """Whether the ``counter``-th matching event (1-based) fires."""
        if self.at is not None and counter == self.at:
            return True
        return self.every is not None and counter % self.every == 0


def _parse_spec(index: int, raw, value: str) -> FaultSpec:
    def bad(detail: str) -> ConfigurationError:
        return ConfigurationError(
            f"{FAULT_PLAN_ENV} fault #{index + 1} {detail}, got {value!r}")

    if not isinstance(raw, dict):
        raise bad("must be an object")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise bad(f"names unknown kind {kind!r} (expected one of {sorted(KINDS)})")
    point = raw.get("point", KINDS[kind])
    if point not in POINTS:
        raise bad(f"names unknown point {point!r} (expected one of {POINTS})")
    counters = {}
    for field in ("at", "every", "times"):
        entry = raw.get(field)
        if entry is not None and (not isinstance(entry, int) or entry < 1):
            raise bad(f"field {field!r} must be a positive integer")
        counters[field] = entry
    if counters["at"] is None and counters["every"] is None:
        raise bad("needs an 'at' or 'every' trigger")
    seconds = raw.get("seconds", 0.0)
    if not isinstance(seconds, (int, float)) or seconds < 0:
        raise bad("field 'seconds' must be a non-negative number")
    match = raw.get("match")
    if match is not None and not isinstance(match, str):
        raise bad("field 'match' must be a string")
    unknown = set(raw) - {"kind", "point", "at", "every", "times", "seconds", "match"}
    if unknown:
        raise bad(f"has unknown fields {sorted(unknown)}")
    return FaultSpec(kind=kind, point=point, at=counters["at"],
                     every=counters["every"], times=counters["times"],
                     seconds=float(seconds), match=match)


class FaultPlan:
    """An armed fault plan: global event ordinals plus injection.

    Ordinals, ``times`` budgets and fired markers are shared across
    processes as token files claimed with ``O_CREAT | O_EXCL`` in
    :attr:`state_dir`; each process only remembers the last ordinal it
    claimed per spec, where its next scan starts.
    """

    def __init__(self, specs: List[FaultSpec], state_dir: str) -> None:
        self.specs = specs
        self.state_dir = state_dir
        self._counters: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    def _token(self, name: str) -> bool:
        """Atomically create token ``name``; False if it already exists."""
        os.makedirs(self.state_dir, exist_ok=True)
        try:
            os.close(os.open(os.path.join(self.state_dir, name),
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return False
        return True

    def _ordinal(self, index: int) -> int:
        """Claim the next global event ordinal of spec ``index``.

        Ordinals are claimed densely from 1, so the first free token at
        or after this process's last claim is the next event.  Without
        a usable state directory the count falls back to this process.
        """
        ordinal = self._counters.get(index, 0) + 1
        try:
            while not self._token(f"fault{index}-event{ordinal}"):
                ordinal += 1
        except OSError:
            pass
        self._counters[index] = ordinal
        return ordinal

    def _claim(self, index: int) -> bool:
        """Claim one firing of spec ``index`` against its global budget."""
        spec = self.specs[index]
        if spec.times is None:
            return True
        try:
            return any(self._token(f"fault{index}-slot{slot}")
                       for slot in range(spec.times))
        except OSError:
            return False

    def _inject(self, index: int, key: str, ordinal: int) -> None:
        spec = self.specs[index]
        metric_count("faults.injected")
        if spec.kind == "kill-worker" and multiprocessing.parent_process() is None:
            # Only worker processes die; the driver (tests, CLIs) shrugs
            # the fault off so a suite-wide plan cannot kill the runner.
            return
        try:
            self._token(f"fault{index}-fired{ordinal}")
        except OSError:
            pass
        if spec.kind == "kill-worker":
            os._exit(1)
        if spec.kind == "delay":
            time.sleep(spec.seconds)
            return
        if spec.kind == "truncate":
            try:
                size = os.path.getsize(key)
                with open(key, "r+b") as handle:
                    handle.truncate(size // 2)
            except OSError:
                pass
            return
        # task-error / store-error: a transient, retryable OSError.
        raise OSError(f"injected {spec.kind} fault "
                      f"(event #{ordinal} at {spec.point}: {key})")

    def fire(self, point: str, key: str = "") -> None:
        """Count one event at ``point`` and inject whatever falls due."""
        for index, spec in enumerate(self.specs):
            if spec.point != point:
                continue
            if spec.match is not None and spec.match not in key:
                continue
            ordinal = self._ordinal(index)
            if spec.due(ordinal) and self._claim(index):
                self._inject(index, key, ordinal)


# --------------------------------------------------------------------- #
# Activation from the runtime settings
# --------------------------------------------------------------------- #
def parse_fault_plan(value: str) -> Tuple[List[FaultSpec], Optional[str]]:
    """Parse a fault-plan document (JSON text or a path to one).

    Returns ``(specs, state_dir)``; malformed documents raise
    :class:`ConfigurationError` naming ``REPRO_FAULT_PLAN`` and the
    value.
    """
    text = value
    if not value.lstrip().startswith(("{", "[")):
        try:
            with open(value, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as error:
            raise ConfigurationError(
                f"{FAULT_PLAN_ENV} names an unreadable plan file "
                f"({error}), got {value!r}") from None
    try:
        document = json.loads(text)
    except ValueError as error:
        raise ConfigurationError(
            f"{FAULT_PLAN_ENV} must be JSON (or a path to a JSON file): "
            f"{error}, got {value!r}") from None
    if isinstance(document, list):
        document = {"faults": document}
    if not isinstance(document, dict) or not isinstance(document.get("faults"), list):
        raise ConfigurationError(
            f"{FAULT_PLAN_ENV} must be an object with a 'faults' list "
            f"(or a bare list), got {value!r}")
    state_dir = document.get("state_dir")
    if state_dir is not None and not isinstance(state_dir, str):
        raise ConfigurationError(
            f"{FAULT_PLAN_ENV} field 'state_dir' must be a path string, "
            f"got {value!r}")
    specs = [_parse_spec(index, raw, value)
             for index, raw in enumerate(document["faults"])]
    return specs, state_dir


def _default_state_dir(value: str) -> str:
    # Derived from the plan text and the driver's pid, so every process
    # of one run (workers receive the driver's plan and know their
    # parent) shares one directory, and the next run starts afresh.
    digest = hashlib.sha256(value.encode("utf-8")).hexdigest()[:12]
    parent = multiprocessing.parent_process()
    driver = parent.pid if parent is not None else os.getpid()
    return os.path.join(tempfile.gettempdir(), f"repro-faults-{digest}-{driver}")


@functools.lru_cache(maxsize=1)
def _armed(value: str) -> FaultPlan:
    specs, state_dir = parse_fault_plan(value)
    return FaultPlan(specs, state_dir or _default_state_dir(value))


def active_fault_plan() -> Optional[FaultPlan]:
    """The plan the active runtime settings name, or ``None``.

    Parsed and armed once per plan value: re-activated equal settings
    keep the armed plan, another plan value arms afresh.
    """
    value = active_settings().fault_plan
    return _armed(value) if value else None


def fault_point(point: str, key: str = "") -> None:
    """Fire the active plan at an instrumented point (no-op without one)."""
    plan = active_fault_plan()
    if plan is not None:
        plan.fire(point, key)

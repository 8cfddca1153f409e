"""Execution backends: where the planned calls of a batch run.

Every backend runs a batch through the same :meth:`Backend.run`: plan
it with :func:`~repro.runtime.plan.plan_groups`, execute one
:func:`~repro.runtime.plan.run_group` call per group through
:meth:`Backend.run_calls`, and fan the results back in with
:func:`~repro.runtime.plan.gather_results`.  The backends differ only in
``run_calls``:

``serial``
    Runs the calls one after the other in the calling process, each
    under :func:`~repro.runtime.resilience.retry_call`.

``multiprocess``
    Fans the calls out across worker processes with
    :class:`concurrent.futures.ProcessPoolExecutor` through one resilient
    gather loop, and ships traces through a digest-named spill it owns
    (:class:`~repro.runtime.plan.TraceShipper`).  The pool width
    feeds the planner, so a batch with fewer groups than workers is
    split — groups halved, then single jobs cut into word-aligned trace
    slices — and still keeps every worker busy.  Workers memoise designs
    and simulators per process, so lowering happens once per worker and
    design, and run under the runtime settings (:mod:`repro.settings`)
    the driver had active when the pool started, which the pool
    initializer hands them.

Results are **bit-identical to** :func:`~repro.runtime.jobs.execute_job`
**at any worker count**.  Backends raise whatever the job execution
raises (e.g. the golden-model cross-check failure) — scheduling does not
swallow errors.  *Transient* failures, however, are survived rather than
raised: both backends retry individual calls under a
:class:`~repro.runtime.resilience.RetryPolicy` (safe because every call
is deterministic, so a retried call is bit-identical by construction),
and the multiprocess backend recovers from a broken pool by rebuilding
its executor and re-dispatching only the calls whose futures did not
complete — after ``max_rebuilds`` consecutive rebuilds without progress
it degrades to in-process execution with a :class:`RuntimeWarning`
instead of failing the batch.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as _wait_futures
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError, TaskTimeoutError
from repro.obs.manifest import telemetry_run
from repro.obs.metrics import metric_count, metric_observe
from repro.obs.spill import fold_spill_record, observed_call, telemetry_active
from repro.obs.trace import span
from repro.runtime.jobs import CharacterizationJob
from repro.runtime.plan import (
    _GROUP_SIMULATORS,
    TraceShipper,
    gather_results,
    group_spec,
    plan_groups,
    run_group,
)
from repro.runtime.resilience import RetryPolicy, retry_call
from repro.settings import BACKENDS, activate_settings, active_settings

#: The one per-process simulator memo, also reachable under this name
#: for callers that clear or size it from this module.
_SIMULATOR_CACHE = _GROUP_SIMULATORS


class Backend:
    """An execution backend: plan a batch, run its calls, fan results in."""

    name = "abstract"

    #: Pool width the planner fills (1: the calling process).
    workers = 1

    #: The call-level retry policy; ``None`` runs each batch under the
    #: policy of the active runtime settings (``REPRO_MAX_RETRIES`` /
    #: ``REPRO_TASK_TIMEOUT``).
    retry_policy: Optional[RetryPolicy] = None

    def run(self, jobs: Sequence[CharacterizationJob]) -> List[object]:
        """Execute ``jobs`` and return their results in submission order.

        A job's result is its
        :class:`~repro.runtime.jobs.DesignCharacterization`, or the
        value of its reduction when it names one.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        groups = plan_groups(jobs, self.workers)
        metric_count("jobs.simulated", len(jobs))
        metric_count("plan.groups", len(groups))
        for group in groups:
            metric_observe("plan.group_size", len(group))
        outcomes = self.run_calls([
            (run_group, (group_spec(jobs, group, self.ship_trace),),
             f"{jobs[group[0][0]].name}:{number}")
            for number, group in enumerate(groups)])
        return gather_results(jobs, groups, outcomes)

    def policy(self) -> RetryPolicy:
        """The retry policy this batch runs under."""
        if self.retry_policy is not None:
            return self.retry_policy
        settings = active_settings()
        return RetryPolicy(max_attempts=settings.max_retries + 1,
                           task_timeout=settings.task_timeout)

    def run_calls(self, calls: Sequence[Tuple[Callable, tuple, str]]) -> List[object]:
        """Execute ``(function, args, key)`` calls; results in call order."""
        raise NotImplementedError

    def ship_trace(self, trace):
        """How a call carries ``trace`` (in-process: as is)."""
        return trace

    def describe(self) -> str:
        """Short human-readable backend description (recorded in reports)."""
        return self.name

    def close(self) -> None:
        """Release held resources (worker pools); idempotent, no-op by default."""


class SerialBackend(Backend):
    """Run every call in the calling process, one after the other.

    Each call runs under the backend's :class:`RetryPolicy`: transient
    failures are retried in place, and — since an in-process call cannot
    be preempted — the per-call timeout is enforced post-hoc (an attempt
    finishing over budget counts as a retryable timeout).
    """

    name = "serial"

    def __init__(self, retry_policy: Optional[RetryPolicy] = None) -> None:
        self.retry_policy = retry_policy

    def run_calls(self, calls: Sequence[Tuple[Callable, tuple, str]]) -> List[object]:
        policy = self.policy()
        return [retry_call(policy, key, function, *args) for function, args, key in calls]


@dataclass
class _PendingCall:
    """Driver-side state of one schedulable callable in a resilient gather."""

    index: int
    function: Callable
    args: tuple
    key: str
    attempts: int = 0
    resolved: bool = False
    future: object = field(default=None, repr=False)


class MultiprocessBackend(Backend):
    """Fan characterization work out across worker processes.

    Parameters
    ----------
    workers:
        Worker process count (defaults to ``os.cpu_count()``).  Requests
        beyond the machine's CPU count are clamped to it with a warning:
        the workload is compute-bound, so extra processes only add
        scheduling overhead (a 1-CPU bench host measured 0.92x with 4
        workers).
    retry_policy:
        Call-level :class:`RetryPolicy` (default: the active runtime
        settings' — ``REPRO_MAX_RETRIES`` / ``REPRO_TASK_TIMEOUT``).
    max_rebuilds:
        Consecutive pool rebuilds without a single completed call before
        the backend degrades to in-process execution (with a
        :class:`RuntimeWarning`) instead of thrashing a pool whose
        workers die on every call.
    """

    name = "multiprocess"

    def __init__(self, workers: Optional[int] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 max_rebuilds: int = 3) -> None:
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be at least 1, got {workers}")
        if max_rebuilds < 1:
            raise ConfigurationError(
                f"max_rebuilds must be at least 1, got {max_rebuilds}")
        cpus = os.cpu_count() or 1
        if workers is not None and workers > cpus:
            warnings.warn(
                f"clamping {workers} requested workers to the {cpus} available "
                f"CPU(s); oversubscribing a compute-bound pool only adds overhead",
                RuntimeWarning, stacklevel=2)
            workers = cpus
        self.workers = workers if workers is not None else cpus
        self.retry_policy = retry_policy
        self.max_rebuilds = max_rebuilds
        self._pool: Optional[ProcessPoolExecutor] = None
        self._degraded = False
        self._rebuilds_without_progress = 0
        self._traces = TraceShipper()

    def describe(self) -> str:
        return f"multiprocess[{self.workers}]"

    def ship_trace(self, trace):
        return self._traces.ship(trace)

    # ------------------------------------------------------------------ #
    # Pool lifecycle.  The executor and the trace spill persist across
    # run() calls (warm per-worker caches, each trace shipped once); both
    # are created lazily and torn down by close(), or once the backend
    # is garbage-collected.
    # ------------------------------------------------------------------ #
    def _executor(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # The initializer activates the driver's settings (synthesis
            # cache, fault plan, kernel toggle) in every worker; workers
            # keep the ones active when their pool started.
            self._pool = ProcessPoolExecutor(max_workers=self.workers,
                                             initializer=activate_settings,
                                             initargs=(active_settings(),))
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down and remove the trace spill (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None
        self._traces.close()

    def __enter__(self) -> "MultiprocessBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Resilient gather: the one scheduling path every batch goes through
    # ------------------------------------------------------------------ #
    def _recover_pool(self, progressed: bool) -> None:
        """Tear down a broken/stalled pool and account for the rebuild.

        Stuck workers are terminated best-effort — a pool rebuilt around
        them would otherwise inherit their task queue.  The process map
        is read *before* ``shutdown``, which clears it.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            processes = list((getattr(pool, "_processes", None) or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            for process in processes:
                try:
                    process.terminate()
                except Exception:
                    pass
        metric_count("pool.rebuilds")
        self._rebuilds_without_progress = \
            (0 if progressed else self._rebuilds_without_progress) + 1
        if self._rebuilds_without_progress >= self.max_rebuilds and not self._degraded:
            self._degraded = True
            metric_count("backend.degraded")
            warnings.warn(
                f"multiprocess backend degraded to in-process execution after "
                f"{self._rebuilds_without_progress} consecutive pool rebuilds "
                f"without progress", RuntimeWarning, stacklevel=3)

    def run_calls(self, calls: Sequence[Tuple[Callable, tuple, str]]) -> List[object]:
        """Resiliently execute ``(function, args, key)`` callables in order.

        Per round: every outstanding call is submitted, then the driver
        waits for completions —

        * a transient task failure is retried (with the policy's
          deterministic backoff) up to ``max_attempts``; the original
          error propagates on exhaustion, non-retryable errors at once;
        * a :class:`BrokenProcessPool` (worker killed mid-task) rebuilds
          the executor and re-dispatches only the calls whose futures
          did not complete — completed results are kept, a re-dispatched
          task is bit-identical by construction;
        * a wait window of ``task_timeout`` seconds with **no** task
          completing counts as a stall: the pool is rebuilt and every
          unresolved call charged one timeout attempt, so a genuinely
          stuck task exhausts its budget with a
          :class:`TaskTimeoutError` instead of re-dispatching forever;
        * after ``max_rebuilds`` consecutive rebuilds without progress
          the backend degrades to in-process execution (warned once).

        Under active telemetry a worker's record comes back with its
        result (:func:`~repro.obs.spill.observed_call`) and is folded
        only when that result is accepted.
        """
        policy = self.policy()
        observed = telemetry_active()
        pending = [_PendingCall(index, function, args, key)
                   for index, (function, args, key) in enumerate(calls)]
        results: List[object] = [None] * len(pending)
        outstanding = pending
        while outstanding:
            if self._degraded:
                for call in outstanding:
                    results[call.index] = retry_call(
                        policy, call.key, call.function, *call.args)
                    call.resolved = True
                break
            broken = stalled = progressed = False
            failure: Optional[Tuple[int, Exception]] = None
            unresolved: Dict[object, _PendingCall] = {}
            try:
                for call in outstanding:
                    if observed:
                        call.future = self._executor().submit(
                            observed_call, call.function, *call.args)
                    else:
                        call.future = self._executor().submit(call.function, *call.args)
                    unresolved[call.future] = call
            except BrokenProcessPool:
                broken = True
            retries: List[_PendingCall] = []
            if not broken:
                with span("schedule.wait"):
                    while unresolved and not broken:
                        done, _ = _wait_futures(set(unresolved),
                                                timeout=policy.task_timeout,
                                                return_when=FIRST_COMPLETED)
                        if not done:
                            stalled = True
                            break
                        for future in done:
                            call = unresolved.pop(future)
                            try:
                                outcome = future.result()
                            except BrokenProcessPool:
                                broken = True
                                continue
                            except Exception as error:
                                if policy.retryable(error) and \
                                        call.attempts + 1 < policy.max_attempts:
                                    call.attempts += 1
                                    retries.append(call)
                                elif failure is None or call.index < failure[0]:
                                    failure = (call.index, error)
                                continue
                            if observed:
                                outcome, record = outcome
                                fold_spill_record(record)
                            results[call.index] = outcome
                            call.resolved = True
                            progressed = True
            if broken or stalled:
                self._recover_pool(progressed)
                outstanding = [call for call in outstanding if not call.resolved]
                if stalled:
                    # No task finished inside the timeout window: charge
                    # every unresolved call one timeout attempt.
                    for call in outstanding:
                        call.attempts += 1
                        if call.attempts >= policy.max_attempts:
                            raise TaskTimeoutError(
                                f"task {call.key} made no progress within its "
                                f"{policy.task_timeout:g} s budget across "
                                f"{call.attempts} attempts")
                metric_count("tasks.retried", len(outstanding))
                continue
            if failure is not None:
                raise failure[1]
            if retries:
                metric_count("tasks.retried", len(retries))
                time.sleep(max(policy.delay(call.key, call.attempts)
                               for call in retries))
                outstanding = retries
                continue
            outstanding = []
        return results


class PlannedBackend(Backend):
    """Pass-through kept for old stacks: every backend plans its own batches."""

    name = "planned"

    def __init__(self, inner="serial") -> None:
        self.inner = get_backend(inner)

    def run(self, jobs: Sequence[CharacterizationJob]) -> List[object]:
        return self.inner.run(jobs)

    def describe(self) -> str:
        return self.inner.describe()

    def close(self) -> None:
        self.inner.close()


# --------------------------------------------------------------------- #
# Lookup / convenience entry points
# --------------------------------------------------------------------- #
def get_backend(backend, workers: Optional[int] = None) -> Backend:
    """Resolve a backend name (or pass a :class:`Backend` through).

    ``workers`` only applies to the multiprocess backend; ``None`` means
    one worker per CPU.
    """
    if isinstance(backend, Backend):
        return backend
    if backend == "serial":
        return SerialBackend()
    if backend == "multiprocess":
        return MultiprocessBackend(workers=workers)
    raise ConfigurationError(
        f"unknown backend {backend!r}; expected one of {BACKENDS}")


@contextmanager
def backend_stack(backend="serial", workers: Optional[int] = None,
                  cache_dir: Optional[str] = None) -> Iterator[Backend]:
    """The backend a one-shot run schedules on, for the ``with`` block.

    ``backend`` is resolved by :func:`get_backend` and, with
    ``cache_dir`` set, fronted by the persistent result cache of
    :mod:`repro.runtime.cache`.  A backend built here from a *name* (and
    its worker pool, if any) is closed on exit; a :class:`Backend`
    instance the caller supplies stays open, its pool and per-worker
    caches warm for the caller's next batch.
    """
    inner = get_backend(backend, workers=workers)
    try:
        if cache_dir is None:
            yield inner
        else:
            from repro.runtime.cache import CachingBackend  # deferred: cache builds on backends
            yield CachingBackend(inner, cache_dir)
    finally:
        if inner is not backend:
            inner.close()


def run_jobs(jobs: Sequence[CharacterizationJob], backend="serial",
             workers: Optional[int] = None,
             cache_dir: Optional[str] = None,
             telemetry_dir: Optional[str] = None) -> List[object]:
    """Run a batch of characterization jobs on the requested backend.

    Results come back in submission order: each job's
    :class:`~repro.runtime.jobs.DesignCharacterization`, or its
    reduction's value when the job names one (computed where the job
    ran).

    ``cache_dir`` fronts the backend with the persistent on-disk result
    cache of :mod:`repro.runtime.cache`: hits skip execution entirely,
    misses run on the backend and are persisted for the next call.

    ``telemetry_dir`` (or the active settings' ``$REPRO_TELEMETRY_DIR``)
    appends a run manifest — phases, spans, worker utilisation, metrics —
    to the given directory (see :mod:`repro.obs.manifest`).  When an outer
    telemetry session is already active (a CLI, or ``run_sweep``), the
    batch is observed by it and no extra manifest is written.

    This is the one-shot convenience entry point: a backend constructed
    here from a *name* (and its worker pool, if any) is closed before
    returning (see :func:`backend_stack`).  To keep a pool and its
    per-worker caches warm across batches, pass a :class:`Backend`
    instance you own — it is left open — or schedule through
    ``StudyConfig.runtime_backend()``.
    """
    jobs = list(jobs)
    with backend_stack(backend, workers, cache_dir) as resolved, \
            telemetry_run(telemetry_dir, command="run_jobs",
                          config={"backend": resolved.describe(), "jobs": len(jobs),
                                  "cache_dir": str(cache_dir) if cache_dir else None}):
        return resolved.run(jobs)

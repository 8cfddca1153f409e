"""Task-level resilience: retry policies, deterministic backoff, timeouts.

Every characterization task is deterministic and transition-local, so a
retried task is **bit-identical by construction** — which is what makes
task-level retries safe to apply everywhere: a transient failure
(injected or real: a killed worker, an ``OSError`` out of a flaky
filesystem, a stalled task) costs one re-execution, never a changed
result.  :class:`RetryPolicy` bundles the knobs:

* ``max_attempts`` — total tries per task (1 = no retries); a backend
  without an explicit policy takes it from the active runtime settings
  (``REPRO_MAX_RETRIES`` / ``--max-retries`` count retries *on top of*
  the first attempt);
* exponential backoff whose jitter is a pure function of the task key
  and the attempt number (SHA-256, not :mod:`random`), so two runs of
  the same failing batch sleep identically — reproducibility extends
  to the failure path;
* ``task_timeout`` — optional per-task wall-clock budget in seconds
  (``REPRO_TASK_TIMEOUT`` / ``--task-timeout``).  The multiprocess backend treats a
  window with no completed task as a stall and re-dispatches
  (see :meth:`MultiprocessBackend.run_calls`); the serial backend
  checks post-hoc, since an in-process task cannot be preempted.

Only *transient* failures are retried: :data:`RETRYABLE_EXCEPTIONS`
covers :class:`OSError` (I/O hiccups, injected faults),
:class:`TimeoutError` and :class:`~repro.exceptions.TaskTimeoutError`.
Deterministic failures — a golden-model mismatch, a
:class:`~repro.exceptions.ConfigurationError` — propagate immediately:
retrying them would repeat the same failure while hiding its origin.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.exceptions import ConfigurationError, TaskTimeoutError
from repro.obs.metrics import metric_count
from repro.settings import RuntimeSettings

#: Exception types worth retrying — transient by nature.  Everything
#: else (assertion-style cross-check failures, configuration errors)
#: reflects the task itself and propagates on the first attempt.
RETRYABLE_EXCEPTIONS = (OSError, TimeoutError, TaskTimeoutError)


def deterministic_jitter(key: str, attempt: int) -> float:
    """A uniform [0, 1) draw that is a pure function of (key, attempt)."""
    digest = hashlib.sha256(f"{key}#{attempt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


@dataclass(frozen=True)
class RetryPolicy:
    """How a backend retries one failed task."""

    max_attempts: int = RuntimeSettings.max_retries + 1
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    task_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be at least 1, got {self.max_attempts}")
        if self.backoff_base < 0:
            raise ConfigurationError(
                f"backoff_base must be non-negative, got {self.backoff_base}")
        if self.backoff_factor < 1:
            raise ConfigurationError(
                f"backoff_factor must be at least 1, got {self.backoff_factor}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ConfigurationError(
                f"task_timeout must be positive, got {self.task_timeout}")

    def retryable(self, error: BaseException) -> bool:
        """Whether ``error`` is transient enough to be worth a re-run."""
        return isinstance(error, RETRYABLE_EXCEPTIONS)

    def delay(self, key: str, attempt: int) -> float:
        """Backoff before re-running ``key`` after its ``attempt``-th try.

        Exponential in the attempt with a deterministic per-key jitter
        factor in [0.5, 1.5): staggered like random jitter, reproducible
        like everything else in the pipeline.
        """
        base = self.backoff_base * self.backoff_factor ** (attempt - 1)
        return base * (0.5 + deterministic_jitter(key, attempt))


def retry_call(policy: RetryPolicy, key: str, function: Callable, *args,
               clock: Callable[[], float] = time.monotonic,
               sleep: Callable[[float], None] = time.sleep):
    """Run ``function(*args)`` under ``policy``, in the calling process.

    The in-process twin of the multiprocess gather loop: transient
    failures are retried with backoff up to ``max_attempts`` (each retry
    counted as ``tasks.retried``), the *original* error propagates on
    exhaustion, and — because an in-process task cannot be preempted —
    the per-task timeout is enforced post-hoc: an attempt that finishes
    over budget counts as a retryable :class:`TaskTimeoutError`.
    """
    attempt = 1
    while True:
        started = clock()
        try:
            result = function(*args)
        except Exception as error:
            if not policy.retryable(error) or attempt >= policy.max_attempts:
                raise
        else:
            elapsed = clock() - started
            if policy.task_timeout is None or elapsed <= policy.task_timeout:
                return result
            error = TaskTimeoutError(
                f"task {key} took {elapsed:.3f} s, over its "
                f"{policy.task_timeout:g} s budget")
            if attempt >= policy.max_attempts:
                raise error
        metric_count("tasks.retried")
        sleep(policy.delay(key, attempt))
        attempt += 1

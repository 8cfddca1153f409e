"""Persistent on-disk result cache for characterization jobs.

Re-running the paper's experiments re-characterises the same
(design x trace x clock plan) units on every figure run.  This module
adds a content-addressed store so that work survives across processes:

* :func:`job_digest` derives a stable SHA-256 key from the *full*
  identity of a :class:`~repro.runtime.jobs.CharacterizationJob` — the
  design entry and synthesis options, the trace content (operand bytes,
  not the presentational trace name), the clock plan, the simulator
  tier, the structural-stats request, the job's reduction (only when it
  names one, so word-level digests are unchanged) and the library
  version.  Any change to any of these
  yields a new key, which is the entire invalidation story: stale
  entries are never *wrong*, only unreachable.
* :class:`ResultStore` is the on-disk layout: one directory per digest
  holding the job's ``result.pkl``, whatever the trace length, plus a
  best-effort ``meta.json``.  Every write goes to a temp file in the
  same directory followed by :func:`os.replace`, so concurrent writers
  (e.g. multiprocess runs sharing one cache directory) can never expose
  a torn file.  Unreadable or truncated entries are discarded and
  recomputed, never raised.
* :class:`ResultStore` optionally enforces a byte budget
  (``limit_bytes`` / ``CachingBackend(limit_mb=...)``, or
  ``REPRO_CACHE_LIMIT_MB`` through
  :class:`~repro.experiments.common.StudyConfig`): after every batch
  that wrote entries, whole entries are pruned oldest-first until the
  store fits, so unbounded sweeps cannot fill the disk.
* :class:`CachingBackend` decorates any execution backend: hits
  deserialise stored :class:`~repro.runtime.jobs.DesignCharacterization`
  results bit-identically, and every miss runs through the inner
  backend's ``run`` in one batch, persisted on return.
* A job with a reduction (a sweep's scoring) comes back from the inner
  backend already reduced.  Its entry is that value; a hit returns it
  as stored.

The entries of a batch are written when the inner backend returns the
batch, so a run killed mid-batch leaves nothing of that batch behind: a
cached sweep, which runs in batches of 16 designs, re-simulates at most
its current batch when re-run.  An entry whose ``result.pkl`` is lost
re-simulates the whole job.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro._version import __version__
from repro.exceptions import ConfigurationError
from repro.obs.metrics import record_counter_deltas
from repro.runtime.backends import Backend, get_backend
from repro.runtime.jobs import CharacterizationJob
from repro.runtime.store import (  # noqa: F401 - re-exported cache machinery
    STORE_FORMAT,
    CacheStats,
    ResultStore,
    _canonical,
    _canonical_synthesis,
    digest_of,
    trace_digest,
)

#: Format counter of the job-result payloads; tracks :data:`STORE_FORMAT`
#: (kept as a distinct name so the two can diverge if only one payload
#: layout changes).
CACHE_FORMAT = STORE_FORMAT


def job_digest(job: CharacterizationJob) -> str:
    """Stable content digest of a characterization job's full identity."""
    payload = {
        "format": CACHE_FORMAT,
        "library_version": __version__,
        "entry": _canonical(job.entry),
        "width": job.width,
        "output_bus": job.output_bus,
        "collect_structural_stats": job.collect_structural_stats,
        "simulator": job.simulator,
        # Jobs no longer name a fast-tier kernel; the old default stays
        # in the key so entries written under it remain hits.
        "engine": "auto",
        "clock_periods": _canonical(job.clock_periods),
        "synthesis": _canonical_synthesis(job.synthesis),
        "trace": trace_digest(job.trace),
    }
    # The operator family joins the key only for non-adder entries:
    # adder digests predate the family registry and must stay
    # byte-identical so existing caches remain warm.
    family = getattr(job.entry, "family", "adder")
    if family != "adder":
        payload["family"] = family
    # Likewise the reduction joins only when set: a reduced entry holds
    # another payload than its word-level twin.
    if job.reduction is not None:
        payload["reduction"] = _canonical(job.reduction)
    return digest_of(payload)


# --------------------------------------------------------------------- #
# The caching decorator backend
# --------------------------------------------------------------------- #
class CachingBackend(Backend):
    """Front any execution backend with the persistent result store.

    Parameters
    ----------
    inner:
        The backend (or backend name) that executes cache misses.
    cache_dir:
        Root directory of the store (created on demand).
    limit_mb:
        Byte budget of the store in mebibytes (``None`` = unbounded).
        After every batch that wrote new entries, oldest entries are
        pruned until the store fits — see
        :meth:`ResultStore.prune_to_limit`.
    """

    name = "cache"

    def __init__(self, inner, cache_dir, limit_mb: Optional[float] = None) -> None:
        if limit_mb is not None and limit_mb <= 0:
            raise ConfigurationError(
                f"cache limit_mb must be positive, got {limit_mb}")
        self.inner = get_backend(inner)
        self.stats = CacheStats()
        limit_bytes = None if limit_mb is None else max(int(limit_mb * 1024 * 1024), 1)
        self.store = ResultStore(cache_dir, stats=self.stats, limit_bytes=limit_bytes)

    def describe(self) -> str:
        return f"cache[{self.inner.describe()}]"

    def close(self) -> None:
        self.inner.close()

    def reset_counters(self) -> None:
        """Zero the hit/miss counters so the next run reports only itself.

        The stats object is shared with the store, so the reset is
        in place rather than a reassignment.
        """
        self.stats.reset()

    # ------------------------------------------------------------------ #
    def run(self, jobs: Sequence[CharacterizationJob]) -> List[object]:
        jobs = list(jobs)
        stats_before = self.stats.snapshot()
        digests = [job_digest(job) for job in jobs]
        results = [self._lookup(job, digest) for job, digest in zip(jobs, digests)]

        # One delegated batch covering every miss, so the inner backend
        # plans at its full batch width.  A fully warm batch delegates
        # nothing.
        missed = [index for index, result in enumerate(results) if result is None]
        if missed:
            computed = self.inner.run([jobs[index] for index in missed])
            for index, result in zip(missed, computed):
                self._save(jobs[index], digests[index], result)
                results[index] = result
            # The budget is enforced once per batch that grew the store,
            # not once per write.
            self.store.prune_to_limit()
        record_counter_deltas(
            "cache", dataclasses.asdict(self.stats.since(stats_before)))
        return results

    # ------------------------------------------------------------------ #
    def _lookup(self, job: CharacterizationJob, digest: str) -> Optional[object]:
        payload = self.store.load(self.store.result_path(digest))
        if payload is None:
            self.stats.misses += 1
            return None
        if job.reduction is None:
            payload.trace = job.trace  # stripped before storage, restore
        self.stats.hits += 1
        return payload

    def _save(self, job: CharacterizationJob, digest: str, result: object) -> None:
        self.store.store(self.store.result_path(digest),
                         result if job.reduction is not None
                         else dataclasses.replace(result, trace=None))
        self.store.write_meta(digest, {
            "design": job.name,
            "trace_length": job.trace.length,
            "clock_periods": list(job.clock_periods),
            "simulator": job.simulator,
            "collect_structural_stats": job.collect_structural_stats,
            "library_version": __version__,
        })

"""Persistent on-disk result cache for characterization jobs.

Re-running the paper's experiments re-characterises the same
(design x trace x clock plan) units on every figure run.  This module
adds a content-addressed store so that work survives across processes:

* :func:`job_digest` derives a stable SHA-256 key from the *full*
  identity of a :class:`~repro.runtime.jobs.CharacterizationJob` — the
  design entry and synthesis options, the trace content (operand bytes,
  not the presentational trace name), the clock plan, the simulator
  tier, the fast-engine tier, the structural-stats request, the job's
  reduction (only when it names one, so word-level digests are
  unchanged) and the library version.  Any change to any of these
  yields a new key, which is the entire invalidation story: stale
  entries are never *wrong*, only unreachable.
* :class:`ResultStore` is the on-disk layout: one directory per digest
  holding either a monolithic ``result.pkl`` or — for traces larger
  than the shard threshold — a ``golden.pkl`` plus word-aligned
  ``shard-<start>-<stop>.pkl`` timing shards (the spans of
  :func:`~repro.circuit.compiled.transition_chunks`).  Every write goes
  to a temp file in the same directory followed by :func:`os.replace`,
  so concurrent writers (e.g. multiprocess runs sharing one cache
  directory) can never expose a torn file.  Unreadable or truncated
  entries are discarded and recomputed, never raised.
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
  backend already reduced.  Its entry is that value, stored whole in
  ``result.pkl`` and never sharded, whatever the trace length; a hit
  returns it as stored.

Misses are plain jobs, so the inner backend plans them like any batch.
A plain miss is the job itself.  A sharded entry without its golden
pass runs the whole job; its timing is then split into shards when
stored.  A sharded entry whose golden pass is on disk runs one *slice
job* per missing shard (the job over that shard's vectors, without
structural statistics).  Because both simulator tiers are
transition-local, shards merge via
:func:`~repro.runtime.jobs.merge_timing_chunks` into exactly the
full-trace result.

Every entry of a batch — golden pass and shards included — is written
only after the inner backend has returned the whole batch, so a run
killed mid-batch leaves nothing of that batch behind.  Shards save work
only when one shard file is lost to a write error or corruption: the
other shards are then reused and the lost one alone is simulated again.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro._version import __version__
from repro.circuit.compiled import transition_chunks
from repro.exceptions import ConfigurationError
from repro.obs.metrics import record_counter_deltas
from repro.runtime.backends import Backend, get_backend
from repro.runtime.jobs import (
    CharacterizationJob,
    DesignCharacterization,
    merge_timing_chunks,
)
from repro.runtime.store import (  # noqa: F401 - re-exported cache machinery
    STORE_FORMAT,
    CacheStats,
    ResultStore,
    _canonical,
    _canonical_synthesis,
    digest_of,
    trace_digest,
)
from repro.timing.errors import TimingErrorTrace

#: Format counter of the job-result payloads; tracks :data:`STORE_FORMAT`
#: (kept as a distinct name so the two can diverge if only one payload
#: layout changes).
CACHE_FORMAT = STORE_FORMAT

#: Traces with more transitions than this spill to per-chunk timing
#: shards instead of one monolithic result pickle (word-aligned via
#: :func:`transition_chunks`), so a shard lost to a write error or
#: corruption is simulated again without the others.
DEFAULT_SHARD_TRANSITIONS = 65536


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
        "engine": job.engine,
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
@dataclass
class _JobPlan:
    """What one job of a batch needs: nothing (hit), or delegated jobs.

    ``pending`` holds the jobs sent to the inner backend — the job
    itself, or one slice job per missing shard — and ``computed`` their
    results, in the same order.
    """

    job: CharacterizationJob
    digest: str
    result: Optional[object] = None
    spans: Optional[List[Tuple[int, int]]] = None
    golden: Optional[tuple] = None
    shard_payloads: Dict[Tuple[int, int], dict] = field(default_factory=dict)
    missing: List[Tuple[int, int]] = field(default_factory=list)
    pending: List[CharacterizationJob] = field(default_factory=list)
    computed: List[object] = field(default_factory=list)


def _timing_shards(timing: Dict[float, TimingErrorTrace],
                   spans: List[Tuple[int, int]]) -> List[Dict[float, TimingErrorTrace]]:
    """Split full-trace timing results into per-span shard payloads.

    Every clock of a shard shares one settled slice, as every clock of a
    simulator run shares one settled array.
    """
    shards = []
    for start, stop in spans:
        settled = next(iter(timing.values())).settled_words[start:stop]
        shards.append({clk: TimingErrorTrace(
            clock_period=clk, sampled_words=trace.sampled_words[start:stop],
            settled_words=settled, output_width=trace.output_width)
            for clk, trace in timing.items()})
    return shards


class CachingBackend(Backend):
    """Front any execution backend with the persistent result store.

    Parameters
    ----------
    inner:
        The backend (or backend name) that executes cache misses.
    cache_dir:
        Root directory of the store (created on demand).
    shard_transitions:
        Traces with more transitions than this are stored as per-chunk
        timing shards instead of one monolithic pickle, so a shard lost
        to a write error or corruption is simulated again without the
        others.  Shards are written only once the whole batch has run,
        so an interrupted run leaves none behind.  ``None`` disables
        sharding.
    limit_mb:
        Byte budget of the store in mebibytes (``None`` = unbounded).
        After every batch that wrote new entries, oldest entries are
        pruned until the store fits — see
        :meth:`ResultStore.prune_to_limit`.
    """

    name = "cache"

    def __init__(self, inner, cache_dir,
                 shard_transitions: Optional[int] = DEFAULT_SHARD_TRANSITIONS,
                 limit_mb: Optional[float] = None) -> None:
        if shard_transitions is not None and shard_transitions < 1:
            raise ConfigurationError(
                f"shard_transitions must be at least 1, got {shard_transitions}")
        if limit_mb is not None and limit_mb <= 0:
            raise ConfigurationError(
                f"cache limit_mb must be positive, got {limit_mb}")
        self.inner = get_backend(inner)
        self.stats = CacheStats()
        limit_bytes = None if limit_mb is None else max(int(limit_mb * 1024 * 1024), 1)
        self.store = ResultStore(cache_dir, stats=self.stats, limit_bytes=limit_bytes)
        self.shard_transitions = shard_transitions

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
        misses_before = self.stats.misses
        stats_before = self.stats.snapshot()
        plans = [self._plan(job) for job in jobs]

        # One delegated batch covering every miss, so the inner backend
        # plans at its full batch width.  A fully warm batch delegates
        # nothing.
        pending = [job for plan in plans for job in plan.pending]
        if pending:
            computed = iter(self.inner.run(pending))
            for plan in plans:
                plan.computed = [next(computed) for _ in plan.pending]

        results = [self._assemble(plan) for plan in plans]
        if self.stats.misses > misses_before:
            # Every write path counts a miss first, so this is exactly
            # "the batch grew the store"; the budget is then enforced
            # once per batch, not once per write.
            self.store.prune_to_limit()
        record_counter_deltas(
            "cache", dataclasses.asdict(self.stats.since(stats_before)))
        return results

    # ------------------------------------------------------------------ #
    def _sharded(self, job: CharacterizationJob) -> bool:
        # A reduced result has no per-vector words to shard.
        return (self.shard_transitions is not None and job.reduction is None
                and job.trace.transitions > self.shard_transitions)

    def _plan(self, job: CharacterizationJob) -> _JobPlan:
        digest = job_digest(job)
        plan = _JobPlan(job=job, digest=digest)
        if self._sharded(job):
            self._plan_sharded(plan)
            return plan
        payload = self.store.load(self.store.result_path(digest))
        if payload is not None:
            if job.reduction is None:
                payload.trace = job.trace  # stripped before storage, restore
            plan.result = payload
            self.stats.hits += 1
        else:
            plan.pending.append(job)
            self.stats.misses += 1
        return plan

    def _plan_sharded(self, plan: _JobPlan) -> None:
        job, digest = plan.job, plan.digest
        plan.spans = transition_chunks(job.trace.transitions, self.shard_transitions)
        plan.golden = self.store.load(self.store.golden_path(digest))
        for start, stop in plan.spans:
            payload = self.store.load(self.store.shard_path(digest, start, stop))
            if payload is not None:
                plan.shard_payloads[(start, stop)] = payload
                self.stats.shard_hits += 1
            else:
                plan.missing.append((start, stop))
                self.stats.shard_misses += 1
        if plan.golden is not None and not plan.missing:
            self.stats.hits += 1
            return
        self.stats.misses += 1
        if plan.golden is None:
            plan.pending.append(job)
            return
        for start, stop in plan.missing:
            # Transitions [start, stop) need vectors [start, stop]: one
            # vector of overlap with the previous shard.
            plan.pending.append(dataclasses.replace(
                job, trace=job.trace.slice(start, stop + 1),
                collect_structural_stats=False))

    def _assemble(self, plan: _JobPlan) -> object:
        if plan.result is not None:
            return plan.result
        if plan.spans is None:
            [result] = plan.computed
            self.store.store(self.store.result_path(plan.digest),
                             result if plan.job.reduction is not None
                             else dataclasses.replace(result, trace=None))
            self._write_meta(plan, sharded=False)
            return result
        if plan.golden is None:
            [result] = plan.computed
            self.store.store(self.store.golden_path(plan.digest), (
                result.synthesized, result.diamond_words, result.gold_words,
                result.structural_stats, result.netlist_words))
            for span, shard in zip(plan.missing,
                                   _timing_shards(result.timing_traces, plan.missing)):
                self.store.store(self.store.shard_path(plan.digest, *span), shard)
            self._write_meta(plan, sharded=True)
            return result
        for span, result in zip(plan.missing, plan.computed):
            self.store.store(self.store.shard_path(plan.digest, *span),
                             result.timing_traces)
            plan.shard_payloads[span] = result.timing_traces
        self._write_meta(plan, sharded=True)
        synthesized, diamond, gold, structural_stats, netlist_words = plan.golden
        return DesignCharacterization(
            entry=plan.job.entry,
            synthesized=synthesized,
            trace=plan.job.trace,
            diamond_words=diamond,
            gold_words=gold,
            timing_traces=merge_timing_chunks(
                plan.shard_payloads[span] for span in plan.spans),
            structural_stats=structural_stats,
            netlist_words=netlist_words,
        )

    def _write_meta(self, plan: _JobPlan, sharded: bool) -> None:
        job = plan.job
        self.store.write_meta(plan.digest, {
            "design": job.name,
            "trace_length": job.trace.length,
            "clock_periods": list(job.clock_periods),
            "simulator": job.simulator,
            "engine": job.engine,
            "collect_structural_stats": job.collect_structural_stats,
            "library_version": __version__,
            "sharded": sharded,
        })

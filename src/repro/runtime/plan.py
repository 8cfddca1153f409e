"""Execution planning: one pure planner, one fast-tier kernel, one fan-in.

Every backend runs a batch of :class:`CharacterizationJob` units the same
way (:meth:`repro.runtime.backends.Backend.run`); backends differ only in
where the planned calls execute.

* **Plan** — :func:`plan_groups` is a pure function from a batch and a
  pool width to *groups*.  Jobs sharing a design identity and clock plan
  (:func:`group_key`) form one group, so they synthesize once and
  simulate together, in one stacked pass at one clock set.  When the
  pool is wider than the group count, the largest groups are halved,
  and then one-job groups are cut into word-aligned trace slices (the
  spans of :func:`~repro.circuit.compiled.transition_chunks`), until
  every worker has a task.
* **Execute** — each group is one call of :func:`run_group`.  Fast-tier
  groups run :func:`execute_group`: one stacked multi-trace pass
  (:meth:`FastTimingSimulator.run_traces_multi`) whose settled values
  double as the gate-level golden words, so a job costs one logic pass.
  Event-tier groups run :func:`~repro.runtime.jobs.execute_job` per job.
  Designs are memoised per process by
  :func:`~repro.runtime.jobs.synthesize_job`, simulators in
  :data:`_GROUP_SIMULATORS` by design and
  :meth:`~repro.runtime.jobs.CharacterizationJob.cache_key`, so groups of
  one design at different clock plans share a simulator (which builds
  one packed timing program per clock set).
* **Reduce** — a job that names a reduction
  (:attr:`CharacterizationJob.reduction`) is reduced by
  :func:`run_group` in the process that ran it, so only the small
  reduced value travels back.  A job cut into slices is reduced by
  :func:`gather_results` once its words are merged, so a reduction
  always sees the whole trace and no float sum is re-associated.
* **Fan in** — :func:`gather_results` returns results in submission
  order and merges the slices of a cut job: per-vector words drop the
  one vector of overlap, timing concatenates in trace order, and
  structural statistics are recomputed over the full trace.

Packed words of different traces never mix, the behavioural golden
models are elementwise and both timing tiers are transition-local, so
every result is **bit-identical** to :func:`~repro.runtime.jobs.execute_job`
on the job alone, whatever the pool width or split.

A group reaches its call as a :class:`_GroupSpec`: the shared job fields
plus one trace per member.  In-process backends put the traces in the
spec as they are; the multiprocess backend ships them through its
:class:`TraceShipper` — each unique trace is written once per backend,
named by content digest, and loaded once per worker
(:data:`_WORKER_TRACES`).
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuit.compiled import transition_chunks
from repro.exceptions import ConfigurationError
from repro.families import family_of
from repro.obs.metrics import metric_count
from repro.obs.trace import span
from repro.runtime.faultinject import POINT_TASK, fault_point
from repro.runtime.jobs import (
    CharacterizationJob,
    DesignCharacterization,
    build_simulator,
    execute_job,
    merge_timing_chunks,
    synthesize_job,
)
from repro.runtime.store import trace_digest
from repro.utils.lru import IdentityMemo, LRUDict
from repro.workloads.traces import OperandTrace

#: One member of a planned group: a batch index, and the transition
#: span ``(start, stop)`` of a trace slice or ``None`` for the whole trace.
Member = Tuple[int, Optional[Tuple[int, int]]]

#: Traces whose operand dicts are memoised per object identity, so the
#: interned expansion cache in :mod:`repro.timing.operands` sees stable
#: array identities across the many groups of one sweep.
_OPERAND_CACHE: "IdentityMemo[dict]" = IdentityMemo(64)

#: Per-process interned traces by digest (LRU; traces can be large).
_WORKER_TRACES: "LRUDict[str, OperandTrace]" = LRUDict(32)

#: Per-process simulators per synthesized design object and job
#: :meth:`~repro.runtime.jobs.CharacterizationJob.cache_key`, so a
#: re-synthesized design never reuses a program lowered from another
#: instance, and groups that differ only in their clock plan share one
#: simulator.  LRU-bounded: a sweep touches each design once, so entries
#: beyond the working set are dead weight in a long-lived process or
#: warm pool.
_GROUP_SIMULATORS: "IdentityMemo[object]" = IdentityMemo(16)


def _operands_of(trace: OperandTrace) -> dict:
    """``trace.as_operands()``, memoised per trace object.

    Re-deriving the dict per group would mint fresh ``cin`` arrays every
    time and defeat the identity-keyed expansion interning downstream.
    """
    operands = _OPERAND_CACHE.get((trace,))
    if operands is None:
        operands = _OPERAND_CACHE.put((trace,), trace.as_operands())
    return operands


def group_key(job: CharacterizationJob) -> tuple:
    """Planner grouping key: everything but the trace and the stats flag."""
    return (job.cache_key(), job.clock_periods)


# --------------------------------------------------------------------- #
# Planning
# --------------------------------------------------------------------- #
def plan_groups(jobs: Sequence[CharacterizationJob], width: int = 1) -> List[List[Member]]:
    """Group a batch by :func:`group_key` and fill a pool of ``width``.

    Groups appear in the order of their first job.  While there are
    fewer groups than ``width``, the largest group is halved; once every
    group holds one job, each job's trace is cut into about
    ``width / groups`` word-aligned slices.  Splitting is always safe:
    a sub-group is itself a valid group, and the fan-in merges slices
    back in trace order.
    """
    grouped: Dict[tuple, List[Member]] = {}
    for index, job in enumerate(jobs):
        grouped.setdefault(group_key(job), []).append((index, None))
    groups = list(grouped.values())
    while groups and len(groups) < width:
        largest = max(range(len(groups)), key=lambda i: len(groups[i]))
        members = groups[largest]
        if len(members) < 2:
            break
        middle = len(members) // 2
        groups[largest:largest + 1] = [members[:middle], members[middle:]]
    if not groups or len(groups) >= width:
        return groups
    pieces = -(-width // len(groups))
    sliced: List[List[Member]] = []
    for [(index, _)] in groups:
        transitions = jobs[index].trace.transitions
        spans = transition_chunks(transitions, -(-transitions // pieces))
        sliced.extend([[(index, span)] for span in spans] if len(spans) > 1
                      else [[(index, None)]])
    return sliced


# --------------------------------------------------------------------- #
# Kernels
# --------------------------------------------------------------------- #
def execute_group(jobs: Sequence[CharacterizationJob],
                  synthesized=None, simulator=None) -> List[DesignCharacterization]:
    """Execute one same-design, same-clock-plan fast-tier group in one pass.

    Behavioural golden references run as **one** vectorised pass over
    the concatenated operand arrays (both models are elementwise, so
    slicing the result per job is bit-identical to per-job calls); the
    gate-level golden words fall out of the same packed evaluation that
    feeds the timing masks, so the group pays a single logic pass where
    :func:`~repro.runtime.jobs.execute_job` pays two per job.
    """
    jobs = list(jobs)
    job0 = jobs[0]
    if synthesized is None:
        synthesized = synthesize_job(job0)
    if simulator is None:
        simulator = build_simulator(job0.simulator, synthesized)
    traces = [job.trace for job in jobs]
    bounds = np.cumsum([0] + [trace.length for trace in traces])

    family = family_of(job0.entry)
    with span("simulate", design=job0.name, jobs=len(jobs),
               transitions=int(bounds[-1])):
        a = np.concatenate([trace.a for trace in traces])
        b = np.concatenate([trace.b for trace in traces])
        diamond_all = family.exact_words(job0.width, a, b)
        # golden_words copies the exact baseline's diamond buffer, like
        # execute_job() does: a result must never alias its gold and
        # diamond words to one buffer.
        gold_all, _ = family.golden_words(job0.entry, job0.width, a, b,
                                          diamond=diamond_all)

    batched = simulator.run_traces_multi(
        [_operands_of(trace) for trace in traces], job0.clock_periods,
        output_bus=job0.output_bus)

    results: List[DesignCharacterization] = []
    for index, job in enumerate(jobs):
        low, high = int(bounds[index]), int(bounds[index + 1])
        diamond = diamond_all[low:high]
        gold = gold_all[low:high]
        structural_stats = None
        if job.collect_structural_stats and not job0.entry.is_exact:
            with span("simulate"):
                gold, structural_stats = family.golden_words(
                    job.entry, job.width, job.trace.a, job.trace.b,
                    collect_stats=True)
        netlist_words = batched.settled_values[index]
        if not np.array_equal(netlist_words, gold):
            raise ConfigurationError(
                f"synthesized netlist of {job.name} disagrees with its behavioural "
                "golden model; the synthesis flow is unfaithful")
        results.append(DesignCharacterization(
            entry=job.entry,
            synthesized=synthesized,
            trace=job.trace,
            diamond_words=diamond,
            gold_words=gold,
            timing_traces=batched.timing[index],
            structural_stats=structural_stats,
            netlist_words=netlist_words,
        ))
    return results


@dataclass(frozen=True)
class _TraceRef:
    """A spilled trace, by content digest and spill path."""

    digest: str
    path: str


@dataclass(frozen=True)
class _GroupMember:
    """One member of a group call: its trace or spill ref, its slice and
    the reduction the call applies (``None`` for a slice)."""

    trace: Union[OperandTrace, _TraceRef]
    span: Optional[Tuple[int, int]]
    collect_structural_stats: bool
    reduction: Optional[Callable]


@dataclass(frozen=True)
class _GroupSpec:
    """A planned group as one call: the shared job fields plus its members."""

    entry: object
    width: int
    synthesis: object
    simulator: str
    output_bus: str
    clock_periods: Tuple[float, ...]
    members: Tuple[_GroupMember, ...]

    def jobs(self) -> List[CharacterizationJob]:
        jobs = []
        for member in self.members:
            trace = member.trace
            if isinstance(trace, _TraceRef):
                trace = _load_trace(trace)
            if member.span is not None:
                start, stop = member.span
                # Transitions [start, stop) need vectors [start, stop].
                trace = trace.slice(start, stop + 1)
            jobs.append(CharacterizationJob(
                entry=self.entry, trace=trace, clock_periods=self.clock_periods,
                simulator=self.simulator, synthesis=self.synthesis,
                width=self.width, collect_structural_stats=member.collect_structural_stats,
                output_bus=self.output_bus, reduction=member.reduction))
        return jobs


def group_spec(jobs: Sequence[CharacterizationJob], group: List[Member],
               ship: Callable[[OperandTrace], object]) -> _GroupSpec:
    """The call payload of one planned group; ``ship`` maps each trace.

    A slice never collects structural statistics or reduces: both need
    the full trace, so they happen when the slices are merged.
    """
    job0 = jobs[group[0][0]]
    return _GroupSpec(
        entry=job0.entry, width=job0.width, synthesis=job0.synthesis,
        simulator=job0.simulator, output_bus=job0.output_bus,
        clock_periods=job0.clock_periods,
        members=tuple(_GroupMember(
            trace=ship(jobs[index].trace), span=span,
            collect_structural_stats=jobs[index].collect_structural_stats and span is None,
            reduction=jobs[index].reduction if span is None else None)
            for index, span in group))


def run_group(spec: _GroupSpec) -> List[object]:
    """One planned group, in whichever process runs it.

    Results come back in member order.  A member with a reduction comes
    back reduced; any other comes back with its trace stripped — the
    caller still holds it, and restores it in :func:`gather_results`.
    """
    jobs = spec.jobs()
    job0 = jobs[0]
    fault_point(POINT_TASK, job0.name)
    synthesized = synthesize_job(job0)
    key = job0.cache_key()
    simulator = _GROUP_SIMULATORS.get((synthesized,), key)
    if simulator is None:
        simulator = _GROUP_SIMULATORS.put(
            (synthesized,), build_simulator(job0.simulator, synthesized), key)
    if job0.simulator == "fast":
        results = execute_group(jobs, synthesized=synthesized, simulator=simulator)
    else:
        results = [execute_job(job, synthesized=synthesized, simulator=simulator)
                   for job in jobs]
    outcomes: List[object] = []
    for job, result in zip(jobs, results):
        if job.reduction is not None:
            result = job.reduction(result)
        else:
            result.trace = None
        outcomes.append(result)
    return outcomes


# --------------------------------------------------------------------- #
# Trace shipping: one spill file per unique trace and backend
# --------------------------------------------------------------------- #
def _load_trace(ref: _TraceRef) -> OperandTrace:
    """Resolve a trace ref: one disk load per digest and process."""
    trace = _WORKER_TRACES.get(ref.digest)
    if trace is None:
        with open(ref.path, "rb") as handle:
            payload = pickle.load(handle)
        trace = _WORKER_TRACES.put(ref.digest, OperandTrace(
            a=payload["a"], b=payload["b"],
            width=payload["width"], name=payload["name"]))
    return trace


class TraceShipper:
    """Ships traces as digest-named spill files, each written once.

    A backend owns one: the temp directory is created when the first
    trace ships and every unique trace (by content digest) is written
    once, however many batches use it.  :meth:`close` removes the
    directory and forgets the refs, so shipping after it spills afresh;
    a shipper collected unclosed, or alive at interpreter exit, removes
    it too.  Presentational trace names ride along; results never
    depend on them.
    """

    def __init__(self) -> None:
        # Digest memo; modest capacity on purpose — entries pin their
        # trace (for the identity check), and recomputing a SHA-256 is
        # far cheaper than keeping large dead traces alive.
        self._digests: "IdentityMemo[str]" = IdentityMemo(64)
        self._refs: Dict[str, _TraceRef] = {}
        self._dir: Optional[str] = None
        self._remove_dir: Optional[weakref.finalize] = None

    def ship(self, trace: OperandTrace) -> _TraceRef:
        """The ref a call carries for ``trace``; counts each file written."""
        digest = self._digests.get((trace,))
        if digest is None:
            digest = self._digests.put((trace,), trace_digest(trace))
        ref = self._refs.get(digest)
        if ref is None:
            if self._dir is None:
                self._dir = tempfile.mkdtemp(prefix="repro-plan-traces-")
                self._remove_dir = weakref.finalize(self, shutil.rmtree, self._dir, True)
            ref = _TraceRef(digest, os.path.join(self._dir, f"{digest}.pkl"))
            with open(ref.path, "wb") as handle:
                pickle.dump({"a": trace.a, "b": trace.b, "width": trace.width,
                             "name": trace.name}, handle, protocol=pickle.HIGHEST_PROTOCOL)
            self._refs[digest] = ref
            metric_count("plan.traces_interned")
        return ref

    def close(self) -> None:
        """Remove the spill directory and forget its refs (idempotent)."""
        if self._dir is not None:
            self._remove_dir()
            self._dir = None
        self._refs = {}


# --------------------------------------------------------------------- #
# Fan-in
# --------------------------------------------------------------------- #
def _merge_slices(job: CharacterizationJob,
                  parts: List[DesignCharacterization]) -> DesignCharacterization:
    """One job's result from its trace slices, in trace order."""
    def vectors(name: str) -> np.ndarray:
        # Consecutive slices share one boundary vector; keep it once.
        return np.concatenate([getattr(parts[0], name)]
                              + [getattr(part, name)[1:] for part in parts[1:]])

    structural_stats = None
    if job.collect_structural_stats:
        with span("simulate", design=job.name, transitions=job.trace.length):
            _, structural_stats = family_of(job.entry).golden_words(
                job.entry, job.width, job.trace.a, job.trace.b, collect_stats=True)
    return DesignCharacterization(
        entry=job.entry,
        synthesized=parts[0].synthesized,
        trace=job.trace,
        diamond_words=vectors("diamond_words"),
        gold_words=vectors("gold_words"),
        timing_traces=merge_timing_chunks(part.timing_traces for part in parts),
        structural_stats=structural_stats,
        netlist_words=vectors("netlist_words"),
    )


def gather_results(jobs: Sequence[CharacterizationJob], groups: List[List[Member]],
                   outcomes: Sequence[List[object]]) -> List[object]:
    """Per-job results in submission order, slices merged, traces restored.

    A job in one piece was run whole, so :func:`run_group` has already
    reduced it if it names a reduction; a job in slices is reduced here,
    after its words are merged.
    """
    parts: List[List[object]] = [[] for _ in jobs]
    for group, results in zip(groups, outcomes):
        for (index, _), result in zip(group, results):
            parts[index].append(result)
    gathered = []
    for job, pieces in zip(jobs, parts):
        if len(pieces) == 1:
            [result] = pieces
            if job.reduction is None:
                result.trace = job.trace
        else:
            result = _merge_slices(job, pieces)
            if job.reduction is not None:
                result = job.reduction(result)
        gathered.append(result)
    return gathered


def __getattr__(name: str):
    # PlannedBackend is defined in repro.runtime.backends, which imports
    # this module, so this import path resolves it lazily.
    if name == "PlannedBackend":
        from repro.runtime.backends import PlannedBackend
        return PlannedBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

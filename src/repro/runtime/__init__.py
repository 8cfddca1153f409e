"""Unified characterization runtime: jobs, one planner, pluggable backends.

Every heavy operation of the reproduction — synthesize a design, compute
its golden references, simulate an operand trace at a set of clock
periods — is modelled as a :class:`CharacterizationJob` and run by a
:class:`Backend`.  Every backend runs a batch the same way: the planner
(:mod:`repro.runtime.plan`) groups jobs sharing a design and clock plan,
each group runs as one call of the fast-tier kernel
:func:`execute_group` (event-tier groups run :func:`execute_job` per
job), and the results come back in submission order.  Backends differ
only in where the calls run:

* ``serial`` runs them in-process,
* ``multiprocess`` fans them out across worker processes; when a batch
  has fewer groups than workers, groups are halved and single jobs cut
  into word-aligned trace slices, merged back in trace order.

Results are bit-identical to :func:`execute_job`, the reference kernel,
on any backend and at any worker count.  The experiment drivers
(`repro.experiments`), the dataset assembly (`repro.ml.dataset`), the
CLIs and the benchmarks all characterise through this runtime.

:mod:`repro.runtime.cache` adds persistence on top: wrapping any
backend in a :class:`CachingBackend` stores every result in a
content-addressed on-disk store keyed by the job's full identity, so
re-runs reuse finished work bit-identically instead of re-simulating it.

Quick start::

    from repro.runtime import CharacterizationJob, run_jobs
    from repro.experiments.designs import isa_entry

    job = CharacterizationJob(entry=isa_entry((8, 0, 0, 4)), trace=trace,
                              clock_periods=(2.55e-10,), simulator="fast")
    [result] = run_jobs([job], backend="multiprocess", workers=4)
"""

from repro.runtime.backends import (
    BACKENDS,
    Backend,
    MultiprocessBackend,
    PlannedBackend,
    SerialBackend,
    backend_stack,
    get_backend,
    run_jobs,
)
from repro.runtime.cache import (
    CacheStats,
    CachingBackend,
    ResultStore,
    job_digest,
    trace_digest,
)
from repro.runtime.faultinject import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultSpec,
    active_fault_plan,
    fault_point,
    parse_fault_plan,
)
from repro.runtime.jobs import (
    SIMULATORS,
    CharacterizationJob,
    DesignCharacterization,
    build_simulator,
    clear_design_cache,
    execute_job,
    merge_timing_chunks,
    synthesize_entry,
    synthesize_job,
)
from repro.runtime.plan import execute_group, plan_groups
from repro.runtime.resilience import (
    RETRYABLE_EXCEPTIONS,
    RetryPolicy,
    deterministic_jitter,
    retry_call,
)
from repro.runtime.synth_cache import (
    SynthesisCache,
    active_synth_cache,
    configure_synth_cache,
    synth_digest,
)

__all__ = [
    "BACKENDS",
    "FAULT_PLAN_ENV",
    "RETRYABLE_EXCEPTIONS",
    "SIMULATORS",
    "Backend",
    "CacheStats",
    "CachingBackend",
    "CharacterizationJob",
    "DesignCharacterization",
    "FaultPlan",
    "FaultSpec",
    "MultiprocessBackend",
    "PlannedBackend",
    "ResultStore",
    "RetryPolicy",
    "SerialBackend",
    "SynthesisCache",
    "active_fault_plan",
    "active_synth_cache",
    "backend_stack",
    "build_simulator",
    "clear_design_cache",
    "configure_synth_cache",
    "deterministic_jitter",
    "execute_group",
    "execute_job",
    "fault_point",
    "get_backend",
    "job_digest",
    "merge_timing_chunks",
    "parse_fault_plan",
    "plan_groups",
    "retry_call",
    "run_jobs",
    "synth_digest",
    "synthesize_entry",
    "synthesize_job",
    "trace_digest",
]

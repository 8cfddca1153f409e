"""Tests of the resilient execution layer (retries, recovery, resumed sweeps).

The contract under test: a worker killed mid-batch recovers with results
bit-identical to the fault-free ``execute_job`` reference, at 1, 2 and 4
workers, cached and uncached; a stalled worker is terminated on pool
recovery; retry exhaustion propagates the original error; a pool whose
workers die on every task degrades to in-process execution with a
warning instead of failing; transient store-write failures warn once
and continue as misses; a sweep re-run against its result cache
simulates only the jobs no finished batch stored; and fault
plans count one global event stream, so they fire identically whatever
the process layout.
"""

from __future__ import annotations

import json
import multiprocessing.connection
import os
import pickle
import subprocess
import sys
import warnings
from contextlib import ExitStack
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, TaskTimeoutError
from repro.experiments.designs import exact_entry, isa_entry
from repro.explore.space import space_entries
from repro.explore.sweep import SweepScoring, SweepSpec, run_sweep
from repro.obs.metrics import metrics_run
from repro.obs.trace import trace_run
from repro.runtime import (
    FAULT_PLAN_ENV,
    CachingBackend,
    CharacterizationJob,
    MultiprocessBackend,
    RetryPolicy,
    SerialBackend,
    active_fault_plan,
    deterministic_jitter,
    execute_job,
    job_digest,
    parse_fault_plan,
    retry_call,
    run_jobs,
)
from repro.runtime.faultinject import POINT_TASK, FaultPlan, FaultSpec
from repro.runtime.store import STORE_FORMAT, ResultStore
from repro.settings import using_settings
from repro.timing.clocking import ClockPlan
from repro.workloads.generators import WorkloadSpec, uniform_workload

PERIODS = tuple(ClockPlan.paper().periods)


def small_job(length=200, quadruple=(4, 0, 0, 2), simulator="fast", seed=11, **kwargs):
    """A quick 16-bit characterization job (mirrors test_result_cache)."""
    entry = exact_entry(16) if quadruple is None else isa_entry(quadruple, width=16)
    trace = uniform_workload(length, width=16, seed=seed)
    return CharacterizationJob(entry=entry, trace=trace, clock_periods=PERIODS,
                               simulator=simulator, width=16, **kwargs)


def job_batch():
    """Four jobs: two designs across two operand traces."""
    return [small_job(quadruple=quadruple, seed=seed)
            for seed in (11, 12) for quadruple in ((4, 0, 0, 2), (4, 2, 1, 2))]


def assert_bit_identical(reference, candidate):
    """Every array of two characterisations matches exactly."""
    assert reference.name == candidate.name
    assert np.array_equal(reference.diamond_words, candidate.diamond_words)
    assert np.array_equal(reference.gold_words, candidate.gold_words)
    assert np.array_equal(reference.netlist_words, candidate.netlist_words)
    assert set(reference.timing_traces) == set(candidate.timing_traces)
    for clk, timing in reference.timing_traces.items():
        other = candidate.timing_traces[clk]
        assert np.array_equal(timing.sampled_words, other.sampled_words)
        assert np.array_equal(timing.settled_words, other.settled_words)


def multiprocess_backend(**kwargs):
    """A multiprocess backend, quiet about worker clamping on small hosts."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return MultiprocessBackend(**kwargs)


@pytest.fixture
def arm_faults(tmp_path):
    """Arm (and on teardown disarm) a fault plan with a fresh state dir.

    The explicit per-test ``state_dir`` matters: event ordinals and
    ``times`` budgets are claimed through token files that would
    otherwise be shared by every test of this process using the same
    plan text.
    """
    with ExitStack() as armed:
        def arm(faults, **extra):
            document = {"faults": faults, "state_dir": str(tmp_path / "fault-state")}
            document.update(extra)
            armed.enter_context(using_settings(fault_plan=json.dumps(document)))
            return document
        yield arm


# --------------------------------------------------------------------- #
# Environment knobs
# --------------------------------------------------------------------- #
class TestEnvKnobs:
    @pytest.mark.parametrize("value", ["banana", "-1", "1.5"])
    def test_malformed_retries_names_variable_and_value(self, monkeypatch,
                                                         unresolved_settings, value):
        monkeypatch.setenv("REPRO_MAX_RETRIES", value)
        with pytest.raises(ConfigurationError) as excinfo:
            SerialBackend().policy()
        assert "REPRO_MAX_RETRIES" in str(excinfo.value)
        assert repr(value) in str(excinfo.value)

    @pytest.mark.parametrize("value", ["soon", "0", "-2.5"])
    def test_malformed_timeout_names_variable_and_value(self, monkeypatch,
                                                        unresolved_settings, value):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", value)
        with pytest.raises(ConfigurationError) as excinfo:
            SerialBackend().policy()
        assert "REPRO_TASK_TIMEOUT" in str(excinfo.value)
        assert repr(value) in str(excinfo.value)

    def test_env_policy_resolves_attempts_and_timeout(self, repro_env):
        repro_env(REPRO_MAX_RETRIES="5", REPRO_TASK_TIMEOUT="2.5")
        policy = SerialBackend().policy()
        assert policy.max_attempts == 6
        assert policy.task_timeout == 2.5
        explicit = RetryPolicy(max_attempts=2)
        assert SerialBackend(retry_policy=explicit).policy() is explicit

    def test_zero_retries_means_single_attempt(self, repro_env):
        repro_env(REPRO_MAX_RETRIES="0")
        assert SerialBackend().policy().max_attempts == 1

    @pytest.mark.parametrize("document, detail", [
        ("{not json", "must be JSON"),
        ("/nonexistent/fault-plan.json", "unreadable plan file"),
        ('{"faults": 3}', "'faults' list"),
        ('[{"kind": "melt-cpu", "at": 1}]', "unknown kind"),
        ('[{"kind": "task-error"}]', "'at' or 'every' trigger"),
        ('[{"kind": "task-error", "at": 0}]', "must be a positive integer"),
        ('[{"kind": "task-error", "at": 1, "color": "red"}]', "unknown fields"),
        ('[{"kind": "task-error", "at": 1, "point": "moon"}]', "unknown point"),
        ('[{"kind": "delay", "at": 1, "seconds": -1}]', "non-negative number"),
        ('{"faults": [], "state_dir": 7}', "path string"),
    ])
    def test_malformed_fault_plan_names_variable_and_value(self, document, detail):
        with pytest.raises(ConfigurationError) as excinfo:
            parse_fault_plan(document)
        message = str(excinfo.value)
        assert FAULT_PLAN_ENV in message
        assert detail in message
        assert repr(document) in message

    def test_active_plan_rearms_when_env_changes(self, arm_faults):
        arm_faults([{"kind": "task-error", "at": 1}])
        first = active_fault_plan()
        assert [spec.kind for spec in first.specs] == ["task-error"]
        arm_faults([{"kind": "delay", "every": 2, "seconds": 0.1}])
        second = active_fault_plan()
        assert second is not first
        assert [spec.kind for spec in second.specs] == ["delay"]


# --------------------------------------------------------------------- #
# Retry policy and the in-process retry loop
# --------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_jitter_is_deterministic_and_uniform(self):
        draws = {deterministic_jitter(f"job{i}", attempt)
                 for i in range(8) for attempt in (1, 2)}
        assert len(draws) == 16
        assert all(0.0 <= draw < 1.0 for draw in draws)
        assert deterministic_jitter("job0", 1) == deterministic_jitter("job0", 1)

    def test_delay_is_exponential_with_bounded_jitter(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0)
        for attempt in (1, 2, 3):
            base = 0.1 * 2.0 ** (attempt - 1)
            delay = policy.delay("some-task", attempt)
            assert base * 0.5 <= delay < base * 1.5
        assert policy.delay("a", 1) == policy.delay("a", 1)

    def test_invalid_policy_fields_raise(self):
        with pytest.raises(ConfigurationError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError, match="task_timeout"):
            RetryPolicy(task_timeout=0.0)

    def test_transient_failure_is_retried_then_succeeds(self):
        attempts, sleeps = [], []

        def flaky():
            attempts.append(1)
            if len(attempts) < 2:
                raise OSError("transient hiccup")
            return "ok"

        policy = RetryPolicy(max_attempts=3, backoff_base=0.125)
        with metrics_run() as registry:
            result = retry_call(policy, "flaky-task", flaky, sleep=sleeps.append)
        assert result == "ok"
        assert len(attempts) == 2
        assert sleeps == [policy.delay("flaky-task", 1)]
        assert registry.counters["tasks.retried"] == 1

    def test_exhaustion_propagates_the_original_error(self):
        attempts = []

        def doomed():
            attempts.append(1)
            raise OSError("persistent failure")

        policy = RetryPolicy(max_attempts=3, backoff_base=0.0)
        with pytest.raises(OSError, match="persistent failure"):
            retry_call(policy, "doomed", doomed, sleep=lambda _: None)
        assert len(attempts) == 3

    def test_non_retryable_errors_propagate_immediately(self):
        attempts = []

        def broken():
            attempts.append(1)
            raise ValueError("a deterministic bug")

        with pytest.raises(ValueError, match="deterministic bug"):
            retry_call(RetryPolicy(max_attempts=5), "broken", broken)
        assert len(attempts) == 1

    def test_posthoc_timeout_counts_as_a_retryable_failure(self):
        ticks = iter([0.0, 10.0, 10.0, 10.2])
        sleeps = []
        policy = RetryPolicy(max_attempts=2, backoff_base=0.0, task_timeout=1.0)
        result = retry_call(policy, "slow", lambda: "done",
                            clock=lambda: next(ticks), sleep=sleeps.append)
        assert result == "done"
        assert len(sleeps) == 1

    def test_posthoc_timeout_exhaustion_raises_task_timeout(self):
        ticks = iter([0.0, 10.0])
        policy = RetryPolicy(max_attempts=1, task_timeout=1.0)
        with pytest.raises(TaskTimeoutError, match="over its 1 s budget"):
            retry_call(policy, "slow", lambda: "done", clock=lambda: next(ticks))


# --------------------------------------------------------------------- #
# Fault plans
# --------------------------------------------------------------------- #
class TestFaultPlan:
    def test_counters_respect_point_and_match(self, tmp_path):
        plan = FaultPlan([FaultSpec(kind="task-error", point=POINT_TASK,
                                    at=2, match="alpha")], str(tmp_path))
        plan.fire(POINT_TASK, "beta")       # filtered out by match
        plan.fire("store.write", "alpha")   # wrong point
        plan.fire(POINT_TASK, "alpha-1")    # counter 1: not due yet
        with pytest.raises(OSError, match="injected task-error"):
            plan.fire(POINT_TASK, "alpha-2")

    def test_times_budget_is_shared_through_the_state_dir(self, tmp_path):
        spec = FaultSpec(kind="task-error", point=POINT_TASK, every=1, times=1)
        first = FaultPlan([spec], str(tmp_path))
        second = FaultPlan([spec], str(tmp_path))  # another "process"
        with pytest.raises(OSError):
            first.fire(POINT_TASK, "a")
        second.fire(POINT_TASK, "b")  # budget exhausted globally: no fire
        second.fire(POINT_TASK, "c")

    def test_ordinals_count_one_stream_across_processes(self, tmp_path):
        spec = FaultSpec(kind="task-error", point=POINT_TASK, at=3)
        first = FaultPlan([spec], str(tmp_path))
        second = FaultPlan([spec], str(tmp_path))  # another "process"
        first.fire(POINT_TASK, "a")   # global event 1
        second.fire(POINT_TASK, "b")  # global event 2
        with pytest.raises(OSError, match="event #3"):
            first.fire(POINT_TASK, "c")
        second.fire(POINT_TASK, "d")  # event 4: at fires once
        assert [path.name for path in tmp_path.glob("fault0-fired*")] == ["fault0-fired3"]

    def test_kill_worker_is_a_noop_in_the_driver(self, tmp_path):
        plan = FaultPlan([FaultSpec(kind="kill-worker", point=POINT_TASK,
                                    every=1)], str(tmp_path))
        with metrics_run() as registry:
            plan.fire(POINT_TASK, "driver-task")  # must not exit the test runner
        assert registry.counters["faults.injected"] == 1
        assert not list(tmp_path.glob("fault0-fired*"))  # nothing was killed

    def test_plans_fire_identically_across_processes(self, tmp_path):
        script = (
            "import json, os\n"
            "os.environ['REPRO_FAULT_PLAN'] = json.dumps("
            "[{'kind': 'task-error', 'at': 2},"
            " {'kind': 'task-error', 'every': 3}])\n"
            "from repro.runtime.faultinject import POINT_TASK, active_fault_plan\n"
            "plan = active_fault_plan()\n"
            "events = []\n"
            "for index in range(12):\n"
            "    try:\n"
            "        plan.fire(POINT_TASK, f'job{index}')\n"
            "        events.append('ok')\n"
            "    except OSError as error:\n"
            "        events.append(str(error))\n"
            "print(json.dumps(events))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        # The default state dir lands under TMPDIR, one per driver run.
        env = dict(os.environ, PYTHONPATH=src, TMPDIR=str(tmp_path))
        env.pop(FAULT_PLAN_ENV, None)
        runs = [subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, check=True)
                for _ in range(2)]
        first, second = (json.loads(run.stdout) for run in runs)
        assert first == second
        assert sum(1 for event in first if event != "ok") > 0
        assert len(list(tmp_path.glob("repro-faults-*"))) == 2


# --------------------------------------------------------------------- #
# Serial backend resilience
# --------------------------------------------------------------------- #
class TestSerialResilience:
    def test_transient_task_fault_is_retried_transparently(self, arm_faults):
        reference = execute_job(small_job())
        arm_faults([{"kind": "task-error", "at": 1, "times": 1}])
        with metrics_run() as registry:
            [survived] = run_jobs([small_job()], backend="serial")
        assert_bit_identical(reference, survived)
        assert registry.counters["faults.injected"] == 1
        assert registry.counters["tasks.retried"] == 1

    def test_planned_serial_groups_retry_too(self, arm_faults):
        reference = [execute_job(job) for job in job_batch()]
        arm_faults([{"kind": "task-error", "at": 1, "times": 1}])
        with metrics_run() as registry:
            survived = run_jobs(job_batch(), backend="serial")
        for expected, got in zip(reference, survived):
            assert_bit_identical(expected, got)
        assert registry.counters["tasks.retried"] >= 1

    def test_retry_exhaustion_propagates_the_injected_error(self, arm_faults):
        arm_faults([{"kind": "task-error", "every": 1}])
        backend = SerialBackend(
            retry_policy=RetryPolicy(max_attempts=2, backoff_base=0.0))
        with pytest.raises(OSError, match="injected task-error"):
            backend.run([small_job()])


# --------------------------------------------------------------------- #
# Multiprocess backend resilience
# --------------------------------------------------------------------- #
class TestMultiprocessResilience:
    @pytest.mark.parametrize("cached", [False, True], ids=["plain", "cached"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_killed_worker_recovers_bit_identically(self, arm_faults, pool_of,
                                                    tmp_path, workers, cached):
        # The 4-job batch plans into 2 to 4 calls depending on the pool
        # width; the global second task event is killed in every layout.
        reference = [execute_job(job) for job in job_batch()]
        arm_faults([])  # a fault-free traced run, on a pool of the same width
        with trace_run() as clean:
            run_jobs(job_batch(), backend=pool_of(workers))
        arm_faults([{"kind": "kill-worker", "at": 2, "times": 1}])
        backend = pool_of(workers)
        with metrics_run() as registry, trace_run() as tracer:
            survived = run_jobs(
                job_batch(), backend=backend,
                cache_dir=str(tmp_path / "cache") if cached else None)
        for expected, got in zip(reference, survived):
            assert_bit_identical(expected, got)
        assert registry.counters["pool.rebuilds"] >= 1
        assert registry.counters["tasks.retried"] >= 1
        assert len(list((tmp_path / "fault-state").glob("fault0-fired*"))) == 1
        # One worker record per accepted task: the killed attempt folds
        # nothing, so its re-dispatch is counted once.  Only simulate is
        # compared: a re-dispatched task may synthesize and lower again.
        assert sum(worker["tasks"] for worker in tracer.workers.values()) == \
            registry.counters["plan.groups"]
        assert tracer.phase_totals()["simulate"]["calls"] == \
            clean.phase_totals()["simulate"]["calls"]

    def test_stalled_task_is_redispatched_after_timeout(self, arm_faults):
        reference = execute_job(small_job())
        arm_faults([{"kind": "delay", "at": 1, "seconds": 5.0, "times": 1}])
        policy = RetryPolicy(max_attempts=3, backoff_base=0.0, task_timeout=0.5)
        backend = multiprocess_backend(workers=1, retry_policy=policy)
        try:
            with metrics_run() as registry:
                [survived] = backend.run([small_job()])
        finally:
            backend.close()
        assert_bit_identical(reference, survived)
        assert registry.counters["pool.rebuilds"] >= 1

    def test_stalled_worker_is_terminated_on_recovery(self, arm_faults, monkeypatch):
        arm_faults([{"kind": "delay", "at": 1, "seconds": 20.0, "times": 1}])
        policy = RetryPolicy(max_attempts=3, backoff_base=0.0, task_timeout=0.5)
        backend = multiprocess_backend(workers=1, retry_policy=policy)
        stalled = []
        recover = backend._recover_pool

        def spy(progressed):
            stalled.extend(backend._pool._processes.values())
            recover(progressed)

        monkeypatch.setattr(backend, "_recover_pool", spy)
        try:
            [survived] = backend.run([small_job()])
        finally:
            backend.close()
        assert_bit_identical(execute_job(small_job()), survived)
        assert stalled
        # Gone within moments of close(), not after the 20 s stall.
        exited = multiprocessing.connection.wait(
            [process.sentinel for process in stalled], timeout=5.0)
        assert len(exited) == len(stalled)

    def test_hopeless_pool_degrades_to_in_process_with_warning(self, arm_faults):
        reference = [execute_job(job) for job in job_batch()]
        arm_faults([{"kind": "kill-worker", "every": 1}])
        backend = multiprocess_backend(workers=1)
        try:
            with metrics_run() as registry:
                with pytest.warns(RuntimeWarning, match="degraded to in-process"):
                    survived = backend.run(job_batch())
        finally:
            backend.close()
        for expected, got in zip(reference, survived):
            assert_bit_identical(expected, got)
        assert registry.counters["backend.degraded"] == 1
        assert registry.counters["pool.rebuilds"] == MultiprocessBackend.MAX_REBUILDS


# --------------------------------------------------------------------- #
# Store-write resilience
# --------------------------------------------------------------------- #
class TestStoreResilience:
    def test_write_failure_warns_once_and_stays_a_miss(self, arm_faults, tmp_path):
        arm_faults([{"kind": "store-error", "every": 1}])
        store = ResultStore(tmp_path / "store")
        path = store.result_path("ab" * 32)
        with pytest.warns(RuntimeWarning, match="stays a miss"):
            store.store(path, {"payload": 1})
        assert store.load(path) is None
        assert store.stats.write_errors == 1
        with warnings.catch_warnings():  # the second failure stays quiet
            warnings.simplefilter("error")
            store.store(store.result_path("cd" * 32), {"payload": 2})
        assert store.stats.write_errors == 2
        assert "2 writes skipped on I/O errors" in store.stats.describe()

    def test_cached_run_survives_write_faults_as_misses(self, arm_faults, tmp_path):
        reference = execute_job(small_job())
        arm_faults([{"kind": "store-error", "every": 1,
                     "match": str(tmp_path / "cache")}])
        backend = CachingBackend(SerialBackend(), tmp_path / "cache")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            [first] = backend.run([small_job()])
            [second] = backend.run([small_job()])  # nothing persisted: recompute
        assert_bit_identical(reference, first)
        assert_bit_identical(reference, second)
        assert backend.stats.hits == 0
        assert backend.stats.misses == 2
        assert backend.stats.write_errors >= 2

    def test_truncated_entry_is_recomputed_as_corruption(self, arm_faults, tmp_path):
        reference = execute_job(small_job())
        arm_faults([{"kind": "truncate", "at": 1}])
        backend = CachingBackend(SerialBackend(), tmp_path / "cache")
        [cold] = backend.run([small_job()])       # written, then torn in half
        [warm] = backend.run([small_job()])       # corrupt -> miss -> recompute
        assert_bit_identical(reference, cold)
        assert_bit_identical(reference, warm)
        assert backend.stats.corrupt >= 1
        [rewarmed] = backend.run([small_job()])   # second write was clean
        assert_bit_identical(reference, rewarmed)
        assert backend.stats.hits >= 1


# --------------------------------------------------------------------- #
# Sweeps resumed from the result cache
# --------------------------------------------------------------------- #
def small_sweep_spec(width=16, max_designs=2, length=64):
    return SweepSpec(
        entries=tuple(space_entries(width=width, max_designs=max_designs)),
        workloads=(WorkloadSpec(kind="uniform", length=length, width=width,
                                seed=1),),
        width=width)


def scored_jobs(spec):
    """The jobs ``run_sweep`` submits for a one-workload ``spec``."""
    scoring = SweepScoring(spec.clock_plan, spec.width, spec.workloads[0].kind)
    return [replace(job, reduction=scoring) for job in spec.jobs()]


def entry_digests(cache_dir) -> set:
    """The digests a result cache holds a ``result.pkl`` entry for."""
    return {path.parent.name for path in Path(cache_dir).glob("*/*/result.pkl")}


class TestCheckpointing:
    """A sweep's journal is its result cache: one entry per job digest,
    holding that job's scored points."""

    def test_points_round_trip_through_journal_records(self, tmp_path):
        spec = small_sweep_spec()
        result = run_sweep(spec, cache_dir=str(tmp_path))
        store = ResultStore(tmp_path)
        stored = [store.load(store.result_path(job_digest(job)))
                  for job in scored_jobs(spec)]
        assert all(isinstance(points, list) and points for points in stored)
        assert [point for points in stored for point in points] == result.points

    def test_journal_identity_is_the_digest_list(self, tmp_path):
        spec = small_sweep_spec()
        digests = [job_digest(job) for job in scored_jobs(spec)]
        assert len(set(digests)) == spec.job_count
        assert [job_digest(job) for job in scored_jobs(small_sweep_spec())] == digests
        other = {job_digest(job) for job in scored_jobs(small_sweep_spec(length=96))}
        assert other.isdisjoint(digests)
        run_sweep(spec, cache_dir=str(tmp_path))
        assert entry_digests(tmp_path) == set(digests)

    def test_fresh_run_discards_a_stale_journal(self, tmp_path):
        # Entries of another sweep (here: shorter traces) are never replayed.
        run_sweep(small_sweep_spec(), cache_dir=str(tmp_path))
        spec = small_sweep_spec(length=96)
        with metrics_run() as registry:
            fresh = run_sweep(spec, cache_dir=str(tmp_path))
        assert registry.counters.get("cache.hits", 0) == 0
        assert registry.counters["jobs.simulated"] == spec.job_count
        assert fresh.points == run_sweep(spec).points

    def test_checkpointed_sweep_matches_plain_and_full_resume_is_free(
            self, monkeypatch, tmp_path):
        import repro.explore.sweep as sweep_module
        monkeypatch.setattr(sweep_module, "CHECKPOINT_BATCH", 2)
        spec = small_sweep_spec()
        plain = run_sweep(spec)
        with metrics_run() as registry:
            checkpointed = run_sweep(spec, cache_dir=str(tmp_path))
        assert checkpointed.points == plain.points
        assert registry.counters["jobs.simulated"] == spec.job_count
        with metrics_run() as registry:
            resumed = run_sweep(spec, cache_dir=str(tmp_path))
        assert resumed.points == plain.points
        assert registry.counters.get("jobs.simulated", 0) == 0
        assert registry.counters["cache.hits"] == spec.job_count

    def test_interrupted_sweep_resumes_only_unfinished_jobs(self, monkeypatch,
                                                            tmp_path):
        import repro.explore.sweep as sweep_module
        spec = small_sweep_spec()
        plain = run_sweep(spec)
        monkeypatch.setattr(sweep_module, "CHECKPOINT_BATCH", 1)

        real_run = CachingBackend.run
        batches = []

        def interrupted(self, jobs):
            batches.append(len(jobs))
            if len(batches) == 2:
                raise RuntimeError("simulated interruption")
            return real_run(self, jobs)

        monkeypatch.setattr(CachingBackend, "run", interrupted)
        with pytest.raises(RuntimeError, match="simulated interruption"):
            run_sweep(spec, cache_dir=str(tmp_path))
        monkeypatch.setattr(CachingBackend, "run", real_run)

        with metrics_run() as registry:
            resumed = run_sweep(spec, cache_dir=str(tmp_path))
        assert registry.counters["cache.hits"] == 1
        assert registry.counters["jobs.simulated"] == spec.job_count - 1
        assert resumed.points == plain.points

    def test_damaged_sweep_entries_are_recomputed(self, tmp_path):
        spec = small_sweep_spec(max_designs=3)
        cold = run_sweep(spec, cache_dir=str(tmp_path))
        entries = sorted(tmp_path.glob("*/*/result.pkl"))
        assert len(entries) == spec.job_count
        torn, foreign = entries[:2]
        torn.write_bytes(torn.read_bytes()[:torn.stat().st_size // 2])
        foreign.write_bytes(pickle.dumps({"format": STORE_FORMAT + 1, "payload": []}))
        with metrics_run() as registry:
            rerun = run_sweep(spec, cache_dir=str(tmp_path))
        assert registry.counters["cache.corrupt"] == 2
        assert registry.counters["jobs.simulated"] == 2
        assert registry.counters["cache.hits"] == spec.job_count - 2
        assert rerun.points == cold.points

    def test_cli_resumes_against_the_cache_dir_of_the_environment(
            self, monkeypatch, repro_env, tmp_path, capsys):
        import repro.explore.sweep as sweep_module
        from repro.experiments.common import shutdown_backends
        from repro.explore.cli import main
        repro_env(REPRO_CACHE_DIR=str(tmp_path / "cache"))
        monkeypatch.setattr(sweep_module, "CHECKPOINT_BATCH", 1)
        argv = ["--width", "16", "--max-designs", "2", "--length", "64",
                "--backend", "serial", "--seed", "3"]

        real_run = CachingBackend.run
        batches = []

        def interrupted(self, jobs):
            batches.append(len(jobs))
            if len(batches) == 2:
                raise RuntimeError("simulated interruption")
            return real_run(self, jobs)

        monkeypatch.setattr(CachingBackend, "run", interrupted)
        with pytest.raises(RuntimeError, match="simulated interruption"):
            main(argv)
        monkeypatch.setattr(CachingBackend, "run", real_run)
        shutdown_backends()  # fresh shared-backend registry, like a new process
        capsys.readouterr()

        jobs = 3 * batches[0]  # two designs plus the exact baseline
        assert main(argv) == 0
        shutdown_backends()
        resumed = capsys.readouterr().out
        assert f"simulated {jobs - batches[0]} of {jobs} jobs" in resumed
        assert main(argv) == 0
        shutdown_backends()
        warm = capsys.readouterr().out
        assert f"simulated 0 of {jobs} jobs" in warm
        strip = lambda text: [line for line in text.splitlines()
                              if not line.startswith("(explored")]
        assert strip(resumed) == strip(warm)


# --------------------------------------------------------------------- #
# CLI validation
# --------------------------------------------------------------------- #
class TestCLIValidation:
    @pytest.mark.parametrize("argv, detail", [
        (["--max-retries", "-1"], "--max-retries must be non-negative"),
        (["--task-timeout", "0"], "--task-timeout must be positive"),
    ])
    def test_resilience_knobs_are_validated(self, argv, detail, capsys):
        from repro.explore.cli import main
        with pytest.raises(SystemExit):
            main(argv)
        assert detail in capsys.readouterr().err


# --------------------------------------------------------------------- #
# Acceptance: a faulted multi-design sweep is byte-identical and loses
# no jobs (ISSUE acceptance scenario).
# --------------------------------------------------------------------- #
class TestAcceptance:
    def test_faulted_multiprocess_sweep_matches_fault_free_serial(
            self, arm_faults, tmp_path):
        spec = small_sweep_spec(max_designs=4)
        reference = run_sweep(spec)  # fault-free, serial

        cache_dir = tmp_path / "chaos-cache"
        arm_faults([
            {"kind": "kill-worker", "at": 2, "times": 1},
            {"kind": "store-error", "every": 2, "match": str(cache_dir)},
        ])
        backend = multiprocess_backend(workers=2)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with metrics_run() as registry:
                    faulted = run_sweep(spec, backend=backend,
                                        cache_dir=str(cache_dir))
        finally:
            backend.close()

        assert faulted.points == reference.points  # zero lost or wrong jobs
        assert len(faulted.points) == spec.point_count
        assert registry.counters["tasks.retried"] >= 1
        assert registry.counters["pool.rebuilds"] >= 1
        assert registry.counters["faults.injected"] >= 1

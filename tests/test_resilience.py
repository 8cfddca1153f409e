"""Tests of the resilient execution layer (retries, recovery, checkpoints).

The contract under test: a worker killed mid-batch recovers with results
bit-identical to the fault-free ``execute_job`` reference, at 1, 2 and 4
workers, cached and uncached; a stalled worker is terminated on pool
recovery; retry exhaustion propagates the original error; a pool whose
workers die on every task degrades to in-process execution with a
warning instead of failing; transient store-write failures warn once
and continue as misses; checkpointed sweeps resume by replaying
journaled scores and simulating only the unfinished jobs; and fault
plans count one global event stream, so they fire identically whatever
the process layout.
"""

from __future__ import annotations

import json
import multiprocessing.connection
import os
import subprocess
import sys
import warnings
from contextlib import ExitStack
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, TaskTimeoutError
from repro.experiments.designs import exact_entry, isa_entry
from repro.explore.checkpoint import (
    CHECKPOINT_ENV,
    SweepJournal,
    point_from_record,
    point_to_record,
    require_checkpoint_dir,
)
from repro.explore.space import space_entries
from repro.explore.sweep import SweepSpec, run_sweep
from repro.obs.metrics import metrics_run
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
    parse_fault_plan,
    retry_call,
    run_jobs,
)
from repro.runtime.faultinject import POINT_TASK, FaultPlan, FaultSpec
from repro.runtime.store import ResultStore
from repro.settings import using_settings
from repro.timing.clocking import ClockPlan
from repro.workloads.generators import WorkloadSpec, uniform_workload

PERIODS = tuple(ClockPlan.paper().periods)


def small_job(length=200, quadruple=(4, 0, 0, 2), simulator="fast", engine="auto",
              seed=11, **kwargs):
    """A quick 16-bit characterization job (mirrors test_result_cache)."""
    entry = exact_entry(16) if quadruple is None else isa_entry(quadruple, width=16)
    trace = uniform_workload(length, width=16, seed=seed)
    return CharacterizationJob(entry=entry, trace=trace, clock_periods=PERIODS,
                               simulator=simulator, engine=engine, width=16, **kwargs)


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
        arm_faults([{"kind": "kill-worker", "at": 2, "times": 1}])
        backend = pool_of(workers)
        with metrics_run() as registry:
            survived = run_jobs(
                job_batch(), backend=backend,
                cache_dir=str(tmp_path / "cache") if cached else None)
        for expected, got in zip(reference, survived):
            assert_bit_identical(expected, got)
        assert registry.counters["pool.rebuilds"] >= 1
        assert registry.counters["tasks.retried"] >= 1
        assert len(list((tmp_path / "fault-state").glob("fault0-fired*"))) == 1

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
        backend = multiprocess_backend(workers=1, max_rebuilds=2)
        try:
            with metrics_run() as registry:
                with pytest.warns(RuntimeWarning, match="degraded to in-process"):
                    survived = backend.run(job_batch())
        finally:
            backend.close()
        for expected, got in zip(reference, survived):
            assert_bit_identical(expected, got)
        assert registry.counters["backend.degraded"] == 1
        assert registry.counters["pool.rebuilds"] == 2


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
# Checkpointed sweeps
# --------------------------------------------------------------------- #
def small_sweep_spec(width=16, max_designs=2, length=64):
    return SweepSpec(
        entries=tuple(space_entries(width=width, max_designs=max_designs)),
        workloads=(WorkloadSpec(kind="uniform", length=length, width=width,
                                seed=1),),
        width=width)


class TestCheckpointing:
    def test_points_round_trip_through_journal_records(self):
        result = run_sweep(small_sweep_spec())
        for point in result.points:
            rebuilt = point_from_record(
                json.loads(json.dumps(point_to_record(point), sort_keys=True)))
            assert rebuilt == point

    def test_journal_identity_is_the_digest_list(self, tmp_path):
        same = SweepJournal.for_spec(tmp_path, ["a", "b"])
        again = SweepJournal.for_spec(tmp_path, ["a", "b"])
        other = SweepJournal.for_spec(tmp_path, ["a", "c"])
        assert same.path == again.path
        assert same.path != other.path

    def test_corrupt_and_foreign_lines_are_skipped(self, tmp_path):
        result = run_sweep(small_sweep_spec())
        journal = SweepJournal(tmp_path / "sweep.jsonl")
        journal.record("digest-1", result.points[:2])
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"format": 99, "digest": "old", "points": []}\n')
            handle.write('{"digest": "torn", "poi')  # the interrupted write
        loaded = journal.load()
        assert list(loaded) == ["digest-1"]
        assert loaded["digest-1"] == result.points[:2]

    def test_resume_without_checkpoint_dir_is_a_config_error(self, repro_env):
        repro_env(REPRO_CHECKPOINT_DIR=None)
        with pytest.raises(ConfigurationError, match=CHECKPOINT_ENV):
            require_checkpoint_dir(None, resume=True)
        with pytest.raises(ConfigurationError, match=CHECKPOINT_ENV):
            run_sweep(small_sweep_spec(), resume=True)

    def test_checkpoint_dir_resolves_from_the_environment(self, repro_env, tmp_path):
        repro_env(REPRO_CHECKPOINT_DIR=str(tmp_path))
        assert require_checkpoint_dir(None, resume=True) == str(tmp_path)

    def test_checkpointed_sweep_matches_plain_and_full_resume_is_free(
            self, tmp_path):
        spec = small_sweep_spec()
        plain = run_sweep(spec)
        checkpointed = run_sweep(spec, checkpoint_dir=str(tmp_path),
                                 checkpoint_batch=2)
        assert checkpointed.points == plain.points
        assert checkpointed.resumed_jobs == 0
        with metrics_run() as registry:
            resumed = run_sweep(spec, checkpoint_dir=str(tmp_path), resume=True)
        assert resumed.points == plain.points
        assert resumed.resumed_jobs == spec.job_count
        assert registry.counters.get("jobs.simulated", 0) == 0
        assert registry.counters["sweep.jobs_resumed"] == spec.job_count

    def test_interrupted_sweep_resumes_only_unfinished_jobs(self, monkeypatch,
                                                            tmp_path):
        import repro.explore.sweep as sweep_module
        spec = small_sweep_spec()
        plain = run_sweep(spec)

        real_run_jobs = sweep_module.run_jobs
        batches = []

        def interrupted(jobs, **kwargs):
            batches.append(len(jobs))
            if len(batches) == 2:
                raise RuntimeError("simulated interruption")
            return real_run_jobs(jobs, **kwargs)

        monkeypatch.setattr(sweep_module, "run_jobs", interrupted)
        with pytest.raises(RuntimeError, match="simulated interruption"):
            run_sweep(spec, checkpoint_dir=str(tmp_path), checkpoint_batch=1)
        monkeypatch.setattr(sweep_module, "run_jobs", real_run_jobs)

        with metrics_run() as registry:
            resumed = run_sweep(spec, checkpoint_dir=str(tmp_path), resume=True,
                                checkpoint_batch=1)
        assert resumed.resumed_jobs == 1
        assert registry.counters["jobs.simulated"] == spec.job_count - 1
        assert resumed.points == plain.points

    def test_fresh_run_discards_a_stale_journal(self, tmp_path):
        spec = small_sweep_spec()
        run_sweep(spec, checkpoint_dir=str(tmp_path))
        fresh = run_sweep(spec, checkpoint_dir=str(tmp_path))  # no resume
        assert fresh.resumed_jobs == 0


# --------------------------------------------------------------------- #
# CLI validation
# --------------------------------------------------------------------- #
class TestCLIValidation:
    def test_resume_requires_a_checkpoint_dir(self, repro_env, capsys):
        from repro.explore.cli import main
        repro_env(REPRO_CHECKPOINT_DIR=None)
        with pytest.raises(SystemExit):
            main(["--resume"])
        assert "--resume requires --checkpoint-dir" in capsys.readouterr().err

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

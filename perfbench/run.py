"""Layer-ledger benchmark of the ISA characterization pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-full --seed 7 --seconds 25 --trace 0

Workloads (width-16 adder unless stated; uniform traces):

* ``sweep-full`` - all 889 legal quadruples plus the exact baseline at
  256 vectors and CPR {0, 5, 10, 15} % (3,560 points), serial, cold
  result and synthesis caches.  Synthesis and lowering dominate.
* ``sweep-long-mp`` - 64 strided quadruples plus the exact baseline at
  131,072 vectors (260 points) on the multiprocess backend with 2
  workers, no result cache, synthesis cache filled at set-up.
  Simulation in the workers and scoring in the parent dominate.
* ``adaptive`` - ``run_adaptive`` over the 889-design space at 128
  vectors, CPR {0, 10} %, 20 % budget, batches of 12, serial, no caches.
  The surrogate forest dominates.
* ``paper`` - ``repro-experiments`` Fig 7-10 at ``--scale 1.0
  --simulator fast`` (the paper's 32-bit designs), serial, no caches.
  The Fig 7/8 bit-level timing model dominates.

These replace the earlier canonical list: the width-8 multiplier sweep
(same layers as ``sweep-full``), the length-4096 sweep (no layer
dominates it) and the ``--scale 0.05`` paper run (0.7 s, too short to
be steady) are dropped.

Each workload is a closed loop with one client: runs follow each other,
each from the cold state, while the next one is expected to end within
``--seconds`` (at least one run).

``--trace 0`` prints the end-to-end metrics, medians over the runs:
``wall_s`` (first call into ``repro`` until the output is verified),
``points_per_s`` (scored design x workload x CPR points per second),
``setup_s`` (import plus the median of three set-ups), ``cpu_s`` (this
process plus its reaped workers) and ``peak_rss_mb``.  ``--trace 1``
sets up once under the tracer, makes one untraced and one traced run,
and prints the per-layer metrics of the traced run (see ``ledger.py``).
The last stdout line is the result JSON; the line before it is the
full record: host facts, every sample, tail percentiles, digests.  The
exit code is 0 only when every run passed its output check and guard.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

#: Set-up repetitions per process; ``setup_s`` reports their median.
SETUP_REPEATS = 3


def enter_checkout(scratch: Path) -> None:
    """Run the program from this checkout's sources, writing only inside it."""
    sys.path.insert(0, str(ROOT / "src"))
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    (scratch / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch / "tmp")
    tempfile.tempdir = None


def cpu_seconds() -> float:
    """CPU seconds of this process plus its reaped children (workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def tail_percentile(samples) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    count = len(samples)
    summary = {"median": statistics.median(samples), "samples": count}
    if count >= 11:
        percentile = int(100 * (1 - 10 / count))
        ordered = sorted(samples)
        summary[f"p{percentile}"] = ordered[min(count - 1, int(percentile / 100 * count))]
    else:
        summary["tail"] = f"none: {count} samples leave fewer than 10 beyond any percentile"
    return summary


def host_facts() -> dict:
    import numpy
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "commit": commit, "src_sha256": digest.hexdigest()}


def reference_for(case, seed: int) -> dict:
    """Load the stored reference of ``seed`` into ``case``.

    A seed without a stored entry is checked against the first run of
    this process; ``adaptive`` then computes its exhaustive reference
    frontier once, in a child process, outside every timed region.
    """
    from refs import load_references
    stored = load_references().get(str(seed))
    if stored is not None:
        case.reference = stored[case.name]
        frontier = stored["adaptive_reference_frontier"]
    elif case.name == "adaptive":
        path = STATE / "frontiers" / f"{seed}.json"
        if not path.exists():
            subprocess.run([sys.executable, str(HERE / "refs.py"), "--seeds", str(seed),
                            "--frontier-only", "--out", str(path)],
                           cwd=ROOT, check=True, timeout=170)
        frontier = json.loads(path.read_text(encoding="utf-8"))["adaptive_reference_frontier"]
    if case.name == "adaptive":
        case.set_reference_frontier(frontier)
    return {"digest": "stored" if stored else "first run of this process",
            "adaptive_frontier_keys": len(frontier) if case.name == "adaptive" else None}


def one_run(case, traced: bool) -> dict:
    """One closed-loop run: cold start, timed call and check, then guard."""
    import ledger
    from repro.obs.metrics import MetricsRegistry, metrics_run
    from repro.obs.trace import Tracer, span, trace_run
    case.before_run()
    tracer, registry = Tracer(), MetricsRegistry()
    with contextlib.ExitStack() as tracing:
        if traced:  # wrappers are installed before the clock starts
            tracing.enter_context(ledger.instrument())
            tracing.enter_context(trace_run(tracer))
            tracing.enter_context(metrics_run(registry))
            tracing.enter_context(span(ledger.RUN_SPAN))
        cpu0, start = cpu_seconds(), time.perf_counter()
        outcome = case.run()
        case.check(outcome)
        wall = time.perf_counter() - start
    sample = {"wall_s": wall, "cpu_s": cpu_seconds() - cpu0, "points": outcome.points,
              "digest": outcome.digest}
    if traced:
        layers = ledger.layer_metrics(tracer, registry.counters, case.workers, wall)
        layers["cache.bytes_written"] = float(case.result_cache_bytes())
        layers["adaptive.rounds"] = float(outcome.rounds)
        layers["adaptive.frontier_per_sim"] = (
            outcome.frontier_designs / outcome.simulated if outcome.rounds else 0.0)
        layers["adaptive.frontier_recall"] = outcome.recall if outcome.rounds else 0.0
        layers["adaptive.sim_fraction"] = (outcome.simulated / outcome.space
                                           if outcome.rounds else 0.0)
        sample["layers"] = layers
    case.guard(outcome, counters=sample.get("layers"))
    case.after_run()
    return sample


def measure(arguments, scratch: Path, spec: dict) -> dict:
    started = time.perf_counter()
    import repro  # noqa: F401  (set-up time starts with the import)
    import repro.experiments.runner  # noqa: F401
    import repro.explore.adaptive  # noqa: F401
    import repro.explore.sweep  # noqa: F401
    import_s = time.perf_counter() - started
    import cases
    import ledger
    from repro.obs.trace import Tracer, span, trace_run

    case = cases.make_case(arguments.workload)
    record = {"workload": arguments.workload, "seed": arguments.seed,
              "seconds": arguments.seconds, "trace": arguments.trace,
              "host": host_facts(), "import_s": import_s, "setup_s": []}
    # The traced run sets up once, traced; untraced runs set up several
    # times and report the median.
    setup_tracer = Tracer()
    for _ in range(1 if arguments.trace else SETUP_REPEATS):
        begin = time.perf_counter()
        if arguments.trace:
            with ledger.instrument(), trace_run(setup_tracer), span(ledger.SETUP_SPAN):
                case.set_up(arguments.seed, scratch)
        else:
            case.set_up(arguments.seed, scratch)
        record["setup_s"].append(import_s + time.perf_counter() - begin)
    record["reference"] = reference_for(case, arguments.seed)
    case.prepare_checks()

    # Closed loop, one client.  The traced mode makes one untraced run
    # (the overhead baseline and the digest the traced run must match)
    # and one traced run.
    samples, failures = [], []
    loop_start = time.perf_counter()
    while True:
        try:
            samples.append(one_run(case, traced=bool(arguments.trace) and len(samples) == 1))
        except Exception as error:  # counted as failed; later runs would repeat it
            traceback.print_exc(file=sys.stderr)
            failures.append(f"{type(error).__name__}: {error}")
            break
        # Start another run only if it should end within --seconds, so a
        # slow host makes fewer runs instead of a longer measurement.
        done = (len(samples) == 2 if arguments.trace
                else time.perf_counter() - loop_start
                + statistics.median(sample["wall_s"] for sample in samples) > arguments.seconds)
        if done:
            break

    attempted = len(samples) + len(failures)
    record["failures"] = failures
    record["samples"] = [{key: value for key, value in sample.items() if key != "layers"}
                         for sample in samples]
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["worker_peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0 if case.workers else 0.0)
    values = {}
    if arguments.trace and len(samples) == 2:
        untraced, traced = samples
        values = traced["layers"]
        values["workloads.generate_s"] += ledger.SpanTree(setup_tracer).total(
            "bench.workloads.generate")
        values["runtime.worker_peak_rss_mb"] = record["worker_peak_rss_mb"]
        values["trace.overhead"] = traced["wall_s"] / untraced["wall_s"]
        values["failed_frac"] = len(failures) / attempted
        declared = spec["per_layer"]
    elif samples and not arguments.trace:
        values = {
            "wall_s": statistics.median(sample["wall_s"] for sample in samples),
            "points_per_s": statistics.median(sample["points"] / sample["wall_s"]
                                              for sample in samples),
            "setup_s": statistics.median(record["setup_s"]),
            "cpu_s": statistics.median(sample["cpu_s"] for sample in samples),
            "peak_rss_mb": record["peak_rss_mb"],
        }
        record["timings"] = {name: tail_percentile([sample[name] for sample in samples])
                             for name in ("wall_s", "cpu_s")}
        record["timings"]["setup_s"] = tail_percentile(record["setup_s"])
        declared = spec["end_to_end"]
    metrics = {}
    if values:
        units = {metric["name"]: metric["unit"] for metric in declared}
        if set(units) != set(values):
            raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                               f"{sorted(set(units) ^ set(values))}")
        metrics = {name: {"value": float(values[name]), "unit": units[name]}
                   for name in sorted(values)}
    print(json.dumps({"record": record}, sort_keys=True))
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = STATE / f"run-{os.getpid()}"
    enter_checkout(scratch)
    try:
        result = measure(arguments, scratch, spec)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Timing-ratio gates of the characterization pipeline.

Times four pairs of runs and exits 1 when any ratio misses its bar:

* the batched planner (``SerialBackend``) vs a per-job ``execute_job``
  loop, on 12 width-16 designs plus the exact adder x 8 workloads x 256
  vectors x 4 clocks, best of 4: at least 1.0x;
* a warm persistent synthesis cache vs the cold flow, on a sweep of the
  same 12 designs plus exact, best of 2: at least 1.0x;
* a warm result cache vs a cold one, on 12 width-8 multiplier designs
  plus exact at the paper's CPR levels: at least 1.0x;
* full telemetry (spans, metrics, a manifest) vs none, on 8 width-16
  designs plus exact x 8 workloads, best of 5: at most 1.05x.

Best-of pairs alternate their two sides, so a slow phase of the host
hits both alike.  The invariants behind each ratio (bit-identical
results, nothing simulated or synthesized on a warm cache) are tier-1
tests; this script only times.  It takes no arguments and leaves no
file behind::

    PYTHONPATH=src python benchmarks/ratio_gates.py
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

from repro.explore import DesignSpace, SweepSpec, run_sweep, sweep_clock_plan
from repro.families import get_family
from repro.obs import telemetry_run
from repro.obs.trace import collect_phases
from repro.runtime import CachingBackend, SerialBackend, execute_job
from repro.runtime.jobs import clear_design_cache
from repro.runtime.plan import _GROUP_SIMULATORS
from repro.runtime.synth_cache import configure_synth_cache
from repro.timing.clocking import PAPER_CPR_LEVELS, ClockPlan
from repro.workloads.generators import WorkloadSpec

LENGTH = 256


def width16_spec(designs: int, workloads: int) -> SweepSpec:
    """``designs`` strided width-16 quadruples plus exact, 4 default clocks."""
    return SweepSpec(
        entries=tuple(DesignSpace(width=16).entries(max_designs=designs)),
        clock_plan=sweep_clock_plan(),
        workloads=tuple(WorkloadSpec("uniform", LENGTH, width=16, seed=3 + index)
                        for index in range(workloads)),
        simulator="fast", width=16)


def timed(run) -> float:
    started = time.perf_counter()
    run()
    return time.perf_counter() - started


def best_of(repeats: int, first, second):
    """Best wall seconds of each of two callables, run alternately."""
    times = [(timed(first), timed(second)) for _ in range(repeats)]
    return min(a for a, _ in times), min(b for _, b in times)


def per_job_vs_batched(_workdir: Path):
    jobs = width16_spec(12, 8).jobs()
    SerialBackend().run(jobs)  # untimed: every repeat finds the designs synthesized

    def batched():
        # Build each group's simulator afresh, as every execute_job call
        # does.  A group's 8 stacked traces (2,040 transitions) also build
        # its packed timing program; each 255-transition execute_job call
        # runs the levelised pass instead.
        _GROUP_SIMULATORS.clear()
        SerialBackend().run(jobs)

    return best_of(4, lambda: [execute_job(job) for job in jobs], batched)


def cold_vs_warm_synth_cache(workdir: Path):
    spec = width16_spec(12, 1)

    def sweep(synth_cache):
        def run():
            configure_synth_cache(synth_cache)
            clear_design_cache()
            run_sweep(spec, backend="serial")
        return run

    try:
        sweep(workdir)()  # prime the cache
        return best_of(2, sweep(None), sweep(workdir))
    finally:
        configure_synth_cache(None)
        clear_design_cache()


def cold_vs_warm_multiplier(workdir: Path):
    family = get_family("multiplier")
    spec = SweepSpec(
        entries=tuple(family.design_space(8).entries(max_designs=12)),
        clock_plan=ClockPlan(safe_period=family.safe_period(8),
                             cpr_levels=PAPER_CPR_LEVELS),
        workloads=(WorkloadSpec("uniform", LENGTH, width=8, seed=3),),
        simulator="fast", width=8)
    backend = CachingBackend("serial", workdir)
    cold = timed(lambda: run_sweep(spec, backend=backend))
    return cold, timed(lambda: run_sweep(spec, backend=backend))


def telemetry_on_vs_off(workdir: Path):
    jobs = width16_spec(8, 8).jobs()
    SerialBackend().run(jobs)  # untimed: every repeat finds the designs synthesized

    def plain():
        _GROUP_SIMULATORS.clear()
        SerialBackend().run(jobs)

    def traced():
        _GROUP_SIMULATORS.clear()
        with telemetry_run(workdir, command="ratio-gates", config={"jobs": len(jobs)}):
            with collect_phases():
                SerialBackend().run(jobs)

    off, on = best_of(5, plain, traced)
    return on, off


#: (gate, timing function, its two sides, bar on first / second, at most?)
GATES = (
    ("batched planner vs per-job execute_job", per_job_vs_batched,
     ("per-job", "batched"), 1.0, False),
    ("warm synthesis cache vs cold flow", cold_vs_warm_synth_cache,
     ("cold", "warm"), 1.0, False),
    ("warm multiplier sweep vs cold", cold_vs_warm_multiplier,
     ("cold", "warm"), 1.0, False),
    ("full telemetry vs telemetry off", telemetry_on_vs_off,
     ("on", "off"), 1.05, True),
)


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory(prefix="ratio-gates-") as workdir:
        for index, (gate, measure, (first, second), bar, at_most) in enumerate(GATES):
            first_s, second_s = measure(Path(workdir) / str(index))
            ratio = first_s / second_s
            passed = ratio <= bar if at_most else ratio >= bar
            failed += not passed
            print(f"{gate}: {first} {first_s * 1e3:.1f} ms, {second} "
                  f"{second_s * 1e3:.1f} ms, {ratio:.3f}x "
                  f"(bar {'<=' if at_most else '>='} {bar:g}x) "
                  f"{'ok' if passed else 'FAILED'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

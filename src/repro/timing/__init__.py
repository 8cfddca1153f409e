"""Timing substrate: static analysis, timing simulation, clocking helpers.

* :mod:`~repro.timing.sta` — static timing analysis (arrival/required
  times, slack, critical path) over a delay-annotated netlist.
* :mod:`~repro.timing.fast_sim` — vectorised two-vector arrival-time
  simulation used for large overclocking sweeps.
* :mod:`~repro.timing.event_sim` — event-driven (transport-delay)
  gate-level simulator used as the reference model and for glitch-aware
  studies.
* :mod:`~repro.timing.operands` — the memoised operand expansion and
  the trace length both simulators read.
* :mod:`~repro.timing.clocking` — clock plans and Clock-Period-Reduction
  (CPR) helpers.
* :mod:`~repro.timing.errors` — extraction of per-bit and word-level
  timing errors from simulation results.
"""

from repro.timing.clocking import ClockPlan, cpr_to_period, period_to_cpr
from repro.timing.errors import TimingErrorTrace, extract_timing_errors
from repro.timing.event_sim import EventDrivenSimulator
from repro.timing.fast_sim import FastTimingSimulator
from repro.timing.sta import TimingReport, analyze_timing, arrival_times, critical_path, gate_slacks

__all__ = [
    "ClockPlan",
    "cpr_to_period",
    "period_to_cpr",
    "TimingErrorTrace",
    "extract_timing_errors",
    "EventDrivenSimulator",
    "FastTimingSimulator",
    "TimingReport",
    "analyze_timing",
    "arrival_times",
    "critical_path",
    "gate_slacks",
]

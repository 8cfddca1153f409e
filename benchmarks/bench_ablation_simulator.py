"""Ablation A2: event-driven (glitch-aware) vs fast (no-glitch) timing simulation.

The event-driven simulator is the reference; the vectorised fast
simulator ignores glitches and is therefore optimistic about timing-error
rates.  This ablation measures both on the same design/trace and reports
the gap, justifying the choice of the event-driven simulator for the
figure experiments.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_result
from repro.analysis.report import format_table
from repro.core.config import ISAConfig
from repro.synth.flow import synthesize
from repro.timing.event_sim import EventDrivenSimulator
from repro.timing.fast_sim import FastTimingSimulator
from repro.workloads.generators import uniform_workload


def run_simulator_comparison(length):
    """Cycle/bit error rates of both simulators on ISA (16,2,0,4) at the paper's CPRs."""
    from repro.timing.clocking import ClockPlan
    plan = ClockPlan.paper()
    config = ISAConfig.from_quadruple((16, 2, 0, 4))
    design = synthesize(config)
    trace = uniform_workload(length, width=32, seed=31)
    operands = trace.as_operands()
    event = EventDrivenSimulator(design.netlist, design.annotation)
    fast = FastTimingSimulator(design.netlist, design.annotation)
    event_traces = event.run_trace_multi(operands, plan.periods)
    fast_traces = fast.run_trace_multi(operands, plan.periods)
    comparison = {}
    for cpr, period in plan.items():
        comparison[cpr] = {
            "event_cycle": event_traces[period].cycle_error_rate(),
            "fast_cycle": fast_traces[period].cycle_error_rate(),
            "event_bit": float(event_traces[period].bit_error_rate().mean()),
            "fast_bit": float(fast_traces[period].bit_error_rate().mean()),
        }
    return comparison


@pytest.mark.benchmark(group="ablations")
def test_ablation_simulator_agreement(benchmark, bench_config, results_dir):
    """The two simulators agree on the regime; the fast one is systematically optimistic."""
    length = max(bench_config.characterization_length // 2, 200)
    comparison = benchmark.pedantic(run_simulator_comparison, args=(length,),
                                    rounds=1, iterations=1)

    table_rows = [(f"{cpr * 100:g}%",
                   f"{values['event_cycle']:.4f}", f"{values['fast_cycle']:.4f}",
                   f"{values['event_bit']:.5f}", f"{values['fast_bit']:.5f}")
                  for cpr, values in sorted(comparison.items())]
    write_result(results_dir, "ablation_simulator",
                 format_table(["CPR", "event cycle-rate", "fast cycle-rate",
                               "event ABPER-like", "fast ABPER-like"],
                              table_rows,
                              title="Ablation A2 — event-driven vs fast timing simulation"))

    for values in comparison.values():
        # both remain in a physically sensible range
        assert 0.0 <= values["fast_cycle"] <= 1.0
        assert 0.0 <= values["event_cycle"] <= 1.0
    # Error rates grow with CPR for both simulators.
    cycle_rates_event = [comparison[cpr]["event_cycle"] for cpr in sorted(comparison)]
    assert cycle_rates_event == sorted(cycle_rates_event)

"""Benchmark regenerating Fig. 9: structural / timing / joint relative-error RMS.

This is the paper's headline result.  The benchmark synthesizes all
twelve designs, runs delay-annotated timing simulation at 5/10/15 % CPR,
applies the error-combination flow and prints the per-design RMS table
(also written to ``benchmarks/results/fig9_rms.txt``).  The asserts
check the paper's qualitative trends, not its absolute values.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_result
from repro.experiments.fig9_rms import run_fig9


@pytest.mark.benchmark(group="figures")
def test_fig9_error_combination(benchmark, bench_config, results_dir):
    """Regenerate Fig. 9 (a, b, c) and check its qualitative shape."""
    result = benchmark.pedantic(run_fig9, args=(bench_config,), rounds=1, iterations=1)
    write_result(results_dir, "fig9_rms", result.format_table())

    # Qualitative shape checks mirroring the paper's observations.
    for cpr in bench_config.clock_plan.cpr_levels:
        exact_row = result.row("exact", cpr)
        assert exact_row.structural_rms == 0.0, "the exact adder has no structural error"
        # timing errors never shrink when the clock gets more aggressive
    for design in ("exact", "(16,2,1,6)", "(8,0,0,4)"):
        series = [result.row(design, cpr).timing_rms for cpr in (0.05, 0.10, 0.15)]
        assert series[0] <= series[1] <= series[2]
    # Structural error decreases monotonically from the least to the most
    # accurate ISA family member (paper Fig. 9, left-to-right trend).
    structural = [result.row(name, 0.05).structural_rms
                  for name in ("(8,0,0,0)", "(8,0,0,4)", "(16,0,0,0)", "(16,2,1,6)")]
    assert structural == sorted(structural, reverse=True)
    # The exact adder is the worst or essentially tied-worst design at every
    # CPR level, and in particular always worse than every 8-bit-block ISA
    # (the paper's headline observation).
    for cpr in bench_config.clock_plan.cpr_levels:
        joint = {row.design: row.joint_rms for row in result.rows_for_cpr(cpr)}
        eight_bit_designs = [name for name in joint if name.startswith("(8,")]
        assert all(joint["exact"] >= joint[name] for name in eight_bit_designs)
        assert joint["exact"] >= 0.9 * max(joint.values())

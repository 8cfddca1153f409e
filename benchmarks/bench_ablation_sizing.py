"""Ablation A1: slack-driven sizing on vs off.

The sizing step is what makes every design's path-delay profile hug the
0.3 ns constraint (the "slack wall").  Without it the shallow ISA designs
keep huge margins and overclocking produces almost no timing errors, so
the joint-error picture of Fig. 9 collapses to the structural errors.
This ablation quantifies that.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from benchmarks.conftest import write_result
from repro.analysis.report import format_log_value, format_table
from repro.experiments.common import characterize_design
from repro.experiments.designs import exact_entry, isa_entry
from repro.experiments.fig9_rms import fig9_rows_from_characterization
from repro.synth.flow import SynthesisOptions

ABLATION_DESIGNS = [isa_entry((8, 0, 0, 4)), isa_entry((16, 2, 0, 4)), exact_entry()]


def run_sizing_ablation(config):
    """Fig. 9-style rows for a design subset with sizing enabled and disabled."""
    rows = {}
    trace = config.characterization_trace()
    for label, enable in (("sized", True), ("unsized", False)):
        variant = replace(config, synthesis=SynthesisOptions(enable_sizing=enable))
        for entry in ABLATION_DESIGNS:
            characterization = characterize_design(entry, trace, variant)
            for row in fig9_rows_from_characterization(characterization, variant):
                rows[(label, row.design, row.cpr)] = row
    return rows


@pytest.mark.benchmark(group="ablations")
def test_ablation_sizing(benchmark, bench_config, results_dir):
    """Disabling the sizing step removes most timing errors of the shallow designs."""
    config = bench_config.scaled_down(0.5)
    rows = benchmark.pedantic(run_sizing_ablation, args=(config,), rounds=1, iterations=1)

    table_rows = []
    for (label, design, cpr), row in sorted(rows.items()):
        table_rows.append((label, design, f"{cpr * 100:g}%",
                           format_log_value(row.timing_rms * 100.0),
                           format_log_value(row.joint_rms * 100.0)))
    write_result(results_dir, "ablation_sizing",
                 format_table(["flow", "design", "CPR", "timing RMS RE (%)", "joint RMS RE (%)"],
                              table_rows, title="Ablation A1 — slack-driven sizing on/off"))

    # For a design that meets the constraint with nominal cells, sizing only
    # consumes slack, so disabling it can only reduce timing errors.  (The
    # exact adder and the deepest ISAs are sped *up* by synthesis, so the
    # relation does not apply to them.)
    for cpr in config.clock_plan.cpr_levels:
        sized = rows[("sized", "(8,0,0,4)", cpr)].timing_rms
        unsized = rows[("unsized", "(8,0,0,4)", cpr)].timing_rms
        assert unsized <= sized + 1e-12
    # Sizing is a purely timing-level transformation: structural errors are untouched.
    for (label, design, cpr), row in rows.items():
        other = "unsized" if label == "sized" else "sized"
        assert row.structural_rms == rows[(other, design, cpr)].structural_rms

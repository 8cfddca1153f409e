"""Command-line runner regenerating every figure of the paper.

``repro-experiments`` (installed as a console script) runs the Fig. 7/8
prediction study, the Fig. 9 error-combination sweep and the Fig. 10
distribution analysis, printing the paper-equivalent tables and
optionally writing them to a results file.

All characterisation is routed through the job pipeline of
:mod:`repro.runtime`: the runner builds one :class:`StudyConfig` from the
CLI knobs (family, simulator tier, seed) and the runtime settings the
flags override for the run (execution backend, worker count, result-cache
directory; :mod:`repro.settings`), the figure drivers turn their designs
into job batches, and the selected backend — ``serial`` or
``multiprocess``, optionally fronted by the persistent on-disk result
cache (``--cache-dir`` / ``$REPRO_CACHE_DIR``) — schedules them.
Fig. 9 and Fig. 10 share a single characterization batch; a warm cache
reproduces every figure bit-identically without executing a single
simulation job (the footer reports the hit/miss counts).

Example::

    repro-experiments --scale 0.5 --backend multiprocess --jobs 4 \
        --simulator fast --output results.txt
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional

from repro.core.config import ISAConfig
from repro.experiments.common import (
    RunFooter,
    StudyConfig,
    characterize_designs,
    observed_run,
)
from repro.experiments.designs import FIG10_QUADRUPLE
from repro.experiments.fig9_rms import run_fig9
from repro.experiments.fig10_distribution import run_fig10
from repro.experiments.prediction import run_prediction_study
from repro.families import family_ids, get_family
from repro.settings import runtime_arguments, settings_from_arguments, using_settings


def build_parser() -> argparse.ArgumentParser:
    """Argument parser of the ``repro-experiments`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments", parents=[runtime_arguments()],
        description="Regenerate the figures of 'Combining Structural and Timing Errors in "
                    "Overclocked Inexact Speculative Adders' (DATE 2017)")
    parser.add_argument("--family", choices=family_ids(), default="adder",
                        help="operator family to characterise (default adder; the "
                             "paper's figures are adder studies, so any other family "
                             "runs a compact characterization sweep instead of "
                             "--figures)")
    parser.add_argument("--width", type=int, default=None,
                        help="operand width of a non-adder family study "
                             "(default: the family's default width)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="scale factor applied to every trace length (default 1.0)")
    parser.add_argument("--simulator", choices=("event", "fast"), default="event",
                        help="timing simulator: glitch-aware event-driven (default) or fast "
                             "no-glitch vectorised")
    parser.add_argument("--seed", type=int, default=7, help="master random seed")
    parser.add_argument("--figures", nargs="+", default=["fig7", "fig8", "fig9", "fig10"],
                        choices=["fig7", "fig8", "fig9", "fig10"],
                        help="which figures to regenerate")
    parser.add_argument("--output", type=str, default=None,
                        help="optional path for the text report (stdout is always printed)")
    return parser


def run_all(config: StudyConfig, figures: List[str]) -> str:
    """Run the requested figures and return the combined text report."""
    sections: List[str] = []
    footer = RunFooter(config.runtime_backend())

    if "fig7" in figures or "fig8" in figures:
        study = run_prediction_study(config)
        if "fig7" in figures:
            sections.append(study.format_abper_table())
        if "fig8" in figures:
            sections.append(study.format_avpe_table())

    characterizations = None
    if "fig9" in figures or "fig10" in figures:
        target = ISAConfig.from_quadruple(FIG10_QUADRUPLE).name
        characterizations = characterize_designs(
            config.design_entries(), config.characterization_trace(), config,
            stats_for=(target,))

    if "fig9" in figures:
        sections.append(run_fig9(config, characterizations=characterizations).format_table())

    if "fig10" in figures:
        fig10_characterization = None
        if characterizations is not None:
            target = ISAConfig.from_quadruple(FIG10_QUADRUPLE).name
            for characterization in characterizations:
                if characterization.name == target:
                    fig10_characterization = characterization
                    break
        sections.append(run_fig10(config, characterization=fig10_characterization).format_table())

    sections.append(footer.line(f"regenerated {', '.join(figures)}",
                                **study_knobs(config, footer.backend)))
    return "\n\n".join(sections)


def study_knobs(config: StudyConfig, backend) -> dict:
    """The knobs a study report's footer names."""
    return {"simulator": config.simulator, "backend": backend.describe(),
            "trace_scale": f"{config.trace_scale:g}", "seed": config.seed}


def run_family_study(config: StudyConfig, family_id: str, width: int) -> str:
    """Compact characterization sweep of one non-adder operator family.

    The paper's figures are adder studies; other families get the
    pipeline-equivalent summary — a strided selection of the legal space
    plus the exact baseline, swept over the family's CPR plan through
    the same cached job pipeline, reported per (design x CPR) point.
    """
    from repro.analysis.report import format_log_value, format_table
    from repro.explore.sweep import SWEEP_CPR_LEVELS, SweepSpec, run_sweep
    from repro.timing.clocking import ClockPlan
    from repro.workloads.generators import WorkloadSpec

    family = get_family(family_id)
    space = family.design_space(width)
    backend = config.runtime_backend()
    footer = RunFooter(backend)

    spec = SweepSpec(
        entries=tuple(space.entries(max_designs=12)),
        clock_plan=ClockPlan(safe_period=family.safe_period(width),
                             cpr_levels=SWEEP_CPR_LEVELS),
        workloads=(WorkloadSpec(kind="uniform", length=config.scaled_length(512),
                                width=width, seed=config.seed),),
        simulator=config.simulator, synthesis=config.synthesis, width=width)
    result = run_sweep(spec, backend=backend)

    rows = [(point.design,
             f"{point.cpr * 100:g}%",
             f"{point.clock_period * 1e12:.0f}",
             format_log_value(point.stats.rms_relative_error * 100.0),
             f"{point.stats.error_rate:.4f}",
             "yes" if point.provably_exact else "",
             point.cost.gates,
             f"{point.cost.area_proxy * 1e12:.0f}")
            for point in result.points]
    table = format_table(
        ["design", "CPR", "clock (ps)", "joint RMS RE (%)", "error rate",
         "exact-by-design", "gates", "area (ps)"],
        rows,
        title=f"{family_id} characterization — {space.describe()}; "
              f"{spec.describe()}")

    return "\n\n".join([table, footer.line(
        f"characterized {len(spec.entries)} {family_id} designs",
        **study_knobs(config, backend))])


def main(argv: Optional[List[str]] = None) -> int:
    """Console-script entry point."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    settings = settings_from_arguments(parser, arguments)
    family = get_family(arguments.family)
    width = arguments.width
    if arguments.family == "adder":
        if width is not None:
            parser.error("--width applies to non-adder family studies only "
                         "(the paper's figures are fixed-width adder studies)")
    else:
        width = width if width is not None else family.default_width
        if not 2 <= width <= family.max_width:
            parser.error(f"--width must be in [2, {family.max_width}] for the "
                         f"{arguments.family} family")
    with using_settings(settings):
        config = StudyConfig(simulator=arguments.simulator, seed=arguments.seed)
        if arguments.scale != 1.0:
            # --scale composes with $REPRO_TRACE_SCALE through the explicit
            # trace_scale field, so the applied scaling shows in the report.
            config = replace(config, trace_scale=config.trace_scale * arguments.scale)
        report, timings, _ = observed_run(
            arguments, "repro-experiments",
            {"family": arguments.family, "figures": list(arguments.figures),
             "simulator": arguments.simulator, "scale": arguments.scale},
            lambda: (run_all(config, arguments.figures) if arguments.family == "adder"
                     else run_family_study(config, arguments.family, width)))
    print(report + timings)
    if arguments.output:
        with open(arguments.output, "w", encoding="utf-8") as handle:
            handle.write(report + timings + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())

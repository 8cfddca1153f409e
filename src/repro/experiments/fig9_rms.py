"""Fig. 9 reproduction: structural, timing and joint relative-error RMS.

For every design and every CPR level the experiment computes the three
output sets of the error-combination methodology (diamond, gold, silver),
derives the signed relative errors and reports their RMS — one row per
design, one column group per CPR, mirroring Figs. 9a-9c of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.report import format_log_value, format_table
from repro.core.combination import combine_errors
from repro.experiments.common import (
    DesignCharacterization,
    StudyConfig,
    characterize_designs,
)


@dataclass(frozen=True)
class Fig9Row:
    """RMS relative errors of one design at one CPR level (fractions, not %)."""

    design: str
    cpr: float
    clock_period: float
    structural_rms: float
    timing_rms: float
    joint_rms: float


@dataclass
class Fig9Result:
    """All rows of the Fig. 9 reproduction plus formatting helpers."""

    rows: List[Fig9Row]
    cpr_levels: Sequence[float]

    def rows_for_cpr(self, cpr: float) -> List[Fig9Row]:
        """The rows of one sub-figure (9a, 9b or 9c)."""
        return [row for row in self.rows if abs(row.cpr - cpr) < 1e-12]

    def row(self, design: str, cpr: float) -> Fig9Row:
        """Look up a single design/CPR cell."""
        for candidate in self.rows:
            if candidate.design == design and abs(candidate.cpr - cpr) < 1e-12:
                return candidate
        raise KeyError(f"no Fig. 9 row for design {design!r} at CPR {cpr}")

    def worst_design(self, cpr: float) -> str:
        """Design with the largest joint error at one CPR (the paper expects "exact" at 5 %)."""
        rows = self.rows_for_cpr(cpr)
        return max(rows, key=lambda row: row.joint_rms).design

    def best_design(self, cpr: float) -> str:
        """Design with the smallest joint error at one CPR."""
        rows = self.rows_for_cpr(cpr)
        return min(rows, key=lambda row: row.joint_rms).design

    def format_table(self) -> str:
        """Text rendering of all three sub-figures."""
        sections = []
        for cpr in self.cpr_levels:
            rows = self.rows_for_cpr(cpr)
            table_rows = [
                (row.design,
                 format_log_value(row.structural_rms * 100.0),
                 format_log_value(row.timing_rms * 100.0),
                 format_log_value(row.joint_rms * 100.0))
                for row in rows
            ]
            sections.append(format_table(
                ["design", "structural RMS RE (%)", "timing RMS RE (%)", "joint RMS RE (%)"],
                table_rows,
                title=f"Fig. 9 — relative error RMS at {cpr * 100:g}% CPR"))
        return "\n\n".join(sections)

    def to_dict(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Nested dict view: ``{cpr_label: {design: {metric: value}}}``."""
        result: Dict[str, Dict[str, Dict[str, float]]] = {}
        for row in self.rows:
            label = f"{row.cpr * 100:g}%"
            result.setdefault(label, {})[row.design] = {
                "structural": row.structural_rms,
                "timing": row.timing_rms,
                "joint": row.joint_rms,
            }
        return result


def fig9_rows_from_characterization(characterization: DesignCharacterization,
                                    config: StudyConfig) -> List[Fig9Row]:
    """Compute the Fig. 9 rows of one already-characterised design."""
    rows: List[Fig9Row] = []
    diamond = characterization.diamond_words[1:]
    gold = characterization.gold_words[1:]
    for cpr, period in config.clock_plan.items():
        timing_trace = characterization.timing_trace(period)
        errors = combine_errors(diamond, gold, timing_trace.sampled_words)
        rms = errors.rms_relative_errors()
        rows.append(Fig9Row(
            design=characterization.name,
            cpr=cpr,
            clock_period=period,
            structural_rms=rms["structural"],
            timing_rms=rms["timing"],
            joint_rms=rms["joint"],
        ))
    return rows


def run_fig9(config: Optional[StudyConfig] = None,
             characterizations: Optional[List[DesignCharacterization]] = None) -> Fig9Result:
    """Run the Fig. 9 experiment for every paper design.

    ``characterizations`` may be supplied to reuse work done by another
    experiment (the runner shares them with Fig. 10).
    """
    config = config or StudyConfig()
    if characterizations is None:
        characterizations = characterize_designs(
            config.design_entries(), config.characterization_trace(), config)
    rows: List[Fig9Row] = []
    for characterization in characterizations:
        rows.extend(fig9_rows_from_characterization(characterization, config))
    return Fig9Result(rows=rows, cpr_levels=config.clock_plan.cpr_levels)

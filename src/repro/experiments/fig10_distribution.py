"""Fig. 10 reproduction: bit-position error distribution of one overclocked ISA.

The paper analyses ISA (8,0,0,4) at 15 % CPR — the configuration with the
best balance between structural and timing errors — and plots, per
bit-position equivalent, the internal rate of structural errors (from the
speculative architecture) and of timing errors (from overclocking).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.analysis.distribution import BitErrorDistribution, bit_error_distribution
from repro.analysis.report import format_table
from repro.core.config import ISAConfig
from repro.experiments.common import DesignCharacterization, StudyConfig, characterize_designs
from repro.experiments.designs import FIG10_QUADRUPLE, DesignEntry


@dataclass
class Fig10Result:
    """The Fig. 10 distribution plus the characterisation it came from."""

    distribution: BitErrorDistribution
    characterization: DesignCharacterization
    cpr: float

    def format_table(self) -> str:
        """Text rendering of the two Fig. 10 series."""
        rows = [(position, f"{structural:.4f}", f"{timing:.4f}")
                for position, structural, timing in self.distribution.rows()]
        title = (f"Fig. 10 — bit-level-equivalent error distribution in ISA "
                 f"{self.distribution.design} under {self.cpr * 100:g}% CPR")
        return format_table(["bit position", "structural error rate", "timing error rate"],
                            rows, title=title)

    def structural_peak_positions(self, top: int = 3) -> Tuple[int, ...]:
        """Bit positions with the highest structural error rates."""
        order = self.distribution.structural.argsort()[::-1]
        return tuple(int(position) for position in order[:top])


def run_fig10(config: Optional[StudyConfig] = None,
              quadruple: Tuple[int, int, int, int] = FIG10_QUADRUPLE,
              cpr: float = 0.15,
              characterization: Optional[DesignCharacterization] = None) -> Fig10Result:
    """Reproduce Fig. 10 for the given design and CPR level."""
    config = config or StudyConfig()
    if characterization is None:
        isa_config = ISAConfig.from_quadruple(quadruple, width=config.width)
        entry = DesignEntry(name=isa_config.name, config=isa_config)
        trace = config.characterization_trace()
        [characterization] = characterize_designs([entry], trace, config,
                                                  stats_for=(entry.name,))
    elif characterization.structural_stats is None:
        raise ValueError("the supplied characterization lacks structural fault statistics")

    period = config.clock_plan.period_for(cpr)
    timing_trace = characterization.timing_trace(period)
    distribution = bit_error_distribution(
        design=characterization.name,
        width=config.width,
        structural_stats=characterization.structural_stats,
        timing_trace=timing_trace,
    )
    return Fig10Result(distribution=distribution, characterization=characterization, cpr=cpr)

"""Clock plans and Clock-Period-Reduction (CPR) helpers.

The paper synthesizes every design at a safe clock period of 0.3 ns
(3.3 GHz) and then overclocks by reducing the period by 5, 10 and 15 %
(0.285, 0.27 and 0.255 ns).  :class:`ClockPlan` captures that sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.exceptions import TimingError

#: The paper's safe clock period in seconds (0.3 ns, i.e. 3.3 GHz).
PAPER_SAFE_PERIOD = 0.3e-9

#: The paper's three clock-period reductions (fractions of the safe period).
PAPER_CPR_LEVELS = (0.05, 0.10, 0.15)


def is_valid_period(period: float) -> bool:
    """Whether ``period`` can be a clock period: finite and positive.

    Every entry point that accepts clock periods checks them with this,
    so a NaN (which fails every comparison) or an infinite period is
    refused instead of silently sampling no late output.
    """
    return math.isfinite(period) and period > 0


def _check_period(name: str, value: float) -> None:
    if not is_valid_period(value):
        raise TimingError(f"{name} must be positive and finite, got {value}")


def cpr_to_period(safe_period: float, cpr: float) -> float:
    """Clock period obtained by reducing ``safe_period`` by the fraction ``cpr``."""
    _check_period("safe period", safe_period)
    if not 0.0 <= cpr < 1.0:
        raise TimingError(f"clock-period reduction must lie in [0, 1), got {cpr}")
    return safe_period * (1.0 - cpr)


def period_to_cpr(safe_period: float, period: float) -> float:
    """Clock-period reduction corresponding to an over-clocked ``period``."""
    _check_period("safe period", safe_period)
    _check_period("period", period)
    if period > safe_period + 1e-18:
        raise TimingError(
            f"over-clocked period {period} exceeds the safe period {safe_period}")
    return 1.0 - period / safe_period


@dataclass(frozen=True)
class ClockPlan:
    """A safe clock period plus a set of overclocking levels.

    The default plan reproduces the paper: 0.3 ns safe period with 5, 10
    and 15 % CPR.
    """

    safe_period: float = PAPER_SAFE_PERIOD
    cpr_levels: Tuple[float, ...] = PAPER_CPR_LEVELS

    def __post_init__(self) -> None:
        _check_period("safe period", self.safe_period)
        for cpr in self.cpr_levels:
            if not 0.0 <= cpr < 1.0:
                raise TimingError(f"CPR levels must lie in [0, 1), got {cpr}")

    @property
    def periods(self) -> Tuple[float, ...]:
        """Over-clocked periods corresponding to each CPR level."""
        return tuple(cpr_to_period(self.safe_period, cpr) for cpr in self.cpr_levels)

    def period_for(self, cpr: float) -> float:
        """Over-clocked period for an arbitrary CPR level."""
        return cpr_to_period(self.safe_period, cpr)

    def labels(self) -> List[str]:
        """Human-readable labels for each CPR level (e.g. ``"5%"``)."""
        return [f"{cpr * 100:g}%" for cpr in self.cpr_levels]

    def items(self) -> List[Tuple[float, float]]:
        """List of ``(cpr, period)`` pairs in sweep order."""
        return list(zip(self.cpr_levels, self.periods))

    @classmethod
    def paper(cls) -> "ClockPlan":
        """The plan used throughout the paper's evaluation."""
        return cls()

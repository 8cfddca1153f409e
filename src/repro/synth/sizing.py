"""Slack-driven gate sizing: re-targeting a netlist to a clock constraint.

Commercial synthesis maps every design to the *same* clock constraint
(0.3 ns in the paper) and then recovers power by down-sizing gates on
paths with slack until most paths sit close to the constraint — the
well-known "slack wall".  This is the property that makes overclocking
behaviour design-dependent: designs with short nominal logic depth keep
real margin (gate down-sizing is bounded by the smallest available drive
strength), while deep designs end up with many near-critical paths.

``size_to_constraint`` reproduces that behaviour with a simple, fully
deterministic algorithm:

1. **Allocation pass** — every gate with positive slack is slowed down by
   ``slack_utilization * slack / n`` where ``n`` is the number of gates on
   the longest path through it (so a path never overshoots the
   constraint), bounded by the cell's ``max_delay``.
2. **Fix-up passes** — gates with negative slack (designs whose nominal
   delay exceeds the constraint) are sped up by their share of the
   violation, bounded by the cell's ``min_delay``; repeated a few times.

Both passes run as levelised NumPy sweeps over the netlist's
:class:`~repro.timing.sta.TimingTable`; ``tests/reference_kernels.py``
keeps the per-gate loops they replace as a test oracle, which they match
bit for bit.  The result is a new
:class:`~repro.circuit.sdf.DelayAnnotation` — the library's equivalent
of the SDF file produced by synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.circuit.library import TechnologyLibrary
from repro.circuit.netlist import Netlist
from repro.circuit.sdf import DelayAnnotation
from repro.exceptions import SynthesisError, TimingError
from repro.timing.sta import timing_table
from repro.utils.validation import check_probability


@dataclass(frozen=True)
class SizingOptions:
    """Parameters of the slack-driven sizing step."""

    clock_constraint: float
    slack_utilization: float = 0.8
    fixup_iterations: int = 6
    slack_tolerance: float = 1e-13

    def __post_init__(self) -> None:
        if self.clock_constraint <= 0:
            raise SynthesisError(
                f"clock constraint must be positive, got {self.clock_constraint}")
        check_probability("slack_utilization", self.slack_utilization)
        if self.fixup_iterations < 0:
            raise SynthesisError("fixup_iterations must be non-negative")


@dataclass(frozen=True)
class SizingResult:
    """Outcome of sizing one netlist."""

    annotation: DelayAnnotation
    nominal_critical_path: float
    sized_critical_path: float
    clock_constraint: float
    met_constraint: bool
    nominal_total_delay: float
    sized_total_delay: float

    @property
    def power_recovery(self) -> float:
        """Relative increase in total gate delay — a proxy for recovered power.

        Down-sized (slower) gates are smaller and leak less; the ratio of
        total delay after/before sizing is the crude proxy reported by the
        ablation benchmark.
        """
        if self.nominal_total_delay == 0:
            return 0.0
        return self.sized_total_delay / self.nominal_total_delay - 1.0

    @property
    def slack_at_constraint(self) -> float:
        """Remaining slack of the sized design against the constraint."""
        return self.clock_constraint - self.sized_critical_path


def size_to_constraint(netlist: Netlist, library: TechnologyLibrary,
                       options: SizingOptions,
                       initial: Optional[DelayAnnotation] = None) -> SizingResult:
    """Size ``netlist`` to ``options.clock_constraint`` and return the annotation."""
    annotation = (initial.copy() if initial is not None
                  else DelayAnnotation.nominal(netlist, library))
    annotation.clock_constraint = options.clock_constraint
    # The checks analyze_timing would make, without its critical-path walk.
    annotation.validate_against(netlist)
    if not netlist.outputs:
        raise TimingError(f"netlist {netlist.name!r} has no primary outputs")
    nominal_total = annotation.total_delay()

    table = timing_table(netlist)
    num_gates = len(table.order)
    lows = np.empty(num_gates, dtype=np.float64)
    highs = np.empty(num_gates, dtype=np.float64)
    cell_timings: Dict[str, tuple] = {}
    for index, gate in enumerate(table.order):
        timing = cell_timings.get(gate.cell)
        if timing is None:
            cell = library.timing(gate.cell)
            timing = cell_timings[gate.cell] = (cell.min_delay, cell.max_delay)
        lows[index], highs[index] = timing

    shares = np.maximum(table.path_counts(), 1).astype(np.float64)
    target = options.clock_constraint
    tolerance = options.slack_tolerance
    delays = table.delay_array(annotation)
    arrival = table.arrival_array(delays)
    nominal_delay = float(arrival[table.output_ids].max())

    # Pass 1: allocate a bounded share of each gate's slack as extra delay
    # (power recovery), or remove delay where the nominal design violates.
    required = table.required_array(delays, target)
    slacks = required[table.out_ids] - arrival[table.out_ids]
    slowed = np.minimum(delays + options.slack_utilization * slacks / shares, highs)
    sped = np.maximum(delays + slacks / shares, lows)
    delays = np.where(slacks > tolerance, slowed,
                      np.where(slacks < -tolerance, sped, delays))

    # Fix-up passes: only repair violations introduced by the nominal design
    # being too slow (never consume more slack).
    for _ in range(options.fixup_iterations):
        slacks = table.slack_array(delays, target)
        worst = slacks.min() if slacks.size else 0.0
        if worst >= -tolerance:
            break
        repaired = np.maximum(delays + slacks / shares, lows)
        delays = np.where(slacks < -tolerance, repaired, delays)

    for gate, delay in zip(table.order, delays.tolist()):
        annotation.set_delay(gate.name, delay)

    sized_delay = float(table.arrival_array(delays)[table.output_ids].max())
    return SizingResult(
        annotation=annotation,
        nominal_critical_path=nominal_delay,
        sized_critical_path=sized_delay,
        clock_constraint=target,
        met_constraint=sized_delay <= target + options.slack_tolerance,
        nominal_total_delay=nominal_total,
        sized_total_delay=annotation.total_delay(),
    )

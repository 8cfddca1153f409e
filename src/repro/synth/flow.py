"""End-to-end synthesis flow: generate, validate, size, annotate.

``synthesize`` is the high-level entry point used by the experiments: it
accepts either an :class:`~repro.core.config.ISAConfig` (the inexact
designs) or a ready-made netlist (the exact baseline or any custom
architecture), runs structural validation, applies the slack-driven
sizing step against the clock constraint and optionally adds per-instance
process variation, and returns a :class:`SynthesizedDesign` bundling the
netlist with its delay annotation and timing reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.circuit.library import TechnologyLibrary, default_library
from repro.circuit.netlist import Netlist
from repro.circuit.sdf import DelayAnnotation
from repro.circuit.validate import NetlistReport, check_netlist
from repro.core.config import ISAConfig
from repro.exceptions import SynthesisError
from repro.obs.trace import span
from repro.synth.adders import ADDER_ARCHITECTURES, carry_lookahead_adder, kogge_stone_adder
from repro.synth.isa_synth import isa_adder
from repro.synth.optimize import optimize
from repro.synth.sizing import SizingOptions, SizingResult, size_to_constraint
from repro.timing.clocking import PAPER_SAFE_PERIOD
from repro.timing.sta import TimingReport, analyze_timing
from repro.utils.rng import SeedLike, ensure_rng

DesignSpec = Union[ISAConfig, Netlist]


@dataclass(frozen=True)
class SynthesisOptions:
    """Knobs of the synthesis flow (defaults reproduce the paper's setup)."""

    clock_constraint: float = PAPER_SAFE_PERIOD
    library: Optional[TechnologyLibrary] = None
    enable_optimization: bool = True
    enable_sizing: bool = True
    slack_utilization: float = 0.5
    fixup_iterations: int = 6
    adder_architecture: str = "kogge-stone"
    variation_sigma: float = 0.0
    variation_seed: SeedLike = None

    def __post_init__(self) -> None:
        if self.adder_architecture not in ADDER_ARCHITECTURES:
            raise SynthesisError(
                f"unknown adder architecture {self.adder_architecture!r}; "
                f"known: {sorted(ADDER_ARCHITECTURES)}")

    def resolved_library(self) -> TechnologyLibrary:
        """The technology library to use (defaults to the synthetic 65 nm one)."""
        return self.library if self.library is not None else default_library()


@dataclass(frozen=True)
class SynthesizedDesign:
    """A synthesized design: netlist + delay annotation + reports."""

    name: str
    netlist: Netlist
    annotation: DelayAnnotation
    library: TechnologyLibrary
    options: SynthesisOptions
    netlist_report: NetlistReport
    timing_report: TimingReport
    sizing_result: Optional[SizingResult]
    config: Optional[ISAConfig] = None

    @property
    def critical_path_delay(self) -> float:
        """Critical path delay of the synthesized (sized) design, in seconds."""
        return self.timing_report.critical_path_delay

    @property
    def is_exact(self) -> bool:
        """True when the design is the exact baseline (no ISA configuration)."""
        return self.config is None or self.config.is_exact

    def describe(self) -> str:
        """Human-readable summary of the synthesis outcome."""
        lines = [
            f"Design {self.name}",
            f"  gates               : {self.netlist.num_gates}",
            f"  logic depth         : {self.netlist_report.logic_depth}",
            f"  critical path       : {self.critical_path_delay * 1e12:.1f} ps",
            f"  clock constraint    : {self.options.clock_constraint * 1e12:.1f} ps",
        ]
        if self.sizing_result is not None:
            lines.append(f"  nominal critical    : "
                         f"{self.sizing_result.nominal_critical_path * 1e12:.1f} ps")
            lines.append(f"  power recovery proxy: "
                         f"{self.sizing_result.power_recovery * 100:.1f}% slower gates")
        return "\n".join(lines)


def exact_adder_netlist(width: int = 32, architecture: str = "kogge-stone") -> Netlist:
    """The exact baseline architecture used in the paper's figures.

    A Kogge-Stone prefix adder is the kind of structure synthesis picks
    for an aggressive 3.3 GHz constraint; the carry-look-ahead generator
    remains available through ``architecture="cla"``.
    """
    if architecture == "cla":
        return carry_lookahead_adder(width=width, name="exact")
    if architecture == "kogge-stone":
        return kogge_stone_adder(width=width, name="exact")
    from repro.synth.adders import brent_kung_adder, ripple_carry_adder
    if architecture == "brent-kung":
        return brent_kung_adder(width=width, name="exact")
    if architecture == "ripple":
        return ripple_carry_adder(width=width, name="exact")
    raise SynthesisError(f"unknown exact-adder architecture {architecture!r}")


def _materialise(design: DesignSpec, options: SynthesisOptions) -> Tuple[Netlist, Optional[ISAConfig]]:
    if isinstance(design, Netlist):
        return design, None
    if isinstance(design, ISAConfig):
        if design.is_exact:
            return exact_adder_netlist(design.width, options.adder_architecture), design
        return isa_adder(design, sub_adder=options.adder_architecture), design
    raise SynthesisError(f"cannot synthesize object of type {type(design).__name__}")


def _apply_variation(netlist: Netlist, annotation: DelayAnnotation,
                     sigma: float, seed: SeedLike) -> DelayAnnotation:
    """Apply per-instance log-normal delay variation (post-synthesis PVT model)."""
    if sigma <= 0:
        return annotation
    rng = ensure_rng(seed)
    varied = annotation.copy()
    for gate in netlist.gates:
        factor = float(rng.lognormal(mean=0.0, sigma=sigma))
        varied.set_delay(gate.name, annotation.delay_of(gate.name) * factor)
    return varied


def synthesize(design: DesignSpec, options: Optional[SynthesisOptions] = None) -> SynthesizedDesign:
    """Run the full synthesis flow on a design specification.

    Parameters
    ----------
    design:
        Either an :class:`~repro.core.config.ISAConfig` (an ISA or, if the
        configuration is degenerate, the exact adder) or a pre-built
        :class:`~repro.circuit.netlist.Netlist`.
    options:
        Flow options; the defaults reproduce the paper's 0.3 ns constraint
        with the synthetic 65 nm library.
    """
    options = options or SynthesisOptions()
    library = options.resolved_library()
    netlist, config = _materialise(design, options)
    if options.enable_optimization:
        with span("synth.optimize"):
            netlist = optimize(netlist)
    netlist_report = check_netlist(netlist)

    sizing_result: Optional[SizingResult] = None
    if options.enable_sizing:
        sizing_options = SizingOptions(
            clock_constraint=options.clock_constraint,
            slack_utilization=options.slack_utilization,
            fixup_iterations=options.fixup_iterations)
        with span("synth.sizing"):
            sizing_result = size_to_constraint(netlist, library, sizing_options)
        annotation = sizing_result.annotation
    else:
        annotation = DelayAnnotation.nominal(netlist, library,
                                             clock_constraint=options.clock_constraint)

    annotation = _apply_variation(netlist, annotation, options.variation_sigma,
                                  options.variation_seed)
    with span("synth.sta"):
        timing_report = analyze_timing(netlist, annotation,
                                       clock_period=options.clock_constraint)

    return SynthesizedDesign(
        name=netlist.name,
        netlist=netlist,
        annotation=annotation,
        library=library,
        options=options,
        netlist_report=netlist_report,
        timing_report=timing_report,
        sizing_result=sizing_result,
        config=config,
    )

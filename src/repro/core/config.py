"""Configuration of Inexact Speculative Adders.

An ISA is described in the paper by a quadruple of bit-widths
``(block size, SPEC size, correction, reduction)`` applied to a given
adder width.  The paper's designs are all 32-bit adders with uniformly
sized blocks (2x16, 4x8 or 8x4 bits).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from repro.exceptions import ConfigurationError
from repro.utils.validation import check_non_negative_int, check_positive_int


@dataclass(frozen=True)
class ISAConfig:
    """Static description of an Inexact Speculative Adder.

    Parameters
    ----------
    width:
        Total adder width in bits (operand width).  The result is
        ``width + 1`` bits wide (the final carry out is kept).
    block_size:
        Width of each speculative segment.  Must divide ``width``.
    spec_size:
        Number of operand bits below each block boundary used by the
        carry speculator.  ``0`` speculates a constant
        ``speculate_on_propagate`` carry.
    correction:
        Number of LSBs of the local sum the compensation block may
        increment/decrement to absorb a wrong speculated carry.
    reduction:
        Number of MSBs of the *preceding* block sum that are saturated
        (error balancing) when correction is impossible.
    speculate_on_propagate:
        Carry value guessed when the speculation window is fully
        propagating (or when ``spec_size`` is 0).  The paper's designs
        guess 0.
    """

    width: int = 32
    block_size: int = 8
    spec_size: int = 0
    correction: int = 0
    reduction: int = 0
    speculate_on_propagate: int = 0

    def __post_init__(self) -> None:
        check_positive_int("width", self.width)
        check_positive_int("block_size", self.block_size)
        check_non_negative_int("spec_size", self.spec_size)
        check_non_negative_int("correction", self.correction)
        check_non_negative_int("reduction", self.reduction)
        if self.width % self.block_size != 0:
            raise ConfigurationError(
                f"block_size {self.block_size} must divide adder width {self.width}")
        if self.block_size > self.width:
            raise ConfigurationError(
                f"block_size {self.block_size} cannot exceed width {self.width}")
        if self.spec_size > self.block_size:
            raise ConfigurationError(
                f"spec_size {self.spec_size} cannot exceed block_size {self.block_size}: "
                "the speculation window reads bits of the preceding block only")
        if self.correction > self.block_size:
            raise ConfigurationError(
                f"correction {self.correction} cannot exceed block_size {self.block_size}")
        if self.reduction > self.block_size:
            raise ConfigurationError(
                f"reduction {self.reduction} cannot exceed block_size {self.block_size}")
        if self.speculate_on_propagate not in (0, 1):
            raise ConfigurationError(
                f"speculate_on_propagate must be 0 or 1, got {self.speculate_on_propagate}")

    # ------------------------------------------------------------------ #
    # Derived properties
    # ------------------------------------------------------------------ #
    @property
    def num_blocks(self) -> int:
        """Number of speculative segments (parallel carry paths)."""
        return self.width // self.block_size

    @property
    def block_offsets(self) -> Tuple[int, ...]:
        """Bit offset of the LSB of each block, LSB block first."""
        return tuple(range(0, self.width, self.block_size))

    @property
    def is_exact(self) -> bool:
        """True when the configuration degenerates into an exact adder.

        A single block covering the whole width has no speculation
        boundary and therefore no structural error source.
        """
        return self.num_blocks == 1

    @property
    def is_provably_exact(self) -> bool:
        """True when the architecture can never produce a structural error.

        The speculation window of block ``k`` reads the ``spec_size``
        operand bits below its boundary, i.e. bits
        ``[k*block_size - spec_size, k*block_size)``; the prediction is
        guaranteed correct for *all* operand values only when every
        window reaches down to the known carry-in at bit 0, which with
        ``spec_size <= block_size`` restricts the guarantee to two-block
        configurations with a full-block window (a carry-select-style
        adder).  Every other multi-block configuration has inputs that
        defeat it — whatever its *measured* error on a finite workload.
        (The guarantee assumes the adder-level carry-in is tied to the
        ``speculate_on_propagate`` constant — the characterization
        pipeline ties it to 0, the paper's guess.)
        """
        return self.is_exact or (self.num_blocks <= 2
                                 and self.spec_size == self.block_size
                                 and self.speculate_on_propagate == 0)

    @property
    def quadruple(self) -> Tuple[int, int, int, int]:
        """The paper's ``(block, spec, correction, reduction)`` notation."""
        return (self.block_size, self.spec_size, self.correction, self.reduction)

    @property
    def name(self) -> str:
        """Human-readable name, e.g. ``"(8,0,0,4)"`` as used in the paper's figures."""
        return "({},{},{},{})".format(*self.quadruple)

    @property
    def label(self) -> str:
        """Identifier-safe name, e.g. ``"isa32_8_0_0_4"``."""
        return "isa{}_{}_{}_{}_{}".format(self.width, *self.quadruple)

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_quadruple(cls, quadruple: Tuple[int, int, int, int], width: int = 32) -> "ISAConfig":
        """Build a config from the paper's quadruple notation."""
        if len(quadruple) != 4:
            raise ConfigurationError(
                f"quadruple must have 4 entries (block, spec, correction, reduction), got {quadruple!r}")
        block, spec, correction, reduction = quadruple
        return cls(width=width, block_size=block, spec_size=spec,
                   correction=correction, reduction=reduction)

    @classmethod
    def exact(cls, width: int = 32) -> "ISAConfig":
        """A degenerate single-block configuration equivalent to an exact adder."""
        return cls(width=width, block_size=width, spec_size=0, correction=0, reduction=0)

    def with_width(self, width: int) -> "ISAConfig":
        """Return a copy of this configuration scaled to another adder width."""
        return replace(self, width=width)

    def describe(self) -> str:
        """Multi-line human-readable description used by reports and examples."""
        lines = [
            f"ISA configuration {self.name} ({self.width}-bit adder)",
            f"  blocks             : {self.num_blocks} x {self.block_size} bits",
            f"  carry speculation  : {self.spec_size} bits"
            + (" (constant guess)" if self.spec_size == 0 else ""),
            f"  error correction   : {self.correction} LSBs of the local sum",
            f"  error reduction    : {self.reduction} MSBs of the preceding sum",
            f"  propagate guess    : {self.speculate_on_propagate}",
        ]
        return "\n".join(lines)

"""Behavioural model of the Inexact Speculative Adder (ISA).

Two implementations of the same architecture live here:

* a **scalar reference model** (:meth:`InexactSpeculativeAdder.add` /
  :meth:`add_detailed`) that mirrors the block diagram of Fig. 1 of the
  paper block by block and exposes per-block diagnostics (speculated
  carry, fault, correction/reduction applied, residual error), and
* a **vectorised model** (:meth:`add_many`) operating on ``uint64`` NumPy
  arrays, used to characterise structural errors over millions of random
  vectors as in the paper's evaluation.

The scalar and vectorised paths are checked against each other by the
test suite (including property-based tests), and the gate-level netlist
produced by :mod:`repro.synth.isa_synth` is checked against this model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.compensation import compensate
from repro.core.config import ISAConfig
from repro.core.speculation import speculate_carry
from repro.exceptions import ConfigurationError
from repro.utils.bitops import bit_field, mask


@dataclass(frozen=True)
class BlockRecord:
    """Diagnostics for one speculative segment of one addition."""

    index: int
    offset: int
    speculated_carry: int
    hardware_carry_in: int
    fault: bool
    direction: int
    corrected: bool
    reduced: bool
    local_sum: int
    carry_out: int
    residual_error: int

    @property
    def error_bit_position(self) -> Optional[int]:
        """Bit-position equivalent of the residual error (Fig. 10), or None."""
        if self.residual_error == 0:
            return None
        return abs(self.residual_error).bit_length() - 1


@dataclass(frozen=True)
class ISAAdditionResult:
    """Full result of a single detailed ISA addition."""

    value: int
    exact: int
    blocks: Tuple[BlockRecord, ...]

    @property
    def structural_error(self) -> int:
        """Signed structural error ``ygold - ydiamond``."""
        return self.value - self.exact

    @property
    def fault_count(self) -> int:
        """Number of blocks whose speculated carry was wrong."""
        return sum(1 for blk in self.blocks if blk.fault)

    @property
    def error_positions(self) -> Tuple[int, ...]:
        """Bit-position equivalents of all non-zero per-block residual errors."""
        return tuple(blk.error_bit_position for blk in self.blocks
                     if blk.error_bit_position is not None)


@dataclass
class StructuralFaultStats:
    """Aggregated structural-fault statistics over a batch of additions.

    ``position_counts[p]`` counts, over the whole batch, the additions in
    which at least one block left a residual error whose bit-position
    equivalent is ``p``.  Dividing by ``cycles`` gives the *internal error
    rate* plotted in Fig. 10 of the paper.
    """

    width: int
    cycles: int
    fault_counts: np.ndarray
    corrected_counts: np.ndarray
    reduced_counts: np.ndarray
    position_counts: np.ndarray = field(default=None)

    @property
    def error_rate_by_position(self) -> np.ndarray:
        """Internal structural error rate per bit-position equivalent."""
        if self.cycles == 0:
            return np.zeros(self.width + 1)
        return self.position_counts / float(self.cycles)


class InexactSpeculativeAdder:
    """Behavioural Inexact Speculative Adder (golden model).

    Parameters
    ----------
    config:
        The :class:`~repro.core.config.ISAConfig` describing block size,
        speculation window, correction and reduction widths.
    """

    def __init__(self, config: ISAConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------ #
    # Scalar reference model
    # ------------------------------------------------------------------ #
    def add(self, a: int, b: int, cin: int = 0) -> int:
        """Golden (structurally erroneous) sum of two unsigned operands."""
        return self.add_detailed(a, b, cin).value

    def add_detailed(self, a: int, b: int, cin: int = 0) -> ISAAdditionResult:
        """Golden sum plus per-block diagnostics for one addition."""
        cfg = self.config
        self._check_operand(a, "a")
        self._check_operand(b, "b")
        if cin not in (0, 1):
            raise ConfigurationError(f"cin must be 0 or 1, got {cin}")

        block_mask = mask(cfg.block_size)
        sums: List[int] = []
        records: List[BlockRecord] = []
        previous_cout = cin

        for index, offset in enumerate(cfg.block_offsets):
            a_blk = bit_field(a, offset, cfg.block_size)
            b_blk = bit_field(b, offset, cfg.block_size)
            if index == 0:
                spec = cin
            else:
                spec = int(speculate_carry(a, b, offset, cfg.spec_size,
                                           guess=cfg.speculate_on_propagate))
            raw = a_blk + b_blk + spec
            local_sum = raw & block_mask
            carry_out = raw >> cfg.block_size

            fault = index > 0 and spec != previous_cout
            direction = 0
            corrected = False
            reduced = False
            residual = 0
            if fault:
                direction = +1 if previous_cout > spec else -1
                outcome = compensate(
                    local_sum=local_sum,
                    previous_sum=sums[index - 1],
                    block_size=cfg.block_size,
                    correction=cfg.correction,
                    reduction=cfg.reduction,
                    direction=direction,
                    block_offset=offset,
                )
                corrected = outcome.corrected
                reduced = outcome.reduced
                local_sum = outcome.local_sum
                sums[index - 1] = outcome.previous_sum
                residual = outcome.residual_error

            sums.append(local_sum)
            records.append(BlockRecord(
                index=index, offset=offset, speculated_carry=spec,
                hardware_carry_in=previous_cout if index > 0 else cin,
                fault=fault, direction=direction, corrected=corrected,
                reduced=reduced, local_sum=local_sum, carry_out=carry_out,
                residual_error=residual))
            previous_cout = carry_out

        value = 0
        for offset, local_sum in zip(cfg.block_offsets, sums):
            value |= local_sum << offset
        value |= previous_cout << cfg.width

        return ISAAdditionResult(value=value, exact=int(a) + int(b) + cin,
                                 blocks=tuple(records))

    # ------------------------------------------------------------------ #
    # Vectorised model
    # ------------------------------------------------------------------ #
    def add_many(self, a: np.ndarray, b: np.ndarray, cin: int = 0) -> np.ndarray:
        """Golden sums for ``uint64`` operand arrays (vectorised)."""
        result, _ = self._add_many_impl(a, b, cin, collect_stats=False)
        return result

    def add_many_with_stats(self, a: np.ndarray, b: np.ndarray,
                            cin: int = 0) -> Tuple[np.ndarray, StructuralFaultStats]:
        """Vectorised golden sums plus aggregated structural-fault statistics."""
        result, stats = self._add_many_impl(a, b, cin, collect_stats=True)
        return result, stats

    def _add_many_impl(self, a: np.ndarray, b: np.ndarray, cin: int,
                       collect_stats: bool) -> Tuple[np.ndarray, Optional[StructuralFaultStats]]:
        cfg = self.config
        a = np.asarray(a, dtype=np.uint64)
        b = np.asarray(b, dtype=np.uint64)
        if a.shape != b.shape:
            raise ConfigurationError(f"operand shapes differ: {a.shape} vs {b.shape}")
        if a.size and (int(a.max()) > mask(cfg.width) or int(b.max()) > mask(cfg.width)):
            raise ConfigurationError(f"operands exceed the unsigned {cfg.width}-bit range")
        if cin not in (0, 1):
            raise ConfigurationError(f"cin must be 0 or 1, got {cin}")

        n = a.shape[0] if a.ndim else 1
        block_mask = np.uint64(mask(cfg.block_size))
        corr_mask = np.uint64(mask(cfg.correction)) if cfg.correction else None
        one = np.uint64(1)

        sums = np.zeros((cfg.num_blocks,) + a.shape, dtype=np.uint64)
        previous_cout = np.full(a.shape, np.uint64(cin), dtype=np.uint64)

        num_positions = cfg.width + 1
        position_counts = np.zeros(num_positions, dtype=np.int64)
        fault_counts = np.zeros(cfg.num_blocks, dtype=np.int64)
        corrected_counts = np.zeros(cfg.num_blocks, dtype=np.int64)
        reduced_counts = np.zeros(cfg.num_blocks, dtype=np.int64)

        for index, offset in enumerate(cfg.block_offsets):
            a_blk = (a >> np.uint64(offset)) & block_mask
            b_blk = (b >> np.uint64(offset)) & block_mask
            if index == 0:
                spec = np.full(a.shape, np.uint64(cin), dtype=np.uint64)
            else:
                spec = speculate_carry(a, b, offset, cfg.spec_size,
                                       guess=cfg.speculate_on_propagate).astype(np.uint64)
            raw = a_blk + b_blk + spec
            local_sum = raw & block_mask
            carry_out = raw >> np.uint64(cfg.block_size)

            if index > 0:
                fault = spec != previous_cout
                # direction: +1 when the hardware carry is 1 but 0 was speculated
                positive = fault & (previous_cout > spec)
                negative = fault & (previous_cout < spec)

                corrected = np.zeros(a.shape, dtype=bool)
                if cfg.correction > 0:
                    lsb_field = local_sum & corr_mask
                    can_inc = positive & (lsb_field != corr_mask)
                    can_dec = negative & (lsb_field != np.uint64(0))
                    local_sum = np.where(can_inc, local_sum + one, local_sum)
                    local_sum = np.where(can_dec, local_sum - one, local_sum)
                    corrected = can_inc | can_dec

                need_balance = fault & ~corrected
                residual = np.zeros(a.shape, dtype=np.int64)
                if cfg.reduction > 0:
                    red_offset = cfg.block_size - cfg.reduction
                    red_mask = np.uint64(mask(cfg.reduction))
                    prev = sums[index - 1]
                    old_field = (prev >> np.uint64(red_offset)) & red_mask
                    new_field = np.where(positive, red_mask, np.uint64(0))
                    new_prev = (prev & ~(red_mask << np.uint64(red_offset))) | \
                        (new_field << np.uint64(red_offset))
                    sums[index - 1] = np.where(need_balance, new_prev, prev)
                    if collect_stats:
                        delta = (new_field.astype(np.int64) - old_field.astype(np.int64))
                        delta <<= (offset - cfg.block_size + red_offset)
                        residual = np.where(need_balance, delta, 0)
                if collect_stats:
                    base = np.zeros(a.shape, dtype=np.int64)
                    base = np.where(need_balance & positive, -(1 << offset), base)
                    base = np.where(need_balance & negative, (1 << offset), base)
                    residual = residual + base
                    nonzero = residual != 0
                    if np.any(nonzero):
                        positions = np.floor(
                            np.log2(np.abs(residual[nonzero]).astype(np.float64))).astype(np.int64)
                        position_counts += np.bincount(positions, minlength=num_positions)[:num_positions]
                    fault_counts[index] += int(np.count_nonzero(fault))
                    corrected_counts[index] += int(np.count_nonzero(corrected))
                    reduced_counts[index] += int(np.count_nonzero(need_balance))

            sums[index] = local_sum
            previous_cout = carry_out

        result = np.zeros(a.shape, dtype=np.uint64)
        for index, offset in enumerate(cfg.block_offsets):
            result |= sums[index] << np.uint64(offset)
        result |= previous_cout << np.uint64(cfg.width)

        stats = None
        if collect_stats:
            stats = StructuralFaultStats(
                width=cfg.width, cycles=int(n),
                fault_counts=fault_counts,
                corrected_counts=corrected_counts,
                reduced_counts=reduced_counts,
                position_counts=position_counts)
        return result, stats

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Display name matching the paper's figures, e.g. ``"(8,0,0,4)"``."""
        return self.config.name

    @property
    def result_width(self) -> int:
        """Width of the result including the final carry out."""
        return self.config.width + 1

    def worst_case_error_bound(self) -> int:
        """Conservative upper bound on the structural error of one addition.

        Each of the ``num_blocks - 1`` speculation boundaries can at worst
        drop (or, with a propagate guess of 1, inject) a full carry at its
        offset, i.e. ``2**offset``.  Error reduction lowers the *typical*
        residual (and the relative error) but cannot help when the
        preceding sum's MSBs are already saturated, so the bound does not
        depend on the compensation parameters.
        """
        cfg = self.config
        bound = 0
        for offset in cfg.block_offsets[1:]:
            bound += 1 << offset
        return bound

    def _check_operand(self, value: int, label: str) -> None:
        if not 0 <= int(value) <= mask(self.config.width):
            raise ConfigurationError(
                f"operand {label}={value!r} outside the unsigned {self.config.width}-bit range")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"InexactSpeculativeAdder({self.config.name}, width={self.config.width})"

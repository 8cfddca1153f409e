"""Error-compensation primitives of the ISA COMP block.

Two mechanisms are modelled, exactly as described in Section II-B of the
paper:

* **Correction** — when the speculated carry entering a block turns out
  to be wrong, the COMP increments (missing carry) or decrements (extra
  carry) a field of ``correction`` LSBs of that block's local sum.  The
  correction is only possible when the field does not overflow/underflow,
  i.e. when the field is not fully propagating; in that case the
  correction restores the exact local sum.
* **Reduction (balancing)** — when correction is impossible, the
  ``reduction`` MSBs of the *preceding* block sum are saturated towards
  the direction of the carry error, which bounds the residual arithmetic
  error by ``2**(boundary - reduction)`` instead of ``2**boundary``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.utils.bitops import bit_field, mask, set_bit_field


@dataclass(frozen=True)
class CompensationOutcome:
    """Result of compensating a single speculation fault.

    Attributes
    ----------
    corrected:
        True when the LSB correction absorbed the fault exactly.
    reduced:
        True when error reduction (balancing) was applied instead.
    local_sum:
        The (possibly corrected) local sum of the faulty block.
    previous_sum:
        The (possibly balanced) sum of the preceding block.
    residual_error:
        Signed arithmetic error contributed by this fault after
        compensation, expressed at absolute bit positions (i.e. already
        scaled by the block offset).  Zero when fully corrected.
    """

    corrected: bool
    reduced: bool
    local_sum: int
    previous_sum: int
    residual_error: int


def can_correct(local_sum: int, correction: int, direction: int) -> bool:
    """Whether a ``direction`` (+1/-1) carry error can be absorbed by the LSB field."""
    if correction <= 0:
        return False
    field = bit_field(local_sum, 0, correction)
    if direction > 0:
        return field != mask(correction)
    if direction < 0:
        return field != 0
    raise ConfigurationError("direction must be +1 or -1 for a speculation fault")


def apply_correction(local_sum: int, correction: int, direction: int) -> int:
    """Increment/decrement the ``correction``-bit LSB field of ``local_sum``.

    The caller must have checked :func:`can_correct`; because the field is
    not saturated, adding ``direction`` to the whole local sum is
    equivalent to adding it to the field only.
    """
    if not can_correct(local_sum, correction, direction):
        raise ConfigurationError("correction applied to a saturated LSB field")
    return local_sum + direction


def apply_reduction(previous_sum: int, block_size: int, reduction: int, direction: int) -> int:
    """Saturate the ``reduction`` MSBs of the preceding block sum.

    A missing carry (``direction`` +1) forces the field to all ones, an
    extra carry (−1) forces it to all zeros, pulling the overall result
    towards the exact value.
    """
    if reduction <= 0:
        return previous_sum
    if reduction > block_size:
        raise ConfigurationError(
            f"reduction {reduction} cannot exceed block_size {block_size}")
    offset = block_size - reduction
    field = mask(reduction) if direction > 0 else 0
    return set_bit_field(previous_sum, offset, reduction, field)


def compensate(local_sum: int, previous_sum: int, block_size: int, correction: int,
               reduction: int, direction: int, block_offset: int) -> CompensationOutcome:
    """Apply the full COMP policy to one speculation fault.

    Parameters
    ----------
    local_sum:
        Local sum of the faulty block (computed with the wrong carry).
    previous_sum:
        Sum of the preceding block (candidate for balancing).
    block_size, correction, reduction:
        The ISA configuration parameters.
    direction:
        +1 when the true carry is 1 but 0 was speculated, −1 for the
        opposite fault.
    block_offset:
        Absolute bit offset of the faulty block (used to express the
        residual error at its true weight).
    """
    if direction not in (+1, -1):
        raise ConfigurationError(f"direction must be +1 or -1, got {direction}")
    base_error = -direction * (1 << block_offset)
    if can_correct(local_sum, correction, direction):
        return CompensationOutcome(
            corrected=True, reduced=False,
            local_sum=apply_correction(local_sum, correction, direction),
            previous_sum=previous_sum, residual_error=0)
    if reduction > 0:
        new_previous = apply_reduction(previous_sum, block_size, reduction, direction)
        delta = (new_previous - previous_sum) << (block_offset - block_size)
        return CompensationOutcome(
            corrected=False, reduced=True, local_sum=local_sum,
            previous_sum=new_previous, residual_error=base_error + delta)
    return CompensationOutcome(
        corrected=False, reduced=False, local_sum=local_sum,
        previous_sum=previous_sum, residual_error=base_error)


"""Error-combination methodology (Section IV of the paper).

Three output values are distinguished for every input vector:

* ``ydiamond`` — ideal output of an exact addition,
* ``ygold`` — expected output of the implemented (inexact) circuit, i.e.
  containing the *structural* errors only,
* ``ysilver`` — output of the over-clocked circuit, containing both
  structural and *timing* errors.

Signed arithmetic and relative errors are derived from these values, and
the joint error is their sum; errors in the same direction add up while
errors in opposite directions compensate (Figs. 4 and 5 of the paper).
The :func:`combination_flow` helper mirrors the pseudo-code of Fig. 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Union

import numpy as np

from repro.exceptions import AnalysisError

ArrayLike = Union[Sequence[int], np.ndarray]


def signed_words(values: ArrayLike) -> np.ndarray:
    """Outputs as signed 64-bit integers for error arithmetic.

    A word outside the signed 64-bit range raises
    :class:`~repro.exceptions.AnalysisError` instead of wrapping: an
    unsigned word at or above ``2**63``, or a float one (NumPy holds a
    list of Python ints as floats when one of them does not fit).  The
    error metrics and the sweep scorer convert through this function too.
    """
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind in "uf" and not (
            -2 ** 63 <= arr.min() and arr.max() < 2 ** 63):
        raise AnalysisError("output values exceed the signed 64-bit range")
    return arr.astype(np.int64)


def safe_denominator(ydiamond: np.ndarray) -> np.ndarray:
    """Denominator for relative errors; zero exact results are replaced by one.

    ``ydiamond`` holds signed exact outputs (:func:`signed_words`).  With
    32-bit unsigned random operands the exact result is zero only for the
    all-zero input, so the substitution has no statistical effect; it
    simply keeps the relative error finite.
    """
    return np.where(ydiamond == 0, np.int64(1), ydiamond).astype(np.float64)


def root_mean_square(values: np.ndarray) -> float:
    """RMS of a batch of (relative) errors."""
    return float(np.sqrt(np.mean(values ** 2)))


@dataclass(frozen=True)
class CombinedErrors:
    """Signed error decomposition of a batch of additions.

    All arrays have one entry per input vector.  Relative errors are both
    normalised by the exact (diamond) result, as required for the two
    contributions to be additive.
    """

    ydiamond: np.ndarray
    ygold: np.ndarray
    ysilver: np.ndarray
    e_struct: np.ndarray
    e_timing: np.ndarray
    e_joint: np.ndarray
    re_struct: np.ndarray
    re_timing: np.ndarray
    re_joint: np.ndarray

    @property
    def cycles(self) -> int:
        """Number of input vectors in the batch."""
        return int(self.ydiamond.shape[0])

    def mean_absolute_joint_error(self) -> float:
        """Mean of ``|Ejoint|`` over the batch (output of the Fig. 6 flow)."""
        return float(np.mean(np.abs(self.e_joint)))

    def rms_relative_errors(self) -> Dict[str, float]:
        """RMS of the structural, timing and joint relative errors (fractions)."""
        return {
            "structural": root_mean_square(self.re_struct),
            "timing": root_mean_square(self.re_timing),
            "joint": root_mean_square(self.re_joint),
        }

    def compensation_rate(self) -> float:
        """Fraction of cycles where structural and timing errors have opposite signs.

        Quantifies how often the two contributions partially cancel
        (Fig. 5 of the paper) among cycles where both are non-zero.
        """
        both = (self.e_struct != 0) & (self.e_timing != 0)
        if not np.any(both):
            return 0.0
        opposite = both & (np.sign(self.e_struct) != np.sign(self.e_timing))
        return float(np.count_nonzero(opposite)) / float(np.count_nonzero(both))


def combine_errors(ydiamond: ArrayLike, ygold: ArrayLike, ysilver: ArrayLike) -> CombinedErrors:
    """Compute structural, timing and joint errors from the three output sets."""
    ydiamond = signed_words(ydiamond)
    ygold = signed_words(ygold)
    ysilver = signed_words(ysilver)
    if not (ydiamond.shape == ygold.shape == ysilver.shape):
        raise AnalysisError(
            f"output shapes differ: diamond {ydiamond.shape}, gold {ygold.shape}, "
            f"silver {ysilver.shape}")
    e_struct = ygold - ydiamond
    e_timing = ysilver - ygold
    e_joint = ysilver - ydiamond
    denom = safe_denominator(ydiamond)
    re_struct = e_struct / denom
    re_timing = e_timing / denom
    re_joint = e_joint / denom
    return CombinedErrors(
        ydiamond=ydiamond, ygold=ygold, ysilver=ysilver,
        e_struct=e_struct, e_timing=e_timing, e_joint=e_joint,
        re_struct=re_struct, re_timing=re_timing, re_joint=re_joint)


def relative_errors(ydiamond: ArrayLike, y: ArrayLike) -> np.ndarray:
    """Signed relative error of ``y`` with respect to the exact result."""
    ydiamond = signed_words(ydiamond)
    y = signed_words(y)
    if ydiamond.shape != y.shape:
        raise AnalysisError(f"output shapes differ: {ydiamond.shape} vs {y.shape}")
    return (y - ydiamond) / safe_denominator(ydiamond)


SilverProvider = Callable[[object, float, np.ndarray, np.ndarray], np.ndarray]
GoldProvider = Callable[[object, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class CombinationFlowResult:
    """Output of the Fig. 6 combination flow for one (design, clock) pair."""

    design: object
    clock_period: float
    errors: CombinedErrors

    @property
    def mean_absolute_joint_error(self) -> float:
        """Mean of ``|Ejoint|`` over the input set."""
        return self.errors.mean_absolute_joint_error()


def combination_flow(designs: Iterable[object],
                     a: np.ndarray,
                     b: np.ndarray,
                     clock_periods: Sequence[float],
                     gold_provider: GoldProvider,
                     silver_provider: SilverProvider,
                     exact_provider: Callable[[np.ndarray, np.ndarray], np.ndarray],
                     ) -> List[CombinationFlowResult]:
    """Run the error-combination flow of Fig. 6 of the paper.

    For every design and clock period, the flow computes the diamond, gold
    and silver outputs for the whole input set, derives structural, timing
    and joint errors, and returns one :class:`CombinationFlowResult` per
    (design, clock) pair, in iteration order.

    Parameters
    ----------
    designs:
        Opaque design handles, passed through to the providers.
    a, b:
        Operand arrays (one addition per entry).
    clock_periods:
        Over-clocked periods to evaluate (seconds or any consistent unit).
    gold_provider:
        ``gold_provider(design, a, b)`` returning the golden outputs.
    silver_provider:
        ``silver_provider(design, clk, a, b)`` returning the over-clocked
        outputs.
    exact_provider:
        ``exact_provider(a, b)`` returning the exact outputs.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    ydiamond = exact_provider(a, b)
    results: List[CombinationFlowResult] = []
    for design in designs:
        ygold = gold_provider(design, a, b)
        for clk in clock_periods:
            ysilver = silver_provider(design, clk, a, b)
            errors = combine_errors(ydiamond, ygold, ysilver)
            results.append(CombinationFlowResult(design=design, clock_period=clk, errors=errors))
    return results

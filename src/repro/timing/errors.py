"""Extraction of timing errors from timing-simulation results.

A timing simulation of a two-vector transition produces, for every
primary output bit, the value latched at the clock edge (possibly stale)
and the fully settled value.  :class:`TimingErrorTrace` packages a whole
trace of such cycles in word and bit form, and derives the quantities the
rest of the library consumes: per-bit timing classes (for the prediction
model), silver output words (for the error-combination flow) and per-bit
error rates (for the Fig. 10 distribution).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import AnalysisError
from repro.utils.bitops import extract_bits_matrix


@dataclass(frozen=True)
class TimingErrorTrace:
    """Timing-simulation outcome for a trace of input transitions.

    Attributes
    ----------
    clock_period:
        Sampling period used by the simulation (seconds).
    sampled_words:
        Output word latched at the clock edge for each cycle (the *silver*
        value of the overclocked circuit).
    settled_words:
        Output word after the circuit fully settles (the *golden* value of
        the properly clocked circuit).
    output_width:
        Number of output bits (adder width + 1).
    """

    clock_period: float
    sampled_words: np.ndarray
    settled_words: np.ndarray
    output_width: int

    def __post_init__(self) -> None:
        if self.sampled_words.shape != self.settled_words.shape:
            raise AnalysisError("sampled and settled word arrays must have the same shape")

    @property
    def cycles(self) -> int:
        """Number of simulated transitions."""
        return int(self.sampled_words.shape[0])

    # ------------------------------------------------------------------ #
    # Bit-level views
    # ------------------------------------------------------------------ #
    def _bit_matrices(self) -> tuple:
        """Memoized (sampled, settled, error) bit matrices.

        Scoring calls the bit views several times per trace (error rates,
        timing classes, feature extraction); the extraction is recomputed
        work with an identical result every time, so it is derived once
        and kept on the instance.  The matrices are marked read-only —
        they are shared state now — and the memo never pickles
        (:meth:`__getstate__`), keeping cached/shipped traces lean.
        """
        cached = getattr(self, "_bits_cache", None)
        if cached is None:
            sampled = extract_bits_matrix(self.sampled_words, self.output_width)
            settled = extract_bits_matrix(self.settled_words, self.output_width)
            errors = (sampled != settled).astype(np.uint8)
            for matrix in (sampled, settled, errors):
                matrix.setflags(write=False)
            cached = (sampled, settled, errors)
            object.__setattr__(self, "_bits_cache", cached)
        return cached

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_bits_cache", None)
        return state

    def sampled_bits(self) -> np.ndarray:
        """0/1 matrix of shape (cycles, output_width) of latched output bits."""
        return self._bit_matrices()[0]

    def settled_bits(self) -> np.ndarray:
        """0/1 matrix of the settled (error-free at this abstraction) output bits."""
        return self._bit_matrices()[1]

    def error_bits(self) -> np.ndarray:
        """0/1 matrix marking bits whose latched value differs from the settled one."""
        return self._bit_matrices()[2]

    def timing_classes(self) -> np.ndarray:
        """Timing classes per the paper: 1 = timing-correct, 0 = timing-erroneous."""
        return (1 - self.error_bits()).astype(np.uint8)

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    def bit_error_rate(self) -> np.ndarray:
        """Per-bit-position fraction of cycles with a timing error (Fig. 10 series)."""
        if self.cycles == 0:
            return np.zeros(self.output_width)
        return self.error_bits().mean(axis=0)

    def cycle_error_rate(self) -> float:
        """Fraction of cycles in which at least one output bit is wrong."""
        if self.cycles == 0:
            return 0.0
        return float(np.mean(np.any(self.error_bits(), axis=1)))

    def arithmetic_errors(self) -> np.ndarray:
        """Signed arithmetic timing error (sampled minus settled) per cycle."""
        return self.sampled_words.astype(np.int64) - self.settled_words.astype(np.int64)


def extract_timing_errors(sampled_words: np.ndarray, settled_words: np.ndarray,
                          output_width: int, clock_period: float) -> TimingErrorTrace:
    """Bundle raw simulation outputs into a :class:`TimingErrorTrace`."""
    sampled = np.asarray(sampled_words, dtype=np.uint64)
    settled = np.asarray(settled_words, dtype=np.uint64)
    return TimingErrorTrace(clock_period=clock_period, sampled_words=sampled,
                            settled_words=settled, output_width=output_width)

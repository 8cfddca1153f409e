"""Feature construction for the bit-level timing-error model.

Following Section III-A of the paper, the feature vector for output bit
``n`` at cycle ``t`` is::

    { x[t], x[t-1], yRTL_n[t-1], yRTL_n[t] }

where ``x`` is the full input vector (both operands, bit-expanded) and
``yRTL_n`` is bit ``n`` of the properly clocked (golden) output.  The two
output-bit features encode the insight that a latched timing error is
only observable when the previous and current golden values differ.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.exceptions import ModelError
from repro.workloads.traces import OperandTrace

FEATURE_DOC = "{A[t], B[t], A[t-1], B[t-1], yRTL_n[t-1], yRTL_n[t]} bit-expanded"


def feature_names(width: int) -> List[str]:
    """Column names of the feature matrix for a ``width``-bit adder."""
    names: List[str] = []
    names += [f"A[t][{i}]" for i in range(width)]
    names += [f"B[t][{i}]" for i in range(width)]
    names += [f"A[t-1][{i}]" for i in range(width)]
    names += [f"B[t-1][{i}]" for i in range(width)]
    names += ["yRTL_n[t-1]", "yRTL_n[t]"]
    return names


def checked_gold_words(trace: OperandTrace, gold_words: np.ndarray) -> np.ndarray:
    """``gold_words`` as ``uint64``, one word per vector of a trace of two or more vectors."""
    gold_words = np.asarray(gold_words, dtype=np.uint64)
    if gold_words.shape[0] != trace.length:
        raise ModelError(
            f"gold output length {gold_words.shape[0]} does not match trace length {trace.length}")
    if trace.length < 2:
        raise ModelError("feature extraction needs at least two input vectors")
    return gold_words


def build_feature_matrix(trace: OperandTrace, gold_words: np.ndarray, bit: int) -> np.ndarray:
    """Feature matrix for one output bit over all transitions of a trace.

    Parameters
    ----------
    trace:
        The operand trace (length ``T``); transitions are ``T - 1``.
    gold_words:
        Golden (properly clocked) output of the adder for every vector of
        the trace (length ``T``).
    bit:
        Output bit position the classifier is trained for.

    The operand columns come from the trace's memoised
    :meth:`~repro.workloads.traces.OperandTrace.operand_bits`, so only the
    two golden-bit columns are derived per bit.
    """
    gold_words = checked_gold_words(trace, gold_words)
    operands = trace.operand_bits()
    gold_bit = ((gold_words >> np.uint64(bit)) & np.uint64(1)).astype(np.uint8)
    return np.hstack([operands[1:], operands[:-1], gold_bit[:-1, None], gold_bit[1:, None]])


def feature_count(width: int) -> int:
    """Number of features produced by :func:`build_feature_matrix`."""
    return 4 * width + 2

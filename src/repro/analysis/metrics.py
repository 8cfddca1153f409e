"""Approximate-arithmetic error metrics.

The paper's headline metric is the RMS of the relative error (it is
proportional to the output SNR, the quantity that matters for multimedia
workloads); the other metrics are the standard figures of merit used in
the approximate-computing literature (error rate, mean/normalised error
distance, worst case) and are reported by the examples and the
design-space-exploration benchmark.

Each metric is written once, in ``_statistics``, over the signed errors
of a batch; :func:`error_statistics`, the single-metric functions and
the sweep scorer all reach it.  Words convert to signed integers through
:func:`repro.core.combination.signed_words`, so an unsigned word at or
above ``2**63`` raises instead of wrapping negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.core.combination import root_mean_square, safe_denominator, signed_words
from repro.exceptions import AnalysisError

ArrayLike = Union[np.ndarray, list, tuple]


def _validate(exact: np.ndarray, approximate: np.ndarray) -> None:
    if exact.shape != approximate.shape:
        raise AnalysisError(f"shape mismatch: exact {exact.shape} vs approximate {approximate.shape}")
    if exact.size == 0:
        raise AnalysisError("error metrics need at least one sample")


def error_rate(exact: ArrayLike, approximate: ArrayLike) -> float:
    """Fraction of samples whose approximate value differs from the exact one."""
    return error_statistics(exact, approximate).error_rate


def mean_error_distance(exact: ArrayLike, approximate: ArrayLike) -> float:
    """Mean absolute arithmetic error (MED)."""
    return error_statistics(exact, approximate).mean_error_distance


def normalized_mean_error_distance(exact: ArrayLike, approximate: ArrayLike,
                                   width: int) -> float:
    """MED normalised by the maximum representable output (NMED)."""
    return error_statistics(exact, approximate, width).normalized_mean_error_distance


def mean_relative_error_distance(exact: ArrayLike, approximate: ArrayLike) -> float:
    """Mean absolute relative error (MRED)."""
    return error_statistics(exact, approximate).mean_relative_error_distance


def rms_relative_error(exact: ArrayLike, approximate: ArrayLike) -> float:
    """Root-mean-square of the signed relative error — the paper's main metric."""
    return error_statistics(exact, approximate).rms_relative_error


def worst_case_error(exact: ArrayLike, approximate: ArrayLike) -> int:
    """Largest absolute arithmetic error observed."""
    return error_statistics(exact, approximate).worst_case_error


@dataclass(frozen=True)
class ErrorStatistics:
    """Bundle of all error metrics for one (design, workload) pair."""

    samples: int
    error_rate: float
    mean_error_distance: float
    normalized_mean_error_distance: float
    mean_relative_error_distance: float
    rms_relative_error: float
    worst_case_error: int

    def as_dict(self) -> dict:
        """Plain-dict view (useful for tabulation and JSON export)."""
        return {
            "samples": self.samples,
            "error_rate": self.error_rate,
            "med": self.mean_error_distance,
            "nmed": self.normalized_mean_error_distance,
            "mred": self.mean_relative_error_distance,
            "rms_re": self.rms_relative_error,
            "worst_case": self.worst_case_error,
        }

    def snr_db(self) -> float:
        """Signal-to-noise ratio implied by the RMS relative error, in dB."""
        if self.rms_relative_error == 0:
            return float("inf")
        return float(-20.0 * np.log10(self.rms_relative_error))


@dataclass(frozen=True)
class StructuralCost:
    """Circuit-cost view of one synthesized design (the DSE cost axes).

    ``gates`` counts cell instances; ``area_proxy`` is the sum of all
    annotated instance delays in seconds — the library has no physical
    cell areas, and summed nominal delay tracks transistor count across
    the cell set well enough to rank designs (the same proxy
    :meth:`~repro.circuit.sdf.DelayAnnotation.total_delay` reports).
    """

    gates: int
    area_proxy: float
    critical_path_delay: float

    def as_dict(self) -> dict:
        """Plain-dict view (useful for tabulation and JSON export)."""
        return {
            "gates": self.gates,
            "area_proxy": self.area_proxy,
            "critical_path_ps": self.critical_path_delay * 1e12,
        }


def structural_cost(design) -> StructuralCost:
    """Cost of a :class:`~repro.synth.flow.SynthesizedDesign`.

    Duck-typed (netlist + annotation + critical path) so the analysis
    layer stays import-independent of the synthesis flow.
    """
    return StructuralCost(
        gates=int(design.netlist.num_gates),
        area_proxy=float(design.annotation.total_delay()),
        critical_path_delay=float(design.critical_path_delay),
    )


def error_statistics(exact: ArrayLike, approximate: ArrayLike, width: int = 32) -> ErrorStatistics:
    """Compute every metric at once over a batch of outputs."""
    exact, approximate = signed_words(exact), signed_words(approximate)
    _validate(exact, approximate)
    errors = approximate - exact
    return _statistics(errors, errors / safe_denominator(exact), width)


def _statistics(errors: np.ndarray, relative: np.ndarray, width: int) -> ErrorStatistics:
    """Every metric from validated signed errors (approximate minus exact)
    and their relative errors.

    This is the one implementation of each metric: :func:`error_statistics`
    and the sweep scorer, which converts each design's exact words once for
    all its clock points, both call it.
    """
    if width <= 0:
        raise AnalysisError(f"width must be positive, got {width}")
    distances = np.abs(errors)
    mean_distance = float(np.mean(distances))
    return ErrorStatistics(
        samples=int(errors.shape[0]),
        error_rate=float(np.mean(errors != 0)),
        mean_error_distance=mean_distance,
        normalized_mean_error_distance=mean_distance / float(2 ** width),
        mean_relative_error_distance=float(np.mean(np.abs(relative))),
        rms_relative_error=root_mean_square(relative),
        worst_case_error=int(np.max(distances)),
    )

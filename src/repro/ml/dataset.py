"""Dataset assembly for the per-bit timing-error classifiers.

This module corresponds to the "Data Collection" half of Fig. 3 of the
paper: pair the operand trace (stimulus) with the golden outputs (RTL
reference) and the delay-annotated gate-level simulation outcome (timing
classes at an unsafe clock period), and turn them into one labelled
dataset per output bit.

Collection at scale goes through the execution runtime:
:func:`collect_bit_datasets` submits a batch of characterization jobs to
a backend (serial or multiprocess) and assembles the labelled datasets
from the returned golden words and timing traces, so dataset generation
for many designs parallelises exactly like the figure drivers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime -> ml)
    from repro.runtime import CharacterizationJob

from repro.exceptions import ModelError
from repro.ml.features import build_feature_matrix
from repro.timing.errors import TimingErrorTrace
from repro.workloads.traces import OperandTrace


@dataclass(frozen=True)
class BitDataset:
    """Labelled training data for one output-bit classifier.

    ``labels`` follow the paper's convention: 1 = timing-erroneous,
    0 = timing-correct (the classifier learns to flag errors).
    """

    bit: int
    features: np.ndarray
    labels: np.ndarray

    @property
    def samples(self) -> int:
        """Number of labelled transitions."""
        return int(self.features.shape[0])

    @property
    def error_rate(self) -> float:
        """Fraction of transitions where this bit was timing-erroneous."""
        if self.samples == 0:
            return 0.0
        return float(self.labels.mean())


def build_bit_datasets(trace: OperandTrace, gold_words: np.ndarray,
                       timing_trace: TimingErrorTrace,
                       family=None) -> List[BitDataset]:
    """One :class:`BitDataset` per output bit of the characterized design.

    Parameters
    ----------
    trace:
        The stimulus applied to the circuit (length ``T``).
    gold_words:
        Golden outputs of the implemented design for every vector
        (length ``T``).
    timing_trace:
        Result of simulating the ``T - 1`` transitions at the unsafe
        clock period under study.
    family:
        The design's :class:`~repro.families.base.OperatorFamily`,
        whose :meth:`~repro.families.base.OperatorFamily.feature_matrix`
        extracts the per-bit features (default: the paper's
        :func:`~repro.ml.features.build_feature_matrix`, which every
        shipped family currently delegates to).
    """
    gold_words = np.asarray(gold_words, dtype=np.uint64)
    if timing_trace.cycles != trace.transitions:
        raise ModelError(
            f"timing trace has {timing_trace.cycles} transitions but the stimulus "
            f"has {trace.transitions}")
    featurize = build_feature_matrix if family is None else family.feature_matrix
    error_bits = timing_trace.error_bits()
    datasets: List[BitDataset] = []
    for bit in range(timing_trace.output_width):
        features = featurize(trace, gold_words, bit)
        labels = error_bits[:, bit].astype(np.uint8)
        datasets.append(BitDataset(bit=bit, features=features, labels=labels))
    return datasets


def dataset_summary(datasets: List[BitDataset]) -> Dict[int, float]:
    """Per-bit timing-error rates of a dataset collection (diagnostic helper)."""
    return {dataset.bit: dataset.error_rate for dataset in datasets}


def collect_bit_datasets(jobs: Sequence["CharacterizationJob"], backend="serial",
                         workers: Optional[int] = None,
                         cache_dir: Optional[str] = None
                         ) -> List[Dict[float, List[BitDataset]]]:
    """Characterise a batch of jobs and assemble their per-bit datasets.

    Each job is executed on the requested runtime backend; for every
    clock period of the job the characterisation's golden words and
    timing trace become one :class:`BitDataset` list.  The result is one
    ``{clock_period: [BitDataset, ...]}`` dict per job, in submission
    order — ready for :meth:`BitLevelTimingModel.fit` at any CPR level.
    ``cache_dir`` fronts the backend with the persistent result cache,
    so re-collecting the same jobs skips simulation entirely.  Jobs
    sharing a design and clock plan are batched by the backend's
    planner — dataset collection for one design over many traces is a
    single stacked simulation.
    """
    from repro.families import family_of  # deferred: keeps repro.ml importable standalone
    from repro.runtime import run_jobs

    results = run_jobs(jobs, backend=backend, workers=workers, cache_dir=cache_dir)
    collected: List[Dict[float, List[BitDataset]]] = []
    for job, characterization in zip(jobs, results):
        family = family_of(job.entry)
        collected.append({
            clock: build_bit_datasets(job.trace, characterization.gold_words, timing,
                                      family=family)
            for clock, timing in characterization.timing_traces.items()
        })
    return collected

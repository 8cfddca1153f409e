"""Per-bit timing-error prediction model (the paper's Fig. 3 flow).

:class:`BitLevelTimingModel` trains one random-forest binary classifier
per output bit of an adder, at one overclocked period, from a training
trace whose timing behaviour has been measured by gate-level simulation.
At prediction time it emits per-bit timing classes and deduces the
predicted silver (over-clocked) output word by flipping the golden bits
it believes are timing-erroneous — exactly how the paper converts
timing-class vectors into arithmetic values for the AVPE metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.exceptions import ModelError
from repro.ml.dataset import BitDataset, build_bit_datasets
from repro.ml.features import build_feature_matrix
from repro.ml.forest import RandomForestClassifier
from repro.ml.metrics import abper, avpe, classification_summary
from repro.timing.errors import TimingErrorTrace
from repro.utils.rng import derive_seed
from repro.workloads.traces import OperandTrace


@dataclass(frozen=True)
class TimingModelOptions:
    """Hyper-parameters of the per-bit random forests."""

    n_estimators: int = 8
    max_depth: int = 8
    min_samples_split: int = 8
    max_features: object = "sqrt"
    class_weight: Optional[str] = None
    seed: Optional[int] = 2017

    def make_classifier(self, bit: int) -> RandomForestClassifier:
        """Instantiate the classifier for one output bit."""
        return RandomForestClassifier(
            n_estimators=self.n_estimators,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            max_features=self.max_features,
            class_weight=self.class_weight,
            seed=derive_seed(self.seed, bit),
        )


@dataclass
class BitLevelTimingModel:
    """One trained classifier per output bit for a (design, clock) pair."""

    design: str
    clock_period: float
    output_width: int
    options: TimingModelOptions = field(default_factory=TimingModelOptions)

    def __post_init__(self) -> None:
        self._classifiers: Dict[int, RandomForestClassifier] = {}
        self._constant_bits: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def fit(self, trace: OperandTrace, gold_words: np.ndarray,
            timing_trace: TimingErrorTrace) -> "BitLevelTimingModel":
        """Train every per-bit classifier from a measured training trace."""
        if timing_trace.output_width != self.output_width:
            raise ModelError(
                f"timing trace has {timing_trace.output_width} output bits, "
                f"model expects {self.output_width}")
        datasets = build_bit_datasets(trace, gold_words, timing_trace)
        self._classifiers.clear()
        self._constant_bits.clear()
        for dataset in datasets:
            self._fit_bit(dataset)
        return self

    def _fit_bit(self, dataset: BitDataset) -> None:
        labels = dataset.labels
        unique = np.unique(labels)
        if unique.size == 1:
            # A bit that is always correct (or, pathologically, always wrong)
            # in training needs no classifier; remember the constant class.
            self._constant_bits[dataset.bit] = int(unique[0])
            return
        classifier = self.options.make_classifier(dataset.bit)
        classifier.fit(dataset.features, labels)
        self._classifiers[dataset.bit] = classifier

    @property
    def is_fitted(self) -> bool:
        """True once the model has been trained."""
        return bool(self._classifiers) or bool(self._constant_bits)

    @property
    def trained_bits(self) -> List[int]:
        """Bits for which a real classifier (not a constant) was trained."""
        return sorted(self._classifiers)

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #
    def predict_error_matrix(self, trace: OperandTrace, gold_words: np.ndarray) -> np.ndarray:
        """Predicted timing-error flags, shape (transitions, output_width)."""
        if not self.is_fitted:
            raise ModelError("the model must be fitted before predicting")
        predictions = np.zeros((trace.transitions, self.output_width), dtype=np.uint8)
        for bit in range(self.output_width):
            if bit in self._classifiers:
                features = build_feature_matrix(trace, gold_words, bit)
                predictions[:, bit] = self._classifiers[bit].predict(features)
            else:
                predictions[:, bit] = self._constant_bits.get(bit, 0)
        return predictions

    def predict_timing_classes(self, trace: OperandTrace, gold_words: np.ndarray) -> np.ndarray:
        """Predicted timing classes (1 = timing-correct) as used by ABPER."""
        return (1 - self.predict_error_matrix(trace, gold_words)).astype(np.uint8)

    def predict_silver(self, trace: OperandTrace, gold_words: np.ndarray) -> np.ndarray:
        """Predicted over-clocked output words.

        A predicted timing error on bit ``n`` flips the golden bit, but
        only when the golden bit actually toggles between consecutive
        cycles — a latched stale value can only differ from the golden
        value in that case (the same observation the feature set encodes).
        """
        gold_words = np.asarray(gold_words, dtype=np.uint64)
        return self._silver(self.predict_error_matrix(trace, gold_words), gold_words)

    def _silver(self, errors: np.ndarray, gold_words: np.ndarray) -> np.ndarray:
        """Silver words implied by predicted error flags (see :meth:`predict_silver`)."""
        current = gold_words[1:]
        previous = gold_words[:-1]
        silver = current.copy()
        for bit in range(self.output_width):
            weight = np.uint64(1 << bit)
            toggled = ((current ^ previous) >> np.uint64(bit)) & np.uint64(1)
            flip = (errors[:, bit].astype(np.uint64) & toggled).astype(bool)
            silver = np.where(flip, silver ^ weight, silver)
        return silver

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, trace: OperandTrace, gold_words: np.ndarray,
                 timing_trace: TimingErrorTrace) -> Dict[str, float]:
        """Model quality on an evaluation trace, from one prediction.

        Returns ABPER and AVPE plus the ``precision``, ``recall`` and
        ``error_rate`` of :func:`~repro.ml.metrics.classification_summary`.
        """
        gold_words = np.asarray(gold_words, dtype=np.uint64)
        errors = self.predict_error_matrix(trace, gold_words)
        summary = classification_summary(errors, timing_trace.error_bits())
        return {
            "abper": abper((1 - errors).astype(np.uint8), timing_trace.timing_classes()),
            "avpe": avpe(self._silver(errors, gold_words), timing_trace.sampled_words),
            "precision": summary["precision"],
            "recall": summary["recall"],
            "error_rate": summary["error_rate"],
        }

    def describe(self) -> str:
        """Human-readable summary of the trained model."""
        constant = len(self._constant_bits)
        trained = len(self._classifiers)
        return (f"BitLevelTimingModel[{self.design} @ {self.clock_period * 1e12:.0f} ps]: "
                f"{trained} trained bits, {constant} constant bits")

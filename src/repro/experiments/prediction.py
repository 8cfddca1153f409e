"""Shared prediction study behind Figs. 7 and 8.

For every design and CPR level the study:

1. characterises the design over a *training* trace at the overclocked
   periods (delay-annotated gate-level simulation — the "Data
   Collection" phase of the paper's Fig. 3) and over a held-out
   evaluation trace, as one batch of runtime jobs scheduled on the
   study's execution backend,
2. trains one random-forest classifier per output bit on the
   {x[t], x[t-1], yRTL_n[t-1], yRTL_n[t]} features,
3. evaluates the model on the held-out trace, reporting ABPER (Fig. 7)
   and AVPE (Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.report import format_log_value, format_table
from repro.experiments.common import StudyConfig
from repro.experiments.designs import DesignEntry
from repro.ml.metrics import floored
from repro.ml.model import BitLevelTimingModel, ForestPool
from repro.runtime import DesignCharacterization
from repro.workloads.traces import OperandTrace


@dataclass(frozen=True)
class PredictionRow:
    """Model-quality metrics of one design at one CPR level."""

    design: str
    cpr: float
    clock_period: float
    abper: float
    avpe: float
    real_error_rate: float
    precision: float
    recall: float
    trained_bits: int


@dataclass
class PredictionStudyResult:
    """All rows of the prediction study plus per-figure formatting."""

    rows: List[PredictionRow]
    cpr_levels: tuple

    def rows_for_cpr(self, cpr: float) -> List[PredictionRow]:
        """Rows of one CPR level, in the paper's design order."""
        return [row for row in self.rows if abs(row.cpr - cpr) < 1e-12]

    def row(self, design: str, cpr: float) -> PredictionRow:
        """Look up one design/CPR cell."""
        for candidate in self.rows:
            if candidate.design == design and abs(candidate.cpr - cpr) < 1e-12:
                return candidate
        raise KeyError(f"no prediction row for design {design!r} at CPR {cpr}")

    def format_abper_table(self) -> str:
        """Fig. 7 rendering: ABPER per design and CPR."""
        return self._format("Fig. 7 — average bit-level prediction error rate (ABPER)",
                            metric="abper")

    def format_avpe_table(self) -> str:
        """Fig. 8 rendering: AVPE per design and CPR."""
        return self._format("Fig. 8 — average value-level predictive error (AVPE)",
                            metric="avpe")

    def _format(self, title: str, metric: str) -> str:
        designs = []
        for row in self.rows:
            if row.design not in designs:
                designs.append(row.design)
        headers = ["design"] + [f"{cpr * 100:g}% CPR" for cpr in self.cpr_levels]
        table_rows = []
        for design in designs:
            cells = [design]
            for cpr in self.cpr_levels:
                row = self.row(design, cpr)
                cells.append(format_log_value(getattr(row, metric)))
            table_rows.append(cells)
        return format_table(headers, table_rows, title=title)

    def to_dict(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Nested dict view ``{cpr_label: {design: {metric: value}}}``."""
        result: Dict[str, Dict[str, Dict[str, float]]] = {}
        for row in self.rows:
            label = f"{row.cpr * 100:g}%"
            result.setdefault(label, {})[row.design] = {
                "abper": row.abper,
                "avpe": row.avpe,
                "real_error_rate": row.real_error_rate,
                "precision": row.precision,
                "recall": row.recall,
            }
        return result


def rows_from_characterizations(config: StudyConfig,
                                training: DesignCharacterization,
                                evaluation: DesignCharacterization,
                                pool: Optional[ForestPool] = None) -> List[PredictionRow]:
    """Train and evaluate the per-bit model from a design's two characterisations.

    ``training`` and ``evaluation`` are the runtime results of the same
    design over the training and the held-out trace; their golden words
    and timing traces drive the fit/evaluate cycle at every CPR level.
    Every model fits through ``pool`` when one is given
    (:meth:`BitLevelTimingModel.fit`).
    """
    rows: List[PredictionRow] = []
    for cpr, period in config.clock_plan.items():
        model = BitLevelTimingModel(design=training.name, clock_period=period,
                                    output_width=config.width + 1, options=config.model)
        model.fit(training.trace, training.gold_words, training.timing_trace(period), pool)
        metrics = model.evaluate(evaluation.trace, evaluation.gold_words,
                                 evaluation.timing_trace(period))
        rows.append(PredictionRow(
            design=training.name,
            cpr=cpr,
            clock_period=period,
            abper=floored(metrics["abper"]),
            avpe=floored(metrics["avpe"]),
            real_error_rate=metrics["error_rate"],
            precision=metrics["precision"],
            recall=metrics["recall"],
            trained_bits=len(model.trained_bits),
        ))
    return rows


def study_design(entry: DesignEntry, config: StudyConfig,
                 training_trace: OperandTrace,
                 evaluation_trace: OperandTrace) -> List[PredictionRow]:
    """Train and evaluate the per-bit model of one design at every CPR level."""
    training, evaluation = config.runtime_backend().run([
        config.job(entry, training_trace),
        config.job(entry, evaluation_trace),
    ])
    return rows_from_characterizations(config, training, evaluation)


def run_prediction_study(config: Optional[StudyConfig] = None) -> PredictionStudyResult:
    """Run the Fig. 7 / Fig. 8 prediction study over every paper design.

    The heavy characterisation work — every design over both the
    training and the evaluation trace — is submitted as one job batch to
    the study's execution backend; model training then proceeds from the
    returned characterisations.  Every model of the call fits through
    one :data:`~repro.ml.model.ForestPool`, so a per-bit problem that
    recurs (designs sharing their low blocks often train a bit on
    identical data) is fitted once.
    """
    config = config or StudyConfig()
    training_trace = config.training_trace()
    evaluation_trace = config.evaluation_trace()
    entries = config.design_entries()
    jobs = []
    for entry in entries:
        jobs.append(config.job(entry, training_trace))
        jobs.append(config.job(entry, evaluation_trace))
    results = config.runtime_backend().run(jobs)
    pool: ForestPool = {}
    rows: List[PredictionRow] = []
    for index in range(len(entries)):
        rows.extend(rows_from_characterizations(
            config, results[2 * index], results[2 * index + 1], pool))
    return PredictionStudyResult(rows=rows, cpr_levels=config.clock_plan.cpr_levels)

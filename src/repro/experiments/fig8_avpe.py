"""Fig. 8 reproduction: average value-level predictive error (AVPE).

Shares the prediction study with Fig. 7 (the trained per-bit forests are
identical); this module exposes the value-level view, i.e. how far the
silver outputs reconstructed from the predicted timing classes deviate
from the measured silver outputs.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.common import StudyConfig
from repro.experiments.prediction import PredictionStudyResult, run_prediction_study


def run_fig8(config: Optional[StudyConfig] = None,
             study: Optional[PredictionStudyResult] = None) -> PredictionStudyResult:
    """Run (or reuse) the prediction study and return it for AVPE reporting."""
    if study is not None:
        return study
    return run_prediction_study(config)

"""Fig. 7 reproduction: average bit-level prediction error rate (ABPER).

This is a thin wrapper over :mod:`repro.experiments.prediction`: the
underlying study trains the per-bit random forests once and serves both
Fig. 7 (ABPER) and Fig. 8 (AVPE); ``run_fig7`` exposes the ABPER view.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.common import StudyConfig
from repro.experiments.prediction import PredictionStudyResult, run_prediction_study


def run_fig7(config: Optional[StudyConfig] = None,
             study: Optional[PredictionStudyResult] = None) -> PredictionStudyResult:
    """Run (or reuse) the prediction study and return it for ABPER reporting.

    Parameters
    ----------
    config:
        Study configuration; defaults reproduce the paper's setup at
        laptop-scale trace lengths.
    study:
        A pre-computed prediction study to reuse (the runner shares one
        study between Figs. 7 and 8).
    """
    if study is not None:
        return study
    return run_prediction_study(config)

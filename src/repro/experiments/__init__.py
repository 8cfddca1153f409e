"""Experiment drivers reproducing the paper's evaluation figures.

Each module regenerates artefacts of Section V of the paper:

* :mod:`~repro.experiments.prediction` — Figs. 7 and 8, the bit-level
  prediction error rate (ABPER) and the value-level predictive error
  (AVPE) per design and CPR, from one trained prediction study.
* :mod:`~repro.experiments.fig9_rms` — Fig. 9(a-c), structural / timing /
  joint relative-error RMS per design and CPR.
* :mod:`~repro.experiments.fig10_distribution` — Fig. 10, bit-position
  error distribution of ISA (8,0,0,4) at 15 % CPR.

:mod:`~repro.experiments.designs` lists the paper's twelve designs and
:mod:`~repro.experiments.runner` provides the ``repro-experiments``
command-line entry point that regenerates everything.
"""

from repro.experiments.common import (
    DesignCharacterization,
    DesignEntry,
    StudyConfig,
    characterize_design,
    characterize_designs,
)
from repro.experiments.designs import PAPER_QUADRUPLES, exact_entry, paper_design_entries
from repro.experiments.fig9_rms import Fig9Result, run_fig9
from repro.experiments.fig10_distribution import Fig10Result, run_fig10
from repro.experiments.prediction import PredictionStudyResult, run_prediction_study

__all__ = [
    "StudyConfig",
    "DesignEntry",
    "DesignCharacterization",
    "characterize_design",
    "characterize_designs",
    "PAPER_QUADRUPLES",
    "paper_design_entries",
    "exact_entry",
    "run_fig9",
    "run_fig10",
    "Fig9Result",
    "Fig10Result",
    "PredictionStudyResult",
    "run_prediction_study",
]

"""Supervised-learning substrate for bit-level timing-error prediction.

The paper trains one binary classifier per output bit (a scikit-learn
random forest) on features derived from consecutive input vectors and the
RTL outputs, to predict whether that bit is timing-erroneous at a given
overclocked period.  Because this reproduction is fully self-contained,
the learners are implemented from scratch on NumPy as one CART core: one
node type, depth-first grower, per-split feature draw, predictor and
walker (:mod:`repro.ml.tree`) and one bagging loop
(:mod:`repro.ml.forest`).  Each tree plugs in its criterion.  The
classifier counts Gini impurity exactly over binary features, as popcounts
of bit-packed columns; the regressor (:mod:`repro.ml.regress`), the
surrogate the adaptive design-space explorer fits to quadruple features,
scores squared error with prefix sums over sorted columns.  The feature
construction, the per-bit model and the ABPER/AVPE evaluation metrics
mirror Sections III and IV-B of the paper.
"""

from repro.ml.tree import DecisionTreeClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.regress import DecisionTreeRegressor, RandomForestRegressor
from repro.ml.features import FEATURE_DOC, build_feature_matrix, feature_names
from repro.ml.dataset import BitDataset, build_bit_datasets, collect_bit_datasets
from repro.ml.model import BitLevelTimingModel, TimingModelOptions
from repro.ml.metrics import abper, avpe, classification_summary

__all__ = [
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "RandomForestClassifier",
    "RandomForestRegressor",
    "FEATURE_DOC",
    "build_feature_matrix",
    "feature_names",
    "BitDataset",
    "build_bit_datasets",
    "collect_bit_datasets",
    "BitLevelTimingModel",
    "TimingModelOptions",
    "abper",
    "avpe",
    "classification_summary",
]

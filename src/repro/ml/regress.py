"""Regression trees and forests: the classifier's CART core and bagging
loop with a variance-reduction criterion plugged in.

The adaptive explorer (:mod:`repro.explore.adaptive`) uses them as its
surrogate: quadruple features of an :class:`~repro.core.config.ISAConfig`
predict the sweep's scoring axes without simulation.  A node's impurity
is its squared error around the mean; each threshold (the midpoint of
distinct consecutive values) is scored with prefix sums over the stably
sorted column.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.ml.forest import _Forest
from repro.ml.tree import _Tree
from repro.utils.rng import SeedLike


def _best_threshold(column: np.ndarray, y: np.ndarray) -> Tuple[float, float]:
    """``(children's SSE, threshold)`` of the best split of one column,
    or ``(inf, 0.0)`` when the column is constant."""
    order = np.argsort(column, kind="stable")
    sorted_x, sorted_y = column[order], y[order]
    boundaries = np.flatnonzero(sorted_x[1:] != sorted_x[:-1])
    if boundaries.size == 0:
        return np.inf, 0.0
    prefix_sum, prefix_sq = np.cumsum(sorted_y), np.cumsum(sorted_y * sorted_y)
    left_count = (boundaries + 1).astype(np.float64)
    left_sum, left_sq = prefix_sum[boundaries], prefix_sq[boundaries]
    right_sum = prefix_sum[-1] - left_sum
    sse = ((left_sq - left_sum * left_sum / left_count)
           + ((prefix_sq[-1] - left_sq) - right_sum * right_sum / (y.shape[0] - left_count)))
    best = int(np.argmin(sse))
    split = boundaries[best]
    return float(sse[best]), float(0.5 * (sorted_x[split] + sorted_x[split + 1]))


class DecisionTreeRegressor(_Tree):
    """CART regression tree over numeric feature matrices (SSE criterion).

    Parameters are those of :class:`~repro.ml.tree.DecisionTreeClassifier`.
    The surrogate's feature count is small, so the default
    ``max_features=None`` keeps every split exact.
    """

    _dtype = np.float64

    def __init__(self, max_depth: int = 12, min_samples_split: int = 4,
                 max_features: Optional[object] = None, seed: SeedLike = None) -> None:
        super().__init__(max_depth, min_samples_split, max_features, seed)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        """Fit the tree on a numeric feature matrix and float targets."""
        return self._fit(X, y)

    @staticmethod
    def _impurity(y: np.ndarray, mean: float) -> float:
        """Sum of squared errors around the node's mean."""
        return float(np.sum((y - mean) ** 2))

    @staticmethod
    def _best_split(X: np.ndarray, y: np.ndarray, candidates: np.ndarray,
                    impurity: float) -> Tuple[int, float, float]:
        """Candidate feature and threshold of the lowest children's SSE."""
        best_feature, best_sse, best_threshold = -1, np.inf, 0.0
        for feature in candidates:
            sse, threshold = _best_threshold(X[:, feature], y)
            if sse < best_sse:
                best_feature, best_sse, best_threshold = int(feature), sse, threshold
        return best_feature, best_threshold, impurity - best_sse

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted target for every row of ``X``."""
        return self._predict(X)


class RandomForestRegressor(_Forest):
    """Bagged ensemble of :class:`DecisionTreeRegressor`.

    Parameters as :class:`~repro.ml.forest.RandomForestClassifier`, less
    ``class_weight``; the default ``max_features=None`` leaves
    decorrelation to the bootstrap.  :meth:`predict_std` is the
    explorer's uncertainty signal.
    """

    _tree_class = DecisionTreeRegressor

    def __init__(self, n_estimators: int = 24, max_depth: int = 12,
                 min_samples_split: int = 4, max_features: Optional[object] = None,
                 seed: SeedLike = None) -> None:
        super().__init__(n_estimators, max_depth, min_samples_split, max_features, seed)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        """Fit the ensemble on a numeric feature matrix and float targets."""
        return self._bag(X, y)

    def predict_all(self, X: np.ndarray) -> np.ndarray:
        """Per-tree predictions, shape ``(n_estimators, rows)``."""
        trees = self._fitted_trees()
        X = np.asarray(X, dtype=np.float64)
        return np.stack([tree.predict(X) for tree in trees])

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean prediction over the ensemble."""
        return self.predict_all(X).mean(axis=0)

    def predict_std(self, X: np.ndarray) -> np.ndarray:
        """Per-row standard deviation over the trees: high where the
        training set constrains the prediction poorly."""
        return self.predict_all(X).std(axis=0)

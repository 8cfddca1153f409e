"""Regression trees and forests: the classifier's CART core and bagging
loop with a variance-reduction criterion plugged in.

The adaptive explorer (:mod:`repro.explore.adaptive`) uses them as its
surrogate: quadruple features of an :class:`~repro.core.config.ISAConfig`
predict the sweep's scoring axes without simulation.  A node's impurity
is its squared error around the mean; each threshold (the midpoint of
distinct consecutive values) is scored with prefix sums of the targets
in column order.  A tree argsorts each column once, stably, and a stable
partition of a node's column orders is each child's own argsort (SLIQ's
presorted attribute lists: Mehta, Agrawal and Rissanen, EDBT 1996).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.ml.forest import _Forest
from repro.ml.tree import _Tree
from repro.utils.rng import SeedLike

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
    def _root_rows(X: np.ndarray, y: np.ndarray) -> tuple:
        """``X.T``, ``y``, a node's row indices ascending and in each column's order."""
        columns = np.ascontiguousarray(X.T)
        return columns, y, np.arange(y.shape[0]), np.argsort(columns, axis=1, kind="stable")

    @staticmethod
    def _targets(rows: tuple) -> Tuple[np.ndarray, int, float]:
        y = rows[1][rows[2]]
        return y, y.shape[0], float(y.mean())

    @staticmethod
    def _partition(rows: tuple, feature: int, threshold: float) -> Tuple[tuple, tuple]:
        """Both children's rows, every column order partitioned stably."""
        columns, y, indices, orders = rows
        column, features = columns[feature], orders.shape[0]
        right, ordered_right = column[indices] > threshold, column[orders] > threshold
        return ((columns, y, indices[~right], orders[~ordered_right].reshape(features, -1)),
                (columns, y, indices[right], orders[ordered_right].reshape(features, -1)))

    @staticmethod
    def _impurity(y: np.ndarray, mean: float) -> float:
        """Sum of squared errors around the node's mean."""
        return float(((y - mean) ** 2).sum())

    @staticmethod
    def _best_split(rows: tuple, y: np.ndarray, candidates: np.ndarray,
                    impurity: float) -> Tuple[int, float, float]:
        """Candidate and threshold of the lowest children's SSE, a row per candidate
        in draw order; ``inf`` between equal values and for a candidate scoring NaN."""
        columns, targets, _, orders = rows
        order = orders[candidates]
        sorted_x, sorted_y = columns[candidates[:, None], order], targets[order]
        prefix_sum, prefix_sq = sorted_y.cumsum(axis=1), (sorted_y * sorted_y).cumsum(axis=1)
        left_count = np.arange(1.0, y.shape[0])
        left_sum, left_sq = prefix_sum[:, :-1], prefix_sq[:, :-1]
        right_sum = prefix_sum[:, -1:] - left_sum
        sse = ((left_sq - left_sum * left_sum / left_count)
               + ((prefix_sq[:, -1:] - left_sq) - right_sum * right_sum / left_count[::-1]))
        sse[sorted_x[:, 1:] == sorted_x[:, :-1]] = np.inf
        best = int(sse.argmin())
        if np.isnan(sse.flat[best]):  # argmin finds a NaN first
            sse[np.isnan(sse).any(axis=1)] = np.inf
            best = int(sse.argmin())
        candidate, split = divmod(best, left_count.size)
        threshold = 0.5 * (sorted_x[candidate, split] + sorted_x[candidate, split + 1])
        return int(candidates[candidate]), float(threshold), impurity - float(sse.flat[best])

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

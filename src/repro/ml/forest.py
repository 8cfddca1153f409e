"""The bagging loop of both forests, and the random-forest classifier on it.

The paper's Random Forest Classification (RFC) averages decision trees
fitted on bootstrap resamples with per-split feature subsampling, trading
the trees' expressiveness against their overfitting; the ablation
benchmark compares forest sizes against a single tree.  Both forests
spawn two streams per tree from a master seed, one for its resample and
one for its feature draws, so a seed grows the same ensemble bit for bit
in any process.  Each tree is fitted through its class's ``fit`` on a
row ``take`` of its resample.  The classifier's ``balanced`` mode is a
bootstrap hook, and it rejects labels other than 0 and 1 before any
tree grows.  The classifier packs a query's columns once and hands
them to every tree.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.exceptions import ModelError
from repro.ml.tree import (
    DecisionTreeClassifier,
    _check_tree_parameters,
    _pack_columns,
    _query_matrix,
    _training_arrays,
)
from repro.utils.rng import SeedLike, spawn_rngs


class _Forest:
    """Bagged ensemble of the trees a subclass names in ``_tree_class``."""

    _tree_class: type

    def __init__(self, n_estimators: int, max_depth: int, min_samples_split: int,
                 max_features: Optional[object], seed: SeedLike) -> None:
        if n_estimators < 1:
            raise ModelError(f"n_estimators must be at least 1, got {n_estimators}")
        self.n_estimators = n_estimators
        self.max_depth, self.min_samples_split, self.max_features = _check_tree_parameters(
            max_depth, min_samples_split, max_features)
        self.seed = seed
        self.trees_: List = []
        self.n_features_: Optional[int] = None

    def _bag(self, X: np.ndarray, y: np.ndarray) -> "_Forest":
        """Fit every tree, through its class's ``fit``, on its own resample."""
        X, y = _training_arrays(X, y, self._tree_class, "forest")
        self.n_features_ = X.shape[1]
        self.trees_ = []
        streams = spawn_rngs(self.seed, self.n_estimators * 2)
        for index in range(self.n_estimators):
            chosen = self._bootstrap(y, streams[2 * index])
            tree = self._tree_class(self.max_depth, self.min_samples_split,
                                    self.max_features, seed=streams[2 * index + 1])
            tree.fit(X.take(chosen, axis=0), y.take(chosen))
            self.trees_.append(tree)
        return self

    def _bootstrap(self, y: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Row indices of one tree's resample: uniform with replacement."""
        return rng.integers(0, y.shape[0], size=y.shape[0])

    def _fitted_trees(self) -> List:
        if not self.trees_:
            raise ModelError("this forest has not been fitted")
        return self.trees_

    @property
    def is_fitted(self) -> bool:
        """True once :meth:`fit` has completed."""
        return bool(self.trees_)

    def describe(self) -> str:
        """Short human-readable summary of the fitted ensemble."""
        name = type(self).__name__
        if not self.trees_:
            return f"{name} (not fitted)"
        depths = [tree.depth() for tree in self.trees_]
        nodes = [tree.node_count() for tree in self.trees_]
        return (f"{name}: {len(self.trees_)} trees, depth {min(depths)}-{max(depths)}, "
                f"{int(np.mean(nodes))} nodes on average")


class RandomForestClassifier(_Forest):
    """Bagged ensemble of :class:`~repro.ml.tree.DecisionTreeClassifier`.

    ``n_estimators`` trees share ``max_depth``, ``min_samples_split`` and
    ``max_features`` (default ``"sqrt"``, as is standard for
    classification forests); ``seed`` is the master seed.  With
    ``class_weight="balanced"`` each resample draws half its rows from
    each class, so rare timing errors are not drowned out.
    """

    _tree_class = DecisionTreeClassifier

    def __init__(self, n_estimators: int = 10, max_depth: int = 8,
                 min_samples_split: int = 8, max_features: object = "sqrt",
                 class_weight: Optional[str] = None, seed: SeedLike = None) -> None:
        if class_weight not in (None, "balanced"):
            raise ModelError(f"class_weight must be None or 'balanced', got {class_weight!r}")
        super().__init__(n_estimators, max_depth, min_samples_split, max_features, seed)
        self.class_weight = class_weight

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        """Fit the ensemble on a 0/1 feature matrix and 0/1 labels."""
        return self._bag(X, y)

    def _bootstrap(self, y: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.class_weight == "balanced":
            positives, negatives = np.flatnonzero(y == 1), np.flatnonzero(y == 0)
            if positives.size and negatives.size:
                half = y.shape[0] // 2
                return np.concatenate([rng.choice(positives, size=half, replace=True),
                                       rng.choice(negatives, size=y.shape[0] - half, replace=True)])
        return super()._bootstrap(y, rng)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean positive-class probability over the ensemble.

        ``X``'s columns are packed into bitsets once, and every tree routes
        them (:meth:`~repro.ml.tree.DecisionTreeClassifier._leaf_values`);
        the trees' values are summed in tree order.
        """
        trees = self._fitted_trees()
        X = _query_matrix(X, np.uint8, self.n_features_)
        accumulator = np.zeros(X.shape[0], dtype=np.float64)
        columns = _pack_columns(X)
        for tree in trees:
            accumulator += tree._leaf_values(columns, X.shape[0])
        return accumulator / len(trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Majority-vote class (0/1) for every row of ``X``."""
        return (self.predict_proba(X) >= 0.5).astype(np.uint8)

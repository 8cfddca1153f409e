"""The CART core of both learners, and the decision-tree classifier on it.

One node type, grower, feature draw, predictor and walker serve both
trees; each plugs in a criterion.  :class:`DecisionTreeClassifier` counts
Gini impurity over the paper's binary features (0/1 operand and output
bits, 0/1 labels), each child growing on a boolean-mask copy of its rows;
:class:`~repro.ml.regress.DecisionTreeRegressor` sums squared error over
columns presorted once per tree.  Rows with ``x[feature] > threshold`` go
right (a binary feature splits at 0).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.exceptions import ModelError
from repro.utils.rng import SeedLike, ensure_rng

#: Impurity, or impurity decrease, at or below which a node stays a leaf.
_TOLERANCE = 1e-12


@dataclass
class _Node:
    """A leaf (``feature < 0``) or an internal split; both predict a mean."""

    prediction: float
    feature: int = -1
    threshold: float = 0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None


def _check_integer(name: str, value: object, minimum: int, alternatives: str = "") -> int:
    """``value`` as an ``int`` of at least ``minimum``; booleans are rejected."""
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, (bool, np.bool_)) or number < minimum:
        raise ModelError(f"{name} must be {alternatives}an integer of at least {minimum}, "
                         f"got {value!r}")
    return number


def _check_tree_parameters(max_depth: object, min_samples_split: object,
                           max_features: object) -> Tuple[int, int, object]:
    """Validated ``(max_depth, min_samples_split, max_features)`` of a tree."""
    if max_features is not None and not (isinstance(max_features, str)
                                         and max_features == "sqrt"):
        max_features = _check_integer("max_features", max_features, 1, "None, 'sqrt' or ")
    return (_check_integer("max_depth", max_depth, 1),
            _check_integer("min_samples_split", min_samples_split, 2), max_features)


def _training_arrays(X: np.ndarray, y: np.ndarray, dtype: type, learner: str) -> tuple:
    """``X`` and ``y`` as ``dtype`` arrays, checked for a consistent fit."""
    X = np.asarray(X, dtype=dtype)
    y = np.asarray(y, dtype=dtype)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ModelError(f"inconsistent shapes X{X.shape} y{y.shape}")
    if X.shape[0] == 0:
        raise ModelError(f"cannot fit a {learner} on an empty dataset")
    return X, y


class _Tree:
    """CART grown depth-first.  Subclasses set ``_dtype`` (of ``X`` and ``y``), ``_impurity(y,
    mean)``, ``_best_split(rows, y, candidates, impurity) -> (feature, threshold, gain)`` and
    the hooks that hold a node's rows (default: copies of ``(X, y)``, ``y`` in training order)."""

    _dtype: type

    def __init__(self, max_depth: int, min_samples_split: int,
                 max_features: Optional[object], seed: SeedLike) -> None:
        self.max_depth, self.min_samples_split, self.max_features = _check_tree_parameters(
            max_depth, min_samples_split, max_features)
        self._rng = ensure_rng(seed)
        self._root: Optional[_Node] = None
        self.n_features_: Optional[int] = None

    def _fit(self, X: np.ndarray, y: np.ndarray) -> "_Tree":
        X, y = _training_arrays(X, y, self._dtype, "tree")
        self.n_features_ = X.shape[1]
        self._root = self._grow(self._root_rows(X, y), depth=0)
        return self

    def _candidates(self) -> np.ndarray:
        """Features examined at one split: all, or one fresh random draw."""
        if self.max_features is None:
            return np.arange(self.n_features_)
        count = (max(1, int(np.sqrt(self.n_features_))) if self.max_features == "sqrt"
                 else min(self.max_features, self.n_features_))
        return self._rng.choice(self.n_features_, size=count, replace=False)

    @staticmethod
    def _root_rows(X: np.ndarray, y: np.ndarray) -> tuple:
        return X, y

    @staticmethod
    def _targets(rows: tuple) -> np.ndarray:
        return rows[1]

    @staticmethod
    def _partition(rows: tuple, feature: int, threshold: float) -> Tuple[tuple, tuple]:
        X, y = rows
        right = X[:, feature] > threshold
        return (X[~right], y[~right]), (X[right], y[right])

    def _grow(self, rows, depth: int) -> _Node:
        y = self._targets(rows)
        node = _Node(prediction=float(y.mean()))
        if depth >= self.max_depth or y.shape[0] < self.min_samples_split:
            return node
        impurity = self._impurity(y, node.prediction)
        if impurity <= _TOLERANCE:
            return node
        feature, threshold, gain = self._best_split(rows, y, self._candidates(), impurity)
        if not gain > _TOLERANCE:
            return node
        node.feature, node.threshold = feature, threshold
        left, right = self._partition(rows, feature, threshold)
        node.left = self._grow(left, depth + 1)
        node.right = self._grow(right, depth + 1)
        return node

    def _fitted_root(self) -> _Node:
        if self._root is None:
            raise ModelError("this tree has not been fitted")
        return self._root

    def _predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf prediction of every row of ``X``, routing index sets down the tree."""
        root = self._fitted_root()
        X = np.asarray(X, dtype=self._dtype)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ModelError(
                f"expected feature matrix with {self.n_features_} columns, got shape {X.shape}")
        values = np.empty(X.shape[0], dtype=np.float64)
        stack = [(root, np.arange(X.shape[0]))]
        while stack:
            node, indices = stack.pop()
            if indices.size == 0:
                continue
            if node.feature < 0:
                values[indices] = node.prediction
                continue
            right = X[indices, node.feature] > node.threshold
            stack += [(node.left, indices[~right]), (node.right, indices[right])]
        return values

    def _nodes(self) -> Iterator[Tuple[_Node, int]]:
        """Every node of the fitted tree with its depth (the root's is 0)."""
        stack = [(self._fitted_root(), 0)]
        while stack:
            node, level = stack.pop()
            yield node, level
            if node.feature >= 0:
                stack += [(node.left, level + 1), (node.right, level + 1)]

    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        return max(level for _, level in self._nodes())

    def node_count(self) -> int:
        """Total number of nodes in the fitted tree."""
        return sum(1 for _ in self._nodes())


class DecisionTreeClassifier(_Tree):
    """Binary CART classifier over 0/1 feature matrices (Gini criterion).

    A tree is at most ``max_depth`` deep (the root is at depth 0), and a
    node with fewer than ``min_samples_split`` rows stays a leaf.  Each
    split examines ``max_features`` features: ``None`` (all), an integer,
    or ``"sqrt"``, which random forests use to decorrelate their trees;
    ``seed`` drives that subsampling.
    """

    _dtype = np.uint8

    def __init__(self, max_depth: int = 8, min_samples_split: int = 8,
                 max_features: Optional[object] = None, seed: SeedLike = None) -> None:
        super().__init__(max_depth, min_samples_split, max_features, seed)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        """Fit the tree on a 0/1 feature matrix and 0/1 labels."""
        return self._fit(X, y)

    @staticmethod
    def _impurity(y: np.ndarray, mean: float) -> float:
        """Gini impurity of 0/1 labels."""
        total, positives = y.shape[0], float(y.sum())
        return 1.0 - (positives / total) ** 2 - ((total - positives) / total) ** 2

    @staticmethod
    def _best_split(rows: tuple, y: np.ndarray, candidates: np.ndarray,
                    impurity: float) -> Tuple[int, int, float]:
        """Candidate of the largest Gini decrease, every candidate counted at once."""
        total = y.shape[0]
        ones_mask = rows[0][:, candidates].astype(bool)
        count_right = ones_mask.sum(axis=0).astype(np.float64)
        count_left = total - count_right
        pos_right = (ones_mask & y[:, None].astype(bool)).sum(axis=0).astype(np.float64)
        pos_left = float(y.sum()) - pos_right

        def weighted_gini(count: np.ndarray, positive: np.ndarray) -> np.ndarray:
            p = positive / np.maximum(count, 1)
            return count * (1.0 - p ** 2 - (1.0 - p) ** 2)

        gains = impurity - (weighted_gini(count_left, pos_left) +
                            weighted_gini(count_right, pos_right)) / total
        # Splits that send every sample to one side provide no information.
        gains[(count_left == 0) | (count_right == 0)] = -np.inf
        best = int(np.argmax(gains))
        return int(candidates[best]), 0, float(gains[best])

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Probability of the positive class for every row of ``X``."""
        return self._predict(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most likely class (0/1) for every row of ``X``."""
        return (self.predict_proba(X) >= 0.5).astype(np.uint8)

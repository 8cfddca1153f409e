"""The CART core of both learners, and the decision-tree classifier on it.

One node type, grower, feature draw, predictor and walker serve both
trees; each plugs in a criterion.  :class:`DecisionTreeClassifier` counts
Gini impurity over the paper's binary features (0/1 operand and output
bits, 0/1 labels).  A fit packs each column into a Python ``int`` once,
bit ``r`` set where row ``r`` is above 0; a node is two such bitsets, its
rows and its positive rows, with their counts, so a candidate's split
counts are two popcounts and a child's rows two ``&``.
:class:`~repro.ml.regress.DecisionTreeRegressor` sums squared error over
columns presorted once per tree.  Rows with ``x[feature] > threshold`` go
right (a binary feature splits at 0).
"""

from __future__ import annotations

import math
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


def _training_arrays(X: np.ndarray, y: np.ndarray, tree: type, learner: str) -> tuple:
    """``X`` and ``y`` as arrays of ``tree``'s dtype, checked for a consistent fit."""
    X = np.asarray(X, dtype=tree._dtype)
    y = np.asarray(y, dtype=tree._dtype)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ModelError(f"inconsistent shapes X{X.shape} y{y.shape}")
    if 0 in X.shape:
        raise ModelError(f"cannot fit a {learner} on an empty dataset")
    tree._check_targets(y)
    return X, y


class _Tree:
    """CART grown depth-first.  Subclasses set ``_dtype`` (of ``X`` and ``y``) and their
    criterion's hooks: ``_root_rows(X, y)``, the root's rows; ``_targets(rows) -> (targets,
    size, prediction)`` of a node; ``_impurity(targets, prediction)``; ``_best_split(rows,
    targets, candidates, impurity) -> (feature, threshold, gain)``; ``_partition(rows,
    feature, threshold)``, both children's rows; and optionally ``_check_targets(y)``."""

    _dtype: type

    def __init__(self, max_depth: int, min_samples_split: int,
                 max_features: Optional[object], seed: SeedLike) -> None:
        self.max_depth, self.min_samples_split, self.max_features = _check_tree_parameters(
            max_depth, min_samples_split, max_features)
        self._rng = ensure_rng(seed)
        self._root: Optional[_Node] = None
        self.n_features_: Optional[int] = None

    def _fit(self, X: np.ndarray, y: np.ndarray) -> "_Tree":
        X, y = _training_arrays(X, y, type(self), "tree")
        self.n_features_ = X.shape[1]
        self._root = self._grow(self._root_rows(X, y), depth=0)
        return self

    def _candidates(self) -> np.ndarray:
        """Features examined at one split: all, or one fresh random draw."""
        if self.max_features is None:
            return np.arange(self.n_features_)
        count = (max(1, math.isqrt(self.n_features_)) if self.max_features == "sqrt"
                 else min(self.max_features, self.n_features_))
        return self._rng.choice(self.n_features_, size=count, replace=False)

    @staticmethod
    def _check_targets(y: np.ndarray) -> None:
        """Raise :class:`ModelError` for targets the criterion cannot fit."""

    def _grow(self, rows, depth: int) -> _Node:
        targets, size, prediction = self._targets(rows)
        node = _Node(prediction=prediction)
        if depth >= self.max_depth or size < self.min_samples_split:
            return node
        impurity = self._impurity(targets, prediction)
        if impurity <= _TOLERANCE:
            return node
        feature, threshold, gain = self._best_split(rows, targets, self._candidates(), impurity)
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
    def _check_targets(y: np.ndarray) -> None:
        if y.max() > 1:
            raise ModelError(f"labels must be 0 or 1, got {int(y.max())}")

    @staticmethod
    def _root_rows(X: np.ndarray, y: np.ndarray) -> tuple:
        """Every column of ``X`` as a bitset, then the root's rows, positive rows and counts."""
        blocks = -(-X.shape[0] // 8)
        bits = np.zeros((8 * blocks, -(-X.shape[1] // 8) * 8), dtype=bool)
        np.not_equal(X, 0, out=bits[:X.shape[0], :X.shape[1]])
        # A word holds one row's bits of 8 columns, one per byte.  Shifting row k of
        # each 8-row block by k and OR-ing the 8 leaves each column's byte of the block.
        words = bits.view("<u8").reshape(blocks, 8, -1)
        packed = words[:, 0].copy()
        for row in range(1, 8):
            packed |= words[:, row] << np.uint64(row)
        raw = packed.astype("<u8", copy=False).view(np.uint8).T[:X.shape[1]].tobytes()
        positives = int.from_bytes(np.packbits(y, bitorder="little").tobytes(), "little")
        return ([int.from_bytes(raw[start:start + blocks], "little")
                 for start in range(0, len(raw), blocks)],
                (1 << y.shape[0]) - 1, positives, y.shape[0], positives.bit_count())

    @staticmethod
    def _targets(rows: tuple) -> Tuple[Tuple[int, int], int, float]:
        return rows[3:], rows[3], rows[4] / rows[3]

    @staticmethod
    def _partition(rows: tuple, feature: int, threshold: float) -> Tuple[tuple, tuple]:
        """Both children's rows; the rows set in the split column go right."""
        columns, members, positives = rows[:3]
        right, right_positives = members & columns[feature], positives & columns[feature]
        size, count = right.bit_count(), right_positives.bit_count()
        return ((columns, members ^ right, positives ^ right_positives, rows[3] - size,
                 rows[4] - count), (columns, right, right_positives, size, count))

    @staticmethod
    def _impurity(counts: Tuple[int, int], mean: float) -> float:
        """Gini impurity of 0/1 labels."""
        total, positives = counts
        return 1.0 - (positives / total) ** 2 - ((total - positives) / total) ** 2

    @staticmethod
    def _best_split(rows: tuple, counts: Tuple[int, int], candidates: np.ndarray,
                    impurity: float) -> Tuple[int, int, float]:
        """Candidate of the largest Gini decrease, counted by popcounts; the first drawn wins a
        tie, and a split sending every row one way scores ``-inf``."""
        columns, members, positives, total, positive_total = rows
        candidates = candidates.tolist()
        best, best_gain = candidates[0], -math.inf
        for feature in candidates:
            column = columns[feature]
            count_right = (column & members).bit_count()
            if 0 < count_right < total:
                count_left = total - count_right
                pos_right = (column & positives).bit_count()
                p, q = (positive_total - pos_right) / count_left, pos_right / count_right
                # Products, as NumPy squares arrays: Python's float ``** 2`` (kept by
                # _impurity) can round an ulp off, and the oracle pins both bit for bit.
                r, s = 1.0 - p, 1.0 - q
                gain = impurity - (count_left * (1.0 - p * p - r * r)
                                   + count_right * (1.0 - q * q - s * s)) / total
                if gain > best_gain:
                    best, best_gain = feature, gain
        return best, 0, best_gain

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Probability of the positive class for every row of ``X``."""
        return self._predict(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most likely class (0/1) for every row of ``X``."""
        return (self.predict_proba(X) >= 0.5).astype(np.uint8)

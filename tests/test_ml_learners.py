"""Tests for the from-scratch decision tree and random forest."""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_kernels import (ReferenceForestClassifier, ReferenceForestRegressor,
                               ReferenceTreeClassifier)
from repro.exceptions import ModelError
from repro.explore.adaptive import candidate_matrix
from repro.families import get_family
from repro.ml.forest import RandomForestClassifier
from repro.ml.regress import DecisionTreeRegressor, RandomForestRegressor
from repro.ml.tree import DecisionTreeClassifier


def make_dataset(rule, samples=400, features=12, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, size=(samples, features)).astype(np.uint8)
    y = rule(X).astype(np.uint8)
    return X, y


class TestDecisionTree:
    def test_learns_single_feature_rule(self):
        X, y = make_dataset(lambda X: X[:, 3])
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert np.array_equal(tree.predict(X), y)

    def test_learns_conjunction(self):
        X, y = make_dataset(lambda X: X[:, 0] & X[:, 5])
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        assert (tree.predict(X) == y).mean() > 0.98

    def test_learns_xor_with_enough_depth(self):
        """XOR has no single-feature gain, but sampling noise lets greedy CART split it."""
        X, y = make_dataset(lambda X: X[:, 0] ^ X[:, 1], samples=800, features=6)
        tree = DecisionTreeClassifier(max_depth=8, min_samples_split=4).fit(X, y)
        assert (tree.predict(X) == y).mean() > 0.9

    def test_pure_labels_give_leaf(self):
        X = np.zeros((10, 4), dtype=np.uint8)
        y = np.ones(10, dtype=np.uint8)
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.depth() == 0
        assert tree.predict(X).tolist() == [1] * 10

    def test_probability_output_range(self):
        X, y = make_dataset(lambda X: X[:, 0] | X[:, 1])
        tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
        probabilities = tree.predict_proba(X)
        assert probabilities.min() >= 0.0 and probabilities.max() <= 1.0

    def test_max_depth_respected(self):
        X, y = make_dataset(lambda X: X[:, 0] ^ X[:, 1] ^ X[:, 2], samples=800)
        tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert tree.depth() <= 2

    def test_node_count_positive(self):
        X, y = make_dataset(lambda X: X[:, 2])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.node_count() >= 3

    def test_unfitted_rejected(self):
        with pytest.raises(ModelError):
            DecisionTreeClassifier().predict(np.zeros((2, 3), dtype=np.uint8))

    def test_shape_errors(self):
        with pytest.raises(ModelError):
            DecisionTreeClassifier().fit(np.zeros((3, 2), dtype=np.uint8),
                                         np.zeros(4, dtype=np.uint8))
        tree = DecisionTreeClassifier().fit(np.zeros((4, 2), dtype=np.uint8),
                                            np.array([0, 1, 0, 1], dtype=np.uint8))
        with pytest.raises(ModelError):
            tree.predict(np.zeros((2, 5), dtype=np.uint8))

    def test_bad_hyperparameters(self):
        with pytest.raises(ModelError):
            DecisionTreeClassifier(max_depth=0)
        with pytest.raises(ModelError):
            DecisionTreeClassifier(min_samples_split=1)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ModelError):
            DecisionTreeClassifier().fit(np.zeros((0, 3), dtype=np.uint8),
                                         np.zeros(0, dtype=np.uint8))


class TestClassifierLabels:
    """Labels other than 0 and 1 are rejected: a node's mean would count a 2 twice."""

    @pytest.mark.parametrize("learner", [DecisionTreeClassifier, RandomForestClassifier],
                             ids=lambda learner: learner.__name__)
    @pytest.mark.parametrize("label", [2, 3, 255, -1])
    def test_labels_other_than_0_1_rejected(self, learner, label):
        X, y = make_dataset(lambda X: X[:, 0], samples=200, features=6)
        with pytest.raises(ModelError, match=r"^labels must be 0 or 1, got \d+$"):
            learner(seed=0).fit(X, np.where(y == 1, label, 0))

    def test_forest_rejects_a_label_its_resamples_miss(self):
        """The forest checks all its labels, not only those a tree draws."""
        X, y = make_dataset(lambda X: X[:, 0], samples=200, features=6)
        y[17] = 2
        with pytest.raises(ModelError, match="^labels must be 0 or 1"):
            RandomForestClassifier(n_estimators=1, seed=0, class_weight="balanced").fit(X, y)

    @pytest.mark.parametrize("learner", [DecisionTreeClassifier, RandomForestClassifier],
                             ids=lambda learner: learner.__name__)
    def test_boolean_and_wide_integer_labels_accepted(self, learner):
        X, y = make_dataset(lambda X: X[:, 1] & X[:, 2])
        fitted = [learner(seed=3).fit(X, labels).predict_proba(X)
                  for labels in (y, y.astype(bool), y.astype(np.int64))]
        assert fitted[0].tobytes() == fitted[1].tobytes() == fitted[2].tobytes()
        assert fitted[0].min() >= 0.0 and fitted[0].max() <= 1.0


class TestRandomForest:
    def test_learns_majority_function(self):
        X, y = make_dataset(lambda X: ((X[:, 0] + X[:, 1] + X[:, 2]) >= 2), samples=600)
        forest = RandomForestClassifier(n_estimators=7, max_depth=5, seed=0).fit(X, y)
        assert (forest.predict(X) == y).mean() > 0.95

    def test_deterministic_with_seed(self):
        X, y = make_dataset(lambda X: X[:, 0] & X[:, 4])
        first = RandomForestClassifier(n_estimators=5, seed=3).fit(X, y).predict_proba(X)
        second = RandomForestClassifier(n_estimators=5, seed=3).fit(X, y).predict_proba(X)
        assert np.allclose(first, second)

    def test_balanced_class_weight_improves_recall_on_rare_class(self):
        rng = np.random.default_rng(1)
        X = rng.integers(0, 2, size=(1500, 10)).astype(np.uint8)
        # rare positive class: only when three specific bits are set (12.5% of samples)
        y = (X[:, 0] & X[:, 1] & X[:, 2]).astype(np.uint8)
        plain = RandomForestClassifier(n_estimators=5, max_depth=3, seed=0).fit(X, y)
        balanced = RandomForestClassifier(n_estimators=5, max_depth=3, seed=0,
                                          class_weight="balanced").fit(X, y)
        positives = y == 1

        def recall(model):
            return float(np.mean(model.predict(X)[positives] == 1))

        assert recall(balanced) >= recall(plain) - 1e-9

    def test_describe_and_is_fitted(self):
        forest = RandomForestClassifier(n_estimators=2)
        assert not forest.is_fitted
        assert "not fitted" in forest.describe()
        X, y = make_dataset(lambda X: X[:, 1])
        forest.fit(X, y)
        assert forest.is_fitted
        assert "2 trees" in forest.describe()

    def test_unfitted_prediction_rejected(self):
        with pytest.raises(ModelError):
            RandomForestClassifier().predict(np.zeros((1, 2), dtype=np.uint8))

    def test_bad_parameters(self):
        with pytest.raises(ModelError):
            RandomForestClassifier(n_estimators=0)
        with pytest.raises(ModelError):
            RandomForestClassifier(class_weight="bogus")

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=11))
    def test_single_feature_rules_always_learnable(self, feature):
        X, y = make_dataset(lambda X: X[:, feature], samples=300, seed=feature)
        forest = RandomForestClassifier(n_estimators=5, max_depth=4, seed=1).fit(X, y)
        assert (forest.predict(X) == y).mean() > 0.9


def _regress_dataset(func, samples=400, features=6, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(samples, features))
    y = func(X)
    if noise:
        y = y + rng.normal(0.0, noise, size=samples)
    return X, y


def _fit_and_predict_regressor(seed):
    """Module-level so ProcessPoolExecutor can pickle it (spawn-safe)."""
    X, y = _regress_dataset(lambda X: 3.0 * X[:, 0] - X[:, 2], seed=5)
    forest = RandomForestRegressor(n_estimators=6, max_depth=8, seed=seed).fit(X, y)
    return forest.predict(X[:50])


class TestDecisionTreeRegressor:
    def test_learns_step_function(self):
        X, y = _regress_dataset(lambda X: np.where(X[:, 1] > 0.5, 4.0, -1.0))
        tree = DecisionTreeRegressor(max_depth=2).fit(X, y)
        assert np.abs(tree.predict(X) - y).max() < 1e-9

    def test_learns_piecewise_surface(self):
        X, y = _regress_dataset(lambda X: np.sign(X[:, 0]) + 2.0 * np.sign(X[:, 3]))
        tree = DecisionTreeRegressor(max_depth=4).fit(X, y)
        assert np.abs(tree.predict(X) - y).mean() < 0.05

    def test_constant_target_is_single_leaf(self):
        X = np.arange(20, dtype=np.float64).reshape(10, 2)
        tree = DecisionTreeRegressor().fit(X, np.full(10, 2.5))
        assert tree.depth() == 0
        assert tree.node_count() == 1
        assert tree.predict(X).tolist() == [2.5] * 10

    def test_max_depth_respected(self):
        X, y = _regress_dataset(lambda X: X[:, 0] * X[:, 1], samples=600)
        tree = DecisionTreeRegressor(max_depth=3, min_samples_split=2).fit(X, y)
        assert tree.depth() <= 3

    def test_unfitted_and_bad_shapes_rejected(self):
        with pytest.raises(ModelError):
            DecisionTreeRegressor().predict(np.zeros((1, 2)))
        with pytest.raises(ModelError):
            DecisionTreeRegressor(max_depth=0)
        with pytest.raises(ModelError):
            DecisionTreeRegressor().fit(np.zeros((3, 2)), np.zeros(4))
        tree = DecisionTreeRegressor().fit(np.zeros((4, 2)), np.zeros(4))
        with pytest.raises(ModelError):
            tree.predict(np.zeros((2, 3)))


class TestRandomForestRegressor:
    def test_monotone_round_trip(self):
        """Surrogate sanity: a smooth monotone target is recovered well
        enough that predicted ordering matches the true ordering."""
        X, y = _regress_dataset(lambda X: X[:, 0] + 0.5 * X[:, 1], samples=600,
                                noise=0.01, seed=2)
        forest = RandomForestRegressor(n_estimators=12, max_depth=10, seed=0).fit(X, y)
        grid = np.zeros((9, X.shape[1]))
        grid[:, 0] = np.linspace(-1.5, 1.5, 9)
        predicted = forest.predict(grid)
        assert np.all(np.diff(predicted) > -0.05)
        assert np.corrcoef(forest.predict(X), y)[0, 1] > 0.98

    def test_predict_std_higher_off_support(self):
        X, y = _regress_dataset(lambda X: np.where(X[:, 0] > 0, 5.0, -5.0),
                                samples=300, seed=3)
        forest = RandomForestRegressor(n_estimators=16, seed=1).fit(X, y)
        deep = np.zeros((1, X.shape[1])); deep[0, 0] = 1.5
        boundary = np.zeros((1, X.shape[1])); boundary[0, 0] = 0.0
        assert forest.predict_std(boundary)[0] >= forest.predict_std(deep)[0]

    def test_deterministic_with_seed(self):
        X, y = _regress_dataset(lambda X: X[:, 0] ** 2, seed=4)
        first = RandomForestRegressor(n_estimators=5, seed=9).fit(X, y).predict(X)
        second = RandomForestRegressor(n_estimators=5, seed=9).fit(X, y).predict(X)
        assert np.array_equal(first, second)
        different = RandomForestRegressor(n_estimators=5, seed=10).fit(X, y).predict(X)
        assert not np.array_equal(first, different)

    def test_deterministic_across_processes(self):
        """The adaptive explorer's warm-cache identity rests on this: the
        same seed must grow the same ensemble in any process."""
        from concurrent.futures import ProcessPoolExecutor

        local = _fit_and_predict_regressor(21)
        with ProcessPoolExecutor(max_workers=1) as pool:
            remote = pool.submit(_fit_and_predict_regressor, 21).result()
        assert np.array_equal(local, remote)

    def test_predict_all_shape_and_mean(self):
        X, y = _regress_dataset(lambda X: X[:, 1], samples=100)
        forest = RandomForestRegressor(n_estimators=4, seed=0).fit(X, y)
        stacked = forest.predict_all(X[:10])
        assert stacked.shape == (4, 10)
        assert np.allclose(stacked.mean(axis=0), forest.predict(X[:10]))

    def test_describe_and_is_fitted(self):
        forest = RandomForestRegressor(n_estimators=2)
        assert not forest.is_fitted
        assert "not fitted" in forest.describe()
        X, y = _regress_dataset(lambda X: X[:, 0], samples=50)
        forest.fit(X, y)
        assert forest.is_fitted
        assert "2 trees" in forest.describe()

    def test_bad_parameters_rejected(self):
        with pytest.raises(ModelError):
            RandomForestRegressor(n_estimators=0)
        with pytest.raises(ModelError):
            RandomForestRegressor().fit(np.zeros((0, 2)), np.zeros(0))


LEARNERS = [DecisionTreeClassifier, DecisionTreeRegressor,
            RandomForestClassifier, RandomForestRegressor]


class TestHyperparameterValidation:
    """Every learner checks its tree parameters when it is constructed."""

    @pytest.mark.parametrize("learner", LEARNERS, ids=lambda learner: learner.__name__)
    @pytest.mark.parametrize("value", [0, -1, "log2", "SQRT", 2.5, True], ids=repr)
    def test_bad_max_features_rejected_at_construction(self, learner, value):
        with pytest.raises(ModelError, match=rf"^max_features .*got {re.escape(repr(value))}$"):
            learner(max_features=value)

    @pytest.mark.parametrize("learner", [RandomForestClassifier, RandomForestRegressor],
                             ids=lambda learner: learner.__name__)
    @pytest.mark.parametrize("name, value", [("max_depth", 0), ("min_samples_split", 1)])
    def test_forest_rejects_bad_tree_parameters_at_construction(self, learner, name, value):
        with pytest.raises(ModelError, match=rf"^{name} .*got {value}$"):
            learner(**{name: value})

    @pytest.mark.parametrize("learner", LEARNERS, ids=lambda learner: learner.__name__)
    def test_integer_types_accepted_booleans_rejected(self, learner):
        X, y = make_dataset(lambda X: X[:, 2] & X[:, 7])
        grown = [learner(max_features=value, seed=4).fit(X, y)
                 for value in (3, np.int64(3), np.uint8(3))]
        digests = {_learner_digest(model, [X]) for model in grown}
        assert len(digests) == 1
        for value in (None, "sqrt"):
            learner(max_features=value)
        for value in (False, np.True_):
            with pytest.raises(ModelError, match="^max_features "):
                learner(max_features=value)


class TestEmptyMatrices:
    @pytest.mark.parametrize("learner", LEARNERS, ids=lambda learner: learner.__name__)
    @pytest.mark.parametrize("shape", [(0, 3), (4, 0)])
    def test_no_rows_or_no_columns_rejected(self, learner, shape):
        with pytest.raises(ModelError, match="empty dataset$"):
            learner().fit(np.zeros(shape), np.zeros(shape[0]))


def _adder_like_bits(samples, seed):
    """Binary rows shaped like a 32-bit adder's features: 130 columns
    (two operands now and one cycle earlier, plus two output bits) with
    rare positives that depend on a carry-like run of operand bits."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, size=(samples, 130)).astype(np.uint8)
    carry = X[:, 10:20].sum(axis=1) + X[:, 42:52].sum(axis=1)
    y = (carry >= 13) & (X[:, 128] != X[:, 129])
    return X, (y ^ (rng.random(samples) < 0.02)).astype(np.uint8)


def _quadruple_like(samples, seed):
    """Small-integer rows with many ties, like the surrogate's quadruple
    features, and a float target with a little noise."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.integers(1, 5, samples), rng.integers(0, 4, samples),
                         rng.integers(0, 3, samples), rng.integers(0, 9, samples),
                         rng.integers(0, 2, samples)]).astype(np.float64)
    y = np.log2(1.0 + X[:, 0] * X[:, 3]) - 0.3 * X[:, 1] + 0.01 * rng.standard_normal(samples)
    return X, y


def _learner_digest(learner, rows):
    """SHA-256 over public outputs: every tree's size and depth, then the
    prediction bytes on each row block."""
    digest = hashlib.sha256()
    for tree in getattr(learner, "trees_", [learner]):
        digest.update(f"{tree.node_count()}/{tree.depth()};".encode())
    for X in rows:
        if hasattr(learner, "predict_proba"):
            output = learner.predict_proba(X)
        elif hasattr(learner, "predict_all"):
            output = learner.predict_all(X)
        else:
            output = learner.predict(X)
        digest.update(np.ascontiguousarray(output, dtype=np.float64).tobytes())
    return digest.hexdigest()


#: SHA-256 of each seeded learner's public outputs.  Any change to a grown
#: tree, to a criterion's float arithmetic or to the order of the feature
#: draws changes a digest; perfbench's stored digests pin the same trees end
#: to end, so a digest here changes only with a deliberate model change.
PINNED_LEARNERS = {
    "forest-sqrt": (
        "binary", lambda: RandomForestClassifier(n_estimators=6, max_features="sqrt", seed=2017),
        "63bc9eae0c41f7b6db89c73edeeccdf2df3b6081bdf6bfbb0764be645c31b389"),
    "forest-sqrt-balanced": (
        "binary", lambda: RandomForestClassifier(n_estimators=6, max_features="sqrt",
                                                 class_weight="balanced", seed=11),
        "2b91dd7683032f483edf5cc6a3134e4386e2e4b56ad022c8f1817c98c3b15283"),
    "tree-classifier": (
        "binary", lambda: DecisionTreeClassifier(max_features="sqrt", seed=5),
        "9d0953de4585cd1369f3ff5e9e34647dbbee240801dbcbfa4318a13b0c8b39a3"),
    "forest-regressor": (
        "numeric", lambda: RandomForestRegressor(n_estimators=8, seed=3),
        "f292b8fcbea65679eb332eb097dce646a642fbd9b5cfb585ca007c6210c4b750"),
    "forest-regressor-subsampled": (
        "numeric", lambda: RandomForestRegressor(n_estimators=5, max_features=2, seed=4),
        "2180451b853e0b010ff32739f1e7e16d3c7a118fb2ce2c7c6d08b0784fb7690b"),
    "tree-regressor": (
        "numeric", lambda: DecisionTreeRegressor(seed=0),
        "7fd5cd333357e9418906629d1ecee8fb6c05f9195c6100d4b78fe811515b407a"),
}


class TestLearnersPinnedBitForBit:
    @pytest.mark.parametrize("case", sorted(PINNED_LEARNERS))
    def test_seeded_learner_matches_recorded_digest(self, case):
        kind, make, expected = PINNED_LEARNERS[case]
        if kind == "binary":
            X, y = _adder_like_bits(640, seed=31)
            probe = _adder_like_bits(96, seed=32)[0]
        else:
            X, y = _quadruple_like(180, seed=37)
            grid = np.random.default_rng(38).integers(0, 10, size=(60, X.shape[1]))
            probe = np.vstack([grid, grid + 0.5]).astype(np.float64)
        learner = make().fit(X, y)
        assert _learner_digest(learner, [X, probe]) == expected


def _surrogate_rows(family, width, size, seed):
    """``size`` rows of a family's surrogate features over its ``width``
    design space, each with a clock-reduction column as the RMS surrogate
    sees them, and a noisy target holding many exact ties."""
    family = get_family(family)
    features = family.surrogate_features(candidate_matrix(family.design_space(width)), width)
    levels = -(-size // features.shape[0])
    rows = np.column_stack([np.tile(features, (levels, 1)),
                            np.repeat(0.05 * np.arange(levels), features.shape[0])])
    rng = np.random.default_rng(seed)
    X = rows[rng.permutation(rows.shape[0])[:size]]
    y = X @ rng.normal(size=X.shape[1]) + np.round(rng.normal(scale=0.2, size=size), 1)
    return X, y


def _preorder(tree):
    """Every node's feature, and its threshold and prediction, in preorder."""
    features, values, stack = [], [], [tree._root]
    while stack:
        node = stack.pop()
        features.append(node.feature)
        values += [node.threshold, node.prediction]
        if node.feature >= 0:
            stack += [node.right, node.left]
    return np.array(features), np.array(values, dtype=np.float64)


class TestRegressorMatchesOracle:
    """The presorted split search grows the trees of the per-feature oracle,
    node for node and bit for bit."""

    @pytest.mark.parametrize("max_features", [None, 2])
    @pytest.mark.parametrize("targets", ["finite", "nonfinite", "overflowing"])
    @pytest.mark.parametrize("size", [24, 120, 336, 2320])
    @pytest.mark.parametrize("family,width", [("adder", 16), ("adder", 32), ("multiplier", 8)])
    def test_forest_matches_reference(self, family, width, size, targets, max_features):
        X, y = _surrogate_rows(family, width, size, seed=size + width)
        if targets == "nonfinite":
            y[size // 3], y[size // 2], y[-1] = np.nan, np.inf, -np.inf
        elif targets == "overflowing":  # a root's squares sum below the float
            # maximum, but left sums squared overflow: children score -inf
            y = np.sqrt(0.6e308 / size) * (1 + 0.01 * y / np.abs(y).max())
        trees = 4 if size <= 336 else 2
        with np.errstate(all="ignore"):
            forests = [forest(n_estimators=trees, max_features=max_features, seed=size).fit(X, y)
                       for forest in (RandomForestRegressor, ReferenceForestRegressor)]
        for tree, reference in zip(*(forest.trees_ for forest in forests)):
            (features, values), (expected_features, expected_values) = (
                _preorder(tree), _preorder(reference))
            assert np.array_equal(features, expected_features)
            assert values.tobytes() == expected_values.tobytes()
        probe = np.vstack([X, X[: size // 2] + 0.5])
        assert forests[0].predict_all(probe).tobytes() == forests[1].predict_all(probe).tobytes()


def _classifier_rows(rows, columns, labels, seed):
    """``rows`` x ``columns`` uint8 features: 0/1 bits, every fourth column valued 0-3, the
    last a copy of the first (a tie the first drawn wins) and, past three columns, an
    all-zero and an all-one column; labels from a noisy rule, rare, or constant."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, size=(rows, columns)).astype(np.uint8)
    X[:, 1::4] = rng.integers(0, 4, size=X[:, 1::4].shape)
    X[:, -1] = X[:, 0]
    if columns > 3:
        X[:, 2], X[:, 3] = 0, 1
    rule = (X[:, 0] + (X[:, 1] > 1) + X[:, columns // 2].astype(bool)) >= 2
    y = {"rule": rule ^ (rng.random(rows) < 0.1), "rare": rule & (rng.random(rows) < 0.08),
         "zeros": np.zeros(rows, dtype=bool), "ones": np.ones(rows, dtype=bool)}[labels]
    return X, y.astype(np.uint8)


def _assert_same_trees(trees, references):
    for tree, reference in zip(trees, references, strict=True):
        assert vars(tree).keys() == vars(reference).keys()
        (features, values), (expected_features, expected_values) = (
            _preorder(tree), _preorder(reference))
        assert np.array_equal(features, expected_features)
        assert values.tobytes() == expected_values.tobytes()


class TestClassifierMatchesOracle:
    """The popcount split search over packed columns grows the trees of the boolean-mask
    oracle, node for node and bit for bit, and predicts the same bytes."""

    @staticmethod
    def check(X, y, max_features, class_weight, seed):
        probe = np.vstack([X, np.random.default_rng(seed).integers(0, 4, size=(16, X.shape[1]))])
        trees = [learner(max_features=max_features, seed=seed).fit(X, y)
                 for learner in (DecisionTreeClassifier, ReferenceTreeClassifier)]
        _assert_same_trees([trees[0]], [trees[1]])
        assert trees[0].predict_proba(probe).tobytes() == trees[1].predict_proba(probe).tobytes()
        forests = [learner(n_estimators=3, max_features=max_features, class_weight=class_weight,
                           seed=seed).fit(X, y)
                   for learner in (RandomForestClassifier, ReferenceForestClassifier)]
        _assert_same_trees(forests[0].trees_, forests[1].trees_)
        outputs = [forest.predict_proba(probe).tobytes() for forest in forests]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("class_weight", [None, "balanced"])
    @pytest.mark.parametrize("max_features", [None, 5, "sqrt"])
    @pytest.mark.parametrize("columns", [3, 64, 65, 130])
    @pytest.mark.parametrize("rows", [1, 7, 8, 9, 65, 640, 2499])
    def test_learners_match_reference(self, rows, columns, max_features, class_weight):
        X, y = _classifier_rows(rows, columns, "rule", seed=rows * 131 + columns)
        self.check(X, y, max_features, class_weight, seed=rows + columns)

    @pytest.mark.parametrize("class_weight", [None, "balanced"])
    @pytest.mark.parametrize("max_features", [None, 5, "sqrt"])
    @pytest.mark.parametrize("labels", ["zeros", "ones", "rare"])
    @pytest.mark.parametrize("rows,columns", [(9, 3), (640, 65), (2499, 130)])
    def test_label_mixes_match_reference(self, rows, columns, labels, max_features,
                                         class_weight):
        X, y = _classifier_rows(rows, columns, labels, seed=rows * 131 + columns)
        self.check(X, y, max_features, class_weight, seed=rows + columns)

    def test_adder_like_forest_matches_reference(self):
        X, y = _adder_like_bits(2499, seed=41)
        self.check(X, y, "sqrt", None, seed=7)

    def test_every_node_mean_and_impurity_match_reference(self):
        """Equal trees can hide a float an ulp off: compare each node's mean and Gini
        impurity, for every label count of up to 300 rows, bit for bit."""
        X = np.zeros((300, 1), dtype=np.uint8)
        for total in range(1, 301):
            for positives in range(total + 1):
                y = (np.arange(total) < positives).astype(np.uint8)
                rows = DecisionTreeClassifier._root_rows(X[:total], y)
                node = DecisionTreeClassifier._targets(rows)
                expected = ReferenceTreeClassifier._targets((X[:total], y))
                assert node[1:] == expected[1:]
                assert (DecisionTreeClassifier._impurity(node[0], node[2])
                        == ReferenceTreeClassifier._impurity(expected[0], expected[2]))

    @pytest.mark.parametrize("positives", [33, 66, 132])
    def test_every_split_of_a_node_scores_the_reference_gain(self, positives):
        """Score every (rows, positives) split of a 164-row node, one candidate column at a
        time, against the oracle's gain, bit for bit."""
        rows = 164
        y = (np.arange(rows) < positives).astype(np.uint8)
        splits = [(right, right_positives) for right in range(rows + 1)
                  for right_positives in range(max(0, right - rows + positives),
                                               min(right, positives) + 1)]
        X = np.zeros((rows, len(splits)), dtype=np.uint8)
        for column, (right, right_positives) in enumerate(splits):
            X[:right_positives, column] = 1
            X[positives:positives + right - right_positives, column] = 1
        packed = DecisionTreeClassifier._root_rows(X, y)
        counts, _, mean = DecisionTreeClassifier._targets(packed)
        impurity = DecisionTreeClassifier._impurity(counts, mean)
        for column in range(X.shape[1]):
            candidates = np.array([column])
            assert (DecisionTreeClassifier._best_split(packed, counts, candidates, impurity)
                    == ReferenceTreeClassifier._best_split((X, y), y, candidates, impurity))

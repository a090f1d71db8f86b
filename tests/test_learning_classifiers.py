"""Tests for the concrete classifiers in repro.learning."""

import numpy as np
import pytest

from repro.learning.dummy import MajorityClassifier, RandomScoreClassifier
from repro.learning.forest import RandomForestClassifier
from repro.learning.knn import KNeighborsClassifier
from repro.learning.logistic import LogisticRegressionClassifier
from repro.learning.metrics import ClassificationReport, accuracy
from repro.learning.neural import NeuralNetworkClassifier
from repro.learning.tree import DecisionTreeClassifier

ALL_CLASSIFIERS = [
    KNeighborsClassifier(n_neighbors=5),
    DecisionTreeClassifier(max_depth=6, seed=0),
    RandomForestClassifier(n_estimators=10, max_depth=6, seed=0),
    LogisticRegressionClassifier(n_iterations=200),
    NeuralNetworkClassifier(hidden_layers=(8, 4), n_epochs=200, seed=0),
]


@pytest.mark.parametrize("classifier", ALL_CLASSIFIERS, ids=lambda c: type(c).__name__)
class TestClassifierContract:
    def test_scores_in_unit_interval(self, classifier, separable_data):
        features, labels = separable_data
        model = classifier.clone()
        model.fit(features, labels)
        scores = model.predict_scores(features)
        assert scores.shape == (features.shape[0],)
        assert np.all(scores >= 0.0)
        assert np.all(scores <= 1.0)

    def test_learns_separable_problem(self, classifier, separable_data):
        features, labels = separable_data
        model = classifier.clone()
        model.fit(features, labels)
        report = ClassificationReport.from_scores(labels, model.predict_scores(features))
        assert report.accuracy > 0.9
        assert report.auc > 0.9

    def test_single_class_training_does_not_crash(self, classifier):
        features = np.random.default_rng(0).uniform(size=(30, 2))
        labels = np.zeros(30)
        model = classifier.clone()
        model.fit(features, labels)
        scores = model.predict_scores(features)
        assert np.all((scores >= 0.0) & (scores <= 1.0))

    def test_clone_is_unfitted(self, classifier, separable_data):
        features, labels = separable_data
        model = classifier.clone()
        model.fit(features, labels)
        fresh = model.clone()
        assert not fresh.is_fitted
        with pytest.raises(RuntimeError):
            fresh.predict_scores(features)

    def test_predict_thresholds_scores(self, classifier, separable_data):
        features, labels = separable_data
        model = classifier.clone()
        model.fit(features, labels)
        predictions = model.predict(features)
        assert set(np.unique(predictions)).issubset({0.0, 1.0})

    def test_unfitted_prediction_rejected(self, classifier, separable_data):
        features, _ = separable_data
        with pytest.raises(RuntimeError):
            classifier.clone().predict_scores(features)


class TestKNeighbors:
    def test_one_neighbor_memorises_training_data(self, separable_data):
        features, labels = separable_data
        model = KNeighborsClassifier(n_neighbors=1)
        model.fit(features, labels)
        assert accuracy(labels, model.predict(features)) == 1.0

    def test_neighbors_capped_at_training_size(self):
        features = np.random.default_rng(0).uniform(size=(5, 2))
        labels = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
        model = KNeighborsClassifier(n_neighbors=50)
        model.fit(features, labels)
        scores = model.predict_scores(features)
        assert np.allclose(scores, labels.mean())

    def test_invalid_neighbors_rejected(self):
        with pytest.raises(ValueError):
            KNeighborsClassifier(n_neighbors=0)

    def test_chunked_prediction_matches_unchunked(self, separable_data):
        features, labels = separable_data
        small_chunks = KNeighborsClassifier(n_neighbors=5, chunk_size=7)
        big_chunks = KNeighborsClassifier(n_neighbors=5, chunk_size=10_000)
        small_chunks.fit(features, labels)
        big_chunks.fit(features, labels)
        assert np.allclose(
            small_chunks.predict_scores(features), big_chunks.predict_scores(features)
        )


class TestDecisionTree:
    def test_pure_node_stops_splitting(self):
        features = np.array([[0.0], [1.0], [2.0], [3.0]])
        labels = np.ones(4)
        model = DecisionTreeClassifier()
        model.fit(features, labels)
        assert model.node_count == 1

    def test_max_depth_limits_nodes(self, separable_data):
        features, labels = separable_data
        shallow = DecisionTreeClassifier(max_depth=1, seed=0)
        deep = DecisionTreeClassifier(max_depth=8, seed=0)
        shallow.fit(features, labels)
        deep.fit(features, labels)
        assert shallow.node_count <= 3
        assert deep.node_count >= shallow.node_count

    def test_axis_aligned_split_found_exactly(self):
        rng = np.random.default_rng(1)
        features = rng.uniform(size=(200, 1))
        labels = (features[:, 0] > 0.5).astype(float)
        model = DecisionTreeClassifier(max_depth=2, min_samples_leaf=1)
        model.fit(features, labels)
        assert accuracy(labels, model.predict(features)) == 1.0

    def test_feature_count_validated_at_prediction(self, separable_data):
        features, labels = separable_data
        model = DecisionTreeClassifier(max_depth=3)
        model.fit(features, labels)
        with pytest.raises(ValueError):
            model.predict_scores(features[:, :1])

    def test_fit_rejects_non_binary_labels(self, separable_data):
        features, labels = separable_data
        with pytest.raises(ValueError, match="binary"):
            DecisionTreeClassifier().fit(features, labels * 2.0)

    def test_fit_rejects_non_finite_features(self, separable_data):
        features, labels = separable_data
        features = features.copy()
        features[3, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            DecisionTreeClassifier().fit(features, labels)

    def test_max_features_fraction(self, separable_data):
        features, labels = separable_data
        model = DecisionTreeClassifier(max_depth=4, max_features=0.5, seed=3)
        model.fit(features, labels)
        assert model.is_fitted


class TestRandomForest:
    def test_scores_are_tree_averages(self, separable_data):
        features, labels = separable_data
        model = RandomForestClassifier(n_estimators=5, max_depth=4, seed=1)
        model.fit(features, labels)
        manual = np.mean(
            [tree.predict_scores(features) for tree in model.trees_], axis=0
        )
        assert np.allclose(manual, model.predict_scores(features))

    def test_feature_count_validated_at_prediction(self, separable_data):
        features, labels = separable_data
        model = RandomForestClassifier(n_estimators=3, max_depth=3, seed=0)
        model.fit(features, labels)
        with pytest.raises(ValueError, match="expected 2 features, got 1"):
            model.predict_scores(features[:, :1])

    def test_fit_rejects_non_binary_labels(self, separable_data):
        features, labels = separable_data
        with pytest.raises(ValueError, match="binary"):
            RandomForestClassifier(n_estimators=3).fit(features, labels * 2.0)

    def test_fit_rejects_non_finite_features(self, separable_data):
        features, labels = separable_data
        features = features.copy()
        features[3, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            RandomForestClassifier(n_estimators=3).fit(features, labels)

    def test_more_trees_reduce_score_variance_across_seeds(self, separable_data):
        features, labels = separable_data
        few = [
            RandomForestClassifier(n_estimators=2, seed=s)
            .fit(features, labels)
            .predict_scores(features)
            .mean()
            for s in range(5)
        ]
        many = [
            RandomForestClassifier(n_estimators=20, seed=s)
            .fit(features, labels)
            .predict_scores(features)
            .mean()
            for s in range(5)
        ]
        assert np.var(many) <= np.var(few) + 1e-6

    def test_invalid_estimators_rejected(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)


class TestNeuralAndLogistic:
    def test_logistic_recovers_linear_boundary(self):
        rng = np.random.default_rng(2)
        features = rng.normal(size=(300, 2))
        labels = (features @ np.array([2.0, -1.0]) > 0).astype(float)
        model = LogisticRegressionClassifier(n_iterations=500)
        model.fit(features, labels)
        assert accuracy(labels, model.predict(features)) > 0.95

    def test_logistic_invalid_learning_rate(self):
        with pytest.raises(ValueError):
            LogisticRegressionClassifier(learning_rate=0.0)

    def test_neural_paper_architecture_runs(self, separable_data):
        features, labels = separable_data
        model = NeuralNetworkClassifier(hidden_layers=(5, 2), n_epochs=150, seed=0)
        model.fit(features, labels)
        assert model.predict_scores(features).shape == (features.shape[0],)

    def test_neural_invalid_layers_rejected(self):
        with pytest.raises(ValueError):
            NeuralNetworkClassifier(hidden_layers=(0,))


class TestDummyClassifiers:
    def test_random_scores_are_uninformative_but_valid(self, separable_data):
        features, labels = separable_data
        model = RandomScoreClassifier(seed=1)
        model.fit(features, labels)
        scores = model.predict_scores(features)
        assert np.all((scores >= 0.0) & (scores <= 1.0))
        assert np.var(scores) > 0.0

    def test_majority_classifier_predicts_constant(self, separable_data):
        features, labels = separable_data
        model = MajorityClassifier()
        model.fit(features, np.ones_like(labels))
        assert np.all(model.predict_scores(features) == 1.0)

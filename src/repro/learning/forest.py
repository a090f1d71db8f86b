"""Random-forest classifier.

The paper's default classifier (``n_estimators=100`` in the experiments).
The forest score is the average of its trees' leaf positive fractions, which
the paper notes can be read as the probability that ``q(o) = 1``.

The forest validates its input once per call and hands every tree the same
contiguous feature columns: trees grow on their bootstrap row ids without
copying the data, and all trees route into one score vector
(:mod:`repro.learning.tree` explains why the sum order is unchanged).
"""

from __future__ import annotations

import numpy as np

from repro.learning.base import Classifier, check_features, check_labels
from repro.learning.tree import DecisionTreeClassifier, feature_columns


class RandomForestClassifier(Classifier):
    """Bagged ensemble of CART trees with per-split feature sub-sampling.

    Args:
        n_estimators: number of trees.
        max_depth: depth limit applied to every tree.
        min_samples_leaf: minimum samples per leaf in every tree.
        max_features: per-split feature budget (defaults to ``"sqrt"``).
        bootstrap: whether each tree is trained on a bootstrap resample.
        seed: master RNG seed; each tree receives an independent child seed.
    """

    def __init__(
        self,
        n_estimators: int = 40,
        max_depth: int | None = 12,
        min_samples_leaf: int = 2,
        max_features: int | float | str | None = "sqrt",
        bootstrap: bool = True,
        seed: int | None = None,
    ) -> None:
        if n_estimators <= 0:
            raise ValueError("n_estimators must be positive")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "RandomForestClassifier":
        features = check_features(features)
        labels = check_labels(labels, features.shape[0])
        columns = np.ascontiguousarray(features.T)
        rng = np.random.default_rng(self.seed)
        n_rows = features.shape[0]

        trees: list[DecisionTreeClassifier] = []
        for _ in range(self.n_estimators):
            tree_seed = int(rng.integers(0, 2**31 - 1))
            if self.bootstrap:
                rows = rng.integers(0, n_rows, size=n_rows)
            else:
                rows = np.arange(n_rows)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                seed=tree_seed,
            )
            tree._grow(columns, labels, rows)
            trees.append(tree)
        self.trees_ = trees
        self.num_features_ = features.shape[1]
        return self

    def predict_scores(self, features: np.ndarray) -> np.ndarray:
        self._require_fitted()
        columns = feature_columns(features, self.num_features_)
        rows = np.arange(columns.shape[1])
        scores = np.zeros(rows.size, dtype=np.float64)
        for tree in self.trees_:
            tree._route(columns, rows, scores)
        return scores / len(self.trees_)

"""Reference CART fit and level-by-level routing: the oracle for the tree kernels.

This is the straightforward form of :mod:`repro.learning.tree` and
:mod:`repro.learning.forest`: every tree validates its own input, each split
search copies the node's feature rows, node values are recomputed with
``np.mean`` and scoring routes all rows one tree level at a time.  The
library's kernels must reproduce its node arrays and scores byte for byte
(``tests/test_learning_kernels.py``), and ``benchmarks/run_micro.py`` times
them against it.
"""

from __future__ import annotations

import numpy as np

from repro.learning.base import check_features, check_labels
from repro.learning.forest import RandomForestClassifier
from repro.learning.tree import DecisionTreeClassifier


def best_split_reference(
    features: np.ndarray,
    labels: np.ndarray,
    feature_indices: np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float, float] | None:
    """The (feature, threshold, impurity) minimising weighted Gini, or ``None``."""
    n = labels.size
    best_score = np.inf
    best: tuple[int, float, float] | None = None
    for feature in feature_indices:
        column = features[:, feature]
        order = np.argsort(column, kind="stable")
        sorted_values = column[order]
        sorted_labels = labels[order]
        positives_prefix = np.cumsum(sorted_labels)
        total_positives = positives_prefix[-1]

        left_counts = np.arange(1, n)
        right_counts = n - left_counts
        left_positives = positives_prefix[:-1]
        right_positives = total_positives - left_positives

        valid = sorted_values[1:] > sorted_values[:-1]
        valid &= left_counts >= min_samples_leaf
        valid &= right_counts >= min_samples_leaf
        if not valid.any():
            continue

        left_fraction = left_positives / left_counts
        right_fraction = right_positives / right_counts
        gini_left = 2.0 * left_fraction * (1.0 - left_fraction)
        gini_right = 2.0 * right_fraction * (1.0 - right_fraction)
        weighted = (left_counts * gini_left + right_counts * gini_right) / n
        weighted[~valid] = np.inf

        position = int(np.argmin(weighted))
        if weighted[position] < best_score:
            best_score = float(weighted[position])
            threshold = float(
                (sorted_values[position] + sorted_values[position + 1]) / 2.0
            )
            best = (int(feature), threshold, best_score)
    return best


def fit_tree_reference(
    model: DecisionTreeClassifier, features: np.ndarray, labels: np.ndarray
) -> dict[str, np.ndarray]:
    """Grow ``model``'s tree on the data and return its node arrays."""
    features = check_features(features)
    labels = check_labels(labels, features.shape[0])
    rng = np.random.default_rng(model.seed)
    num_features = features.shape[1]
    features_per_split = model._resolve_max_features(num_features)
    max_depth = model.max_depth if model.max_depth is not None else np.inf

    feature_ids = [-1]
    thresholds = [np.nan]
    lefts = [-1]
    rights = [-1]
    values = [float(labels.mean())]
    stack: list[tuple[int, np.ndarray, int]] = [(0, np.arange(labels.size), 0)]
    while stack:
        node_id, rows, depth = stack.pop()
        node_labels = labels[rows]
        positive_fraction = float(node_labels.mean())
        values[node_id] = positive_fraction
        if (
            depth >= max_depth
            or rows.size < model.min_samples_split
            or rows.size < 2 * model.min_samples_leaf
            or positive_fraction in (0.0, 1.0)
        ):
            continue
        if features_per_split < num_features:
            candidate_features = rng.choice(
                num_features, size=features_per_split, replace=False
            )
        else:
            candidate_features = np.arange(num_features)
        split = best_split_reference(
            features[rows], node_labels, candidate_features, model.min_samples_leaf
        )
        if split is None:
            continue
        feature, threshold, _ = split
        goes_left = features[rows, feature] <= threshold
        left_rows = rows[goes_left]
        right_rows = rows[~goes_left]
        if left_rows.size == 0 or right_rows.size == 0:
            continue
        children = []
        for child_rows in (left_rows, right_rows):
            feature_ids.append(-1)
            thresholds.append(np.nan)
            lefts.append(-1)
            rights.append(-1)
            values.append(float(labels[child_rows].mean()))
            children.append(len(values) - 1)
        feature_ids[node_id] = feature
        thresholds[node_id] = threshold
        lefts[node_id], rights[node_id] = children
        stack.append((children[0], left_rows, depth + 1))
        stack.append((children[1], right_rows, depth + 1))
    return {
        "feature": np.asarray(feature_ids, dtype=np.int64),
        "threshold": np.asarray(thresholds, dtype=np.float64),
        "left": np.asarray(lefts, dtype=np.int64),
        "right": np.asarray(rights, dtype=np.int64),
        "value": np.asarray(values, dtype=np.float64),
    }


def route_reference(nodes: dict[str, np.ndarray], features: np.ndarray) -> np.ndarray:
    """Score every row by routing all rows through the tree level by level."""
    features = check_features(features)
    assignments = np.zeros(features.shape[0], dtype=np.int64)
    active = nodes["feature"][assignments] >= 0
    while active.any():
        rows = np.flatnonzero(active)
        node_ids = assignments[rows]
        feature = nodes["feature"][node_ids]
        threshold = nodes["threshold"][node_ids]
        goes_left = features[rows, feature] <= threshold
        assignments[rows] = np.where(
            goes_left, nodes["left"][node_ids], nodes["right"][node_ids]
        )
        active = nodes["feature"][assignments] >= 0
    return nodes["value"][assignments]


def fit_forest_reference(
    model: RandomForestClassifier, features: np.ndarray, labels: np.ndarray
) -> list[dict[str, np.ndarray]]:
    """Grow ``model``'s forest tree by tree and return each tree's node arrays."""
    features = check_features(features)
    labels = check_labels(labels, features.shape[0])
    rng = np.random.default_rng(model.seed)
    n_rows = features.shape[0]
    forest = []
    for _ in range(model.n_estimators):
        tree_seed = int(rng.integers(0, 2**31 - 1))
        if model.bootstrap:
            rows = rng.integers(0, n_rows, size=n_rows)
        else:
            rows = np.arange(n_rows)
        tree = DecisionTreeClassifier(
            max_depth=model.max_depth,
            min_samples_leaf=model.min_samples_leaf,
            max_features=model.max_features,
            seed=tree_seed,
        )
        forest.append(fit_tree_reference(tree, features[rows], labels[rows]))
    return forest


def forest_scores_reference(
    forest: list[dict[str, np.ndarray]], features: np.ndarray
) -> np.ndarray:
    """Average of the trees' routed scores, summed in tree order."""
    features = check_features(features)
    scores = np.zeros(features.shape[0], dtype=np.float64)
    for nodes in forest:
        scores += route_reference(nodes, features)
    return scores / len(forest)

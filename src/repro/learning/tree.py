"""CART decision-tree classifier.

The random forest of :mod:`repro.learning.forest` (the paper's default
classifier for LWS/LSS/QL) is an ensemble of these trees.  The tree grows
greedily by minimising the weighted Gini impurity of each split; leaf values
are positive fractions, which makes a single tree's score the empirical
positive probability in the leaf.

Both kernels work on feature *columns*: ``columns[f]`` is feature ``f`` as
one contiguous vector over all rows, and a node holds the ids of its rows.

- Growth is depth-first.  A node's value is computed once, when it is
  popped, and its split search gathers only the candidate columns at its
  rows.  The RNG draws one feature subset per split node in pop order, so a
  tree depends only on its seed and its rows, not on how they are stored.
- Scoring walks the tree once with an explicit stack.  Each internal node
  compares only its own rows against its threshold; each leaf adds its
  value into the caller's score vector (``scores[rows] += value``).  Every
  row reaches exactly one leaf per tree, so a forest that routes its trees
  in order into one vector adds each row's leaf values in tree order: the
  same float sum as adding whole per-tree score vectors.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.learning.base import Classifier, check_features, check_labels


def feature_columns(features: np.ndarray, num_features: int) -> np.ndarray:
    """Validate a prediction matrix and return its features as contiguous rows."""
    features = check_features(features)
    if features.shape[1] != num_features:
        raise ValueError(f"expected {num_features} features, got {features.shape[1]}")
    return np.ascontiguousarray(features.T)


def _best_split(
    columns: np.ndarray,
    rows: np.ndarray,
    labels: np.ndarray,
    feature_indices: Sequence[int] | np.ndarray,
    min_samples_leaf: int,
) -> tuple[int, float] | None:
    """Find the (feature, threshold) pair minimising weighted Gini impurity.

    ``labels`` are the labels of ``rows``.  Only the cut positions that
    leave ``min_samples_leaf`` rows on both sides are scored: cutting after
    sorted position ``p`` puts ``p + 1`` rows left, so ``p`` runs over
    ``[min_samples_leaf - 1, n - min_samples_leaf)``.  Returns ``None`` when
    no valid split exists (all candidate features are constant or the
    leaf-size constraint cannot be met).
    """
    n = labels.size
    leaf = max(min_samples_leaf, 1)
    lo, hi = leaf - 1, n - leaf
    left_counts = np.arange(lo + 1, hi + 1)
    right_counts = n - left_counts
    best_score = np.inf
    best: tuple[int, float] | None = None
    for feature in feature_indices:
        values = columns[feature][rows]
        order = values.argsort(kind="stable")
        sorted_values = values[order]
        valid = sorted_values[lo + 1 : hi + 1] > sorted_values[lo:hi]
        if not valid.any():
            continue
        positives_prefix = labels[order].cumsum()
        left_positives = positives_prefix[lo:hi]
        right_positives = positives_prefix[-1] - left_positives

        left_fraction = left_positives / left_counts
        right_fraction = right_positives / right_counts
        gini_left = 2.0 * left_fraction * (1.0 - left_fraction)
        gini_right = 2.0 * right_fraction * (1.0 - right_fraction)
        weighted = (left_counts * gini_left + right_counts * gini_right) / n
        weighted[~valid] = np.inf

        position = int(weighted.argmin())
        if weighted[position] < best_score:
            best_score = float(weighted[position])
            cut = lo + position
            threshold = float((sorted_values[cut] + sorted_values[cut + 1]) / 2.0)
            best = (int(feature), threshold)
    return best


class DecisionTreeClassifier(Classifier):
    """Binary CART classifier with Gini impurity.

    Args:
        max_depth: maximum tree depth (``None`` means unbounded).
        min_samples_split: minimum number of samples required to attempt a
            split.
        min_samples_leaf: minimum number of samples in each child.
        max_features: number of features examined at each split — an int, a
            float fraction, ``"sqrt"``, or ``None`` for all features.  Random
            forests use ``"sqrt"`` to decorrelate their trees.
        seed: RNG seed controlling the per-split feature subsets.
    """

    def __init__(
        self,
        max_depth: int | None = 12,
        min_samples_split: int = 4,
        min_samples_leaf: int = 2,
        max_features: int | float | str | None = None,
        seed: int | None = None,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed

    def _resolve_max_features(self, num_features: int) -> int:
        if self.max_features is None:
            return num_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(num_features)))
        if isinstance(self.max_features, float):
            return max(1, min(num_features, int(round(self.max_features * num_features))))
        return max(1, min(num_features, int(self.max_features)))

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "DecisionTreeClassifier":
        features = check_features(features)
        labels = check_labels(labels, features.shape[0])
        self._grow(np.ascontiguousarray(features.T), labels, np.arange(labels.size))
        return self

    def _grow(self, columns: np.ndarray, labels: np.ndarray, rows: np.ndarray) -> None:
        """Grow the tree on ``rows`` of validated ``columns`` and 0/1 ``labels``.

        ``rows`` may repeat ids (a bootstrap resample); the tree is the one
        :meth:`fit` grows on ``columns.T[rows]`` and ``labels[rows]``.
        """
        rng = np.random.default_rng(self.seed)
        num_features = columns.shape[0]
        features_per_split = self._resolve_max_features(num_features)
        all_features = range(num_features)
        max_depth = self.max_depth if self.max_depth is not None else np.inf
        min_rows = max(self.min_samples_split, 2 * self.min_samples_leaf)

        feature_ids = [-1]
        thresholds = [np.nan]
        lefts = [-1]
        rights = [-1]
        values = [0.0]
        # Depth-first growth over (node_id, row ids, depth) work items.
        stack: list[tuple[int, np.ndarray, int]] = [(0, rows, 0)]
        while stack:
            node_id, rows, depth = stack.pop()
            node_labels = labels[rows]
            size = rows.size
            # Labels are 0/1, so the sum is exact and this is np.mean's value.
            positives = float(node_labels.sum())
            values[node_id] = positives / size
            if (
                depth >= max_depth
                or size < min_rows
                or positives == 0.0
                or positives == size
            ):
                continue
            if features_per_split < num_features:
                candidate_features = rng.choice(
                    num_features, size=features_per_split, replace=False
                )
            else:
                candidate_features = all_features
            split = _best_split(
                columns, rows, node_labels, candidate_features, self.min_samples_leaf
            )
            if split is None:
                continue
            feature, threshold = split
            # Partition by the threshold itself, not the sorted prefix: the
            # midpoint can round onto the next value.
            goes_left = columns[feature][rows] <= threshold
            left_rows = rows[goes_left]
            right_rows = rows[~goes_left]
            if left_rows.size == 0 or right_rows.size == 0:
                continue
            left_id = len(values)
            feature_ids += (-1, -1)
            thresholds += (np.nan, np.nan)
            lefts += (-1, -1)
            rights += (-1, -1)
            values += (0.0, 0.0)
            feature_ids[node_id] = feature
            thresholds[node_id] = threshold
            lefts[node_id] = left_id
            rights[node_id] = left_id + 1
            stack.append((left_id, left_rows, depth + 1))
            stack.append((left_id + 1, right_rows, depth + 1))

        self.nodes_ = {
            "feature": np.asarray(feature_ids, dtype=np.int64),
            "threshold": np.asarray(thresholds, dtype=np.float64),
            "left": np.asarray(lefts, dtype=np.int64),
            "right": np.asarray(rights, dtype=np.int64),
            "value": np.asarray(values, dtype=np.float64),
        }
        self.num_features_ = num_features

    def predict_scores(self, features: np.ndarray) -> np.ndarray:
        self._require_fitted()
        columns = feature_columns(features, self.num_features_)
        scores = np.zeros(columns.shape[1], dtype=np.float64)
        self._route(columns, np.arange(scores.size), scores)
        return scores

    def _route(self, columns: np.ndarray, rows: np.ndarray, scores: np.ndarray) -> None:
        """Add the leaf value of each of ``rows`` into ``scores``, node by node."""
        nodes = self.nodes_
        feature = nodes["feature"].tolist()
        threshold = nodes["threshold"].tolist()
        left = nodes["left"].tolist()
        right = nodes["right"].tolist()
        value = nodes["value"].tolist()
        stack = [(0, rows)]
        while stack:
            node, rows = stack.pop()
            if not rows.size:
                continue
            if feature[node] < 0:
                scores[rows] += value[node]
                continue
            goes_left = columns[feature[node]][rows] <= threshold[node]
            # compress keeps the order of a boolean index and is faster on
            # large, mixed masks.
            stack.append((right[node], rows.compress(~goes_left)))
            stack.append((left[node], rows.compress(goes_left)))

    @property
    def node_count(self) -> int:
        """Number of nodes in the fitted tree."""
        self._require_fitted()
        return int(self.nodes_["value"].size)

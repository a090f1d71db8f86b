"""The tree and forest kernels are byte-identical to the reference CART.

``tests/reference_tree.py`` keeps the straightforward fit (per-tree
validation, copied feature rows, ``np.mean`` node values) and the
level-by-level routing.  Every node array and every score here must match
it bit for bit: the estimators' pinned fingerprints depend on both.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from reference_tree import (
    fit_forest_reference,
    fit_tree_reference,
    forest_scores_reference,
    route_reference,
)

from repro.learning.forest import RandomForestClassifier
from repro.learning.tree import DecisionTreeClassifier

NODE_KEYS = ("feature", "threshold", "left", "right", "value")
MAX_FEATURES = (None, "sqrt", 1, 2, 0.5, 0.3)
MAX_DEPTHS = (None, 1, 3, 8, 12)


def _data(seed: int, n: int, d: int, *, grid: str, constant: bool, labels: str):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, d))
    probe = rng.normal(size=(int(rng.integers(1, 300)), d))
    if grid != "none":
        # Coarse grid values: many ties.
        features, probe = np.round(features, 1), np.round(probe, 1)
    if grid == "ulp":
        # Every other row one ulp above its grid value: the midpoint of such
        # a pair rounds onto one of its ends, and onto the upper end the
        # threshold sends both to the left child.
        features[::2] = np.nextafter(features[::2], np.inf)
        probe[::2] = np.nextafter(probe[::2], np.inf)
    if constant:
        features[:, 0] = 1.0
    if labels == "zeros":
        y = np.zeros(n)
    elif labels == "ones":
        y = np.ones(n)
    else:
        y = (features[:, -1] + rng.normal(scale=0.5, size=n) > 0).astype(float)
    return features, y, probe


def _assert_nodes_equal(actual: dict, expected: dict) -> None:
    for key in NODE_KEYS:
        assert actual[key].dtype == expected[key].dtype, key
        assert actual[key].tobytes() == expected[key].tobytes(), key


def _assert_bytes_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


CASES = [
    pytest.param(
        seed, n, d, grid, constant, labels,
        id=f"n{n}-d{d}-{grid}-c{int(constant)}-{labels}",
    )
    for seed, (n, d, grid, constant, labels) in enumerate(
        [
            (2, 1, "none", False, "mixed"),
            (3, 2, "round", False, "mixed"),
            (7, 1, "ulp", True, "mixed"),
            (25, 3, "none", True, "zeros"),
            (40, 2, "round", False, "ones"),
            (75, 2, "none", False, "mixed"),
            (90, 1, "ulp", False, "mixed"),
            (120, 5, "round", True, "mixed"),
            (200, 4, "none", False, "mixed"),
            (300, 3, "ulp", False, "mixed"),
            (400, 2, "round", False, "mixed"),
            (400, 5, "none", True, "mixed"),
        ]
    )
]


@pytest.mark.parametrize("seed, n, d, grid, constant, labels", CASES)
def test_tree_matches_reference(seed, n, d, grid, constant, labels):
    features, y, probe = _data(seed, n, d, grid=grid, constant=constant, labels=labels)
    grid = itertools.product((1, 2, 5), MAX_DEPTHS, MAX_FEATURES)
    for min_samples_leaf, max_depth, max_features in grid:
        model = DecisionTreeClassifier(
            max_depth=max_depth,
            min_samples_split=2 + seed % 3,
            min_samples_leaf=min_samples_leaf,
            max_features=max_features,
            seed=seed,
        ).fit(features, y)
        expected = fit_tree_reference(model, features, y)
        _assert_nodes_equal(model.nodes_, expected)
        for rows in (features, probe):
            _assert_bytes_equal(model.predict_scores(rows), route_reference(expected, rows))


@pytest.mark.parametrize("seed, n, d, grid, constant, labels", CASES)
@pytest.mark.parametrize("bootstrap", [True, False])
def test_forest_matches_reference(seed, n, d, grid, constant, labels, bootstrap):
    features, y, probe = _data(seed, n, d, grid=grid, constant=constant, labels=labels)
    for min_samples_leaf, max_depth, max_features in zip(
        (1, 2, 3, 4, 5, 3), MAX_DEPTHS + (8,), MAX_FEATURES
    ):
        model = RandomForestClassifier(
            n_estimators=7,
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            max_features=max_features,
            bootstrap=bootstrap,
            seed=1000 + seed,
        ).fit(features, y)
        expected = fit_forest_reference(model, features, y)
        assert len(model.trees_) == len(expected)
        for tree, nodes in zip(model.trees_, expected):
            _assert_nodes_equal(tree.nodes_, nodes)
        for rows in (features, probe):
            _assert_bytes_equal(
                model.predict_scores(rows), forest_scores_reference(expected, rows)
            )


def test_default_forest_matches_reference_on_a_learning_sample():
    """The estimators' forest (40 trees, depth 8) on a 2-d learning sample."""
    rng = np.random.default_rng(7)
    points = rng.uniform(0.0, 10.0, size=(6000, 2))
    sample = rng.choice(points.shape[0], 150, replace=False)
    y = (np.hypot(*(points[sample] - 5.0).T) < 3.0).astype(float)
    model = RandomForestClassifier(
        n_estimators=40, max_depth=8, min_samples_leaf=3, seed=11
    ).fit(points[sample], y)
    expected = fit_forest_reference(model, points[sample], y)
    for tree, nodes in zip(model.trees_, expected):
        _assert_nodes_equal(tree.nodes_, nodes)
    _assert_bytes_equal(model.predict_scores(points), forest_scores_reference(expected, points))

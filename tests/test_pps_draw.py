"""The top-``size`` PPS draw is byte-identical to the full stable sort.

``pps_permutation`` orders only the draws it returns.  Every LWS estimate
(and so every pinned LWS fingerprint) depends on it returning exactly the
first ``size`` entries of ``np.argsort(keys, kind="stable")`` and consuming
exactly one ``exponential(size=n)`` call, which ``tests/reference_sampling.py``
does the straightforward way.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from reference_sampling import pps_permutation_reference

from repro.sampling.weighted import pps_permutation


class TiedGenerator(np.random.Generator):
    """A generator whose exponential draws repeat: values rounded to 0.1."""

    def exponential(self, scale=1.0, size=None):
        return np.round(super().exponential(scale, size), 1)


def _assert_same_draw(probabilities, size, make_rng) -> np.ndarray:
    kernel_rng, reference_rng = make_rng(), make_rng()
    drawn = pps_permutation(probabilities, size, seed=kernel_rng)
    expected = pps_permutation_reference(probabilities, size, seed=reference_rng)
    assert drawn.dtype == expected.dtype
    assert drawn.tobytes() == expected.tobytes()
    assert kernel_rng.bit_generator.state == reference_rng.bit_generator.state
    return drawn


def _probabilities(seed: int, n: int) -> np.ndarray:
    measures = np.random.default_rng(seed).uniform(0.001, 1.0, size=n)
    return measures / measures.sum()


@pytest.mark.parametrize("n", [1, 2, 7, 600, 11_800])
def test_boundary_sizes(n):
    probabilities = _probabilities(n, n)
    for size in sorted({0, 1, n - 1, n}):
        drawn = _assert_same_draw(probabilities, size, lambda: np.random.default_rng(n + size))
        assert drawn.size == size


@pytest.mark.parametrize("size", [0, 1, 5, 37, 199, 200])
def test_tied_keys_keep_index_order(size):
    # Coarse keys and equal probabilities: many candidates tie with the
    # size-th smallest key, and all of them must be ordered by index.
    probabilities = np.full(200, 1 / 200)
    probabilities[::3] = 2 / 200
    probabilities /= probabilities.sum()
    drawn = _assert_same_draw(probabilities, size, lambda: TiedGenerator(np.random.PCG64(size)))
    assert np.unique(drawn).size == size


def test_tied_generator_really_ties():
    keys = TiedGenerator(np.random.PCG64(0)).exponential(size=200)
    assert np.unique(keys).size < 100


@pytest.mark.parametrize("size", [0, 1, 3, 9, 10])
def test_keys_that_overflow_to_inf(size):
    # Subnormal probabilities turn their keys into inf; they tie with each
    # other and come last, in index order.
    probabilities = np.array([0.3, 1e-320, 0.2, 5e-324, 0.1, 1e-310, 0.4, 1e-315, 2e-320, 0.05])
    with np.errstate(over="ignore"):
        keys = np.random.default_rng(size).exponential(size=probabilities.size) / probabilities
        assert np.isinf(keys).sum() >= 3
        drawn = _assert_same_draw(probabilities, size, lambda: np.random.default_rng(size))
    assert drawn.size == size


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    measures=arrays(
        np.float64,
        st.integers(1, 300),
        elements=st.floats(1e-6, 1.0) | st.sampled_from([0.25, 0.5, 1.0]),
    ),
    fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_matches_reference_on_drawn_probabilities(measures, fraction, seed):
    probabilities = measures / measures.sum()
    size = int(round(fraction * probabilities.size))
    _assert_same_draw(probabilities, size, lambda: np.random.default_rng(seed))


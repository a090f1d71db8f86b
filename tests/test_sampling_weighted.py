"""Tests for repro.sampling.weighted (PPS sampling and the Des Raj estimator)."""

import numpy as np
import pytest

from repro.sampling.rng import spawn_seeds
from repro.sampling.weighted import (
    DesRajEstimator,
    WeightedSampling,
    normalise_size_measures,
    pps_sample_without_replacement,
)


def make_oracle(labels: np.ndarray):
    return lambda indices: labels[np.asarray(indices, dtype=int)]


class TestNormaliseSizeMeasures:
    def test_sums_to_one(self):
        probabilities = normalise_size_measures(np.array([0.0, 1.0, 3.0]), floor=0.1)
        assert probabilities.sum() == pytest.approx(1.0)

    def test_floor_keeps_zero_scores_sampleable(self):
        probabilities = normalise_size_measures(np.array([0.0, 1.0]), floor=0.05)
        assert probabilities[0] > 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalise_size_measures(np.array([-0.1, 0.5]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            normalise_size_measures(np.array([np.nan, 0.5]))

    def test_zero_floor_rejected(self):
        with pytest.raises(ValueError):
            normalise_size_measures(np.array([0.5]), floor=0.0)


class TestPPSSampling:
    def test_returns_distinct_indices(self):
        probabilities = normalise_size_measures(np.arange(1, 51, dtype=float))
        drawn = pps_sample_without_replacement(probabilities, 20, seed=0)
        assert np.unique(drawn).size == 20

    def test_high_probability_items_drawn_earlier_on_average(self):
        probabilities = normalise_size_measures(
            np.concatenate([np.full(50, 0.01), np.full(50, 1.0)])
        )
        first_half_hits = 0
        for child in spawn_seeds(3, 50):
            drawn = pps_sample_without_replacement(probabilities, 10, seed=child)
            first_half_hits += np.sum(drawn >= 50)
        # Heavy items should dominate the early draws.
        assert first_half_hits > 350

    def test_oversampling_rejected(self):
        with pytest.raises(ValueError):
            pps_sample_without_replacement(np.array([0.5, 0.5]), 3)

    def test_zero_probability_rejected(self):
        with pytest.raises(ValueError):
            pps_sample_without_replacement(np.array([0.0, 1.0]), 1)

    def test_negative_size_nan_probability_and_empty_input_rejected(self):
        for probabilities, size in (
            (np.array([0.5, 0.5]), -1),
            (np.array([np.nan, 1.0]), 1),
            (np.array([]), 0),
        ):
            with pytest.raises(ValueError):
                pps_sample_without_replacement(probabilities, size)


class TestDesRajEstimator:
    def test_perfect_classifier_gives_exact_estimate(self):
        # With probabilities exactly proportional to labels (plus epsilon on
        # negatives), every drawn positive contributes p, so the estimate is
        # exact after the first draw — the property noted in Section 4.1.
        labels = np.concatenate([np.ones(20), np.zeros(80)])
        probabilities = np.where(labels == 1, 1.0 / 20, 1e-12)
        probabilities = probabilities / probabilities.sum()
        estimator = DesRajEstimator(population_size=100)
        drawn_labels = np.ones(5)
        drawn_probabilities = np.full(5, probabilities[0])
        estimate = estimator.estimate(drawn_labels, drawn_probabilities)
        assert estimate.proportion == pytest.approx(0.2, rel=1e-6)
        assert estimate.variance == pytest.approx(0.0, abs=1e-12)

    def test_running_estimates_lengths(self):
        estimator = DesRajEstimator(population_size=50)
        running = estimator.running_estimates(np.array([1.0, 0.0, 1.0]), np.full(3, 0.02))
        assert [r.draws for r in running] == [1, 2, 3]

    def test_mismatched_inputs_rejected(self):
        estimator = DesRajEstimator(population_size=10)
        with pytest.raises(ValueError):
            estimator.estimate(np.ones(3), np.full(2, 0.1))

    def test_empty_rejected(self):
        estimator = DesRajEstimator(population_size=10)
        with pytest.raises(ValueError):
            estimator.estimate(np.array([]), np.array([]))

    def test_invalid_population_rejected(self):
        with pytest.raises(ValueError):
            DesRajEstimator(population_size=0)


class TestWeightedSampling:
    def test_unbiased_with_uninformative_scores(self):
        rng = np.random.default_rng(0)
        labels = (rng.uniform(size=300) < 0.3).astype(float)
        scores = rng.uniform(size=300)  # uninformative
        estimator = WeightedSampling()
        estimates = [
            estimator.estimate(np.arange(300), scores, make_oracle(labels), 60, seed=child).count
            for child in spawn_seeds(13, 200)
        ]
        assert np.mean(estimates) == pytest.approx(labels.sum(), rel=0.08)

    def test_low_variance_with_informative_scores(self):
        rng = np.random.default_rng(1)
        labels = (rng.uniform(size=300) < 0.2).astype(float)
        good_scores = labels * 0.98 + 0.01
        random_scores = rng.uniform(size=300)
        estimator = WeightedSampling()
        good = [
            estimator.estimate(np.arange(300), good_scores, make_oracle(labels), 40, seed=s).count
            for s in spawn_seeds(17, 60)
        ]
        bad = [
            estimator.estimate(
                np.arange(300), random_scores, make_oracle(labels), 40, seed=s
            ).count
            for s in spawn_seeds(19, 60)
        ]
        assert np.var(good) < np.var(bad)

    def test_counts_evaluations(self):
        labels = np.zeros(100)
        estimate = WeightedSampling().estimate(
            np.arange(100), np.full(100, 0.5), make_oracle(labels), 30, seed=0
        )
        assert estimate.predicate_evaluations == 30

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            WeightedSampling().estimate(
                np.arange(10), np.full(5, 0.5), make_oracle(np.zeros(10)), 5
            )

    def test_empty_objects_rejected(self):
        with pytest.raises(ValueError):
            WeightedSampling().estimate(np.array([]), np.array([]), make_oracle(np.zeros(1)), 1)

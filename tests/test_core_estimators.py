"""Tests for the learn-to-sample estimators (LWS, LSS) and the facade."""

import numpy as np
import pytest

from repro.core.estimate import CountEstimate
from repro.core.learning_phase import run_learning_phase
from repro.core.lss import LearnedStratifiedSampling
from repro.core.lws import LearnedWeightedSampling
import repro
from repro.parallel.methods import METHODS
from repro.learning.dummy import RandomScoreClassifier
from repro.sampling.rng import spawn_seeds


class TestCountEstimate:
    def test_relative_error(self):
        estimate = CountEstimate(110, 0.11, 1000, 50, "srs")
        assert estimate.relative_error(100) == pytest.approx(0.1)

    def test_relative_error_zero_truth(self):
        estimate = CountEstimate(5, 0.05, 100, 10, "srs")
        assert estimate.relative_error(0) == 5

    def test_count_interval_includes_offset(self):
        from repro.sampling.intervals import ConfidenceInterval

        estimate = CountEstimate(
            60,
            0.5,
            100,
            20,
            "lss",
            interval=ConfidenceInterval(0.4, 0.6, 0.95, "wald"),
            count_offset=10,
        )
        low, high = estimate.count_interval
        assert low == pytest.approx(50)
        assert high == pytest.approx(70)
        assert estimate.covers(60)
        assert not estimate.covers(80)

    def test_covers_none_without_interval(self):
        estimate = CountEstimate(60, 0.5, 100, 20, "qlcc")
        assert estimate.covers(60) is None
        assert estimate.count_interval is None


class TestLearningPhase:
    def test_budget_respected(self, threshold_query):
        threshold_query.reset_accounting()
        result = run_learning_phase(threshold_query, 40, seed=0)
        assert result.labelled_count == 40
        assert threshold_query.evaluations == 40
        assert result.remaining_indices.size == threshold_query.num_objects - 40

    def test_active_learning_stays_within_budget(self, threshold_query):
        threshold_query.reset_accounting()
        result = run_learning_phase(
            threshold_query, 60, active_learning_rounds=1, active_learning_fraction=0.25, seed=0
        )
        assert result.labelled_count == 60
        assert threshold_query.evaluations == 60

    def test_classifier_learns_threshold_predicate(self, threshold_query):
        result = run_learning_phase(threshold_query, 120, seed=1)
        scores = result.classifier.predict_scores(threshold_query.features())
        labels = threshold_query.ground_truth_labels()
        from repro.learning.metrics import roc_auc

        assert roc_auc(labels, scores) > 0.85

    def test_invalid_budget(self, threshold_query):
        with pytest.raises(ValueError):
            run_learning_phase(threshold_query, 0)


class TestLearnedWeightedSampling:
    def test_estimate_fields(self, threshold_query):
        threshold_query.reset_accounting()
        estimate = LearnedWeightedSampling().estimate(threshold_query, 80, seed=0)
        assert estimate.method == "lws"
        assert estimate.predicate_evaluations == 80
        assert estimate.interval is not None
        assert estimate.count >= 0

    def test_roughly_unbiased(self, threshold_query):
        estimator = LearnedWeightedSampling()
        estimates = [
            estimator.estimate(threshold_query, 80, seed=s).count for s in spawn_seeds(3, 40)
        ]
        true = threshold_query.true_count()
        assert np.mean(estimates) == pytest.approx(true, rel=0.12)

    def test_better_than_random_scores(self, threshold_query):
        good = LearnedWeightedSampling()
        bad = LearnedWeightedSampling(classifier=RandomScoreClassifier(seed=0))
        good_counts = [
            good.estimate(threshold_query, 80, seed=s).count for s in spawn_seeds(5, 30)
        ]
        bad_counts = [bad.estimate(threshold_query, 80, seed=s).count for s in spawn_seeds(6, 30)]
        true = threshold_query.true_count()
        assert np.median(np.abs(np.array(good_counts) - true)) <= np.median(
            np.abs(np.array(bad_counts) - true)
        ) + 0.02 * true

    def test_minimum_budget_enforced(self, threshold_query):
        with pytest.raises(ValueError):
            LearnedWeightedSampling().estimate(threshold_query, 2)

    def test_invalid_learning_fraction(self):
        with pytest.raises(ValueError):
            LearnedWeightedSampling(learning_fraction=1.0)


class TestLearnedStratifiedSampling:
    def test_estimate_fields_and_details(self, threshold_query):
        threshold_query.reset_accounting()
        estimate = LearnedStratifiedSampling().estimate(threshold_query, 100, seed=0)
        assert estimate.method == "lss"
        assert estimate.predicate_evaluations <= 102
        assert estimate.interval is not None
        assert estimate.details["design"].num_strata <= 4

    def test_roughly_unbiased(self, threshold_query):
        estimator = LearnedStratifiedSampling()
        estimates = [
            estimator.estimate(threshold_query, 100, seed=s).count for s in spawn_seeds(9, 40)
        ]
        assert np.mean(estimates) == pytest.approx(threshold_query.true_count(), rel=0.12)

    def test_random_classifier_still_valid(self, threshold_query):
        estimator = LearnedStratifiedSampling(classifier=RandomScoreClassifier(seed=3))
        estimates = [
            estimator.estimate(threshold_query, 100, seed=s).count for s in spawn_seeds(13, 40)
        ]
        assert np.mean(estimates) == pytest.approx(threshold_query.true_count(), rel=0.15)

    def test_proportional_allocation_variant(self, threshold_query):
        estimator = LearnedStratifiedSampling(allocation="proportional", optimizer="dynpgm_prop")
        estimate = estimator.estimate(threshold_query, 100, seed=2)
        assert estimate.count >= 0

    def test_fixed_layout_variants(self, threshold_query):
        for optimizer in ("fixed_width", "fixed_height"):
            estimator = LearnedStratifiedSampling(optimizer=optimizer)
            estimate = estimator.estimate(threshold_query, 100, seed=4)
            assert estimate.count >= 0

    def test_dirsol_requires_three_strata(self):
        with pytest.raises(ValueError):
            LearnedStratifiedSampling(optimizer="dirsol", num_strata=4)

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(ValueError):
            LearnedStratifiedSampling(optimizer="magic")

    def test_minimum_budget_enforced(self, threshold_query):
        with pytest.raises(ValueError):
            LearnedStratifiedSampling().estimate(threshold_query, 4)

    def test_small_budget_falls_back_gracefully(self, threshold_query):
        estimate = LearnedStratifiedSampling(num_strata=4).estimate(threshold_query, 20, seed=5)
        assert 0 <= estimate.count <= threshold_query.num_objects


class TestPipelineFacade:
    @pytest.fixture(scope="class")
    def facade(self):
        with repro.session() as facade:
            yield facade

    @pytest.mark.parametrize("method", METHODS)
    def test_every_method_runs(self, facade, threshold_query, method):
        threshold_query.reset_accounting()
        result = facade.estimate_query(threshold_query, budget=60, method=method, seed=0)
        assert result.method == method
        assert result.true_count == threshold_query.true_count()
        assert result.estimate.count >= 0
        assert result.budget == 60

    def test_relative_error_property(self, facade, threshold_query):
        result = facade.estimate_query(threshold_query, budget=80, method="srs", seed=1)
        assert result.relative_error == pytest.approx(
            abs(result.error) / result.true_count
        )

    def test_unknown_method_rejected(self, facade, threshold_query):
        with pytest.raises(ValueError):
            facade.estimate_query(threshold_query, 50, method="bogus")

    def test_invalid_budget_rejected(self, facade, threshold_query):
        with pytest.raises(ValueError):
            facade.estimate_query(threshold_query, 0, method="srs")

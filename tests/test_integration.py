"""End-to-end integration tests across the full stack.

These exercise the same paths as the paper's evaluation, at a miniature
scale: build a workload from a synthetic dataset, estimate it with every
method, and check the statistical shape of the results (unbiasedness, tighter
learn-to-sample spreads on learnable predicates, evaluation-budget
accounting).
"""

import numpy as np
import pytest

import repro
from repro.core.lss import LearnedStratifiedSampling
from repro.core.lws import LearnedWeightedSampling
from repro.sampling.rng import spawn_seeds
from repro.sampling.srs import SimpleRandomSampling
from repro.workloads.queries import build_neighbors_workload, build_sports_workload


@pytest.fixture(scope="module")
def sports_workload():
    return build_sports_workload(level="S", num_rows=3000, seed=7)


@pytest.fixture(scope="module")
def neighbors_workload():
    return build_neighbors_workload(level="S", num_rows=3000, seed=11)


@pytest.fixture(scope="module")
def facade():
    # One lazily-constructed session per module: estimate_query dispatches
    # caller-owned queries without making anything resident.
    with repro.session() as facade:
        yield facade


class TestEndToEndEstimation:
    @pytest.mark.parametrize("method", ["srs", "ssp", "ssn", "lws", "lss", "qlcc", "qlac"])
    def test_every_method_is_reasonable_on_sports(self, facade, sports_workload, method):
        budget = sports_workload.sample_size(0.05)
        result = facade.estimate_query(sports_workload.query, budget, method=method, seed=5)
        assert 0 <= result.estimate.count <= sports_workload.num_objects
        # A 5% sample on an easy workload should land within 75% of truth.
        assert result.relative_error < 0.75

    def test_budget_accounting_across_methods(self, facade, neighbors_workload):
        budget = neighbors_workload.sample_size(0.04)
        for method in ["srs", "ssp", "lws", "lss"]:
            neighbors_workload.query.reset_accounting()
            facade.estimate_query(neighbors_workload.query, budget, method=method, seed=2)
            assert neighbors_workload.query.evaluations <= budget + 10

    def test_lss_interval_covers_truth_most_of_the_time(self, sports_workload):
        budget = sports_workload.sample_size(0.05)
        estimator = LearnedStratifiedSampling()
        covered = []
        for seed in spawn_seeds(17, 12):
            estimate = estimator.estimate(sports_workload.query, budget, seed=seed)
            covered.append(estimate.covers(sports_workload.true_count))
        assert np.mean(covered) >= 0.6

    def test_learned_methods_beat_srs_on_learnable_workload(self, sports_workload):
        budget = sports_workload.sample_size(0.04)
        true = sports_workload.true_count
        seeds = spawn_seeds(23, 15)
        srs_errors, lss_errors, lws_errors = [], [], []
        for seed in seeds:
            srs = SimpleRandomSampling().estimate(
                sports_workload.query.object_indices(),
                sports_workload.query.evaluate,
                budget,
                seed=seed,
            )
            lss = LearnedStratifiedSampling().estimate(sports_workload.query, budget, seed=seed)
            lws = LearnedWeightedSampling().estimate(sports_workload.query, budget, seed=seed)
            srs_errors.append(abs(srs.count - true))
            lss_errors.append(abs(lss.count - true))
            lws_errors.append(abs(lws.count - true))
        # The paper's headline shape: learn-to-sample spreads are tighter
        # than simple random sampling on a learnable predicate.
        assert np.median(lss_errors) < np.median(srs_errors) * 1.1
        assert np.median(lws_errors) < np.median(srs_errors) * 1.1

    def test_estimators_unbiased_on_neighbors(self, neighbors_workload):
        budget = neighbors_workload.sample_size(0.05)
        true = neighbors_workload.true_count
        estimator = LearnedStratifiedSampling()
        counts = [
            estimator.estimate(neighbors_workload.query, budget, seed=seed).count
            for seed in spawn_seeds(31, 15)
        ]
        assert np.mean(counts) == pytest.approx(true, rel=0.25)

    def test_active_learning_variant_end_to_end(self, sports_workload):
        budget = sports_workload.sample_size(0.05)
        estimator = LearnedStratifiedSampling(active_learning_rounds=1)
        estimate = estimator.estimate(sports_workload.query, budget, seed=3)
        assert 0 <= estimate.count <= sports_workload.num_objects

    def test_uncached_predicate_path(self):
        workload = build_sports_workload(level="S", num_rows=800, seed=7, cache_labels=False)
        budget = workload.sample_size(0.1)
        estimate = LearnedStratifiedSampling().estimate(workload.query, budget, seed=1)
        assert 0 <= estimate.count <= workload.num_objects
        assert workload.query.evaluations == estimate.predicate_evaluations > 0

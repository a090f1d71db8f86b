"""Tests for repro.workloads (workload construction, trial runner, metrics)."""

import numpy as np
import pytest

from repro.core.estimate import CountEstimate
from repro.parallel.methods import MethodSpec
from repro.workloads.metrics import summarize_estimates
from repro.workloads.queries import (
    build_neighbors_workload,
    build_sports_workload,
    build_workload,
)
from repro.workloads.runner import TrialRunner


@pytest.fixture(scope="module")
def tiny_sports():
    return build_sports_workload(level="S", num_rows=1500, seed=7)


@pytest.fixture(scope="module")
def tiny_neighbors():
    return build_neighbors_workload(level="S", num_rows=1500, seed=11)


class TestWorkloadConstruction:
    def test_sports_workload_fields(self, tiny_sports):
        assert tiny_sports.name == "sports"
        assert tiny_sports.num_objects == 1500
        assert 0 < tiny_sports.true_count < 1500
        assert tiny_sports.calibration.parameter >= 1

    def test_neighbors_workload_fields(self, tiny_neighbors):
        assert tiny_neighbors.name == "neighbors"
        assert 0 < tiny_neighbors.true_count < 1500

    def test_selectivity_close_to_target(self, tiny_sports, tiny_neighbors):
        for workload in (tiny_sports, tiny_neighbors):
            fraction = workload.true_count / workload.num_objects
            assert abs(fraction - 0.10) < 0.06

    def test_sample_size_helper(self, tiny_sports):
        assert tiny_sports.sample_size(0.01) == 15
        assert tiny_sports.sample_size(1.0) == 1500
        with pytest.raises(ValueError):
            tiny_sports.sample_size(0.0)

    def test_build_workload_dispatch(self):
        sports = build_workload("sports", level="S", num_rows=800)
        neighbors = build_workload("neighbors", level="S", num_rows=800)
        assert sports.name == "sports"
        assert neighbors.name == "neighbors"
        with pytest.raises(ValueError):
            build_workload("imdb")

    def test_higher_levels_have_larger_counts(self):
        small = build_sports_workload(level="S", num_rows=1200, seed=7)
        large = build_sports_workload(level="L", num_rows=1200, seed=7)
        assert large.true_count > small.true_count


class TestSummarizeEstimates:
    def make_estimates(self, counts):
        return [
            CountEstimate(
                count=c,
                proportion=c / 100,
                population_size=100,
                predicate_evaluations=10,
                method="x",
            )
            for c in counts
        ]

    def test_basic_statistics(self):
        distribution = summarize_estimates("x", self.make_estimates([10, 20, 30, 40, 50]), 30)
        assert distribution.median == 30
        assert distribution.q1 == 20
        assert distribution.q3 == 40
        assert distribution.iqr == 20
        assert distribution.relative_iqr == pytest.approx(20 / 30)
        assert distribution.outlier_count == 0

    def test_outlier_detected(self):
        distribution = summarize_estimates(
            "x", self.make_estimates([10, 11, 12, 13, 14, 15, 100]), 12
        )
        assert distribution.outlier_count >= 1

    def test_coverage_nan_without_intervals(self):
        distribution = summarize_estimates("x", self.make_estimates([10, 20]), 15)
        assert np.isnan(distribution.coverage)

    def test_as_row_is_flat(self):
        row = summarize_estimates("x", self.make_estimates([10, 20]), 15).as_row()
        assert row["method"] == "x"
        assert "iqr" in row and "median" in row

    def test_empty_estimates_rejected(self):
        with pytest.raises(ValueError):
            summarize_estimates("x", [], 10)


class TestTrialRunner:
    def test_runs_requested_trials(self, tiny_sports):
        runner = TrialRunner(workload=tiny_sports, num_trials=5, seed=0)
        distribution = runner.run("srs", MethodSpec("srs"), 50)
        assert distribution.counts.size == 5
        assert runner.distribution("srs").median == distribution.median

    def test_trials_are_reproducible(self, tiny_sports):
        first = TrialRunner(workload=tiny_sports, num_trials=4, seed=3).run(
            "srs", MethodSpec("srs"), 50
        )
        second = TrialRunner(workload=tiny_sports, num_trials=4, seed=3).run(
            "srs", MethodSpec("srs"), 50
        )
        assert np.array_equal(first.counts, second.counts)

    def test_unknown_method_distribution_rejected(self, tiny_sports):
        runner = TrialRunner(workload=tiny_sports, num_trials=2, seed=0)
        with pytest.raises(KeyError):
            runner.distribution("nope")

    def test_invalid_trial_count(self, tiny_sports):
        runner = TrialRunner(workload=tiny_sports, num_trials=0, seed=0)
        with pytest.raises(ValueError):
            runner.run("srs", MethodSpec("srs"), 50)

"""Edge-case tests for the LSS pilot/second-stage budget clamps.

Historically the clamp order could leave ``second_stage_samples <= 0`` at
tiny budgets (the ``max(pilot_size, 2)`` floor was applied *after* the
stage-II reservation), silently starving the second stage.  The normalised
clamps guarantee a positive second stage whenever one is affordable and
degrade to a deterministic pilot-only SRS estimate when it is not.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.lss as lss_module
from repro import obs
from repro.core.lss import LearnedStratifiedSampling
from repro.parallel.fingerprint import estimate_fingerprint
from repro.workloads.queries import build_workload


@pytest.fixture(scope="module")
def workload():
    return build_workload("sports", level="S", num_rows=400)


class TestTinyBudgets:
    @pytest.mark.parametrize("budget", range(8, 24))
    @pytest.mark.parametrize("num_strata", [2, 4, 8, 16])
    def test_every_tiny_budget_yields_an_estimate(self, workload, budget, num_strata):
        estimator = LearnedStratifiedSampling(num_strata=num_strata)
        estimate = estimator.estimate(workload.query, budget, seed=np.random.default_rng(5))
        assert np.isfinite(estimate.count)
        assert 0.0 <= estimate.count <= workload.num_objects
        assert estimate.predicate_evaluations <= budget

    @pytest.mark.parametrize("num_strata", [8, 16])
    def test_infeasible_design_degrades_to_pilot_only(self, workload, num_strata):
        # sampling budget (~6 after the learning split) cannot cover a
        # 2-object pilot plus one fresh sample per stratum.
        estimator = LearnedStratifiedSampling(num_strata=num_strata)
        estimate = estimator.estimate(workload.query, 8, seed=np.random.default_rng(9))
        assert estimate.details["degenerate"] == "pilot-only"
        assert estimate.interval is not None
        assert estimate.method == "lss"

    def test_feasible_design_still_uses_two_stages(self, workload):
        estimator = LearnedStratifiedSampling(num_strata=4)
        estimate = estimator.estimate(workload.query, 60, seed=np.random.default_rng(2))
        assert "degenerate" not in estimate.details
        assert estimate.details["pilot_size"] >= 2
        # The reservation holds: pilot left at least one fresh sample per
        # stratum for stage II.
        assert estimate.details["pilot_size"] <= 60 - estimate.details["num_strata"]

    def test_pilot_only_is_deterministic(self, workload):
        estimator = LearnedStratifiedSampling(num_strata=16)
        first = estimator.estimate(workload.query, 9, seed=np.random.default_rng(31))
        second = estimator.estimate(workload.query, 9, seed=np.random.default_rng(31))
        assert first.count == second.count
        assert first.interval == second.interval

    def test_budget_floor_still_enforced(self, workload):
        with pytest.raises(ValueError, match="at least 8"):
            LearnedStratifiedSampling().estimate(workload.query, 7, seed=0)

    def test_pilot_only_accounting_stays_within_budget(self, workload):
        estimator = LearnedStratifiedSampling(num_strata=12)
        with workload.query.fresh_accounting():
            estimate = estimator.estimate(workload.query, 10, seed=np.random.default_rng(4))
            assert workload.query.evaluations == estimate.predicate_evaluations
            assert workload.query.evaluations <= 10


class TestDesignFallback:
    """Only an infeasible design falls back to fixed-height, and visibly."""

    def test_tiny_pilot_takes_the_recorded_fallback(self, workload):
        # A pilot of 4 objects cannot give even one stratum the 5 pilot
        # objects (m_⊔) DynPgm requires.
        estimator = LearnedStratifiedSampling(num_strata=4)
        estimate = estimator.estimate(workload.query, 10, seed=np.random.default_rng(5))
        assert estimate.details["pilot_size"] < estimator.min_pilot_per_stratum
        assert estimate.details["design_fallback"] == "fixed_height"
        assert estimate.details["design"].algorithm == "fixed-height"
        assert np.isfinite(estimate.count)

    @pytest.mark.parametrize("optimizer", ["dynpgm", "fixed_height"])
    def test_no_fallback_recorded_otherwise(self, workload, optimizer):
        estimator = LearnedStratifiedSampling(num_strata=4, optimizer=optimizer)
        estimate = estimator.estimate(workload.query, 60, seed=np.random.default_rng(2))
        assert "design_fallback" not in estimate.details
        assert estimate.details["design"].algorithm == optimizer.replace("_", "-")

    def test_other_value_errors_propagate(self, workload, monkeypatch):
        # A kernel bug must surface, not turn into a quiet change of design.
        def broken_optimizer(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(lss_module, "dynpgm_design", broken_optimizer)
        estimator = LearnedStratifiedSampling(num_strata=4)
        with pytest.raises(ValueError, match="broadcast"):
            estimator.estimate(workload.query, 60, seed=np.random.default_rng(2))


def _fallbacks(kind: str) -> float:
    return obs.registry().counter_value(obs.ESTIMATOR_FALLBACKS, method="lss", kind=kind)


@pytest.fixture(scope="module")
def neighbors_workload():
    return build_workload("neighbors", level="S", num_rows=3_000)


class TestFallbackCounter:
    """Each LSS fallback is counted once, and counting changes no estimate."""

    @staticmethod
    def _estimate_counted(estimator, query, budget, seed):
        """Run one estimate with obs on; return it and the fallback-counter rises."""
        before = {kind: _fallbacks(kind) for kind in ("fixed_height", "pilot_only")}
        was_enabled = obs.set_enabled(True)
        try:
            estimate = estimator.estimate(query, budget, seed=seed)
        finally:
            obs.set_enabled(was_enabled)
        rises = {kind: _fallbacks(kind) - before[kind] for kind in before}
        return estimate, rises

    @staticmethod
    def _assert_obs_invisible(estimate, estimator, query, budget, seed):
        was_enabled = obs.set_enabled(False)
        try:
            unobserved = estimator.estimate(query, budget, seed=seed)
        finally:
            obs.set_enabled(was_enabled)
        assert estimate_fingerprint(unobserved) == estimate_fingerprint(estimate)

    @pytest.mark.parametrize(
        "num_strata, budget, seed, kind",
        [(4, 10, 5, "fixed_height"), (16, 9, 31, "pilot_only"), (4, 60, 2, None)],
        ids=["fixed_height", "pilot_only", "none"],
    )
    def test_fallback_counted_once(self, workload, num_strata, budget, seed, kind):
        estimator = LearnedStratifiedSampling(num_strata=num_strata)
        estimate, rises = self._estimate_counted(estimator, workload.query, budget, seed)
        expected = {"fixed_height": 0.0, "pilot_only": 0.0}
        if kind is not None:
            expected[kind] = 1.0
        assert rises == expected
        if kind == "fixed_height":
            assert estimate.details["design_fallback"] == "fixed_height"
        elif kind == "pilot_only":
            assert estimate.details["degenerate"] == "pilot-only"
            assert estimate.details["design_fallback"] == "pilot_only"
        self._assert_obs_invisible(estimate, estimator, workload.query, budget, seed)

    @pytest.mark.parametrize(
        "budget, pilot_size, algorithm", [(120, 27, "logbdr"), (300, 68, "fixed-height")]
    )
    def test_logbdr_design_cap(self, neighbors_workload, budget, pilot_size, algorithm):
        # LogBdr refuses to evaluate more than 500,000 designs; at H = 4 a
        # pilot of 68 already exceeds that, and LSS falls back, counted.
        estimator = LearnedStratifiedSampling(optimizer="logbdr")
        query = neighbors_workload.query
        estimate, rises = self._estimate_counted(estimator, query, budget, 3)
        assert estimate.details["pilot_size"] == pilot_size
        assert estimate.details["design"].algorithm == algorithm
        fell_back = algorithm == "fixed-height"
        assert rises == {"fixed_height": float(fell_back), "pilot_only": 0.0}
        assert estimate.details.get("design_fallback") == ("fixed_height" if fell_back else None)
        if fell_back:  # the LogBdr enumeration itself takes seconds; run it once
            self._assert_obs_invisible(estimate, estimator, query, budget, 3)

"""Tests for the ``repro.obs`` observability subsystem.

The load-bearing guarantee: enabling observability never changes a byte of
any estimate.  Spans and metrics only read ``time.perf_counter()`` and plain
accounting integers — never an RNG stream — so the fingerprint grid below
(method × dispatch) must be hex-identical with obs on and off.  The rest of
the file pins the registry semantics (labels, merge, percentiles), the
Prometheus exposition (golden text + live ``GET /metrics``), the disabled
fast path, and the LSS design cache's byte-safety.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro.core.stratification.dynpgm as dynpgm_module
from repro import obs
from repro.core.scores import LearnedScoresSpec
from repro.core.stratification.design import PilotSample, candidate_boundary_cuts
from repro.core.stratification.dynpgm import _auxiliary_sum_grid, dynpgm_design
from repro.obs.export import (
    group_stage_totals,
    prometheus_text,
    stage_totals,
    to_json_dict,
)
from repro.obs.metrics import MetricsRegistry
from repro.parallel import MethodSpec, clear_workload_cache, estimates_fingerprint
from repro.service.server import ServerThread, request_json, request_text
from repro.service.sweep import (
    DesignCache,
    ScoredMethodSpec,
    default_design_cache,
    default_scores_cache,
)
from repro.workloads.queries import WorkloadSpec, build_workload
from repro.workloads.runner import TrialRunner

MASTER_SEED = 917
NUM_TRIALS = 3


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Every test starts disabled with empty global state, and restores it."""
    previous = obs.set_enabled(False)
    obs.reset()
    yield
    obs.set_enabled(previous)
    obs.reset()


@pytest.fixture(scope="module")
def workload():
    return build_workload("neighbors", level="S", num_rows=600)


def _fingerprint(workload, method_spec, workers: int, budget: int) -> str:
    clear_workload_cache()
    runner = TrialRunner(
        workload=workload.spec.build(),
        num_trials=NUM_TRIALS,
        seed=MASTER_SEED,
        workers=workers,
    )
    runner.run(method_spec.method, method_spec, budget)
    return estimates_fingerprint(runner.estimates[method_spec.method])


class TestByteIdentity:
    """Obs on vs off: estimates must be hex-identical, serial and warm."""

    @pytest.mark.parametrize("method", ["srs", "ssp", "lws", "lss"])
    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "warm"])
    def test_fingerprints_unchanged(self, workload, method, workers):
        budget = workload.sample_size(0.05)
        spec = MethodSpec(method)
        baseline = _fingerprint(workload, spec, workers, budget)
        obs.set_enabled(True)
        obs.reset()
        try:
            instrumented = _fingerprint(workload, spec, workers, budget)
        finally:
            obs.set_enabled(False)
        assert instrumented == baseline

    def test_instrumented_run_populates_registry(self, workload):
        budget = workload.sample_size(0.05)
        obs.set_enabled(True)
        obs.reset()
        try:
            _fingerprint(workload, MethodSpec("lss"), 1, budget)
            registry = obs.registry()
            assert registry.counter_value(obs.TRIALS_TOTAL, method="lss") == NUM_TRIALS
            totals = stage_totals(registry)
        finally:
            obs.set_enabled(False)
        # Every LSS stage shows up, and learning/design/sampling are
        # non-overlapping regions so the grouped shares sum to ~1.
        for stage in ("lss.learning", "lss.scoring", "lss.pilot", "lss.design", "lss.stage2"):
            assert stage in totals, f"missing stage {stage}"
        grouped = group_stage_totals(totals)
        assert grouped["total_seconds"] > 0
        assert abs(sum(grouped["shares"].values()) - 1.0) < 0.01

    def test_warm_workers_ship_metrics_back(self, workload):
        budget = workload.sample_size(0.05)
        obs.set_enabled(True)
        obs.reset()
        try:
            _fingerprint(workload, MethodSpec("srs"), 2, budget)
            registry = obs.registry()
            # Trials executed in worker processes, merged into the parent.
            assert registry.counter_total(obs.TRIALS_TOTAL) == NUM_TRIALS
            assert registry.counter_total(obs.POOL_CHUNKS) >= 1
            dispatch = registry.histogram_summary(obs.POOL_DISPATCH_SECONDS)
            assert dispatch["count"] >= 1
        finally:
            obs.set_enabled(False)

    def test_oracle_calls_attributed_to_stages(self, workload):
        budget = workload.sample_size(0.05)
        obs.set_enabled(True)
        obs.reset()
        try:
            _fingerprint(workload, MethodSpec("lss"), 1, budget)
            registry = obs.registry()

            def per_stage(metric):
                return {
                    dict(labels).get("stage"): value
                    for (name, labels), value in registry.iter_counters()
                    if name == metric
                }

            calls = per_stage(obs.ORACLE_CALLS)
            seconds = per_stage(obs.ORACLE_SECONDS)
        finally:
            obs.set_enabled(False)
        assert calls, "no oracle calls recorded"
        # Attribution is to the innermost span: labelling happens inside
        # learning.label; pilot/stage-II draws spend the rest of the budget.
        assert "learning.label" in calls
        assert "lss.pilot" in calls
        assert "lss.stage2" in calls
        # The batch seconds are charged at the same choke point, so they
        # carry exactly the same stage labels.
        assert set(seconds) == set(calls)
        assert all(value >= 0.0 for value in seconds.values())


class TestDynPgmMetrics:
    """Each DynPgm design records its candidate count C and its DPs solved."""

    @staticmethod
    def _pilot() -> PilotSample:
        rng = np.random.default_rng(23)
        positions = np.sort(rng.choice(3_000, size=60, replace=False))
        labels = (rng.uniform(size=60) < np.linspace(0.05, 0.9, 60)).astype(float)
        return PilotSample(positions, labels, 3_000)

    def test_design_records_candidates_and_dps(self):
        pilot = self._pilot()
        obs.set_enabled(True)
        try:
            design = dynpgm_design(pilot, 4, 80)
            registry = obs.registry()
            candidates = registry.histogram_summary(obs.DYNPGM_CANDIDATES)
            dps = registry.histogram_summary(obs.DYNPGM_DPS_SOLVED)
        finally:
            obs.set_enabled(False)
        assert design.num_strata == 4
        assert candidates["count"] == 1
        assert candidates["sum"] == candidate_boundary_cuts(pilot).size
        # At least one DP, and at most one per guess of the auxiliary-sum grid.
        assert dps["count"] == 1
        assert 1 <= dps["sum"] <= _auxiliary_sum_grid(3_000, 4, 1.0).size

    def test_dps_solved_do_not_depend_on_the_design_threads(self, monkeypatch):
        pilot = self._pilot()
        solved = []
        obs.set_enabled(True)
        try:
            for width in (1, 2):
                monkeypatch.setattr(dynpgm_module, "_usable_cores", lambda width=width: width)
                obs.reset()
                dynpgm_design(pilot, 4, 80)
                solved.append(obs.registry().histogram_summary(obs.DYNPGM_DPS_SOLVED)["sum"])
        finally:
            obs.set_enabled(False)
        assert solved[0] == solved[1] >= 1

    def test_design_is_byte_identical_with_obs_on_and_off(self):
        pilot = self._pilot()
        off = dynpgm_design(pilot, 4, 80)
        assert obs.registry().as_dict()["histograms"] == {}
        obs.set_enabled(True)
        try:
            on = dynpgm_design(pilot, 4, 80)
        finally:
            obs.set_enabled(False)
        assert on.cuts.tobytes() == off.cuts.tobytes()
        assert np.float64(on.objective_value).tobytes() == np.float64(off.objective_value).tobytes()

    def test_lss_trials_record_one_design_each(self, workload):
        budget = workload.sample_size(0.05)
        obs.set_enabled(True)
        obs.reset()
        try:
            _fingerprint(workload, MethodSpec("lss"), 1, budget)
            summary = obs.registry().histogram_summary(obs.DYNPGM_CANDIDATES)
        finally:
            obs.set_enabled(False)
        assert summary["count"] == NUM_TRIALS


class TestDisabledFastPath:
    def test_disabled_span_is_a_shared_noop(self):
        assert obs.span("a") is obs.span("b")
        assert obs.stage("c", attr=1) is obs.span("d")

    def test_disabled_run_leaves_global_state_untouched(self, workload):
        budget = workload.sample_size(0.05)
        _fingerprint(workload, MethodSpec("lss"), 1, budget)
        assert obs.registry().as_dict() == {"counters": {}, "gauges": {}, "histograms": {}}
        assert obs.recent_traces() == []

    def test_disabled_span_overhead_is_bounded(self):
        span = obs.span  # attribute lookups outside the loop, as call sites do
        started = time.perf_counter()
        for _ in range(100_000):
            with span("noop"):
                pass
        elapsed = time.perf_counter() - started
        # ~one attribute check per call; generous bound for slow CI machines.
        assert elapsed < 2.0

    def test_set_enabled_returns_previous(self):
        assert obs.set_enabled(True) is False
        assert obs.set_enabled(False) is True
        assert obs.enabled() is False


class TestTracing:
    def test_spans_nest_and_stages_feed_the_histogram(self):
        obs.set_enabled(True)
        with obs.span("outer", kind="test"):
            assert obs.current_span_name() == "outer"
            with obs.stage("inner.stage"):
                assert obs.current_span_name() == "inner.stage"
        roots = obs.recent_traces()
        assert [root.name for root in roots] == ["outer"]
        root = roots[0]
        assert root.attributes == {"kind": "test"}
        assert [child.name for child in root.children] == ["inner.stage"]
        assert root.duration_seconds >= root.children[0].duration_seconds >= 0.0
        summary = obs.registry().histogram_summary(obs.STAGE_SECONDS, stage="inner.stage")
        assert summary["count"] == 1

    def test_trace_buffer_is_bounded(self):
        obs.set_enabled(True)
        for index in range(300):
            with obs.span("root", index=index):
                pass
        assert len(obs.recent_traces()) == 256

    def test_json_export_shape(self):
        obs.set_enabled(True)
        with obs.span("request"):
            with obs.stage("work"):
                pass
        document = to_json_dict(obs.registry())
        assert set(document) == {"traces", "metrics"}
        (root,) = document["traces"]
        assert root["name"] == "request"
        assert root["children"][0]["name"] == "work"
        assert 'repro_stage_seconds{stage="work"}' in document["metrics"]["histograms"]


class TestRegistry:
    def test_counters_and_labels(self):
        registry = MetricsRegistry()
        registry.inc("hits", route="/a")
        registry.inc("hits", 2, route="/a")
        registry.inc("hits", route="/b")
        assert registry.counter_value("hits", route="/a") == 3
        assert registry.counter_total("hits") == 4
        registry.set_counter("hits", 10, route="/a")
        assert registry.counter_value("hits", route="/a") == 10

    def test_histogram_percentiles(self):
        registry = MetricsRegistry()
        for value in (0.002, 0.002, 0.002, 0.002, 0.002, 0.002, 0.002, 0.002, 0.002, 0.09):
            registry.observe("latency", value)
        summary = registry.histogram_summary("latency")
        assert summary["count"] == 10
        assert summary["sum"] == pytest.approx(0.108)
        assert 0.001 <= summary["p50"] <= 0.0025
        assert 0.05 <= summary["p99"] <= 0.1

    def test_merge_adds_counters_and_buckets(self):
        one, two = MetricsRegistry(), MetricsRegistry()
        one.inc("n", 2)
        two.inc("n", 3)
        one.observe("h", 0.01)
        two.observe("h", 0.02)
        two.set_gauge("g", 7)
        one.merge(two.snapshot())
        assert one.counter_value("n") == 5
        assert one.histogram_summary("h")["count"] == 2
        assert one.gauge_value("g") == 7

    def test_snapshot_survives_pickle(self):
        import pickle

        registry = MetricsRegistry()
        registry.inc("n", worker=1)
        registry.observe("h", 0.5, stage="x")
        snapshot = pickle.loads(pickle.dumps(registry.snapshot()))
        fresh = MetricsRegistry()
        fresh.merge(snapshot)
        assert fresh.counter_value("n", worker=1) == 1
        assert fresh.histogram_summary("h", stage="x")["count"] == 1


class TestPrometheusExposition:
    def test_golden_text(self):
        registry = MetricsRegistry()
        registry.inc("demo_requests_total", 3, route="/estimate")
        registry.set_gauge("demo_temperature", 1.5)
        registry.observe("demo_seconds", 0.003, buckets=(0.001, 0.01))
        registry.observe("demo_seconds", 0.5, buckets=(0.001, 0.01))
        expected = (
            "# TYPE demo_requests_total counter\n"
            'demo_requests_total{route="/estimate"} 3\n'
            "# TYPE demo_temperature gauge\n"
            "demo_temperature 1.5\n"
            "# TYPE demo_seconds histogram\n"
            'demo_seconds_bucket{le="0.001"} 0\n'
            'demo_seconds_bucket{le="0.01"} 1\n'
            'demo_seconds_bucket{le="+Inf"} 2\n'
            "demo_seconds_sum 0.503\n"
            "demo_seconds_count 2\n"
        )
        assert prometheus_text(registry) == expected

    def test_multiple_registries_are_merged(self):
        one, two = MetricsRegistry(), MetricsRegistry()
        one.inc("shared_total", 1)
        two.inc("shared_total", 2)
        assert "shared_total 3" in prometheus_text(one, two)

    def test_live_metrics_endpoint(self):
        spec = WorkloadSpec(dataset="neighbors", level="S", num_rows=400, seed=3)
        obs.set_enabled(True)
        obs.reset()
        try:
            with ServerThread(source=spec) as server:
                request_json(
                    server.url,
                    "/estimate",
                    {"method": "lss", "budget": 60, "num_trials": 1, "seed": 1},
                )
                text = request_text(server.url, "/metrics")
        finally:
            obs.set_enabled(False)
        # Session counters (always on) and gated stage histograms, combined.
        assert "# TYPE repro_session_requests_total counter" in text
        assert "repro_session_estimates_served_total 1" in text
        assert 'repro_stage_seconds_bucket{stage="lss.design"' in text
        assert 'repro_trials_total{method="lss"} 1' in text

    def test_metrics_endpoint_works_with_obs_off(self):
        spec = WorkloadSpec(dataset="neighbors", level="S", num_rows=400, seed=3)
        with ServerThread(source=spec) as server:
            request_json(
                server.url,
                "/estimate",
                {"method": "srs", "budget": 40, "num_trials": 1, "seed": 1},
            )
            text = request_text(server.url, "/metrics")
        assert "repro_session_requests_total 1" in text
        assert "repro_trials_total" not in text


class TestDesignCache:
    def _scored_spec(self):
        anchor = WorkloadSpec(dataset="neighbors", level="S", num_rows=400, seed=5)
        return ScoredMethodSpec(
            method="lss",
            anchor=anchor,
            scores=LearnedScoresSpec(learn_budget=40, learn_seed=9),
        )

    def test_hits_are_byte_identical(self):
        scored = self._scored_spec()
        workload = scored.anchor.build()
        budget = workload.sample_size(0.05)
        default_design_cache.clear()
        try:
            cold = _fingerprint(workload, scored, 1, budget)
            assert default_design_cache.misses == NUM_TRIALS
            assert default_design_cache.hits == 0
            warm = _fingerprint(workload, scored, 1, budget)
            assert warm == cold
            # Identical trials re-key to the cached designs.
            assert default_design_cache.hits == NUM_TRIALS
        finally:
            default_design_cache.clear()
            default_scores_cache.clear()

    def test_key_covers_pilot_and_knobs(self):
        import numpy as np

        from repro.core.stratification import PilotSample

        pilot_a = PilotSample(
            positions=np.arange(10), labels=np.zeros(10), population_size=100
        )
        pilot_b = PilotSample(
            positions=np.arange(1, 11), labels=np.zeros(10), population_size=100
        )
        base = dict(
            scores_digest=b"d" * 32,
            second_stage_samples=50,
            num_strata=4,
            optimizer="dynpgm",
            allocation="neyman",
            min_pilot_per_stratum=2,
            min_stratum_size=None,
            optimizer_options={},
        )
        key = DesignCache.key(pilot=pilot_a, **base)
        assert DesignCache.key(pilot=pilot_a, **base) == key
        assert DesignCache.key(pilot=pilot_b, **base) != key
        assert DesignCache.key(pilot=pilot_a, **{**base, "num_strata": 6}) != key
        assert DesignCache.key(pilot=pilot_a, **{**base, "second_stage_samples": 60}) != key

    def test_requests_metric_is_gated(self):
        cache = DesignCache(limit=4)
        cache.get(b"missing")
        assert obs.registry().counter_total(obs.DESIGN_CACHE_REQUESTS) == 0
        obs.set_enabled(True)
        try:
            cache.get(b"missing")
            assert (
                obs.registry().counter_value(obs.DESIGN_CACHE_REQUESTS, result="miss") == 1
            )
        finally:
            obs.set_enabled(False)

    def test_lru_eviction(self):
        from repro.core.stratification import StratificationDesign

        cache = DesignCache(limit=2)
        design = StratificationDesign.__new__(StratificationDesign)
        cache.put(b"a", design)
        cache.put(b"b", design)
        cache.get(b"a")
        cache.put(b"c", design)  # evicts b, the least recently used
        assert cache.get(b"a") is design
        assert cache.get(b"b") is None
        assert len(cache) == 2

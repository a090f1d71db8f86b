"""Service layer: resident sessions, score reuse, and the estimate server.

The contract under test is the tentpole guarantee: estimation as a service
changes *where* estimates run, never their bytes.  Served estimates must be
byte-identical to serial ``execute_trials`` runs, a sweep must pay exactly
one learning phase, LRU eviction must rebuild byte-identically, and the
server's health endpoint must stay responsive while an estimate is in
flight.
"""

from __future__ import annotations

import threading
import time
import warnings

import numpy as np
import pytest

from repro.core.scores import LearnedScoresSpec, learn_scores
from repro.parallel.fingerprint import estimates_fingerprint
from repro.parallel.tasks import TrialTask, execute_trials
from repro.sampling.rng import spawn_seed_descriptors
from repro.service import Session, default_scores_cache
from repro.service.schema import RequestError, parse_estimate_request, parse_sweep_request
from repro.service.server import ServerThread, request_json
from repro.service.sweep import ScoredMethodSpec, sweep_point_seed
from repro.workloads.queries import WorkloadSpec, build_workload

NUM_ROWS = 360
TABLE_SEED = 11


@pytest.fixture(autouse=True)
def _clean_scores_cache():
    default_scores_cache.clear()
    yield
    default_scores_cache.clear()


@pytest.fixture
def anchor_spec() -> WorkloadSpec:
    return WorkloadSpec(dataset="neighbors", level="S", num_rows=NUM_ROWS, seed=TABLE_SEED)


def _serial_fingerprint(spec: WorkloadSpec, method_spec, seed, budget, num_trials) -> str:
    workload = spec.build()
    tasks = tuple(
        TrialTask(trial_index=index, seed=descriptor, budget=budget)
        for index, descriptor in enumerate(spawn_seed_descriptors(seed, num_trials))
    )
    records = execute_trials(workload, method_spec, tasks)
    return estimates_fingerprint(record.to_estimate() for record in records)


class TestLearnedScores:
    def test_artifact_is_pure_function_of_spec(self, anchor_spec):
        spec = LearnedScoresSpec(learn_budget=40, learn_seed=3)
        first = learn_scores(anchor_spec.build().query, spec)
        second = learn_scores(anchor_spec.build().query, spec)
        np.testing.assert_array_equal(first.ordered_objects, second.ordered_objects)
        np.testing.assert_array_equal(first.sorted_scores, second.sorted_scores)
        np.testing.assert_array_equal(first.labels, second.labels)
        assert first.oracle_calls == second.oracle_calls == 40

    def test_labels_transfer_across_thresholds_without_oracle(self, anchor_spec):
        spec = LearnedScoresSpec(learn_budget=40, learn_seed=3)
        anchor = anchor_spec.build()
        learned = learn_scores(anchor.query, spec)
        sibling = WorkloadSpec(
            dataset="neighbors", level=0.4, num_rows=NUM_ROWS, seed=TABLE_SEED
        ).build()
        before = sibling.query.evaluations
        transferred = learned.labels_for(sibling.query)
        # Zero oracle cost, and exactly the labels the sibling's own oracle
        # would assign to the learning set.
        assert sibling.query.evaluations == before
        with sibling.query.fresh_accounting():
            expected = sibling.query.evaluate(learned.labelled_indices)
        np.testing.assert_array_equal(transferred, expected)

    def test_cache_resolves_once_and_evicts(self, anchor_spec):
        spec = LearnedScoresSpec(learn_budget=30, learn_seed=5)
        first = default_scores_cache.resolve(anchor_spec, spec)
        second = default_scores_cache.resolve(anchor_spec, spec)
        assert first is second
        assert default_scores_cache.misses == 1 and default_scores_cache.hits == 1
        assert default_scores_cache.evict(anchor_spec) == 1
        assert len(default_scores_cache) == 0


class TestSessionEstimate:
    def test_estimate_matches_serial_execute_trials(self, anchor_spec):
        from repro.experiments.config import parse_method_spec

        with Session(anchor_spec) as session:
            served = session.estimate("lss", budget=50, num_trials=3, seed=21)
        expected = _serial_fingerprint(anchor_spec, parse_method_spec("lss"), 21, 50, 3)
        assert served.fingerprint == expected
        assert len(served.digests) == 3

    def test_concurrent_estimates_identical_to_serial(self, anchor_spec):
        from repro.experiments.config import parse_method_spec

        seeds = [7, 8, 9, 10]
        results: dict[int, str] = {}
        errors: list[Exception] = []
        with Session(anchor_spec) as session:

            def serve(seed: int) -> None:
                try:
                    results[seed] = session.estimate(
                        "lws", budget=40, num_trials=2, seed=seed
                    ).fingerprint
                except Exception as exc:  # pragma: no cover - failure detail
                    errors.append(exc)

            threads = [threading.Thread(target=serve, args=(seed,)) for seed in seeds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        for seed in seeds:
            expected = _serial_fingerprint(anchor_spec, parse_method_spec("lws"), seed, 40, 2)
            assert results[seed] == expected

    def test_unknown_dataset_rejected(self, anchor_spec):
        with Session(anchor_spec) as session:
            with pytest.raises(ValueError):
                session.estimate("lss", dataset="bogus", budget=40)


class TestSessionSweep:
    def test_ten_point_sweep_runs_one_learning_phase(self, anchor_spec):
        levels = [round(0.08 + 0.05 * index, 2) for index in range(10)]
        with Session(anchor_spec) as session:
            sweep = session.sweep(
                levels, "lss", budget=40, num_trials=2, seed=13,
                learn_budget=30, learn_seed=99,
            )
            assert len(sweep.points) == 10
            assert sweep.learning_runs == 1
            # The oracle-call counters pin the reuse: exactly one learning
            # phase was charged across all ten thresholds.
            assert session.stats.learning_runs == 1
            assert default_scores_cache.misses == 1

            # A repeated sweep is pure cache: zero new learning phases,
            # byte-identical family fingerprint.
            again = session.sweep(
                levels, "lss", budget=40, num_trials=2, seed=13,
                learn_budget=30, learn_seed=99,
            )
            assert again.learning_runs == 0
            assert session.stats.learning_runs == 1
            assert session.stats.oracle_calls_saved == 30
            assert again.fingerprint == sweep.fingerprint

    def test_sweep_point_byte_identical_to_serial(self, anchor_spec):
        levels = [0.1, 0.25, 0.4]
        with Session(anchor_spec) as session:
            sweep = session.sweep(
                levels, "lss", budget=40, num_trials=2, seed=17,
                learn_budget=30, learn_seed=5,
            )
        scored = ScoredMethodSpec(
            method="lss",
            anchor=anchor_spec,
            scores=LearnedScoresSpec(learn_budget=30, learn_seed=5),
        )
        for index, level in enumerate(levels):
            point_spec = WorkloadSpec(
                dataset="neighbors", level=level, num_rows=NUM_ROWS, seed=TABLE_SEED
            )
            expected = _serial_fingerprint(
                point_spec, scored, sweep_point_seed(17, index, len(levels)), 40, 2
            )
            assert sweep.points[index].fingerprint == expected

    def test_sweep_estimates_keep_their_diagnostics(self, anchor_spec):
        # A pilot of 4 objects is too small for DynPgm, so every trial takes
        # the fixed-height fallback, and the served estimate must say so.
        with Session(anchor_spec) as session:
            sweep = session.sweep(
                [0.1, 0.25], "lss", budget=8, num_trials=2, seed=23,
                learn_budget=30, learn_seed=5,
            )
        for point in sweep.points:
            for estimate in point.estimates:
                assert estimate.details["design"].algorithm == "fixed-height"
                assert estimate.details["design_fallback"] == "fixed_height"
        scored = ScoredMethodSpec(
            method="lss",
            anchor=anchor_spec,
            scores=LearnedScoresSpec(learn_budget=30, learn_seed=5),
        )
        point_spec = WorkloadSpec(
            dataset="neighbors", level=0.25, num_rows=NUM_ROWS, seed=TABLE_SEED
        )
        expected = _serial_fingerprint(point_spec, scored, sweep_point_seed(23, 1, 2), 8, 2)
        assert sweep.points[1].fingerprint == expected

    def test_lws_sweep_supported(self, anchor_spec):
        with Session(anchor_spec) as session:
            sweep = session.sweep(
                [0.1, 0.3], "lws", budget=40, num_trials=1, seed=3,
                learn_budget=30, learn_seed=4,
            )
        assert [len(point.estimates) for point in sweep.points] == [1, 1]

    def test_sweep_rejects_unscored_methods(self, anchor_spec):
        with Session(anchor_spec) as session:
            with pytest.raises(ValueError):
                session.sweep([0.1], "srs", budget=40)


class TestSessionDesign:
    """A served design names the optimizer that produced it and any fallback."""

    def test_plain_dynpgm_design(self, anchor_spec):
        with Session(anchor_spec) as session:
            design = session.design(budget=60, seed=0)
        assert design["algorithm"] == "dynpgm"
        assert design["design_fallback"] is None
        assert design["num_strata"] == len(design["allocation"]) == 4

    def test_tiny_budget_reports_the_fixed_height_fallback(self, anchor_spec):
        # A pilot of 4 objects cannot give one stratum the 5 pilot objects
        # DynPgm requires, so LSS falls back to fixed-height strata.
        with Session(anchor_spec) as session:
            design = session.design(budget=8, seed=0)
        assert design["pilot_size"] == 4
        assert design["algorithm"] == "fixed-height"
        assert design["design_fallback"] == "fixed_height"

    def test_pilot_only_path_has_no_design(self, anchor_spec):
        with Session(anchor_spec) as session:
            design = session.design(budget=8, seed=0, num_strata=16)
        assert design["algorithm"] is None
        assert design["design_fallback"] == "pilot_only"
        assert design["boundaries"] == []


class TestSessionResidency:
    def test_lru_eviction_rebuilds_byte_identically(self):
        neighbors = WorkloadSpec(
            dataset="neighbors", level="S", num_rows=NUM_ROWS, seed=TABLE_SEED
        )
        with Session(neighbors, max_resident=1) as session:
            first = session.estimate("lss", budget=40, num_trials=2, seed=5)
            session.sweep([0.2], budget=40, seed=1, learn_budget=30, learn_seed=2)
            assert len(default_scores_cache) == 1
            # A different dataset displaces the sole resident slot…
            session.estimate("srs", dataset="sports", budget=40, seed=5)
            assert session.stats.evictions == 1
            assert session.resident_workloads == 1
            # …its learned scores went with it…
            assert len(default_scores_cache) == 0
            # …and re-requesting rebuilds to the same bytes.
            rebuilt = session.estimate("lss", dataset="neighbors", budget=40,
                                       num_trials=2, seed=5)
            assert rebuilt.fingerprint == first.fingerprint
            assert session.stats.evictions == 2

    def test_workload_for_shares_table_across_levels(self):
        spec = WorkloadSpec(dataset="neighbors", level="S", num_rows=NUM_ROWS, seed=TABLE_SEED)
        with Session(spec) as session:
            low = session.workload_for(spec)
            high = session.workload_for(
                WorkloadSpec(dataset="neighbors", level="L", num_rows=NUM_ROWS, seed=TABLE_SEED)
            )
            assert low.query.table is high.query.table
            assert session.workload_for(spec) is low

    def test_adopted_workload_becomes_resident(self):
        workload = build_workload("neighbors", level="S", num_rows=NUM_ROWS, seed=TABLE_SEED)
        with Session(workload) as session:
            assert session.workload_for(workload.spec) is workload


class TestDeprecatedShim:
    def test_session_factory_exported_from_package_root(self):
        import repro

        assert repro.session is not None
        assert "session" in repro.__all__ and "Session" in repro.__all__
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with repro.session("neighbors", num_rows=NUM_ROWS, seed=TABLE_SEED) as session:
                result = session.estimate("srs", budget=30, seed=1)
        assert result.estimates[0].predicate_evaluations <= 30


class TestSchema:
    def test_estimate_request_roundtrip(self):
        kwargs = parse_estimate_request(
            {"method": "lss:logbdr", "level": 0.2, "budget": 40, "num_trials": 2, "seed": 3}
        )
        assert kwargs["method"] == "lss:logbdr"
        assert kwargs["level"] == 0.2 and kwargs["budget"] == 40

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {"budget": "many"},
            {"budget": 0},
            {"unknown_field": 1},
            {"level": True},
        ],
    )
    def test_estimate_request_rejects_malformed(self, payload):
        with pytest.raises(RequestError):
            parse_estimate_request(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"levels": []},
            {"levels": "XS"},
            {"levels": [0.1], "learn_budget": 1},
            {"levels": [0.1], "method": 7},
        ],
    )
    def test_sweep_request_rejects_malformed(self, payload):
        with pytest.raises(RequestError):
            parse_sweep_request(payload)


class TestServer:
    @pytest.fixture(scope="class")
    def server(self):
        spec = WorkloadSpec(dataset="neighbors", level="S", num_rows=NUM_ROWS, seed=TABLE_SEED)
        with ServerThread(source=spec) as running:
            yield running

    def test_estimate_endpoint_byte_identical_to_serial(self, server, anchor_spec):
        from repro.experiments.config import parse_method_spec

        response = request_json(
            server.url, "/estimate",
            {"method": "lss", "budget": 50, "num_trials": 2, "seed": 31},
        )
        expected = _serial_fingerprint(anchor_spec, parse_method_spec("lss"), 31, 50, 2)
        assert response["fingerprint"] == expected
        digests = [trial["estimate_digest"] for trial in response["estimates"]]
        assert len(digests) == 2 and all(len(digest) == 64 for digest in digests)

    def test_sweep_endpoint_reports_single_learning_run(self, server):
        response = request_json(
            server.url, "/sweep",
            {"levels": [0.1, 0.2, 0.3], "budget": 40, "seed": 3,
             "learn_budget": 30, "learn_seed": 8},
        )
        assert response["learning_runs"] == 1
        repeat = request_json(
            server.url, "/sweep",
            {"levels": [0.1, 0.2, 0.3], "budget": 40, "seed": 3,
             "learn_budget": 30, "learn_seed": 8},
        )
        assert repeat["learning_runs"] == 0
        assert repeat["fingerprint"] == response["fingerprint"]

    def test_stats_endpoint_counts_requests(self, server):
        stats = request_json(server.url, "/stats")
        assert stats["requests"] >= 1
        assert set(stats) >= {
            "estimates_served", "learning_runs", "oracle_calls",
            "oracle_calls_saved", "resident_workloads", "evictions",
        }

    def test_healthz_responsive_while_estimate_in_flight(self, server):
        done = threading.Event()
        slow_response: list = []

        def slow_request() -> None:
            # A learning-heavy request occupies an executor thread for a while.
            slow_response.append(
                request_json(
                    server.url, "/sweep",
                    {"levels": [0.1, 0.2, 0.3, 0.4], "budget": 60, "num_trials": 3,
                     "seed": 91, "learn_budget": 60, "learn_seed": 91},
                )
            )
            done.set()

        worker = threading.Thread(target=slow_request)
        worker.start()
        try:
            # Health stays answerable from the event loop the whole time.
            deadline = time.monotonic() + 60
            probes = 1
            assert request_json(server.url, "/healthz", timeout=10)["status"] == "ok"
            while not done.is_set() and time.monotonic() < deadline:
                assert request_json(server.url, "/healthz", timeout=10)["status"] in (
                    "ok", "degraded",
                )
                probes += 1
            assert done.wait(timeout=120)
        finally:
            worker.join(timeout=120)
        assert probes >= 1 and slow_response[0]["learning_runs"] in (0, 1)

    def test_malformed_request_yields_400(self, server):
        with pytest.raises(RuntimeError, match="400"):
            request_json(server.url, "/estimate", {"budget": -4})
        with pytest.raises(RuntimeError, match="404"):
            request_json(server.url, "/missing")

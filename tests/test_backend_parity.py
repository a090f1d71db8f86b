"""The backend-parity contract: backends are representations, not semantics.

Every :class:`~repro.query.backends.QueryBackend` must return labels,
accounting and therefore seeded estimates byte-identical to the in-memory
``NumpyBackend``.  This suite enforces the contract at three layers:
deterministic unit checks on the backends themselves, a property-based
(hypothesis) sweep over adversarial tables — tie-heavy integer grids, empty
tables, duplicate-laden index sets — and the full seeded estimation workflow
through :func:`repro.experiments.parity.run_backend_parity`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.lss import LearnedStratifiedSampling
from repro.core.lws import LearnedWeightedSampling
from repro.experiments.parity import run_backend_parity
from repro.parallel.methods import METHODS, MethodSpec
from repro.query.backends import (
    CAP_EVALUATE,
    CAP_PREDICATE_PUSHDOWN,
    NumpyBackend,
    SqliteBackend,
    canonical_backend_spec,
    make_backend,
)
from repro.query.counting import CountingQuery
from repro.query.predicates import (
    CallablePredicate,
    NeighborCountPredicate,
    SkybandPredicate,
)
from repro.query.table import Table
from repro.workloads.queries import WorkloadSpec
from repro.workloads.runner import TrialRunner

ALL_BACKEND_SPECS = ("numpy", "sqlite")

#: The backends the estimator-level tests run LWS and LSS on: the in-memory
#: reference and the SQL pushdown.
PUSHDOWN_SPECS = ("numpy", "sqlite")

SETTINGS = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _backends_for(table, predicate):
    return [make_backend(spec, table, predicate) for spec in ALL_BACKEND_SPECS]


# -- spec parsing -------------------------------------------------------------
class TestBackendSpecs:
    def test_canonical_forms(self):
        assert canonical_backend_spec(None) == "numpy"
        assert canonical_backend_spec("numpy") == "numpy"
        assert canonical_backend_spec("sqlite") == "sqlite"
        assert canonical_backend_spec("sqlite:database=/tmp/x.db") == "sqlite:database=/tmp/x.db"

    @pytest.mark.parametrize(
        "bad",
        [
            "bogus",
            "numpy:3",
            "chunked",
            "chunked:0",
            "chunked:7",
            "chunked:x",
            "sqlite:1",
            "sqlite:pushdown=off",
            "sqlite:pushdown=counts",
        ],
    )
    def test_invalid_specs_rejected(self, bad, small_points_table):
        with pytest.raises(ValueError):
            canonical_backend_spec(bad)
        with pytest.raises(ValueError):
            make_backend(bad, small_points_table, SkybandPredicate("x", "y", k=3))

    def test_backend_instances_pass_through(self, small_points_table):
        predicate = SkybandPredicate("x", "y", k=3)
        backend = SqliteBackend(small_points_table, predicate)
        query = CountingQuery(small_points_table, predicate, backend=backend)
        assert query.backend is backend
        assert query.backend_spec == "sqlite"
        backend.close()

    def test_backend_bound_to_other_table_rejected(self, small_points_table):
        predicate = SkybandPredicate("x", "y", k=3)
        other = Table({"x": [1.0], "y": [2.0]})
        backend = NumpyBackend(other, predicate)
        with pytest.raises(ValueError):
            CountingQuery(small_points_table, predicate, backend=backend)


# -- deterministic parity over the shared fixtures ----------------------------
class TestBackendLabelParity:
    @pytest.mark.parametrize("cache_labels", [True, False])
    def test_all_layers_byte_identical(self, small_points_table, cache_labels):
        rng = np.random.default_rng(99)
        indices = rng.integers(0, small_points_table.num_rows, size=57)
        for predicate in (
            NeighborCountPredicate("x", "y", max_neighbors=3, distance=0.5),
            SkybandPredicate("x", "y", k=5),
        ):
            reference = None
            for spec in ALL_BACKEND_SPECS:
                query = CountingQuery(
                    small_points_table, predicate, backend=spec, cache_labels=cache_labels
                )
                observed = (
                    query.evaluate(indices).tobytes(),
                    query.evaluations,
                    query.ground_truth_labels().tobytes(),
                    query.true_count(),
                    query.features(indices[:9]).tobytes(),
                    query.features().tobytes(),
                )
                if reference is None:
                    reference = observed
                assert observed == reference, f"backend {spec} diverged"

    def test_callable_predicate_falls_back_everywhere(self, small_points_table):
        predicate = CallablePredicate(
            lambda table, index: table["x"][index] > 5.0, feature_columns=("x",)
        )
        indices = np.arange(0, small_points_table.num_rows, 3)
        labels = [
            backend.evaluate(indices).tobytes()
            for backend in _backends_for(small_points_table, predicate)
        ]
        assert len(set(labels)) == 1

    def test_evaluate_batch_chunking_matches_across_backends(self, small_points_table):
        predicate = SkybandPredicate("x", "y", k=4)
        indices = np.arange(small_points_table.num_rows)
        outputs = set()
        for spec in ALL_BACKEND_SPECS:
            query = CountingQuery(
                small_points_table, predicate, backend=spec, cache_labels=False
            )
            labels = query.evaluate_batch(indices, chunk_size=13)
            outputs.add((labels.tobytes(), query.evaluations))
        assert len(outputs) == 1

    def test_sqlite_rejects_unknown_indices(self, small_points_table):
        predicate = SkybandPredicate("x", "y", k=3)
        backend = SqliteBackend(small_points_table, predicate)
        with pytest.raises(IndexError):
            backend.evaluate(np.array([small_points_table.num_rows + 5]))
        backend.close()
        backend.close()  # idempotent

    def test_negative_indices_wrap_like_numpy(self, small_points_table):
        # numpy fancy indexing wraps negative indices; every backend must
        # mirror that for the "any index set" parity contract to hold.
        predicate = SkybandPredicate("x", "y", k=3)
        indices = np.array([-1, 0, -small_points_table.num_rows, 5])
        labels = {
            CountingQuery(small_points_table, predicate, backend=spec, cache_labels=False)
            .evaluate(indices)
            .tobytes()
            for spec in ALL_BACKEND_SPECS
        }
        assert len(labels) == 1


# -- empty and degenerate tables ----------------------------------------------
class TestDegenerateTables:
    def test_empty_table_parity(self):
        table = Table({"x": np.empty(0), "y": np.empty(0)}, name="empty")
        predicate = SkybandPredicate("x", "y", k=2)
        for spec in ALL_BACKEND_SPECS:
            query = CountingQuery(table, predicate, backend=spec, cache_labels=False)
            assert query.num_objects == 0
            assert query.evaluate(np.empty(0, dtype=np.int64)).size == 0
            assert query.true_count() == 0
            assert query.evaluations == 0

    def test_single_row_parity(self):
        table = Table({"x": [2.5], "y": [1.0]}, name="one")
        predicate = NeighborCountPredicate("x", "y", max_neighbors=0, distance=1.0)
        labels = {
            CountingQuery(table, predicate, backend=spec, cache_labels=False)
            .evaluate([0])
            .tobytes()
            for spec in ALL_BACKEND_SPECS
        }
        assert len(labels) == 1


# -- property-based sweep ------------------------------------------------------
def _tables(draw, elements, min_rows=0):
    num_rows = draw(st.integers(min_rows, 28))
    xs = draw(st.lists(elements, min_size=num_rows, max_size=num_rows))
    ys = draw(st.lists(elements, min_size=num_rows, max_size=num_rows))
    return Table({"x": np.array(xs, dtype=np.float64), "y": np.array(ys, dtype=np.float64)})


@st.composite
def tie_heavy_tables(draw):
    """Points on a tiny integer grid: duplicates and ties are the norm."""
    return _tables(draw, st.integers(0, 3).map(float))


@st.composite
def continuous_tables(draw):
    return _tables(
        draw,
        st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False, width=64),
    )


@st.composite
def index_sets(draw, num_rows):
    if num_rows == 0:
        return np.empty(0, dtype=np.int64)
    size = draw(st.integers(0, 40))
    return np.array(
        draw(
            st.lists(st.integers(0, num_rows - 1), min_size=size, max_size=size)
        ),
        dtype=np.int64,
    )


def _assert_numpy_bulk_matches_batch(table, predicate):
    """Numpy's bulk ground truth labels every object as its batch kernel does.

    The bulk neighbour sweep expands ‖a-b‖² as ‖a‖²-2a·b+‖b‖² while the batch
    kernel subtracts coordinates directly; the two roundings must agree
    byte-for-byte, or cached and uncached label paths would diverge.
    """
    backend = NumpyBackend(table, predicate)
    batch = backend.evaluate(np.arange(table.num_rows))
    assert backend.evaluate_all().tobytes() == batch.tobytes()


@SETTINGS
@given(data=st.data(), table=st.one_of(tie_heavy_tables(), continuous_tables()))
def test_property_skyband_parity(data, table):
    k = data.draw(st.integers(1, 4))
    indices = data.draw(index_sets(table.num_rows))
    predicate = SkybandPredicate("x", "y", k=k)
    _assert_numpy_bulk_matches_batch(table, predicate)
    observed = set()
    for spec in ALL_BACKEND_SPECS:
        query = CountingQuery(table, predicate, backend=spec, cache_labels=False)
        if table.num_rows == 0:
            assert query.evaluate(indices).size == 0
            continue
        observed.add(
            (
                query.evaluate(indices).tobytes(),
                query.evaluations,
                query.ground_truth_labels().tobytes(),
            )
        )
    assert len(observed) <= 1


@SETTINGS
@given(data=st.data(), table=st.one_of(tie_heavy_tables(), continuous_tables()))
def test_property_neighbor_parity(data, table):
    max_neighbors = data.draw(st.integers(0, 3))
    distance = data.draw(st.floats(0.25, 8.0, allow_nan=False))
    indices = data.draw(index_sets(table.num_rows))
    predicate = NeighborCountPredicate(
        "x", "y", max_neighbors=max_neighbors, distance=distance
    )
    _assert_numpy_bulk_matches_batch(table, predicate)
    observed = set()
    for spec in ALL_BACKEND_SPECS:
        query = CountingQuery(table, predicate, backend=spec, cache_labels=False)
        if table.num_rows == 0:
            assert query.evaluate(indices).size == 0
            continue
        observed.add(
            (
                query.evaluate(indices).tobytes(),
                query.evaluations,
                query.ground_truth_labels().tobytes(),
            )
        )
    assert len(observed) <= 1


# -- the seeded estimation workflow -------------------------------------------
class TestSeededWorkflowParity:
    def test_neighbors_workflow_parity(self):
        report = run_backend_parity(num_rows=240, num_trials=2, fraction=0.1)
        assert report.ok, report.mismatches
        assert {row.backend for row in report.rows} == set(ALL_BACKEND_SPECS)
        assert {row.method for row in report.rows} == set(METHODS)
        # Backend choice is part of the task description (the fingerprint
        # differs) but never of the result (the estimates digest does not).
        by_method: dict[str, set[tuple[str, str]]] = {}
        for row in report.rows:
            by_method.setdefault(row.method, set()).add((row.task, row.estimates))
        for method, cells in by_method.items():
            assert len({task for task, _ in cells}) == len(ALL_BACKEND_SPECS), method
            assert len({estimates for _, estimates in cells}) == 1, method

    def test_parity_detects_divergence(self, monkeypatch):
        # Sabotage one backend's labels and require the gate to trip.
        from repro.query import backends as backends_module

        original = backends_module.SqliteBackend.evaluate

        def corrupted(self, indices):
            labels = original(self, indices)
            if labels.size:
                labels = labels.copy()
                labels[0] = 1.0 - labels[0]
            return labels

        monkeypatch.setattr(backends_module.SqliteBackend, "evaluate", corrupted)
        report = run_backend_parity(
            num_rows=160,
            num_trials=1,
            fraction=0.1,
            backends=("numpy", "sqlite"),
            methods=("srs",),
        )
        assert not report.ok
        assert any("'sqlite'" in mismatch for mismatch in report.mismatches)

    def test_parity_detects_bulk_batch_divergence(self, monkeypatch):
        # The audit pins numpy's bulk ground truth to its own batch kernel.
        from repro.query import backends as backends_module

        original = backends_module.NumpyBackend.evaluate_all

        def corrupted(self):
            labels = original(self).copy()
            labels[0] = 1.0 - labels[0]
            return labels

        monkeypatch.setattr(backends_module.NumpyBackend, "evaluate_all", corrupted)
        report = run_backend_parity(
            num_rows=160, num_trials=1, fraction=0.1, backends=("numpy",), methods=("srs",)
        )
        assert any("batch kernel" in mismatch for mismatch in report.mismatches)

    @pytest.mark.parametrize("dataset", ["neighbors", "sports"])
    def test_seeded_workloads_bulk_matches_batch(self, dataset):
        query = WorkloadSpec(dataset=dataset, num_rows=480, cache_labels=False).build().query
        _assert_numpy_bulk_matches_batch(query.table, query.predicate)


class TestWorkloadAndMethodSpecs:
    def test_workload_spec_carries_backend(self):
        spec = WorkloadSpec(dataset="neighbors", num_rows=120, backend="sqlite")
        workload = spec.build()
        assert workload.query.backend_spec == "sqlite"
        assert workload.spec.backend == "sqlite"

    def test_workload_spec_canonicalises_backend(self):
        # Equal tasks must be equal (and hash-equal) specs: shared pools,
        # score caches and the task fingerprint all key on the spec.
        short = WorkloadSpec(dataset="neighbors", num_rows=120, backend="sqlite")
        long = WorkloadSpec(
            dataset="neighbors", num_rows=120, backend="sqlite:database=:memory:"
        )
        assert short == long
        assert hash(short) == hash(long)
        with pytest.raises(ValueError):
            WorkloadSpec(dataset="neighbors", backend="bogus")

    def test_method_spec_backend_override_is_byte_identical(self):
        """SRS trials are byte-identical whichever backend the workload is built on."""
        digests = set()
        for backend in ("numpy", "sqlite"):
            workload = WorkloadSpec(
                dataset="neighbors", num_rows=160, cache_labels=False, backend=backend
            ).build()
            assert workload.query.backend_spec == backend
            budget = workload.sample_size(0.1)
            runner = TrialRunner(workload=workload, num_trials=2, seed=7)
            runner.run("srs", MethodSpec(method="srs"), budget)
            digests.add(
                tuple(
                    (e.count, e.predicate_evaluations) for e in runner.estimates["srs"]
                )
            )
        assert len(digests) == 1


# -- sqlite spec options grammar ----------------------------------------------
class TestSqliteSpecOptions:
    def test_default_options_canonicalise_away(self):
        assert canonical_backend_spec("sqlite:database=:memory:") == "sqlite"

    def test_non_default_options_render_sorted(self):
        assert (
            canonical_backend_spec("sqlite:database=/tmp/x.db")
            == "sqlite:database=/tmp/x.db"
        )

    @pytest.mark.parametrize(
        ("bad", "fragment"),
        [
            ("sqlite:pushdown=max", "unknown backend option 'pushdown'"),
            ("sqlite:foo=1", "unknown backend option"),
            ("numpy:rows=64", "takes no options"),
            ("sqlite:1", "takes no argument"),
        ],
    )
    def test_option_errors_are_specific(self, bad, fragment):
        with pytest.raises(ValueError, match=fragment):
            canonical_backend_spec(bad)

    def test_full_level_is_rejected(self, small_points_table):
        # No pushdown level survives: the option itself is gone.
        with pytest.raises(ValueError, match="unknown backend option 'pushdown'"):
            canonical_backend_spec("sqlite:pushdown=full")
        with pytest.raises(TypeError):
            SqliteBackend(small_points_table, SkybandPredicate("x", "y", k=3), pushdown="full")

    def test_make_backend_routes_options(self, small_points_table, tmp_path):
        predicate = SkybandPredicate("x", "y", k=3)
        path = tmp_path / "objects.db"
        backend = make_backend(f"sqlite:database={path}", small_points_table, predicate)
        try:
            assert isinstance(backend, SqliteBackend)
            assert backend.spec == f"sqlite:database={path}"
            assert path.exists()
        finally:
            backend.close()

    def test_workload_spec_accepts_database_option(self, tmp_path):
        path = tmp_path / "objects.db"
        spec = WorkloadSpec(dataset="neighbors", num_rows=120, backend=f"sqlite:database={path}")
        assert spec.backend == f"sqlite:database={path}"
        dflt = WorkloadSpec(dataset="neighbors", num_rows=120, backend="sqlite:database=:memory:")
        assert dflt.backend == "sqlite"


# -- capability advertisement --------------------------------------------------
class TestCapabilities:
    def test_levels_advertise_expected_capabilities(self, small_points_table):
        for predicate in (
            NeighborCountPredicate("x", "y", max_neighbors=3, distance=0.5),
            SkybandPredicate("x", "y", k=3),
        ):
            backend = make_backend("sqlite", small_points_table, predicate)
            assert backend.capabilities() == (CAP_EVALUATE, CAP_PREDICATE_PUSHDOWN)
            backend.close()

    def test_callable_predicate_never_advertises_pushdown(self, small_points_table):
        predicate = CallablePredicate(
            lambda table, index: table["x"][index] > 5.0, feature_columns=("x",)
        )
        backend = make_backend("sqlite", small_points_table, predicate)
        assert backend.capabilities() == (CAP_EVALUATE,)

    def test_baseline_backends_advertise_evaluate_only(self, small_points_table):
        predicate = SkybandPredicate("x", "y", k=3)
        assert NumpyBackend(small_points_table, predicate).capabilities() == (CAP_EVALUATE,)

    def test_repr_shows_capabilities(self, small_points_table):
        predicate = SkybandPredicate("x", "y", k=3)
        backend = make_backend("sqlite", small_points_table, predicate)
        assert "capabilities=evaluate+predicate-pushdown" in repr(backend)
        backend.close()

    def test_parity_report_carries_capabilities(self):
        report = run_backend_parity(
            num_rows=120, num_trials=1, fraction=0.1, methods=("srs",)
        )
        assert set(report.capabilities) == set(ALL_BACKEND_SPECS)
        assert report.capabilities["numpy"] == (CAP_EVALUATE,)
        assert CAP_PREDICATE_PUSHDOWN in report.capabilities["sqlite"]


# -- constructor deprecation shim ----------------------------------------------
class TestSqliteConstructorShim:
    def test_bare_constructor_stays_silent(self, small_points_table):
        import warnings

        predicate = SkybandPredicate("x", "y", k=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            backend = SqliteBackend(small_points_table, predicate)
        backend.close()

    def test_keyword_backend_matches_spec_twin(self, small_points_table):
        predicate = SkybandPredicate("x", "y", k=3)
        indices = np.arange(small_points_table.num_rows)
        keyword = SqliteBackend(small_points_table, predicate, database=":memory:")
        via_spec = make_backend("sqlite", small_points_table, predicate)
        assert keyword.spec == via_spec.spec == "sqlite"
        assert keyword.capabilities() == via_spec.capabilities()
        assert keyword.evaluate(indices).tobytes() == via_spec.evaluate(indices).tobytes()
        assert keyword.evaluate_all().tobytes() == via_spec.evaluate_all().tobytes()
        keyword.close()
        via_spec.close()

    def test_make_backend_never_warns(self, small_points_table):
        import warnings

        predicate = SkybandPredicate("x", "y", k=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spec in ("sqlite", "sqlite:database=:memory:"):
                make_backend(spec, small_points_table, predicate).close()


# -- scan accounting -----------------------------------------------------------
class TestScanAccounting:
    def test_numpy_charges_every_object_read_once(self, small_points_table):
        predicate = SkybandPredicate("x", "y", k=3)
        indices = np.arange(0, small_points_table.num_rows, 2)
        previous = obs.set_enabled(True)
        try:
            obs.reset()
            backend = make_backend("numpy", small_points_table, predicate)
            backend.features(("x", "y"))
            backend.features(("x", "y"), indices)
            backend.evaluate(indices)
            backend.evaluate_all()
            scanned = obs.registry().counter_total(obs.BACKEND_ROWS_SCANNED, backend="numpy")
        finally:
            obs.set_enabled(previous)
            obs.reset()
        assert scanned == (
            2 * small_points_table.num_rows  # features(None) + evaluate_all
            + 2 * indices.size  # features(indices) + evaluate(indices)
        )

    def test_sqlite_charges_objects_labelled_not_rows_visited(self, small_points_table):
        # The SQL plan visits many rows per label (a correlated COUNT), but
        # the counter charges each labelled object once.
        predicate = SkybandPredicate("x", "y", k=3)
        indices = np.arange(0, small_points_table.num_rows, 3)
        previous = obs.set_enabled(True)
        backend = make_backend("sqlite", small_points_table, predicate)
        try:
            obs.reset()
            backend.evaluate(indices)
            scanned = obs.registry().counter_total(obs.BACKEND_ROWS_SCANNED, backend="sqlite")
        finally:
            backend.close()
            obs.set_enabled(previous)
            obs.reset()
        assert scanned == indices.size


# -- pushdown levels through the estimators ------------------------------------
def _estimate_fingerprint(estimate):
    return (
        estimate.count,
        estimate.proportion,
        estimate.variance,
        estimate.predicate_evaluations,
        estimate.count_offset,
    )


def _pushdown_query(table, predicate, spec):
    return CountingQuery(table, predicate, backend=spec, cache_labels=False)


class TestPushdownGrid:
    """numpy and the sqlite pushdown must be byte-identical for LWS and LSS."""

    @pytest.mark.parametrize("make_predicate", [
        lambda: NeighborCountPredicate("x", "y", max_neighbors=3, distance=0.5),
        lambda: SkybandPredicate("x", "y", k=5),
    ])
    @pytest.mark.parametrize("method", ["lws", "lss"])
    def test_levels_byte_identical(self, small_points_table, make_predicate, method):
        budget = 60 if method == "lws" else 80
        fingerprints = set()
        for spec in PUSHDOWN_SPECS:
            query = _pushdown_query(small_points_table, make_predicate(), spec)
            estimator = (
                LearnedWeightedSampling() if method == "lws" else LearnedStratifiedSampling()
            )
            estimate = estimator.estimate(query, budget, seed=20190621)
            fingerprints.add(_estimate_fingerprint(estimate) + (query.evaluations,))
        assert len(fingerprints) == 1

    @pytest.mark.parametrize("method", ["lws", "lss"])
    def test_tie_heavy_scores_byte_identical(self, method):
        # Integer-grid points: features collapse onto a handful of values, so
        # classifier scores are tie-heavy and the stable argsort's tie-break
        # carries the ordering.
        rng = np.random.default_rng(7)
        grid = rng.integers(0, 4, size=(180, 2)).astype(np.float64)
        table = Table({"x": grid[:, 0], "y": grid[:, 1]}, name="grid")
        predicate = SkybandPredicate("x", "y", k=2)
        budget = 50 if method == "lws" else 70
        fingerprints = set()
        for spec in PUSHDOWN_SPECS:
            query = _pushdown_query(table, predicate, spec)
            estimator = (
                LearnedWeightedSampling() if method == "lws" else LearnedStratifiedSampling()
            )
            estimate = estimator.estimate(query, budget, seed=31)
            fingerprints.add(_estimate_fingerprint(estimate) + (query.evaluations,))
        assert len(fingerprints) == 1

    def test_tiny_budget_empty_strata_byte_identical(self, small_points_table):
        # A stage-II budget small enough that some strata draw zero samples:
        # those strata fall back to their pilot labels on every backend.
        predicate = SkybandPredicate("x", "y", k=5)
        estimator = LearnedStratifiedSampling()
        fingerprints = set()
        for spec in PUSHDOWN_SPECS:
            query = _pushdown_query(small_points_table, predicate, spec)
            estimate = estimator.estimate(query, 36, seed=5)
            fingerprints.add(_estimate_fingerprint(estimate) + (query.evaluations,))
        assert len(fingerprints) == 1

    def test_cached_labels_skip_pushdown_but_stay_identical(self, small_points_table):
        # With the bulk label cache on, labels come from one ground-truth
        # pass instead of per-batch SQL probes; the bytes must not change.
        predicate = SkybandPredicate("x", "y", k=5)
        cached = CountingQuery(small_points_table, predicate, backend="sqlite", cache_labels=True)
        uncached = _pushdown_query(small_points_table, predicate, "sqlite")
        a = LearnedStratifiedSampling().estimate(cached, 80, seed=3)
        b = LearnedStratifiedSampling().estimate(uncached, 80, seed=3)
        assert _estimate_fingerprint(a) == _estimate_fingerprint(b)


@SETTINGS
@given(data=st.data(), table=continuous_tables())
def test_property_lws_pushdown_parity(data, table):
    if table.num_rows < 12:
        return
    budget = data.draw(st.integers(6, max(6, table.num_rows // 2)))
    seed = data.draw(st.integers(0, 2**31 - 1))
    predicate = SkybandPredicate("x", "y", k=2)
    fingerprints = set()
    for spec in PUSHDOWN_SPECS:
        query = _pushdown_query(table, predicate, spec)
        estimate = LearnedWeightedSampling().estimate(query, budget, seed=seed)
        fingerprints.add(_estimate_fingerprint(estimate) + (query.evaluations,))
    assert len(fingerprints) == 1


# -- threshold early exit: boundary parity -------------------------------------
#: Hand-built neighbour table for ``distance=5``.  Integer coordinates keep
#: every squared distance exact in float64, so "exactly on the radius" means
#: the same thing to numpy's bulk sweep, its batch kernel and sqlite.
#: Groups sit 100 apart, so no pair across groups is within the radius.
_NEIGHBOR_POINTS = (
    # a duplicate pair plus a point at exactly distance 5: every count is 2
    (0, 0), (0, 0), (3, 4),
    # four points within 3 of each other: every count is 3
    (100, 0), (101, 0), (102, 0), (103, 0),
    # a chain with links of exactly 5: counts 1, 2, 1
    (200, 0), (205, 0), (210, 0),
    # an isolated point: count 0
    (300, 0),
    # counts 3 where one of the three neighbours sits exactly on the radius
    (500, 0), (500, 0), (501, 0), (505, 0),
    # five points within 4 of each other: every count is 4
    (600, 0), (601, 0), (602, 0), (603, 0), (604, 0),
)

#: Hand-built skyband table: ties on x (and on y), duplicate points that do
#: not dominate each other, and a full dominance chain.
_SKYBAND_POINTS = (
    (1, 1), (1, 2), (1, 3), (2, 1), (2, 1), (3, 0), (0, 3),
    (2, 2), (3, 3), (3, 3), (4, 1), (1, 4), (0, 0), (4, 4), (4, 3), (0, 5), (0, 4),
)

def _points_table(points, name):
    coordinates = np.asarray(points, dtype=np.float64)
    return Table({"x": coordinates[:, 0], "y": coordinates[:, 1]}, name=name)


def _integer_grid_table(seed, rows=150, span=6):
    grid = np.random.default_rng(seed).integers(0, span, size=(rows, 2))
    return _points_table(grid, f"grid{seed}")


def _dominator_counts(table):
    x, y = table["x"], table["y"]
    dominates = (
        (x[None, :] >= x[:, None])
        & (y[None, :] >= y[:, None])
        & ((x[None, :] > x[:, None]) | (y[None, :] > y[:, None]))
    )
    return dominates.sum(axis=1)


class TestThresholdBoundaryParity:
    """The SQL stops counting at the threshold; labels must not notice.

    The neighbour subquery stops after ``max_neighbors + 1`` matches and
    the skyband subquery after ``k``; both are exact only if the limit is
    one past the last count that still passes.  These tables put objects
    exactly on the count threshold (k and k + 1 neighbours, k - 1 and k
    dominators) and on the radius, and compare both SQL label paths with
    numpy: probe batches and ground truth.
    """

    @staticmethod
    def _assert_sql_paths_match_numpy(table, predicate):
        expected = NumpyBackend(table, predicate).evaluate_all()
        rng = np.random.default_rng(5)
        # shuffled, with repeats, so batches are not in rowidx order
        probe = rng.permutation(np.concatenate([np.arange(table.num_rows)] * 2))
        backend = make_backend("sqlite", table, predicate)
        try:
            assert CAP_PREDICATE_PUSHDOWN in backend.capabilities()
            assert backend.evaluate_all().tobytes() == expected.tobytes()
            assert backend.evaluate(probe).tobytes() == expected[probe].tobytes()
        finally:
            backend.close()

    @pytest.mark.parametrize("max_neighbors", [0, 1, 2, 3])
    def test_neighbor_counts_at_the_threshold(self, max_neighbors):
        table = _points_table(_NEIGHBOR_POINTS, "boundary")
        predicate = NeighborCountPredicate("x", "y", max_neighbors=max_neighbors, distance=5.0)
        counts = predicate.neighbor_counts(table)
        # the table really has objects on both sides of the threshold
        assert {max_neighbors, max_neighbors + 1} <= set(counts.tolist())
        self._assert_sql_paths_match_numpy(table, predicate)

    def test_neighbor_on_the_radius_counts(self):
        # (505, 0) is exactly 5 from both (500, 0) duplicates: with them it
        # has 3 neighbours and fails ``<= 2``; a strict radius would pass it.
        table = _points_table(_NEIGHBOR_POINTS, "boundary")
        predicate = NeighborCountPredicate("x", "y", max_neighbors=2, distance=5.0)
        backend = make_backend("sqlite", table, predicate)
        try:
            assert backend.evaluate(np.array([14, 2])).tolist() == [0.0, 1.0]
        finally:
            backend.close()

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("max_neighbors", [0, 2, 4])
    @pytest.mark.parametrize("distance", [1.0, 2.0])
    def test_neighbor_integer_grids(self, seed, max_neighbors, distance):
        table = _integer_grid_table(seed)
        predicate = NeighborCountPredicate(
            "x", "y", max_neighbors=max_neighbors, distance=distance
        )
        self._assert_sql_paths_match_numpy(table, predicate)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_skyband_counts_at_the_threshold(self, k):
        table = _points_table(_SKYBAND_POINTS, "boundary")
        counts = _dominator_counts(table)
        assert {k - 1, k} <= set(counts.tolist())
        self._assert_sql_paths_match_numpy(table, SkybandPredicate("x", "y", k=k))

    def test_skyband_k_beyond_table_size(self):
        # At most N - 1 dominators exist, so every object passes.
        table = _points_table(_SKYBAND_POINTS, "boundary")
        predicate = SkybandPredicate("x", "y", k=table.num_rows + 5)
        assert NumpyBackend(table, predicate).evaluate_all().min() == 1.0
        self._assert_sql_paths_match_numpy(table, predicate)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_skyband_integer_grids(self, seed, k):
        self._assert_sql_paths_match_numpy(
            _integer_grid_table(seed, span=4), SkybandPredicate("x", "y", k=k)
        )

    @pytest.mark.parametrize("predicate", [
        NeighborCountPredicate("x", "y", max_neighbors=2, distance=5.0),
        SkybandPredicate("x", "y", k=2),
    ], ids=["neighbors", "skyband"])
    def test_both_predicates_read_one_covering_index(self, predicate):
        table = _points_table(_NEIGHBOR_POINTS, "boundary")
        backend = SqliteBackend(table, predicate)
        try:
            connection = backend.connection
            indexes = [row[1] for row in connection.execute('PRAGMA index_list("boundary")')]
            assert len(indexes) == 1
            columns = [
                row[2] for row in connection.execute(f'PRAGMA index_info("{indexes[0]}")')
            ]
            assert columns == ["x", "y"]
            plan = backend._plan
            for sql, bindings in (
                (
                    f"SELECT o1.rowidx, {plan.label_expression} "
                    'FROM "boundary" o1 WHERE o1.rowidx IN (?, ?)',
                    (*plan.parameters, 0, 3),
                ),
                (
                    f'SELECT {plan.label_expression} FROM "boundary" o1 ORDER BY o1.rowidx',
                    plan.parameters,
                ),
            ):
                details = [
                    row[-1] for row in connection.execute(f"EXPLAIN QUERY PLAN {sql}", bindings)
                ]
                probes = [line for line in details if " o2 " in f"{line} "]
                assert probes and all("COVERING INDEX" in line for line in probes), details
        finally:
            backend.close()


# -- SQL round-trip accounting under pushdown ----------------------------------
class TestStageQueryAccounting:
    """The sqlite pushdown labels through batched probe round trips."""

    def _run(self, small_points_table, spec, method, budget, seed=20190621):
        predicate = SkybandPredicate("x", "y", k=5)
        previous = obs.set_enabled(True)
        try:
            obs.reset()
            query = _pushdown_query(small_points_table, predicate, spec)
            estimator = (
                LearnedWeightedSampling() if method == "lws" else LearnedStratifiedSampling()
            )
            estimator.estimate(query, budget, seed=seed)
            return obs.registry().counter_total(obs.SQL_ROUNDTRIPS, backend=spec)
        finally:
            obs.set_enabled(previous)
            obs.reset()

    def test_counts_level_uses_probe_roundtrips(self, small_points_table):
        assert self._run(small_points_table, "sqlite", "lss", 80) >= 2


# -- capabilities surface in the service ---------------------------------------
class TestServiceCapabilityStats:
    def test_stats_report_backend_capabilities(self):
        from repro.service.session import Session

        with Session("neighbors", num_rows=120, backend="sqlite", cache_labels=False) as session:
            session.estimate("srs", budget_fraction=0.1, num_trials=1, seed=11)
            stats = session.stats_dict()
            backends = {entry["spec"]: entry for entry in stats["backends"]}
            assert "sqlite" in backends
            caps = backends["sqlite"]["capabilities"]
            assert CAP_EVALUATE in caps

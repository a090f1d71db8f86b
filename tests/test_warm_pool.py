"""Warm worker pool: determinism, reuse, cost-aware dispatch and hygiene.

The tentpole guarantee — serial and warm-pool runs produce **byte-exact**
identical fingerprints — is asserted here for every method family and both
start methods, in the fast CI tier with 2 workers.  The surrounding tests
pin the supporting contracts: shared pools are actually reused, closed pools
leave ``/dev/shm`` clean even across repeated runs, chunk sizing follows the
cost hints, and oversubscription beyond the usable (affinity-aware) cores is
warned about exactly once.
"""

from __future__ import annotations

import multiprocessing
import warnings

import pytest

from repro.parallel import (
    METHOD_COST_HINTS,
    MethodSpec,
    WarmPool,
    close_shared_pools,
    dispatch_chunk_size,
    estimates_fingerprint,
    reset_oversubscription_warning,
    resolve_worker_count,
    shared_pool,
    trial_tasks,
)
from repro.parallel.engine import available_workers
from repro.parallel.pool import method_cost_hint
from repro.parallel.shm import active_segments
from repro.workloads.queries import build_workload
from repro.workloads.runner import TrialRunner

MASTER_SEED = 20190621
NUM_TRIALS = 4
WORKERS = 2
METHODS = ["srs", "ssp", "lws", "lss"]

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
START_METHODS = [
    pytest.param(
        "fork",
        marks=pytest.mark.skipif(not HAVE_FORK, reason="platform has no fork"),
    ),
    "spawn",
]


@pytest.fixture(scope="module")
def sports_workload():
    return build_workload("sports", level="S", num_rows=700)


@pytest.fixture(scope="module")
def serial_fingerprints(sports_workload):
    """Serial reference fingerprint per method, computed once."""
    budget = sports_workload.sample_size(0.05)
    fingerprints = {}
    for method in METHODS:
        runner = TrialRunner(
            workload=sports_workload, num_trials=NUM_TRIALS, seed=MASTER_SEED
        )
        runner.run(method, MethodSpec(method), budget)
        fingerprints[method] = estimates_fingerprint(runner.estimates[method])
    return fingerprints


def pool_fingerprint(pool, method: str, budget: int) -> str:
    records = pool.run(MethodSpec(method), trial_tasks(MASTER_SEED, NUM_TRIALS, budget))
    return estimates_fingerprint(record.to_estimate() for record in records)


class TestWarmPoolDeterminism:
    """Serial vs warm-pool byte-identity, across methods and start methods."""

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_byte_identical_to_serial(
        self, sports_workload, serial_fingerprints, start_method
    ):
        budget = sports_workload.sample_size(0.05)
        # One pool serves all four methods — the reuse pattern the shared
        # registry institutionalises — and every result matches serial.
        with WarmPool(sports_workload, workers=WORKERS, start_method=start_method) as pool:
            pool.warm_up()
            for method in METHODS:
                actual = pool_fingerprint(pool, method, budget)
                assert actual == serial_fingerprints[method], (method, start_method)


class TestLifecycle:
    def test_repeated_pools_leave_no_stale_segments(self, sports_workload):
        """Regression: run a pool twice, /dev/shm ends exactly as it began."""
        baseline = active_segments()
        budget = sports_workload.sample_size(0.05)
        for _ in range(2):
            with WarmPool(sports_workload, workers=WORKERS) as pool:
                pool_fingerprint(pool, "srs", budget)
            assert pool.closed
        assert active_segments() <= baseline

    def test_shared_pool_is_reused_across_runners(self, sports_workload):
        try:
            first = shared_pool(sports_workload, WORKERS)
            second = shared_pool(sports_workload, WORKERS)
            assert first is second
            assert not first.closed
        finally:
            close_shared_pools()
        assert first.closed

    def test_close_shared_pools_unlinks_segments(self, sports_workload):
        baseline = active_segments()
        shared_pool(sports_workload, WORKERS)
        assert active_segments() >= baseline
        close_shared_pools()
        assert active_segments() <= baseline

    def test_closed_pool_refuses_dispatch(self, sports_workload):
        pool = WarmPool(sports_workload, workers=WORKERS)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.run(MethodSpec("srs"), [object()])
        pool.close()  # idempotent

    def test_empty_task_list_is_a_noop(self, sports_workload):
        with WarmPool(sports_workload, workers=WORKERS) as pool:
            assert pool.run(MethodSpec("srs"), []) == []

    def test_specless_workload_rejected(self, sports_workload):
        import dataclasses

        stripped = dataclasses.replace(sports_workload, spec=None)
        with pytest.raises(ValueError, match="no WorkloadSpec"):
            WarmPool(stripped, workers=WORKERS)
        with pytest.raises(ValueError, match="shared pool"):
            shared_pool(stripped, WORKERS)


class TestDispatchPolicy:
    def test_cheap_methods_get_one_chunk_per_worker(self):
        assert dispatch_chunk_size(32, 4, cost=METHOD_COST_HINTS["srs"]) == 8

    def test_expensive_methods_get_many_small_chunks(self):
        assert dispatch_chunk_size(32, 4, cost=METHOD_COST_HINTS["lss"]) == 2
        assert dispatch_chunk_size(32, 4, cost=METHOD_COST_HINTS["qlcc"]) == 4

    def test_never_empty_or_zero(self):
        assert dispatch_chunk_size(0, 4) == 1
        assert dispatch_chunk_size(1, 8, cost=100.0) == 1
        with pytest.raises(ValueError, match="workers"):
            dispatch_chunk_size(8, 0)

    def test_cost_hint_scales_with_active_learning(self):
        base = method_cost_hint(MethodSpec("qlcc"))
        active = method_cost_hint(MethodSpec("qlcc", active_learning_rounds=2))
        assert active == pytest.approx(3.0 * base)

    def test_explicit_chunk_size_still_validated(self, sports_workload):
        with WarmPool(sports_workload, workers=WORKERS) as pool:
            with pytest.raises(ValueError, match="chunk_size"):
                pool.run(MethodSpec("srs"), [object()], chunk_size=-1)


class TestDiagnostics:
    def test_pool_diagnostics_surface_hardware(self, sports_workload):
        with WarmPool(sports_workload, workers=WORKERS) as pool:
            info = pool.diagnostics()
        assert info["workers"] == WORKERS
        assert info["usable_cores"] == available_workers()
        assert info["oversubscribed"] == (WORKERS > available_workers())
        assert info["shared_pages"] > 0
        assert info["shared_bytes"] > 0

    def test_oversubscription_warns_once_per_process(self):
        impossible = available_workers() + 63
        reset_oversubscription_warning()
        with pytest.warns(RuntimeWarning, match="usable core"):
            assert resolve_worker_count(impossible) == impossible
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_worker_count(impossible) == impossible  # silent now
        reset_oversubscription_warning()

    def test_warn_opt_out(self):
        reset_oversubscription_warning()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resolve_worker_count(available_workers() + 63, warn=False)
        reset_oversubscription_warning()

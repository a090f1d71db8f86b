"""Fault injection, self-healing recovery, and service hardening.

The invariant this suite pins is the tentpole of ``repro.resilience``: a run
that *survives* injected faults — killed workers, hung chunks, corrupted
result envelopes, transient oracle errors, held sqlite locks — produces
results **hex-identical** to a fault-free run.  Every trial draws only from
its own seed descriptor, so recovery is re-execution, never approximation.

Chaos tests are deterministic replays: each installs a seeded
:class:`~repro.resilience.FaultPlan` and asserts the plan actually fired
(``plan.exhausted``), with the plan's canonical spec in the assertion
message so a CI failure prints the exact string needed to reproduce it
locally (``REPRO_FAULTS="<spec>"``).

The fast tier runs a representative chaos subset (fork × {srs, lss} ×
{kill, corrupt, flake, hang}); the nightly tier adds the full method grid
and the spawn start method (marked ``slow``).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import socket
import sqlite3
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.parallel import (
    ChunkCorruptionError,
    ChunkEnvelope,
    ChunkRetryError,
    MethodSpec,
    WarmPool,
    close_shared_pools,
    estimates_fingerprint,
    open_chunk,
    seal_chunk,
    shared_pool,
    trial_tasks,
)
from repro.parallel.shm import active_segments
from repro.query.backends import SqliteBackend, make_backend
from repro.resilience import FaultPlan, FaultSpec, TransientFaultError, backoff_delays, faults
from repro.service.server import EstimateServer, ServerThread, request_json, request_text
from repro.service.session import Session
from repro.workloads.queries import build_workload
from repro.workloads.runner import TrialRunner

MASTER_SEED = 20190621
NUM_TRIALS = 4
WORKERS = 2
FAST_METHODS = ["srs", "lss"]
ALL_METHODS = ["srs", "ssp", "lws", "lss"]
SERVICE_ROWS = 240

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
FORK_ONLY = pytest.param(
    "fork", marks=pytest.mark.skipif(not HAVE_FORK, reason="platform has no fork")
)


def chaos_seed() -> int:
    """The replay seed: taken from ``REPRO_FAULTS`` (CI pins it) or fixed."""
    env = os.environ.get(faults.FAULTS_ENV, "").strip()
    if env:
        return FaultPlan.parse(env).seed
    return MASTER_SEED


def install_plan(spec: str, **options: float) -> FaultPlan:
    """Parse ``spec`` with the chaos seed appended and install it."""
    plan = FaultPlan.parse(f"{spec},seed:{chaos_seed()}", **options)
    faults.install(plan)
    return plan


@pytest.fixture(autouse=True)
def _clean_fault_plan():
    """Every test starts and ends with no process-local fault plan."""
    faults.reset()
    yield
    faults.reset()


@pytest.fixture(scope="module")
def sports_workload():
    return build_workload("sports", level="S", num_rows=700)


@pytest.fixture(scope="module")
def serial_fingerprints(sports_workload):
    """Fault-free serial reference fingerprint per method, computed once."""
    budget = sports_workload.sample_size(0.05)
    fingerprints = {}
    for method in ALL_METHODS:
        runner = TrialRunner(
            workload=sports_workload, num_trials=NUM_TRIALS, seed=MASTER_SEED
        )
        runner.run(method, MethodSpec(method), budget)
        fingerprints[method] = estimates_fingerprint(runner.estimates[method])
    return fingerprints


# -- fault plan grammar and semantics -----------------------------------------


class TestFaultPlan:
    def test_parse_round_trips_through_canonical(self):
        plan = FaultPlan.parse("kill:2, corrupt:1, seed:42")
        assert plan.canonical == "kill:2,corrupt:1,seed:42"
        assert FaultPlan.parse(plan.canonical).canonical == plan.canonical

    def test_empty_spec_is_a_noop_plan(self):
        plan = FaultPlan.parse("")
        assert plan.specs == ()
        assert plan.arm_chunk() is None
        plan.oracle_batch()  # no-op
        plan.sqlite_batch()  # no-op
        assert plan.exhausted

    def test_unknown_fault_name_uses_spec_string_grammar(self):
        with pytest.raises(ValueError, match="fault"):
            FaultPlan.parse("segfault:1")

    def test_occurrence_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            FaultPlan.parse("kill:0")
        with pytest.raises(ValueError, match=">= 1"):
            FaultSpec(kind="kill", nth=0)  # direct construction, same bound

    def test_nth_occurrence_counting_and_single_consumption(self):
        plan = FaultPlan.parse("corrupt:2")
        assert plan.arm_chunk() is None  # visit 1
        fired = plan.arm_chunk()  # visit 2
        assert fired is not None and fired.kind == "corrupt"
        assert plan.arm_chunk() is None  # visit 3: spec already consumed
        assert plan.exhausted

    def test_sites_count_independently(self):
        plan = FaultPlan.parse("kill:1,lock:1")
        plan.oracle_batch()  # oracle site visit does not consume pool/sqlite specs
        fired = plan.arm_chunk()
        assert fired is not None and fired.kind == "kill"
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            plan.sqlite_batch()
        assert plan.exhausted

    def test_jitter_is_deterministic_per_seed(self):
        first = FaultPlan.parse("seed:7")
        second = FaultPlan.parse("seed:7")
        assert [first.jittered(1.0) for _ in range(4)] == [
            second.jittered(1.0) for _ in range(4)
        ]
        assert FaultPlan.parse("seed:8").jittered(1.0) != first.jittered(1.0)

    def test_pool_faults_never_fire_at_the_oracle_site(self):
        plan = FaultPlan.parse("flake:1,seed:3")
        plan.oracle_batch()  # flake is a pool fault; the oracle visit is clean
        assert not plan.exhausted
        fired = plan.arm_chunk()
        assert fired is not None and fired.kind == "flake"

    def test_journal_event_shape(self):
        plan = FaultPlan.parse("kill:1,seed:5")
        plan.arm_chunk()
        assert plan.events == [
            {
                "site": "pool.chunk",
                "kind": "kill",
                "occurrence": 1,
                "pid": os.getpid(),
                "seed": 5,
            }
        ]

    def test_journal_file_appends_json_lines(self, tmp_path, monkeypatch):
        journal = tmp_path / "faults.jsonl"
        monkeypatch.setenv(faults.JOURNAL_ENV, str(journal))
        plan = FaultPlan.parse("corrupt:1,lock:1,seed:9")
        plan.arm_chunk()
        with pytest.raises(sqlite3.OperationalError):
            plan.sqlite_batch()
        lines = [json.loads(line) for line in journal.read_text().splitlines()]
        assert [event["kind"] for event in lines] == ["corrupt", "lock"]
        assert all(event["seed"] == 9 for event in lines)

    def test_env_plan_is_loaded_lazily_once(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "hang:3,seed:11")
        faults.reset()
        plan = faults.active_plan()
        assert plan is not None
        assert plan.canonical == "hang:3,seed:11"
        assert faults.active_plan() is plan  # cached, not re-parsed
        monkeypatch.delenv(faults.FAULTS_ENV)
        assert faults.active_plan() is plan  # env is only consulted once

    def test_no_env_no_plan(self, monkeypatch):
        monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
        faults.reset()
        assert faults.active_plan() is None

    def test_install_returns_previous_plan(self):
        first = FaultPlan.parse("kill:1")
        assert faults.install(first) is None
        second = FaultPlan.parse("hang:1")
        assert faults.install(second) is first
        assert faults.active_plan() is second


class TestFaultPlanOracleSite:
    def test_oracle_fault_raises_transient_error(self):
        plan = FaultPlan.parse("oracle:1,seed:2")
        with pytest.raises(TransientFaultError, match="oracle:1"):
            plan.oracle_batch()
        plan.oracle_batch()  # consumed: second visit is clean
        assert plan.exhausted

    def test_delay_fault_sleeps_without_raising(self):
        plan = FaultPlan.parse("delay:1", delay_seconds=0.01)
        started = time.perf_counter()
        plan.oracle_batch()
        assert time.perf_counter() - started >= 0.01
        assert plan.exhausted


# -- chunk envelopes and backoff ----------------------------------------------


class TestChunkEnvelope:
    def test_seal_open_round_trip(self):
        payload = {"labels": [1.0, 0.0], "trial": 7}
        assert open_chunk(seal_chunk(payload)) == payload

    def test_corrupted_payload_is_rejected(self):
        envelope = seal_chunk(list(range(64)))
        data = bytearray(envelope.data)
        data[len(data) // 2] ^= 0xFF
        with pytest.raises(ChunkCorruptionError, match="digest mismatch"):
            open_chunk(ChunkEnvelope(data=bytes(data), digest=envelope.digest))


class TestBackoff:
    def test_exponential_without_jitter(self):
        assert backoff_delays(4, base=0.1, cap=0.5, jitter=0.0) == [0.1, 0.2, 0.4, 0.5]

    def test_jitter_is_deterministic_and_bounded(self):
        first = backoff_delays(5, seed=13)
        assert first == backoff_delays(5, seed=13)
        assert first != backoff_delays(5, seed=14)
        for delay, bare in zip(first, backoff_delays(5, jitter=0.0)):
            assert 0.5 * bare <= delay <= 1.5 * bare

    def test_zero_retries_is_empty(self):
        assert backoff_delays(0) == []

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            backoff_delays(-1)


# -- chaos grid: byte-identical recovery through the warm pool ----------------


def chaos_fingerprint(workload, method: str, plan_spec: str, **pool_options):
    """Run one method through a warm pool while ``plan_spec`` is active."""
    plan = install_plan(plan_spec, **pool_options.pop("plan_options", {}))
    budget = workload.sample_size(0.05)
    with WarmPool(workload, workers=WORKERS, **pool_options) as pool:
        records = pool.run(MethodSpec(method), trial_tasks(MASTER_SEED, NUM_TRIALS, budget))
        stats = {"retries": pool.chunk_retries, "rebuilds": pool.rebuilds}
    return estimates_fingerprint(record.to_estimate() for record in records), plan, stats


class TestChaosRecovery:
    """Injected faults never change bytes — the tentpole invariant."""

    @pytest.mark.parametrize("start_method", [FORK_ONLY])
    @pytest.mark.parametrize("method", FAST_METHODS)
    @pytest.mark.parametrize("fault", ["kill:1", "corrupt:1", "flake:1"])
    def test_recovery_is_byte_identical(
        self, sports_workload, serial_fingerprints, start_method, method, fault
    ):
        actual, plan, stats = chaos_fingerprint(
            sports_workload, method, fault, start_method=start_method, chunk_size=1
        )
        assert plan.exhausted, f"fault never fired: REPRO_FAULTS={plan.canonical!r}"
        assert stats["retries"] >= 1, f"no retry recorded: REPRO_FAULTS={plan.canonical!r}"
        assert actual == serial_fingerprints[method], (
            f"recovered run diverged for {method}: REPRO_FAULTS={plan.canonical!r}"
        )

    @pytest.mark.parametrize("start_method", [FORK_ONLY])
    def test_hung_worker_recovery_is_byte_identical(
        self, sports_workload, serial_fingerprints, start_method
    ):
        actual, plan, stats = chaos_fingerprint(
            sports_workload,
            "srs",
            "hang:1",
            start_method=start_method,
            chunk_size=1,
            chunk_timeout=0.5,
            plan_options={"hang_seconds": 30.0},
        )
        assert plan.exhausted, f"fault never fired: REPRO_FAULTS={plan.canonical!r}"
        assert stats["rebuilds"] >= 1, f"no rebuild: REPRO_FAULTS={plan.canonical!r}"
        assert actual == serial_fingerprints["srs"], (
            f"recovered run diverged: REPRO_FAULTS={plan.canonical!r}"
        )

    def test_worker_kill_triggers_pool_rebuild(self, sports_workload, serial_fingerprints):
        actual, plan, stats = chaos_fingerprint(
            sports_workload, "srs", "kill:1", chunk_size=1
        )
        assert stats["rebuilds"] >= 1, f"no rebuild: REPRO_FAULTS={plan.canonical!r}"
        assert actual == serial_fingerprints["srs"]

    def test_multiple_faults_in_one_run(self, sports_workload, serial_fingerprints):
        """A kill *and* a corruption in the same run still recover exactly."""
        actual, plan, stats = chaos_fingerprint(
            sports_workload, "lss", "kill:1,corrupt:3", chunk_size=1
        )
        assert plan.exhausted, f"faults never all fired: REPRO_FAULTS={plan.canonical!r}"
        assert actual == serial_fingerprints["lss"], (
            f"recovered run diverged: REPRO_FAULTS={plan.canonical!r}"
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("start_method", [FORK_ONLY, "spawn"])
    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("fault", ["kill:1", "corrupt:1", "flake:1", "hang:1"])
    def test_full_chaos_grid(
        self, sports_workload, serial_fingerprints, start_method, method, fault
    ):
        options: dict = {"start_method": start_method, "chunk_size": 1}
        if fault.startswith("hang"):
            options.update(chunk_timeout=1.0, plan_options={"hang_seconds": 30.0})
        actual, plan, stats = chaos_fingerprint(sports_workload, method, fault, **options)
        assert plan.exhausted, f"fault never fired: REPRO_FAULTS={plan.canonical!r}"
        assert stats["retries"] >= 1 or stats["rebuilds"] >= 1
        assert actual == serial_fingerprints[method], (
            f"recovered run diverged for {method}/{start_method}: "
            f"REPRO_FAULTS={plan.canonical!r}"
        )

    def test_retry_budget_exhaustion_fails_closed(self, sports_workload):
        """Persistent chunk failure raises ChunkRetryError and leaks nothing."""
        baseline = active_segments()
        install_plan("flake:1,flake:2")
        budget = sports_workload.sample_size(0.05)
        pool = WarmPool(
            sports_workload, workers=WORKERS, chunk_size=NUM_TRIALS, max_chunk_retries=1
        )
        with pytest.raises(ChunkRetryError, match="retry budget"):
            pool.run(MethodSpec("srs"), trial_tasks(MASTER_SEED, NUM_TRIALS, budget))
        assert pool.closed
        assert active_segments() <= baseline

    def test_chunk_retries_visible_in_obs_metrics(self, sports_workload, serial_fingerprints):
        was_enabled = obs.set_enabled(True)
        obs.registry().reset()
        try:
            actual, plan, _ = chaos_fingerprint(
                sports_workload, "srs", "kill:1", chunk_size=1
            )
            assert actual == serial_fingerprints["srs"]
            registry = obs.registry()
            assert registry.counter_total(obs.FAULTS_INJECTED) >= 1
            assert registry.counter_total(obs.CHUNK_RETRIES) >= 1
            assert registry.counter_total(obs.POOL_REBUILDS) >= 1
        finally:
            obs.set_enabled(was_enabled)
            obs.registry().reset()


class TestSharedPoolRegistry:
    def test_closed_pool_is_evicted_from_registry(self, sports_workload):
        """Regression: close() must not leave a dead pool keyed in the registry."""
        try:
            first = shared_pool(sports_workload, WORKERS)
            first.close()
            second = shared_pool(sports_workload, WORKERS)
            assert second is not first
            assert not second.closed
        finally:
            close_shared_pools()


# -- sqlite under contention ---------------------------------------------------


class TestSqliteResilience:
    @pytest.fixture(scope="class")
    def neighbors_workload(self):
        return build_workload("neighbors", level="S", num_rows=200)

    def test_injected_lock_recovers_byte_identical(self, neighbors_workload):
        query = neighbors_workload.query
        indices = np.arange(60)
        backend = SqliteBackend(query.table, query.predicate)
        try:
            reference = np.asarray(backend.evaluate(indices), dtype=np.float64)
            plan = install_plan("lock:1")
            faulted = np.asarray(backend.evaluate(indices), dtype=np.float64)
            assert plan.exhausted, f"lock fault never fired: REPRO_FAULTS={plan.canonical!r}"
            assert np.array_equal(faulted, reference)
        finally:
            backend.close()

    def test_persistent_lock_exhausts_retries(self, neighbors_workload):
        query = neighbors_workload.query
        backend = SqliteBackend(query.table, query.predicate)
        try:
            # One injected lock per retry attempt and then some: the bounded
            # retry loop must give up and surface the OperationalError.
            spec = ",".join(
                f"lock:{n}" for n in range(1, backend.LOCK_RETRY_LIMIT + 3)
            )
            install_plan(spec)
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                backend.evaluate(np.arange(10))
        finally:
            backend.close()

    def test_concurrent_writer_does_not_change_bytes(self, neighbors_workload, tmp_path):
        """WAL + busy_timeout: estimates under a live writer match exactly."""
        query = neighbors_workload.query
        indices = np.arange(80)
        reference = np.asarray(query.backend.evaluate(indices), dtype=np.float64)
        database = str(tmp_path / "contention.db")
        backend = make_backend(
            f"sqlite:database={database}", query.table, query.predicate
        )
        writer_started = threading.Event()
        release_writer = threading.Event()

        def writer() -> None:
            connection = sqlite3.connect(database, timeout=5.0)
            connection.isolation_level = None  # explicit transaction control
            try:
                connection.execute("CREATE TABLE IF NOT EXISTS scratch (x REAL)")
                connection.execute("BEGIN IMMEDIATE")  # hold the write lock
                connection.execute("INSERT INTO scratch VALUES (1.0)")
                writer_started.set()
                release_writer.wait(timeout=10.0)
                connection.execute("COMMIT")
            finally:
                connection.close()

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            assert writer_started.wait(timeout=10.0)
            under_contention = np.asarray(backend.evaluate(indices), dtype=np.float64)
        finally:
            release_writer.set()
            thread.join(timeout=10.0)
            backend.close()
        assert np.array_equal(under_contention, reference)


# -- oracle-batch faults through CountingQuery --------------------------------


class TestOracleFaults:
    @pytest.fixture(scope="class")
    def workload(self):
        return build_workload("neighbors", level="S", num_rows=200)

    def test_transient_oracle_fault_is_retried_byte_identical(self, workload):
        query = workload.query
        indices = np.arange(40)
        reference = query.evaluate(indices).copy()
        evaluations_before = query.evaluations
        plan = install_plan("oracle:1")
        faulted = query.evaluate(indices)
        assert plan.exhausted, f"oracle fault never fired: REPRO_FAULTS={plan.canonical!r}"
        assert np.array_equal(faulted, reference)
        # The retried batch is charged once, like an unfaulted one.
        assert query.evaluations == evaluations_before + indices.size

    def test_injected_delay_changes_latency_never_bytes(self, workload):
        query = workload.query
        indices = np.arange(25)
        reference = query.evaluate(indices).copy()
        plan = install_plan("delay:1", delay_seconds=0.01)
        assert np.array_equal(query.evaluate(indices), reference)
        assert plan.exhausted

    def test_persistent_oracle_fault_exhausts_retries(self, workload):
        query = workload.query
        spec = ",".join(f"oracle:{n}" for n in range(1, query.ORACLE_RETRY_LIMIT + 2))
        install_plan(spec)
        with pytest.raises(TransientFaultError):
            query.evaluate(np.arange(5))


# -- service hardening ---------------------------------------------------------


def _raw_http(host: str, port: int, payload: bytes, read_timeout: float = 10.0) -> str:
    """Send raw bytes, return the response status line (for malformed requests
    urllib refuses to produce)."""
    with socket.create_connection((host, port), timeout=read_timeout) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        sock.settimeout(read_timeout)
        chunks = []
        while True:
            block = sock.recv(4096)
            if not block:
                break
            chunks.append(block)
    return b"".join(chunks).split(b"\r\n", 1)[0].decode("latin-1")


def _make_server(**options) -> ServerThread:
    session = Session("neighbors", level="S", num_rows=SERVICE_ROWS, seed=11)
    return ServerThread(EstimateServer(session=session, **options))


ESTIMATE_REQUEST = {"method": "srs", "budget": 30, "num_trials": 1, "seed": 5}


class TestServerLimits:
    def test_oversized_body_is_refused_with_413(self):
        with _make_server() as server:
            head = (
                f"POST /estimate HTTP/1.1\r\nHost: h\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {(1 << 20) + 1}\r\n\r\n"
            ).encode()
            # The declared length alone triggers the refusal; only a token
            # body is ever sent.
            status = _raw_http(server.server.host, server.server.port, head + b"x" * 64)
            assert " 413 " in status

    def test_truncated_body_is_refused_with_400(self):
        with _make_server() as server:
            request = (
                b"POST /estimate HTTP/1.1\r\nHost: h\r\n"
                b"Content-Length: 500\r\n\r\nshort"
            )
            status = _raw_http(server.server.host, server.server.port, request)
            assert " 400 " in status

    def test_slow_request_head_is_refused_with_408(self):
        with _make_server(read_timeout=0.3) as server:
            with socket.create_connection(
                (server.server.host, server.server.port), timeout=10.0
            ) as sock:
                sock.sendall(b"POST /estimate HTTP/1.1\r\n")  # never finish the head
                sock.settimeout(10.0)
                response = sock.recv(4096)
            assert b" 408 " in response.split(b"\r\n", 1)[0]

    def test_deadline_expiry_answers_504(self):
        # The injected oracle delay runs inside the server's executor thread
        # (ServerThread shares this process), pushing the request past its
        # deadline; the response must be 504, and the counter must tick.
        install_plan("delay:1", delay_seconds=1.0)
        with _make_server(request_timeout=0.2) as server:
            with pytest.raises(RuntimeError, match="504"):
                request_json(server.url, "/estimate", ESTIMATE_REQUEST)
            assert server.server.metrics.counter_total(obs.REQUEST_DEADLINES) == 1

    def test_malformed_deadline_header_is_400(self):
        with _make_server() as server:
            request = (
                b"POST /estimate HTTP/1.1\r\nHost: h\r\n"
                b"X-Repro-Deadline: soon\r\nContent-Length: 2\r\n\r\n{}"
            )
            status = _raw_http(server.server.host, server.server.port, request)
            assert " 400 " in status


class TestLoadShedding:
    def test_excess_requests_are_shed_with_503(self):
        install_plan("delay:1,delay:2", delay_seconds=1.0)
        with _make_server(max_workers=1, max_queue=0) as server:
            first_done = threading.Event()

            def occupy() -> None:
                try:
                    request_json(server.url, "/estimate", ESTIMATE_REQUEST)
                finally:
                    first_done.set()

            thread = threading.Thread(target=occupy)
            thread.start()
            try:
                time.sleep(0.3)  # let the first request occupy the only worker
                with pytest.raises(RuntimeError, match="503"):
                    request_json(
                        server.url, "/estimate", dict(ESTIMATE_REQUEST, seed=6)
                    )
                health = request_json(server.url, "/healthz")
                assert health["requests_shed"] >= 1
                assert (
                    server.server.metrics.counter_total(obs.REQUESTS_SHED) >= 1
                )
            finally:
                assert first_done.wait(timeout=30.0)
                thread.join(timeout=30.0)

    def test_shed_client_retries_to_success(self):
        install_plan("delay:1", delay_seconds=0.8)
        with _make_server(max_workers=1, max_queue=0) as server:
            responses: list = []

            def occupy() -> None:
                responses.append(
                    request_json(server.url, "/estimate", ESTIMATE_REQUEST)
                )

            thread = threading.Thread(target=occupy)
            thread.start()
            try:
                time.sleep(0.3)
                # Estimate POSTs are idempotent (bytes are a pure function of
                # the seed), so the caller may opt in to retry-on-503.
                retried = request_json(
                    server.url,
                    "/estimate",
                    dict(ESTIMATE_REQUEST, seed=6),
                    retries=6,
                    idempotent=True,
                    backoff_base=0.3,
                    backoff_seed=chaos_seed(),
                )
            finally:
                thread.join(timeout=30.0)
            assert retried["estimates"][0]["estimate_digest"]

    def test_non_idempotent_post_never_retries(self):
        """A default POST must surface 503 immediately, not retry through it."""
        install_plan("delay:1", delay_seconds=0.8)
        with _make_server(max_workers=1, max_queue=0) as server:
            thread = threading.Thread(
                target=lambda: request_json(server.url, "/estimate", ESTIMATE_REQUEST)
            )
            thread.start()
            try:
                time.sleep(0.3)
                started = time.perf_counter()
                with pytest.raises(RuntimeError, match="503"):
                    request_json(
                        server.url,
                        "/estimate",
                        dict(ESTIMATE_REQUEST, seed=7),
                        retries=5,
                        backoff_base=0.5,
                    )
                # No backoff sleeps happened: the failure was immediate.
                assert time.perf_counter() - started < 0.4
            finally:
                thread.join(timeout=30.0)


class TestHealthAndDrain:
    def test_health_states(self):
        with _make_server() as server:
            health = request_json(server.url, "/healthz")
            assert health["status"] == "ok"
            assert health["queue_depth"] == 0
            assert health["max_workers"] == 2
            server.server._draining = True
            assert request_json(server.url, "/healthz")["status"] == "draining"
            server.server._draining = False

    def test_degraded_while_queue_occupied(self):
        install_plan("delay:1,delay:2", delay_seconds=1.0)
        with _make_server(max_workers=1, max_queue=2) as server:
            threads = [
                threading.Thread(
                    target=lambda s=seed: request_json(
                        server.url, "/estimate", dict(ESTIMATE_REQUEST, seed=s)
                    )
                )
                for seed in (21, 22)
            ]
            for thread in threads:
                thread.start()
            try:
                deadline = time.monotonic() + 5.0
                saw_degraded = False
                while time.monotonic() < deadline and not saw_degraded:
                    saw_degraded = (
                        request_json(server.url, "/healthz")["status"] == "degraded"
                    )
                    time.sleep(0.05)
                assert saw_degraded
            finally:
                for thread in threads:
                    thread.join(timeout=30.0)

    def test_drain_stop_finishes_in_flight_requests(self):
        install_plan("delay:1", delay_seconds=0.8)
        server = _make_server().start()
        responses: list = []
        thread = threading.Thread(
            target=lambda: responses.append(
                request_json(server.url, "/estimate", ESTIMATE_REQUEST)
            )
        )
        thread.start()
        time.sleep(0.3)  # the request is now inside the executor
        server.stop()  # drain by default
        thread.join(timeout=30.0)
        assert responses and responses[0]["estimates"][0]["estimate_digest"]
        assert server.server.session.closed

    def test_force_stop_returns_promptly(self):
        install_plan("delay:1", delay_seconds=2.0)
        server = _make_server().start()

        def doomed_request() -> None:
            try:
                request_json(server.url, "/estimate", ESTIMATE_REQUEST)
            except Exception:
                pass  # force-stop may cut this request off; that is the point

        thread = threading.Thread(target=doomed_request, daemon=True)
        thread.start()
        time.sleep(0.3)
        started = time.perf_counter()
        server.stop(force=True)
        assert time.perf_counter() - started < 5.0

    def test_stop_is_idempotent(self):
        server = _make_server().start()
        server.stop()
        server.stop()  # second stop is a no-op

    def test_metrics_exposition_includes_server_registry(self):
        with _make_server() as server:
            with pytest.raises(RuntimeError, match="503"):
                # Provoke one shed so the counter exists: mark draining.
                server.server._draining = True
                try:
                    request_json(server.url, "/estimate", ESTIMATE_REQUEST)
                finally:
                    server.server._draining = False
            text = request_text(server.url, "/metrics")
            assert obs.REQUESTS_SHED in text


class TestSessionClosedGuard:
    def test_closed_session_refuses_requests(self):
        session = Session("neighbors", level="S", num_rows=SERVICE_ROWS, seed=11)
        session.close()
        assert session.closed
        with pytest.raises(RuntimeError, match="session is closed"):
            session.estimate(method="srs", num_trials=1, budget=20)
        session.close()  # still idempotent

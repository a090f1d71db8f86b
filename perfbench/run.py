"""The repository benchmark: four closed-loop workloads over the public API.

Usage::

    python3 perfbench/run.py --workload sweep-lss --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Workloads (all on the ``neighbors`` dataset; one client, one request in
flight, a fresh seed per request):

* ``sweep-lss``  -- in-process ``Session.sweep([level], method="lss")``;
  the DynPgm design step is nearly all of a warm LSS request.
* ``serve-lws``  -- ``POST /sweep`` (LWS) to the estimate server running in
  its own process (``serve.py``); HTTP, JSON and the PPS draw are the
  request, design and learning are zero.
* ``estimate-sqlite`` -- in-process ``Session.estimate("lws")`` on the
  sqlite backend without label caching: the only workload whose oracle goes
  to the database.
* ``trials-pool`` -- ``Session(workers=2, dispatch="warm").estimate("lws",
  num_trials=8)``: the only workload on the warm process pool, with cold
  per-trial learning inside the workers.

With ``--trace 0`` the run sets up four times, once before the timed
phase and three times after it (``setup_s`` is the median), measures for
``--seconds`` seconds with tracing off and prints the end-to-end metrics.
With ``--trace 1`` it measures half the time untraced, installs the span
wrappers of ``spans.py``, sets up again and measures the other half traced,
and prints the per-layer metrics.  Either way the last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is non-zero when a correctness check fails or an operation failed.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Seed-stream tags: warm-up, accuracy panel and timed requests never share
#: a seed (a replayed LSS seed would hit the design cache).
WARMUP_TAG, PANEL_TAG, RUN_TAG = 1, 2, 3
#: Learning-phase seed of every sweep, so timed requests hit the score cache.
LEARN_SEED = 9
SWEEP_LEVELS = ("XS", "S", "M")

#: Sizes per scale.  ``full`` is what the benchmark measures; ``toy`` is for
#: the smoke test.  ``panel`` is the number of leading timed requests whose
#: seeds are fixed (independent of ``--seed``): ``rel_rmse`` is computed over
#: them, so it compares code, not draws.
SCALES = {
    "full": {
        "setups": 4,
        "sweep-lss": {"rows": 12000, "table_seed": 7, "budget": 600, "learn_budget": 200,
                      "panel": 3},
        "serve-lws": {"rows": 12000, "budget": 600, "learn_budget": 200, "panel": 600},
        "estimate-sqlite": {"rows": 6000, "budget": 300, "trials": 1, "workers": 1,
                            "backend": "sqlite", "cache_labels": False, "panel": 20},
        "trials-pool": {"rows": 12000, "budget": 600, "trials": 8, "workers": 2, "panel": 5},
    },
    "toy": {
        "setups": 2,
        "sweep-lss": {"rows": 1500, "table_seed": 7, "budget": 120, "learn_budget": 40,
                      "panel": 3},
        "serve-lws": {"rows": 1500, "budget": 120, "learn_budget": 40, "panel": 6},
        "estimate-sqlite": {"rows": 800, "budget": 60, "trials": 1, "workers": 1,
                            "backend": "sqlite", "cache_labels": False, "panel": 2},
        "trials-pool": {"rows": 1500, "budget": 120, "trials": 4, "workers": 2, "panel": 2},
    },
}
WORKLOADS = tuple(name for name in SCALES["full"] if name != "setups")

#: End-to-end metrics (``--trace 0``) and per-layer metrics (``--trace 1``),
#: with their units.  BENCHMARK.json declares the same names.
END_TO_END = {
    "latency_p50_ms": "ms",
    "estimates_per_s": "1/s",
    "oracle_calls_per_estimate": "count",
    "rel_rmse": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "design.s": "s", "design.share": "ratio", "design.calls": "count",
    "design.candidates_p50": "count",
    "server.handler_ms_p50": "ms", "server.wire_ms_p50": "ms", "server.failed": "count",
    "server.share": "ratio",
    "session.self_ms_p50": "ms", "session.share": "ratio",
    "session.score_cache_hit_ratio": "ratio", "session.design_cache_hit_ratio": "ratio",
    "estimator.share": "ratio",
    "learning.fit_s": "s", "learning.score_s": "s", "learning.share": "ratio",
    "sampling.s": "s", "sampling.share": "ratio",
    "oracle.calls": "count", "oracle.batches": "count", "oracle.s": "s", "oracle.share": "ratio",
    "sql.queries_per_estimate": "count", "sql.s": "s", "sql.share": "ratio",
    "backend.rows_scanned": "count", "backend.share": "ratio",
    "pool.busy_s": "s", "pool.queue_wait_s": "s", "pool.dispatch_s": "s",
    "pool.utilization": "ratio", "pool.chunks": "count", "pool.chunk_retries": "count",
    "pool.worker_peak_rss_mb": "MB", "pool.share": "ratio",
    "datasets.build_s": "s", "datasets.share": "ratio",
    "other.share": "ratio", "tracing.overhead_frac": "ratio", "traced.e2e_s": "s",
}
#: Share of a traced window by which the layers may overfill it (clock
#: reads between spans) before the attribution counts as inconsistent.
ATTRIBUTION_TOLERANCE = 1e-3
#: Layer (as named in ``spans.TARGETS``) -> the share metric that reports it.
SHARE_OF_LAYER = {
    "service.server": "server.share", "service.session": "session.share",
    "core.estimators": "estimator.share", "core.stratification": "design.share",
    "learning": "learning.share", "sampling": "sampling.share",
    "query.counting": "oracle.share", "query.backends": "backend.share",
    "query.sql": "sql.share", "parallel.pool": "pool.share", "datasets": "datasets.share",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def seed_stream(*entropy: int):
    """Endless request seeds (31-bit ints) drawn from ``entropy``."""
    import numpy as np

    rng = np.random.default_rng(list(entropy))
    while True:
        yield int(rng.integers(0, 2**31 - 1))


def unique(seeds, used: set):
    """``seeds`` without any value already in ``used`` (never replay a seed)."""
    for value in seeds:
        if value not in used:
            used.add(value)
            yield value


@dataclass
class Outcome:
    """One answered request: per-estimate ``(count, true_count, oracle calls)``."""

    estimates: list
    fingerprint: str
    learning_runs: int = 0


@dataclass
class Phase:
    """One closed-loop measurement phase."""

    start: float = 0.0
    end: float = 0.0
    latencies: list = field(default_factory=list)
    requests: list = field(default_factory=list)  # (seed, level, Outcome)
    marks: list = field(default_factory=list)  # (start, estimates) per attempt
    attempted: int = 0
    failed: int = 0

    @property
    def estimates(self) -> list:
        return [e for _, _, outcome in self.requests for e in outcome.estimates]


# -- workloads -----------------------------------------------------------------


class InProcessWorkload:
    """A session in this process; set-up builds it and runs warm-up requests."""

    levels = ("S",)
    workers = 1

    def __init__(self, config: dict) -> None:
        self.config = config
        self.session = None

    def teardown(self) -> None:
        from repro.parallel.pool import close_shared_pools
        from repro.parallel.tasks import clear_workload_cache
        from repro.service.sweep import default_design_cache, default_scores_cache

        if self.session is not None:
            self.session.close()
            self.session = None
        default_scores_cache.clear()
        default_design_cache.clear()
        clear_workload_cache()
        close_shared_pools()

    def counters(self) -> dict:
        from repro import obs
        from repro.service.sweep import default_design_cache

        registry = obs.registry()
        stats = self.session.stats
        return {
            "score_hits": stats.score_cache_hits,
            "learning_runs": stats.learning_runs,
            "design_hits": default_design_cache.hits,
            "design_misses": default_design_cache.misses,
            "sql_queries": registry.counter_total(obs.SQL_ROUNDTRIPS)
            + registry.counter_total(obs.SQL_STAGE_QUERIES),
            "rows_scanned": registry.counter_total(obs.BACKEND_ROWS_SCANNED),
            "pool_chunks": registry.counter_total(obs.POOL_CHUNKS),
            "chunk_retries": registry.counter_total(obs.CHUNK_RETRIES),
            "dispatch_s": sum(registry.histogram_sums(obs.POOL_DISPATCH_SECONDS).values()),
            "queue_wait_s": sum(registry.histogram_sums(obs.POOL_QUEUE_WAIT_SECONDS).values()),
        }

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def table(self) -> dict:
        """The table recipe: ``Session`` and ``WorkloadSpec`` keywords."""
        return {"num_rows": self.config["rows"]}

    def spec(self, level):
        from repro.workloads.queries import WorkloadSpec

        return WorkloadSpec(dataset="neighbors", level=level, **self.table())

    @staticmethod
    def outcome(result, learning_runs: int = 0) -> Outcome:
        return Outcome(
            estimates=[
                (float(e.count), int(result.true_count), int(e.predicate_evaluations))
                for e in result.estimates
            ],
            fingerprint=result.fingerprint,
            learning_runs=learning_runs,
        )

    def serial_fingerprint(self, level, method_spec, seed, num_trials: int) -> str:
        """The request re-run through serial ``execute_trials``."""
        from repro.parallel.fingerprint import estimates_fingerprint
        from repro.parallel.tasks import TrialTask, execute_trials
        from repro.sampling.rng import spawn_seed_descriptors

        tasks = tuple(
            TrialTask(trial_index=index, seed=descriptor, budget=self.config["budget"])
            for index, descriptor in enumerate(spawn_seed_descriptors(seed, num_trials))
        )
        workload = self.session.workload_for(self.spec(level))
        results = execute_trials(workload, method_spec, tasks)
        return estimates_fingerprint(result.to_estimate() for result in results)


class SweepLss(InProcessWorkload):
    """Warm LSS sweeps: learning in set-up, DynPgm design in every request."""

    levels = SWEEP_LEVELS

    def table(self) -> dict:
        return {"num_rows": self.config["rows"], "seed": self.config["table_seed"]}

    def setup(self, seeds) -> None:
        from repro.service.session import Session

        config = self.config
        self.session = Session("neighbors", level="S", **self.table())
        # One LWS sweep over every level makes the levels resident and pays
        # the learning phase whose scores the timed LSS sweeps reuse.
        self.session.sweep(
            list(SWEEP_LEVELS), method="lws", budget=config["budget"],
            learn_budget=config["learn_budget"], learn_seed=LEARN_SEED, seed=next(seeds),
        )

    def sweep_options(self) -> dict:
        return {"budget": self.config["budget"], "learn_budget": self.config["learn_budget"],
                "learn_seed": LEARN_SEED, "classifier": "rf", "num_strata": 4,
                "optimizer": "dynpgm"}

    def request(self, seed: int, level) -> Outcome:
        result = self.session.sweep([level], method="lss", seed=seed, **self.sweep_options())
        return self.outcome(result.points[0], result.learning_runs)

    def replay(self, seed: int, level, outcome: Outcome) -> bool:
        from repro.core.scores import LearnedScoresSpec
        from repro.service.sweep import ScoredMethodSpec, default_design_cache, sweep_point_seed

        options = self.sweep_options()
        method_spec = ScoredMethodSpec(
            method="lss",
            anchor=self.spec("S"),
            scores=LearnedScoresSpec(
                learn_budget=options["learn_budget"], learn_seed=LEARN_SEED,
                classifier_name=options["classifier"],
            ),
            num_strata=options["num_strata"],
            optimizer=options["optimizer"],
        )
        # The replay must recompute the design, not look it up.
        default_design_cache.clear()
        replayed = self.serial_fingerprint(level, method_spec, sweep_point_seed(seed, 0, 1), 1)
        return replayed == outcome.fingerprint


class EstimateLws(InProcessWorkload):
    """Cold LWS estimates (``trials`` per request) through ``Session.estimate``.

    ``estimate-sqlite`` runs one trial per request with the oracle as SQL in
    sqlite; ``trials-pool`` runs eight per request on the two-worker pool.
    """

    def __init__(self, config: dict) -> None:
        super().__init__(config)
        self.workers = config["workers"]

    def table(self) -> dict:
        return {"num_rows": self.config["rows"],
                "backend": self.config.get("backend", "numpy"),
                "cache_labels": self.config.get("cache_labels", True)}

    def setup(self, seeds) -> None:
        from repro.service.session import Session

        self.session = Session(
            "neighbors", level="S", workers=self.workers, dispatch="warm", **self.table()
        )
        for _ in range(2):
            self.request(next(seeds), "S")

    def request(self, seed: int, level) -> Outcome:
        result = self.session.estimate(
            "lws", level=level, budget=self.config["budget"],
            num_trials=self.config["trials"], seed=seed,
        )
        return self.outcome(result)

    def replay(self, seed: int, level, outcome: Outcome) -> bool:
        from repro.experiments.config import parse_method_spec

        replayed = self.serial_fingerprint(
            level, parse_method_spec("lws"), seed, self.config["trials"]
        )
        return replayed == outcome.fingerprint


class ServeLws:
    """LWS sweeps over HTTP to the estimate server in its own process."""

    levels = SWEEP_LEVELS
    workers = 1

    def __init__(self, config: dict, run_dir: Path) -> None:
        self.config = config
        self.run_dir = run_dir
        self.process = None
        self.url = None
        self.recorder = None
        self.launches = 0

    def _launch(self) -> None:
        command = [sys.executable, "-u", str(HERE / "serve.py")]
        if self.recorder is not None:
            command += ["--trace-dir", str(self.run_dir)]
        command += ["--", "--port", "0", "--dataset", "neighbors", "--level", "S",
                    "--num-rows", str(self.config["rows"])]
        env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
        self.launches += 1
        with open(self.run_dir / f"server-{self.launches}.log", "w") as server_log:
            self.process = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=server_log, text=True,
                cwd=ROOT, env=env,
            )
        ready, _, _ = select.select([self.process.stdout], [], [], 120.0)
        line = self.process.stdout.readline() if ready else ""
        if "listening on" not in line:
            raise RuntimeError(f"estimate server did not start (see {server_log.name})")
        self.url = line.strip().rsplit(" ", 1)[-1]

    def payload(self, seed: int, levels) -> dict:
        return {"levels": list(levels), "method": "lws", "budget": self.config["budget"],
                "learn_budget": self.config["learn_budget"], "learn_seed": LEARN_SEED,
                "seed": seed}

    def _post(self, payload: dict) -> dict:
        from repro.service.server import request_json

        return request_json(self.url, "/sweep", payload, timeout=60.0)

    def setup(self, seeds) -> None:
        self._launch()
        # Learning and residency of every level, then the HTTP path warm.
        self._post(self.payload(next(seeds), SWEEP_LEVELS))
        for level in SWEEP_LEVELS:
            self._post(self.payload(next(seeds), [level]))

    def request(self, seed: int, level) -> Outcome:
        started = time.perf_counter()
        try:
            response = self._post(self.payload(seed, [level]))
        finally:
            if self.recorder is not None:
                import spans

                self.recorder.record(
                    spans.HTTP_SPAN, "service.server", seed, started, time.perf_counter()
                )
        point = response["points"][0]
        return Outcome(
            estimates=[
                (float(e["count"]), int(point["true_count"]), int(e["predicate_evaluations"]))
                for e in point["estimates"]
            ],
            fingerprint=response["fingerprint"],
            learning_runs=int(response["learning_runs"]),
        )

    def replay(self, seed: int, level, outcome: Outcome) -> bool:
        return self._post(self.payload(seed, [level]))["fingerprint"] == outcome.fingerprint

    def counters(self) -> dict:
        from repro import obs
        from repro.service.server import request_json, request_text

        stats = request_json(self.url, "/stats", timeout=30.0)
        wanted = {
            obs.SQL_ROUNDTRIPS: "sql_queries", obs.SQL_STAGE_QUERIES: "sql_queries",
            obs.BACKEND_ROWS_SCANNED: "rows_scanned",
        }
        totals = {"sql_queries": 0.0, "rows_scanned": 0.0}
        for line in request_text(self.url, "/metrics", timeout=30.0).splitlines():
            if line.startswith("#") or not line.strip():
                continue
            series, _, value = line.rpartition(" ")
            name = series.split("{", 1)[0]
            if name in wanted:
                totals[wanted[name]] += float(value)
        return {
            "score_hits": stats["score_cache_hits"],
            "learning_runs": stats["learning_runs"],
            "design_hits": stats["design_cache_hits"],
            "design_misses": stats["design_cache_misses"],
            "pool_chunks": 0.0, "chunk_retries": 0.0, "dispatch_s": 0.0, "queue_wait_s": 0.0,
            **totals,
        }

    def peak_rss_mb(self) -> float:
        """Peak RSS of the server process (``VmHWM``)."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def teardown(self) -> None:
        if self.process is None:
            return
        process, self.process = self.process, None
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait until it has exited.

    The warm pool's shared-memory pages start the tracker as a process of its
    own, which would otherwise outlive this one until it reads the end of
    its pipe.  Call it after every pool is closed.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def make_workload(name: str, config: dict, run_dir: Path):
    if name == "serve-lws":
        return ServeLws(config, run_dir)
    return SweepLss(config) if name == "sweep-lss" else EstimateLws(config)


# -- measurement ---------------------------------------------------------------


def run_phase(workload, seeds, seconds: float, min_requests: int) -> Phase:
    """Closed loop: one request in flight, until ``seconds`` have passed.

    The loop also runs at least ``min_requests`` requests and always ends on
    a whole rotation of levels, so every run measures the same level mix.
    """
    gc.collect()
    phase = Phase(start=time.perf_counter())
    rotation = len(workload.levels)
    while (
        phase.attempted < min_requests
        or phase.attempted % rotation
        or time.perf_counter() - phase.start < seconds
    ):
        seed = next(seeds)
        level = workload.levels[phase.attempted % rotation]
        phase.attempted += 1
        started = time.perf_counter()
        try:
            outcome = workload.request(seed, level)
        except Exception as exc:  # a failed operation is counted, not fatal
            phase.failed += 1
            phase.marks.append((started, 0))
            log(f"request seed={seed} level={level} failed: {type(exc).__name__}: {exc}")
            continue
        phase.latencies.append(time.perf_counter() - started)
        phase.requests.append((seed, level, outcome))
        phase.marks.append((started, len(outcome.estimates)))
    phase.end = time.perf_counter()
    return phase


def check_phase(workload, phase: Phase, budget: int, problems: list) -> None:
    """Correctness checks on the answered requests, then one replay."""
    if not phase.requests:
        problems.append("no request succeeded")
        return
    for seed, level, outcome in phase.requests:
        calls = {calls for _, _, calls in outcome.estimates}
        if calls != {budget}:
            problems.append(f"seed {seed}: oracle calls {sorted(calls)} != budget {budget}")
        if outcome.learning_runs != 0:
            problems.append(f"seed {seed}: timed request ran {outcome.learning_runs} learning")
        for count, true_count, _ in outcome.estimates:
            if not math.isfinite(count) or true_count <= 0:
                problems.append(f"seed {seed}: invalid estimate {count} / truth {true_count}")
    seed, level, outcome = phase.requests[-1]
    if not workload.replay(seed, level, outcome):
        problems.append(f"replay of seed {seed} ({level}) did not reproduce its fingerprint")


def relative_rmse(requests: list) -> float:
    errors = [
        ((count - true_count) / true_count) ** 2
        for _, _, outcome in requests
        for count, true_count, _ in outcome.estimates
    ]
    return math.sqrt(sum(errors) / len(errors)) if errors else 0.0


def rotation_throughput(phase: Phase, rotation: int) -> float:
    """Median over the level rotations of the phase of estimates / rotation time.

    A rotation (one request per level) runs from its first request's start
    to the next rotation's, so the rotations tile the timed phase and the
    client's time between requests counts.  The median keeps the slowest
    requests, which spread widely from run to run on a shared host, out of
    the figure; ``tail_summary`` reports them.
    """
    starts = [start for start, _ in phase.marks] + [phase.end]
    return float(statistics.median(
        sum(count for _, count in phase.marks[lo:lo + rotation])
        / (starts[lo + rotation] - starts[lo])
        for lo in range(0, len(phase.marks), rotation)
    ))


def tail_summary(latencies: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for percentile in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        beyond = int(n * (1.0 - percentile / 100.0))
        if beyond >= 10:
            value = ordered[min(n - 1, int(math.ceil(n * percentile / 100.0)) - 1)]
            return f"p{percentile:g} = {value * 1e3:.3f} ms ({beyond} samples beyond it, n={n})"
    return f"fewer than 10 samples beyond p50 (n={n})"


def median_or_zero(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def end_to_end(workload, config: dict, seconds: float, seed: int, index: int,
               problems: list) -> tuple[dict, Phase]:
    used: set = set()
    warmup = unique(seed_stream(WARMUP_TAG, index, seed), used)
    setup_times = []

    def set_up() -> None:
        gc.collect()
        started = time.perf_counter()
        workload.setup(warmup)
        setup_times.append(time.perf_counter() - started)

    # The first set-up pays first-call costs (lazy imports, a cold heap) and
    # leaves the session the timed phase uses.  The other set-ups all run
    # after the timed phase: on sweep-lss a set-up ran about 20 % faster there
    # than right after the first one (the heap has grown to its working
    # size), so taking them in one place keeps their median in one regime.
    set_up()
    panel = list(itertools.islice(unique(seed_stream(PANEL_TAG, index), used), config["panel"]))
    requests = unique(seed_stream(RUN_TAG, index, seed), used)
    phase = run_phase(workload, itertools.chain(panel, requests), seconds, config["panel"])
    check_phase(workload, phase, config["budget"], problems)
    peak = workload.peak_rss_mb()
    for _ in range(config["setups"] - 1):
        workload.teardown()
        set_up()
    log("setup_s per set-up: " + ", ".join(f"{value:.3f}" for value in setup_times))
    estimates = phase.estimates
    elapsed = phase.end - phase.start
    log(f"{phase.attempted} requests, {len(estimates)} estimates in {elapsed:.3f} s "
        f"({len(estimates) / elapsed:.4g}/s); tail {tail_summary(phase.latencies)}")
    metrics = {
        "latency_p50_ms": median_or_zero(phase.latencies) * 1e3,
        "estimates_per_s": rotation_throughput(phase, len(workload.levels)),
        "oracle_calls_per_estimate": (
            sum(calls for _, _, calls in estimates) / len(estimates) if estimates else 0.0
        ),
        "rel_rmse": relative_rmse([r for r in phase.requests if r[0] in set(panel)]),
        "peak_rss_mb": peak,
        "setup_s": float(statistics.median(setup_times)),
    }
    return metrics, phase


def check_attribution(attribution: dict, total: float, problems: list) -> None:
    """The layers' self times must fit in the window they were taken from.

    ``other`` is the window minus the layers, so layers that claim more time
    than the window holds (spans counted twice, overlapping roots, worker
    time scaled too little) show as a negative ``other``.
    """
    if attribution["other"] < -ATTRIBUTION_TOLERANCE * total:
        problems.append(
            f"layers claim {total - attribution['other']:.4f} s of a {total:.4f} s window"
        )
    if any(span["self"] < -1e-4 for span in attribution["spans"]):
        problems.append("a span's children outlast it: attribution is inconsistent")


def per_layer(workload, config: dict, seconds: float, seed: int, index: int,
              run_dir: Path, problems: list) -> tuple[dict, Phase]:
    import spans
    from repro import obs

    used: set = set()
    warmup = unique(seed_stream(WARMUP_TAG, index, seed), used)
    requests = unique(seed_stream(RUN_TAG, index, seed), used)
    half = max(seconds / 2.0, 1.0)

    workload.setup(warmup)
    untraced = run_phase(workload, requests, half, 0)
    check_phase(workload, untraced, config["budget"], problems)
    workload.teardown()

    obs.set_enabled(True)
    recorder = spans.install(run_dir)
    if isinstance(workload, ServeLws):
        workload.recorder = recorder  # times the HTTP calls, launches a traced server
    setup_start = time.perf_counter()
    workload.setup(warmup)
    setup_end = time.perf_counter()
    obs.reset()
    before = workload.counters()
    traced = run_phase(workload, requests, half, 0)
    after = workload.counters()
    check_phase(workload, traced, config["budget"], problems)
    workload.teardown()
    recorder.flush()

    recorded = spans.load_spans(recorder)
    setup_layers = spans.attribute(recorded, setup_start, setup_end)["layers"]
    attribution = spans.attribute(recorded, traced.start, traced.end, workload.workers)
    inside = attribution["spans"]
    total = traced.end - traced.start
    layers = {layer: attribution["layers"].get(layer, 0.0) for layer in SHARE_OF_LAYER}
    count = max(len(traced.estimates), 1)
    delta = {key: after[key] - before[key] for key in before}

    def named(*names):
        return [span for span in inside if span["name"] in names]

    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    sessions = named("Session.sweep", "Session.estimate")
    http = named(spans.HTTP_SPAN)
    served = [span for span in sessions if span.get("attached") is not None]
    chunks = named(spans.CHUNK_SPAN)
    busy = sum(span["end"] - span["start"] for span in chunks)
    metrics = {
        "design.s": layers["core.stratification"] / count,
        "design.calls": len(named("dynpgm_design")) / count,
        "design.candidates_p50": median_or_zero(
            span["candidates"] for span in named("candidate_boundary_cuts")
        ),
        "server.handler_ms_p50": median_or_zero(
            (span["end"] - span["start"]) * 1e3 for span in served
        ),
        "server.wire_ms_p50": median_or_zero(span["self"] * 1e3 for span in http),
        "server.failed": float(traced.failed) if isinstance(workload, ServeLws) else 0.0,
        "session.self_ms_p50": median_or_zero(span["self"] * 1e3 for span in sessions),
        "session.score_cache_hit_ratio": ratio(delta["score_hits"], delta["learning_runs"]),
        "session.design_cache_hit_ratio": ratio(delta["design_hits"], delta["design_misses"]),
        "learning.fit_s": sum(s["self"] for s in named("RandomForestClassifier.fit")) / count,
        "learning.score_s": sum(
            s["self"] for s in named("RandomForestClassifier.predict_scores")
        ) / count,
        "sampling.s": layers["sampling"] / count,
        "oracle.calls": sum(span["n"] for span in named("CountingQuery.evaluate")) / count,
        "oracle.batches": len(named("CountingQuery.evaluate")) / count,
        "oracle.s": layers["query.counting"] / count,
        "sql.queries_per_estimate": delta["sql_queries"] / count,
        "sql.s": layers["query.sql"] / count,
        "backend.rows_scanned": delta["rows_scanned"] / count,
        "pool.busy_s": busy / count,
        "pool.queue_wait_s": delta["queue_wait_s"] / count,
        "pool.dispatch_s": delta["dispatch_s"] / count,
        "pool.utilization": busy / (workload.workers * total),
        "pool.chunks": delta["pool_chunks"] / count,
        "pool.chunk_retries": delta["chunk_retries"],
        "pool.worker_peak_rss_mb": max((s["maxrss_kb"] for s in chunks), default=0) / 1024.0,
        "datasets.build_s": setup_layers["datasets"],
        "other.share": attribution["other"] / total,
        "tracing.overhead_frac": (
            median_or_zero(traced.latencies) / median_or_zero(untraced.latencies) - 1.0
            if untraced.latencies and traced.latencies else 0.0
        ),
        "traced.e2e_s": total,
    }
    for layer, seconds_in_layer in layers.items():
        metrics[SHARE_OF_LAYER[layer]] = seconds_in_layer / total
    check_attribution(attribution, total, problems)
    log("layer self seconds: " + ", ".join(
        f"{layer}={value:.4f}" for layer, value in layers.items()
    ) + f", other={attribution['other']:.4f}, total={total:.4f}")
    # The combined phase counts every operation the run attempted.
    combined = Phase(start=untraced.start, end=traced.end,
                     attempted=untraced.attempted + traced.attempted,
                     failed=untraced.failed + traced.failed)
    return metrics, combined


def run_one(options) -> int:
    if not (SRC / "repro").is_dir():
        log(f"no program sources at {SRC}; run from a checkout of the repository")
        return 2
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]  # no fault plans, dataset caches or obs from outside
    sys.path.insert(0, str(SRC))
    from repro import obs

    obs.set_enabled(False)
    scale = SCALES[options.scale]
    config = {"setups": scale["setups"], **scale[options.workload]}
    index = WORKLOADS.index(options.workload)
    run_dir = ROOT / ".perfbench" / f"{options.workload}-{options.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    workload = make_workload(options.workload, config, run_dir)
    problems: list = []
    try:
        if options.trace:
            metrics, phase = per_layer(workload, config, options.seconds, options.seed,
                                       index, run_dir, problems)
            units = PER_LAYER
        else:
            metrics, phase = end_to_end(workload, config, options.seconds, options.seed,
                                        index, problems)
            units = END_TO_END
    finally:
        try:
            workload.teardown()
        finally:
            stop_resource_tracker()
    for problem in problems:
        log(f"CHECK FAILED: {problem}")
    for name, unit in units.items():
        print(f"{options.workload} {name} = {metrics[name]:.6g} {unit}")
    if not options.trace and not problems and phase.failed == 0:
        shutil.rmtree(run_dir, ignore_errors=True)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()
        },
    }), flush=True)
    return 0 if correct and phase.failed == 0 else 1


def run_all(options) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(options.seed), "--seconds", str(options.seconds),
                   "--trace", str(options.trace), "--scale", options.scale]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if completed.returncode != 0 or not lines:
            status = 1
        if not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SCALES), default="full",
                        help="input sizes; 'toy' is for the smoke test")
    options = parser.parse_args(argv)
    if options.seed < 0:
        parser.error("--seed must be non-negative")
    if options.workload == "all":
        return run_all(options)
    return run_one(options)


if __name__ == "__main__":
    raise SystemExit(main())

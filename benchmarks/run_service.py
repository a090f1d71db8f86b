"""Tracked benchmark for the estimate service: warm score-reuse vs cold one-shot.

Measures what residency buys.  The *cold* path answers every request the
pre-service way — a one-shot ``Session().estimate_query(...)`` that pays
the full learning phase (labelling + classifier training + whole-table
scoring) per call.  The *warm* path answers the same requests through the
running estimate server: the learning phase is paid once on the first
request, and every subsequent request samples over the resident scores.
The script reports p50/p99 request latency and estimates/sec for both paths,
verifies warm responses are deterministic (same request → byte-identical
fingerprint), and emits ``BENCH_service.json`` at the repository root next
to the other trajectories.

The gated method is LWS: its sampling phase is a pure PPS draw, so the
cold/warm gap isolates exactly what residency amortises (labelling,
classifier training, whole-table scoring).  LSS is reported informationally —
its per-request pilot + stratification-design optimisation runs in *both*
paths by construction, so it bounds the achievable speedup and is not gated.

The gate: warm requests must be at least 10x faster at p50 than cold
one-shot calls.  Digest determinism is asserted unconditionally; the latency
gate compares medians, so a single slow request (GC, scheduler) cannot flip
it.

Usage::

    python benchmarks/run_service.py                    # writes BENCH_service.json
    python benchmarks/run_service.py --scale small      # quick smoke sizes
    python benchmarks/run_service.py --output /tmp/s.json --check-against BENCH_service.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

_REPO_ROOT = pathlib.Path(__file__).parent.parent
_SRC = _REPO_ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

from repro import obs  # noqa: E402
from repro.obs.export import group_stage_totals, stage_totals  # noqa: E402
from repro.service.server import ServerThread, request_json  # noqa: E402
from repro.service.session import Session  # noqa: E402
from repro.workloads.queries import WorkloadSpec  # noqa: E402

DEFAULT_OUTPUT = _REPO_ROOT / "BENCH_service.json"

MASTER_SEED = 20190621
SAMPLE_FRACTION = 0.05
LEARN_SEED = 9

#: The gate: a warm request over resident scores must beat the cold one-shot
#: by at least this factor at the median.
TARGET_SPEEDUP = 10.0

#: A re-measured speedup may regress to this fraction of the committed
#: baseline before --check-against fails; below that it's a real regression,
#: not timing noise.
BASELINE_TOLERANCE = 0.8


def _latency_summary(latencies: "list[float]") -> dict:
    samples = np.asarray(latencies, dtype=np.float64)
    return {
        "requests": int(samples.size),
        "p50_ms": round(float(np.percentile(samples, 50)) * 1e3, 3),
        "p99_ms": round(float(np.percentile(samples, 99)) * 1e3, 3),
        "mean_ms": round(float(samples.mean()) * 1e3, 3),
        "estimates_per_sec": round(float(samples.size / samples.sum()), 3),
    }


def _run_one_shot(workload, method: str, budget: int, requests: int) -> "list[float]":
    """A throwaway session's ``estimate_query`` per request: full learning every time."""
    latencies = []
    for index in range(requests):
        started = time.perf_counter()
        Session().estimate_query(workload.query, budget, method=method, seed=MASTER_SEED + index)
        latencies.append(time.perf_counter() - started)
    return latencies


def _run_warm(
    anchor: WorkloadSpec,
    method: str,
    budget: int,
    learn_budget: int,
    requests: int,
    after_first=None,
) -> tuple["list[float]", float, dict]:
    """Server-resident requests: learning paid once, then score reuse.

    ``after_first`` is invoked right after the learning-heavy first request —
    the breakdown mode resets the obs registry there, so the captured warm
    stage shares describe only steady-state requests.
    """

    def sweep_payload(seed: int) -> dict:
        return {
            "levels": [anchor.level],
            "method": method,
            "budget": budget,
            "seed": seed,
            "learn_budget": learn_budget,
            "learn_seed": LEARN_SEED,
        }

    latencies = []
    with ServerThread(source=anchor) as server:
        # First request pays table residency + the one learning phase.
        started = time.perf_counter()
        first = request_json(server.url, "/sweep", sweep_payload(MASTER_SEED - 1))
        first_seconds = time.perf_counter() - started
        assert first["learning_runs"] == 1, "first warm request must learn"
        if after_first is not None:
            after_first()

        for index in range(requests):
            started = time.perf_counter()
            response = request_json(server.url, "/sweep", sweep_payload(MASTER_SEED + index))
            latencies.append(time.perf_counter() - started)
            assert response["learning_runs"] == 0, "warm requests must not re-learn"

        # Determinism across the wire: repeating a request reproduces its
        # fingerprint byte-for-byte.
        replay = request_json(server.url, "/sweep", sweep_payload(MASTER_SEED))
        again = request_json(server.url, "/sweep", sweep_payload(MASTER_SEED))
        assert replay["fingerprint"] == again["fingerprint"], (
            "warm responses must be deterministic"
        )

        stats = request_json(server.url, "/stats")
    return latencies, first_seconds, stats


def _gate(cold_p50_ms: float, warm_p50_ms: float) -> dict:
    speedup = cold_p50_ms / warm_p50_ms if warm_p50_ms > 0 else float("inf")
    return {
        "name": "warm_estimate_speedup",
        "target": TARGET_SPEEDUP,
        "speedup": round(speedup, 3),
        "status": "pass" if speedup >= TARGET_SPEEDUP else "fail",
    }


def run_suite(scale: str = "full", requests: int | None = None, breakdown: bool = False) -> dict:
    """Run the cold/warm comparison and assemble the trajectory document.

    With ``breakdown=True`` the run enables ``repro.obs`` and embeds
    per-stage (learning/design/sampling) second shares for the cold path and
    for steady-state warm requests.  The server runs in-process, so its
    executor threads write the same global registry this driver reads.
    Observability never changes estimate bytes, so the latencies and the
    gate stay comparable either way (modulo the timing overhead itself).
    """
    num_rows = 12_000 if scale == "full" else 2_000
    if requests is None:
        requests = 30 if scale == "full" else 8
    anchor = WorkloadSpec(dataset="neighbors", level="S", num_rows=num_rows, seed=7)
    workload = anchor.build()
    budget = workload.sample_size(SAMPLE_FRACTION)
    learn_budget = max(2, budget // 3)

    was_enabled = obs.enabled()
    registry = obs.registry()
    if breakdown:
        obs.set_enabled(True)

    methods = {}
    gate = None
    first_seconds = stats = None
    for method, method_requests in (("lws", requests), ("lss", max(3, requests // 4))):
        if breakdown:
            registry.reset()
        cold_latencies = _run_one_shot(workload, method, budget, method_requests)
        cold_stages = group_stage_totals(stage_totals(registry)) if breakdown else None
        if breakdown:
            registry.reset()
        warm_latencies, warm_first, warm_stats = _run_warm(
            anchor,
            method,
            budget,
            learn_budget,
            method_requests,
            after_first=registry.reset if breakdown else None,
        )
        warm_stages = group_stage_totals(stage_totals(registry)) if breakdown else None
        cold = _latency_summary(cold_latencies)
        warm = _latency_summary(warm_latencies)
        methods[method] = {
            "cold_one_shot": cold,
            "warm_resident": warm,
            "warm_first_request_seconds": round(warm_first, 4),
            "warm_speedup_p50": round(cold["p50_ms"] / warm["p50_ms"], 3),
        }
        if breakdown:
            methods[method]["stage_breakdown"] = {"cold": cold_stages, "warm": warm_stages}
            print(
                f"{method} stage shares: cold {cold_stages['shares']} | "
                f"warm {warm_stages['shares']}"
            )
        print(
            f"{method}: cold p50 {cold['p50_ms']:.1f} ms  p99 {cold['p99_ms']:.1f} ms | "
            f"warm p50 {warm['p50_ms']:.1f} ms  p99 {warm['p99_ms']:.1f} ms  "
            f"{warm['estimates_per_sec']:.2f} est/s  "
            f"(first {warm_first*1e3:.1f} ms incl. learning)"
        )
        if method == "lws":
            gate = _gate(cold["p50_ms"], warm["p50_ms"])
            first_seconds, stats = warm_first, warm_stats
    if breakdown:
        obs.set_enabled(was_enabled)
        registry.reset()
    print(
        f"gate {gate['status']}: {gate['speedup']}x vs {gate['target']}x target; "
        f"each warm server ran 1 learning phase"
    )
    return {
        "suite": "estimate-service",
        "scale": scale,
        "breakdown": breakdown,
        "num_rows": num_rows,
        "budget": budget,
        "learn_budget": learn_budget,
        "requests_per_path": requests,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "deterministic_responses": True,  # a divergence would have raised above
        "methods": methods,
        "warm_first_request_seconds": round(first_seconds, 4),
        "server_stats": {
            "learning_runs": stats["learning_runs"],
            "estimates_served": stats["estimates_served"],
            "oracle_calls_saved": stats["oracle_calls_saved"],
        },
        "gate": gate,
    }


def check_against(document: dict, baseline_path: pathlib.Path) -> int:
    """Compare a fresh run against the committed baseline document.

    Returns a process exit code: 1 if the fresh gate fails its 10x floor, or
    if the speedup regressed below ``BASELINE_TOLERANCE`` of the committed
    baseline; 0 otherwise.
    """
    baseline = json.loads(baseline_path.read_text())
    current_gate = document["gate"]
    baseline_gate = baseline.get("gate", {})
    if current_gate["status"] == "fail":
        print(
            f"FAIL: warm-request speedup {current_gate['speedup']}x is below the "
            f"{current_gate['target']}x floor",
            file=sys.stderr,
        )
        return 1
    if baseline_gate.get("status") != "pass":
        print(
            f"gate pass at {current_gate['speedup']}x "
            "(committed baseline had no passing gate to compare against)"
        )
        return 0
    floor = BASELINE_TOLERANCE * float(baseline_gate["speedup"])
    if current_gate["speedup"] < floor:
        print(
            f"FAIL: warm-request speedup regressed to {current_gate['speedup']}x; "
            f"committed baseline is {baseline_gate['speedup']}x "
            f"(tolerance floor {floor:.2f}x)",
            file=sys.stderr,
        )
        return 1
    print(
        f"gate pass at {current_gate['speedup']}x "
        f"(baseline {baseline_gate['speedup']}x, floor {floor:.2f}x)"
    )
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--scale", choices=("small", "full"), default="full")
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument(
        "--breakdown",
        action="store_true",
        help="enable repro.obs and embed per-stage second shares in the document",
    )
    parser.add_argument(
        "--check-against",
        type=pathlib.Path,
        default=None,
        help="committed BENCH_service.json to compare the fresh run against",
    )
    args = parser.parse_args(argv)
    document = run_suite(scale=args.scale, requests=args.requests, breakdown=args.breakdown)
    args.output.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {args.output}")
    if args.check_against is not None:
        return check_against(document, args.check_against)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

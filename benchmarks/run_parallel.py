"""Tracked benchmark for the parallel trial engine: warm pool vs serial.

Runs a figure2-style method sweep (srs / ssp / lws / lss) over one Sports
workload two ways — serially in-process and through the warm worker pool
(persistent workers attached to shared-memory dataset pages) — then
verifies both produce **byte-identical** estimate fingerprints and reports
the wall-clock ratio.  The script writes ``BENCH_parallel.json`` at the
repository root so successive changes leave a perf trajectory next to
``BENCH_micro.json``.

The fingerprint identity is asserted unconditionally (a divergence is a hard
failure everywhere, CI included).  The >=2x speedup-at-4-workers gate is only
meaningful on hardware with at least 4 usable cores; on smaller runners the
gate is recorded as ``skipped`` with the reason, never silently passed.

Usage::

    python benchmarks/run_parallel.py                   # writes BENCH_parallel.json
    python benchmarks/run_parallel.py --scale small     # quick smoke sizes
    python benchmarks/run_parallel.py --output /tmp/p.json --check-against BENCH_parallel.json
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
from repro.parallel import (  # noqa: E402
    MethodSpec,
    WarmPool,
    available_workers,
    default_start_method,
    estimates_fingerprint,
    trial_tasks,
)
from repro.workloads.queries import Workload, build_workload  # noqa: E402
from repro.workloads.runner import TrialRunner  # noqa: E402

DEFAULT_OUTPUT = _REPO_ROOT / "BENCH_parallel.json"

#: Methods swept per path: the figure2 family, cheap samplers through the
#: most expensive learned method.
METHODS = ("srs", "ssp", "lws", "lss")

MASTER_SEED = 20190621
SAMPLE_FRACTION = 0.03

#: The gate: warm pool at 4 workers must at least halve the serial sweep.
TARGET_SPEEDUP = 2.0
GATE_WORKERS = 4

#: A re-measured speedup may regress to this fraction of the committed
#: baseline before --check-against fails; below that it's a real regression,
#: not timing noise.
BASELINE_TOLERANCE = 0.8


def _sweep_serial(workload: Workload, budget: int, trials: int) -> dict[str, dict]:
    results: dict[str, dict] = {}
    for method in METHODS:
        runner = TrialRunner(workload=workload, num_trials=trials, seed=MASTER_SEED)
        started = time.perf_counter()
        runner.run(method, MethodSpec(method), budget)
        results[method] = {
            "seconds": time.perf_counter() - started,
            "fingerprint": estimates_fingerprint(runner.estimates[method]),
        }
    return results


def _sweep_warm(
    workload: Workload, budget: int, trials: int, workers: int
) -> tuple[dict[str, dict], float]:
    """Warm pool: start-up paid once (timed separately), then streamed tasks."""
    results: dict[str, dict] = {}
    started = time.perf_counter()
    with WarmPool(workload, workers=workers) as pool:
        pool.warm_up()
        startup_seconds = time.perf_counter() - started
        tasks = trial_tasks(MASTER_SEED, trials, budget)
        for method in METHODS:
            method_started = time.perf_counter()
            records = pool.run(MethodSpec(method), tasks)
            results[method] = {
                "seconds": time.perf_counter() - method_started,
                "fingerprint": estimates_fingerprint(record.to_estimate() for record in records),
            }
    return results, startup_seconds


def _gate(total_serial: float, total_warm: float, usable: int, workers: int) -> dict:
    speedup = total_serial / total_warm if total_warm > 0 else float("inf")
    gate = {
        "name": f"warm_pool_speedup_at_{workers}_workers",
        "target": TARGET_SPEEDUP,
        "speedup": round(speedup, 3),
        "usable_cores": usable,
    }
    if usable < workers:
        gate["status"] = "skipped"
        gate["reason"] = (
            f"needs >= {workers} usable cores to be meaningful, found {usable} "
            "(CPU-affinity aware); fingerprint identity was still asserted"
        )
    else:
        gate["status"] = "pass" if speedup >= TARGET_SPEEDUP else "fail"
    return gate


def run_suite(
    scale: str = "full",
    trials: int | None = None,
    workers: int = GATE_WORKERS,
    breakdown: bool = False,
) -> dict:
    """Run the serial and warm sweeps and assemble the trajectory document.

    With ``breakdown=True`` the run enables ``repro.obs``: serial and warm
    sweeps each get estimator-stage second shares, and the warm sweep also
    reports the pool's dispatch/queue-wait/chunk-size histograms (workers
    ship their registries back with each chunk).  Fingerprint identity is
    still asserted — observability never changes estimate bytes.
    """
    num_rows = 12_000 if scale == "full" else 2_000
    if trials is None:
        trials = 16 if scale == "full" else 6
    workload = build_workload("sports", level="S", num_rows=num_rows)
    budget = workload.sample_size(SAMPLE_FRACTION)
    # Warm the bulk label cache once, outside all timed regions, so no path
    # absorbs the one-off full-table predicate scan.
    workload.query.export_label_cache(compute=True)

    was_enabled = obs.enabled()
    registry = obs.registry()
    if breakdown:
        obs.set_enabled(True)
        registry.reset()
    serial = _sweep_serial(workload, budget, trials)
    serial_stages = group_stage_totals(stage_totals(registry)) if breakdown else None
    if breakdown:
        registry.reset()
    warm, startup_seconds = _sweep_warm(workload, budget, trials, workers)
    obs_breakdown = None
    if breakdown:
        obs_breakdown = {
            "serial_stages": serial_stages,
            "warm_stages": group_stage_totals(stage_totals(registry)),
            "pool": {
                "chunks": registry.counter_total(obs.POOL_CHUNKS),
                "chunk_trials": registry.histogram_summary(obs.POOL_CHUNK_TRIALS),
                "dispatch_seconds": registry.histogram_summary(obs.POOL_DISPATCH_SECONDS),
                "queue_wait_seconds": registry.histogram_summary(
                    obs.POOL_QUEUE_WAIT_SECONDS
                ),
            },
        }
        obs.set_enabled(was_enabled)
        registry.reset()

    methods = []
    for method in METHODS:
        expected = serial[method]["fingerprint"]
        actual = warm[method]["fingerprint"]
        assert actual == expected, (
            f"warm pool diverged from serial for {method}: {actual} != {expected}"
        )
        methods.append(
            {
                "method": method,
                "serial_seconds": serial[method]["seconds"],
                "warm_seconds": warm[method]["seconds"],
                "fingerprint": expected,
            }
        )
        print(
            f"{method:6s} serial {serial[method]['seconds']*1e3:8.1f} ms  "
            f"warm {warm[method]['seconds']*1e3:8.1f} ms"
        )

    total_serial = sum(entry["serial_seconds"] for entry in methods)
    total_warm = sum(entry["warm_seconds"] for entry in methods)
    usable = available_workers()
    gate = _gate(total_serial, total_warm, usable, workers)
    totals = {
        "serial_seconds": total_serial,
        "warm_seconds": total_warm,
        "warm_startup_seconds": startup_seconds,
        "warm_speedup_vs_serial": round(total_serial / total_warm, 3) if total_warm else None,
    }
    print(
        f"totals serial {total_serial:.2f} s  "
        f"warm {total_warm:.2f} s (+{startup_seconds:.2f} s startup)  "
        f"gate {gate['status']} ({gate['speedup']}x vs {gate['target']}x target)"
    )
    document = {
        "suite": "parallel-engine",
        "scale": scale,
        "trials_per_method": trials,
        "workers": workers,
        "usable_cores": usable,
        "start_method": default_start_method(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fingerprints_identical": True,  # a divergence would have raised above
        "methods": methods,
        "totals": totals,
        "gate": gate,
    }
    if obs_breakdown is not None:
        document["stage_breakdown"] = obs_breakdown
    return document


def check_against(document: dict, baseline_path: pathlib.Path) -> int:
    """Compare a fresh run against the committed baseline document.

    Returns a process exit code.  The rules, in order:

    * current gate ``skipped`` (too few usable cores): notice, exit 0 — a
      small CI runner must not fail the build for hardware it doesn't have;
    * current gate ``fail``: exit 1 — the warm pool lost its 2x floor;
    * baseline measurable too: exit 1 if the fresh speedup dropped below
      ``BASELINE_TOLERANCE`` of the committed one.
    """
    baseline = json.loads(baseline_path.read_text())
    current_gate = document["gate"]
    baseline_gate = baseline.get("gate", {})
    if current_gate["status"] == "skipped":
        print(f"NOTICE: speedup gate skipped: {current_gate['reason']}")
        return 0
    if current_gate["status"] == "fail":
        print(
            f"FAIL: warm-pool speedup {current_gate['speedup']}x is below the "
            f"{current_gate['target']}x floor",
            file=sys.stderr,
        )
        return 1
    if baseline_gate.get("status") in (None, "skipped"):
        print(
            f"gate pass at {current_gate['speedup']}x "
            "(committed baseline had no measurable speedup to compare against)"
        )
        return 0
    floor = BASELINE_TOLERANCE * float(baseline_gate["speedup"])
    if current_gate["speedup"] < floor:
        print(
            f"FAIL: warm-pool speedup regressed to {current_gate['speedup']}x; "
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--scale", choices=("small", "full"), default="full")
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--workers", type=int, default=GATE_WORKERS)
    parser.add_argument(
        "--breakdown",
        action="store_true",
        help="enable repro.obs and embed stage/pool breakdowns in the document",
    )
    parser.add_argument(
        "--check-against",
        type=pathlib.Path,
        default=None,
        help="committed BENCH_parallel.json to compare the fresh run against",
    )
    args = parser.parse_args(argv)
    document = run_suite(
        scale=args.scale, trials=args.trials, workers=args.workers, breakdown=args.breakdown
    )
    args.output.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {args.output}")
    if args.check_against is not None:
        return check_against(document, args.check_against)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""CI smoke check: boot the server, serve four requests, verify every byte.

Exercises the whole service stack in one short run — session residency, the
asyncio server, the JSON schema and the digest plumbing:

1. ``POST /estimate`` — digests must equal a serial
   :func:`~repro.parallel.tasks.execute_trials` run of the same task;
2. ``POST /sweep`` — exactly one learning phase, and a spot-checked point
   must be byte-identical to its serial score-reuse replay;
3. ``GET /stats`` — counters must reflect the two requests;
4. ``POST /estimate`` whose method object names a ``backend`` — the backend
   is fixed when the session is built, so this must answer 400 and leave
   ``estimates_served`` unchanged.

With ``--trace-out PATH`` the run additionally enables the ``repro.obs``
subsystem, checks ``GET /metrics`` serves a Prometheus exposition, and dumps
the collected span trees + metrics as JSON — the fast CI tier uploads that
file as a build artifact.  The verified fingerprints are the same either
way: observability never changes a byte.

Exit code 0 on success, 1 with a diagnostic on any mismatch — the fast CI
tier runs ``python -m repro.service.smoke``.
"""

from __future__ import annotations

import argparse
import sys

from repro import obs
from repro.core.scores import LearnedScoresSpec
from repro.parallel.fingerprint import estimates_fingerprint
from repro.parallel.tasks import execute_trials, trial_tasks
from repro.service.server import ServerThread, request_json, request_text
from repro.service.sweep import ScoredMethodSpec, sweep_point_seed
from repro.workloads.queries import WorkloadSpec

NUM_ROWS = 500
TABLE_SEED = 11
BUDGET = 60
NUM_TRIALS = 2
SEED = 123
SWEEP_LEVELS = [0.1, 0.25, 0.4]
LEARN_BUDGET = 40
LEARN_SEED = 99


def _serial_fingerprint(spec: WorkloadSpec, method_spec, seed, budget: int) -> str:
    workload = spec.build()
    records = execute_trials(workload, method_spec, trial_tasks(seed, NUM_TRIALS, budget))
    return estimates_fingerprint(record.to_estimate() for record in records)


def run_smoke(verbose: bool = True, trace_out: "str | None" = None) -> int:
    def note(message: str) -> None:
        if verbose:
            print(f"[smoke] {message}")

    failures: list[str] = []
    was_enabled = obs.enabled()
    if trace_out:
        obs.set_enabled(True)
        obs.reset()
    anchor_spec = WorkloadSpec(dataset="neighbors", level="S", num_rows=NUM_ROWS, seed=TABLE_SEED)
    with ServerThread(source=anchor_spec) as server:
        note(f"server up at {server.url}")

        # Request 1: /estimate, verified byte-for-byte against a serial run.
        estimate = request_json(
            server.url,
            "/estimate",
            {"method": "lss", "budget": BUDGET, "num_trials": NUM_TRIALS, "seed": SEED},
        )
        from repro.experiments.config import parse_method_spec

        expected = _serial_fingerprint(anchor_spec, parse_method_spec("lss"), SEED, BUDGET)
        note(f"/estimate fingerprint {estimate['fingerprint'][:16]}…")
        if estimate["fingerprint"] != expected:
            failures.append(
                f"/estimate fingerprint {estimate['fingerprint']} != serial {expected}"
            )

        # Request 2: /sweep with one learning phase, spot-check a point.
        sweep = request_json(
            server.url,
            "/sweep",
            {
                "levels": SWEEP_LEVELS,
                "method": "lss",
                "budget": BUDGET,
                "num_trials": NUM_TRIALS,
                "seed": SEED,
                "learn_budget": LEARN_BUDGET,
                "learn_seed": LEARN_SEED,
            },
        )
        note(
            f"/sweep served {len(sweep['points'])} points with "
            f"{sweep['learning_runs']} learning run(s)"
        )
        if sweep["learning_runs"] != 1:
            failures.append(f"sweep ran {sweep['learning_runs']} learning phases, wanted 1")
        point_index = len(SWEEP_LEVELS) - 1
        scored = ScoredMethodSpec(
            method="lss",
            anchor=anchor_spec,
            scores=LearnedScoresSpec(learn_budget=LEARN_BUDGET, learn_seed=LEARN_SEED),
        )
        point_spec = WorkloadSpec(
            dataset="neighbors",
            level=SWEEP_LEVELS[point_index],
            num_rows=NUM_ROWS,
            seed=TABLE_SEED,
        )
        expected_point = _serial_fingerprint(
            point_spec,
            scored,
            sweep_point_seed(SEED, point_index, len(SWEEP_LEVELS)),
            BUDGET,
        )
        served_point = sweep["points"][point_index]["fingerprint"]
        if served_point != expected_point:
            failures.append(
                f"sweep point {point_index} fingerprint {served_point} != serial "
                f"{expected_point}"
            )

        # Request 3: /stats must reflect what was just served.
        stats = request_json(server.url, "/stats")
        note(f"/stats: {stats}")
        expected_estimates = NUM_TRIALS * (1 + len(SWEEP_LEVELS))
        if stats["estimates_served"] != expected_estimates:
            failures.append(
                f"stats served {stats['estimates_served']} estimates, "
                f"wanted {expected_estimates}"
            )
        if stats["learning_runs"] != 1:
            failures.append(f"stats report {stats['learning_runs']} learning runs, wanted 1")

        # Request 4: a per-request backend override is malformed input.
        try:
            request_json(
                server.url,
                "/estimate",
                {"method": {"method": "srs", "backend": "sqlite"}, "budget": BUDGET},
            )
            failures.append("/estimate with a method backend was served, wanted 400")
        except RuntimeError as exc:
            note(f"/estimate with a method backend rejected: {exc}")
            if "-> 400:" not in str(exc):
                failures.append(f"/estimate with a method backend: {exc}, wanted 400")
        served = request_json(server.url, "/stats")["estimates_served"]
        if served != stats["estimates_served"]:
            failures.append(
                f"rejected request moved estimates_served from "
                f"{stats['estimates_served']} to {served}"
            )

        if trace_out:
            # Request 5 (obs runs only): /metrics must expose both the stage
            # histograms collected above and the session counters.
            exposition = request_text(server.url, "/metrics")
            for needle in ("repro_stage_seconds", "repro_session_estimates_served_total"):
                if needle not in exposition:
                    failures.append(f"/metrics exposition is missing {needle}")
            note(f"/metrics served {len(exposition.splitlines())} lines")

    if trace_out:
        from repro.obs.export import dump_json

        dump_json(trace_out, obs.registry())
        note(f"trace + metrics dumped to {trace_out}")
        obs.set_enabled(was_enabled)

    for failure in failures:
        print(f"[smoke] FAIL: {failure}", file=sys.stderr)
    note("all four requests verified" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quiet", action="store_true", help="suppress progress notes")
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="enable repro.obs for the run and dump the JSON trace+metrics here",
    )
    options = parser.parse_args(argv)
    return run_smoke(verbose=not options.quiet, trace_out=options.trace_out)


if __name__ == "__main__":
    raise SystemExit(main())

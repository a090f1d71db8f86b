"""Smoke test of the benchmark at toy sizes.

Run with ``python3 -m pytest perfbench/test_smoke.py`` from the repository
root.  Every workload runs once untraced and once traced; the test checks
that each metric BENCHMARK.json declares is printed with its unit, that the
correctness checks run and can fail, and that no process the benchmark
started is left running when it exits.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _live_processes_in_session(session: int) -> list[str]:
    """Processes (zombies too) whose session id is ``session``."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:  # the process ended while we looked
            continue
        fields = text.rpartition(")")[2].split()
        if int(fields[3]) == session:
            found.append(text.split(" ", 2)[:2] + [fields[0]])
    return found


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    """Run the benchmark in a session of its own; nothing of it may outlive it."""
    process = subprocess.Popen(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    stdout, stderr = process.communicate(timeout=170)
    left = _live_processes_in_session(process.pid)
    assert left == [], f"processes left running after the benchmark exited: {left}"
    return subprocess.CompletedProcess(process.args, process.returncode, stdout, stderr)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [entry["name"] for entry in DECLARED["workloads"]])
def test_workload_reports_every_declared_metric(workload: str, trace: int) -> None:
    completed = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--scale", "toy")
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        reported = result["metrics"][entry["name"]]
        assert reported["unit"] == entry["unit"]
        assert isinstance(reported["value"], float)
        assert f"{workload} {entry['name']} = " in completed.stdout
    if not trace:
        assert result["metrics"]["oracle_calls_per_estimate"]["value"] == (
            run.SCALES["toy"][workload]["budget"]
        )


def _outcome(calls: int, learning_runs: int = 0) -> run.Outcome:
    return run.Outcome(estimates=[(10.0, 12, calls)], fingerprint="f", learning_runs=learning_runs)


class _Replays:
    def __init__(self, reproduces: bool) -> None:
        self.reproduces = reproduces

    def replay(self, seed, level, outcome) -> bool:
        return self.reproduces


@pytest.mark.parametrize(
    "outcome, reproduces, expected",
    [
        (_outcome(100), True, None),
        (_outcome(99), True, "oracle calls"),
        (_outcome(100, learning_runs=1), True, "learning"),
        (_outcome(100), False, "replay"),
    ],
)
def test_correctness_checks_flag_each_failure(outcome, reproduces, expected) -> None:
    phase = run.Phase(requests=[(1, "S", outcome)], attempted=1)
    problems: list = []
    run.check_phase(_Replays(reproduces), phase, 100, problems)
    if expected is None:
        assert problems == []
    else:
        assert len(problems) == 1 and expected in problems[0]


def _span(pid: int, span_id: int, name: str, start: float, end: float, parent=None,
          layer: str = "service.session", request=None) -> dict:
    return {"pid": pid, "id": span_id, "parent": parent, "name": name, "layer": layer,
            "start": start, "end": end, "request": request}


@pytest.mark.parametrize(
    "recorded, workers, consistent",
    [
        # One root with a child: layers fill the window, the rest is other.
        ([_span(1, 1, "Session.estimate", 0.1, 0.9),
          _span(1, 2, "pps_permutation", 0.2, 0.5, parent=1, layer="sampling")], 1, True),
        # Two worker chunks in parallel below one pool run, scaled by 1/2.
        ([_span(1, 1, "WarmPool.run", 0.0, 1.0, layer="parallel.pool"),
          _span(2, 1, "_warm_execute_chunk", 0.05, 0.95, layer="parallel.pool"),
          _span(3, 1, "_warm_execute_chunk", 0.05, 0.95, layer="parallel.pool")], 2, True),
        # Overlapping roots claim 1.6 s of a 1 s window.
        ([_span(1, 1, "Session.estimate", 0.1, 0.9),
          _span(1, 2, "Session.sweep", 0.1, 0.9)], 1, False),
        # Worker chunks outside any pool run stay roots and overfill the window.
        ([_span(2, 1, "_warm_execute_chunk", 0.05, 0.95, layer="parallel.pool"),
          _span(3, 1, "_warm_execute_chunk", 0.05, 0.95, layer="parallel.pool")], 1, False),
        # A child longer than its parent.
        ([_span(1, 1, "Session.estimate", 0.4, 0.5),
          _span(1, 2, "pps_permutation", 0.1, 0.9, parent=1, layer="sampling")], 1, False),
    ],
)
def test_attribution_check_flags_overfilled_windows(recorded, workers, consistent) -> None:
    import spans

    attribution = spans.attribute(recorded, 0.0, 1.0, workers)
    problems: list = []
    run.check_attribution(attribution, 1.0, problems)
    assert (problems == []) is consistent, problems


def test_a_replay_mismatch_fails_the_run(monkeypatch, capsys) -> None:
    monkeypatch.setattr(run.EstimateLws, "replay", lambda self, *args: False)
    status = run.main(["--workload", "estimate-sqlite", "--seed", "4", "--seconds", "0.5",
                       "--scale", "toy"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert result["correct"] is False


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("--workload", "sweep-lss", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_throughput_is_a_median_over_level_rotations() -> None:
    # One request per second, except a 10 s stall before the fifth.
    marks = [(start, 1) for start in (0.0, 1.0, 2.0, 3.0, 13.0, 14.0)]
    phase = run.Phase(start=0.0, end=15.0, marks=marks, attempted=len(marks))
    assert run.rotation_throughput(phase, 1) == 1.0
    # Two rotations of three levels: 3 estimates in 3 s and 3 in 12 s.
    assert run.rotation_throughput(phase, 3) == pytest.approx((3 / 3 + 3 / 12) / 2)

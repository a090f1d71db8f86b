"""Dry-parse and structural checks for the CI pipeline definition.

There is no actionlint in the offline toolchain, so this is the equivalent
gate: the workflow must be valid YAML and keep the tiered structure the
repository documents — a fast job (tests only, three interpreters, pip
cache) on every push/PR, and a full job (tests + benchmarks) behind the
nightly schedule / `run-benchmarks` label.
"""

from __future__ import annotations

import pathlib

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW_PATH = pathlib.Path(__file__).parent.parent / ".github" / "workflows" / "ci.yml"


@pytest.fixture(scope="module")
def workflow() -> dict:
    assert WORKFLOW_PATH.is_file(), "CI workflow file is missing"
    with WORKFLOW_PATH.open() as handle:
        parsed = yaml.safe_load(handle)
    assert isinstance(parsed, dict)
    return parsed


class TestWorkflowStructure:
    def test_triggers(self, workflow):
        # PyYAML parses the bare key `on` as boolean True.
        triggers = workflow.get("on", workflow.get(True))
        assert set(triggers) == {"push", "pull_request", "schedule", "workflow_dispatch"}
        assert triggers["pull_request"]["types"] == [
            "opened",
            "synchronize",
            "reopened",
            "labeled",
        ]
        assert any("cron" in entry for entry in triggers["schedule"])

    def test_fast_job_matrix_and_tier(self, workflow):
        fast = workflow["jobs"]["fast"]
        versions = fast["strategy"]["matrix"]["python-version"]
        assert versions == ["3.10", "3.11", "3.12", "3.13"]
        steps = fast["steps"]
        setup = next(s for s in steps if str(s.get("uses", "")).startswith("actions/setup-python"))
        assert setup["with"]["cache"] == "pip"
        test_step = next(s for s in steps if "pytest" in str(s.get("run", "")))
        assert '-m "not slow"' in test_step["run"]
        assert "benchmarks" not in test_step["run"]
        assert fast["timeout-minutes"] <= 15

    def test_fast_job_lints(self, workflow):
        steps = workflow["jobs"]["fast"]["steps"]
        assert any("ruff check" in str(s.get("run", "")) for s in steps)

    def test_fast_job_runs_backend_parity(self, workflow):
        # The backend-parity gate: the seeded fingerprint workflow must run
        # across the numpy / sqlite backends on every push and PR and fail
        # the build on any byte-level estimate divergence.
        steps = workflow["jobs"]["fast"]["steps"]
        parity_step = next(
            s for s in steps if "repro.experiments.parity" in str(s.get("run", ""))
        )
        assert str(parity_step.get("name", "")).lower() == "backend parity"
        # Both pushed-down predicates are audited: the default dataset
        # (neighbors) runs the neighbour-count SQL, sports the skyband SQL.
        # RuntimeWarnings are errors, so an import-order warning from
        # ``python -m`` (the package importing the module it runs) fails CI.
        commands = [line.strip() for line in str(parity_step["run"]).splitlines()]
        parity = "PYTHONPATH=src python -W error::RuntimeWarning -m repro.experiments.parity"
        assert parity in commands
        assert f"{parity} --dataset sports" in commands

    def test_fast_job_runs_benchmark_smoke(self, workflow):
        # The benchmark harness runs at toy sizes on every push and PR, so
        # a broken workload fails CI before it fails the benchmark.
        steps = workflow["jobs"]["fast"]["steps"]
        smoke_step = next(
            s for s in steps if "perfbench/test_smoke.py" in str(s.get("run", ""))
        )
        assert str(smoke_step.get("name", "")).lower() == "benchmark harness smoke"
        assert smoke_step["run"].strip() == "python -m pytest perfbench/test_smoke.py -q"

    def test_fast_job_runs_micro_identity_asserts(self, workflow):
        # The micro-benchmarks assert each kernel against its reference;
        # at small scale they run on every push and PR.
        steps = workflow["jobs"]["fast"]["steps"]
        micro_step = next(
            s for s in steps if "benchmarks/run_micro.py" in str(s.get("run", ""))
        )
        run = " ".join(str(micro_step["run"]).split())
        assert "--scale small" in run and "--repeats 1" in run
        assert "BENCH_micro.json" not in run, "the fast tier must not overwrite the trajectory"

    def test_fast_job_runs_service_smoke(self, workflow):
        # The service smoke gate: every push/PR boots the estimate server,
        # serves estimate/sweep/stats requests and verifies every served
        # digest byte-for-byte against in-process serial execution.
        steps = workflow["jobs"]["fast"]["steps"]
        smoke_step = next(
            s for s in steps if "repro.service.smoke" in str(s.get("run", ""))
        )
        assert str(smoke_step.get("name", "")).lower() == "service smoke"

    def test_fast_job_runs_obs_smoke(self, workflow):
        # The observability smoke gate: the same smoke run with REPRO_OBS=1
        # must serve byte-identical digests, check /metrics, and dump the
        # span trees + metrics as a JSON artifact.
        steps = workflow["jobs"]["fast"]["steps"]
        obs_step = next(
            s
            for s in steps
            if "repro.service.smoke" in str(s.get("run", ""))
            and "REPRO_OBS=1" in str(s.get("run", ""))
        )
        run = " ".join(str(obs_step["run"]).split())
        assert "--trace-out obs-trace.json" in run
        uploads = [
            s
            for s in steps
            if str(s.get("uses", "")).startswith("actions/upload-artifact")
        ]
        assert any(
            "obs-trace.json" in str(s.get("with", {}).get("path", "")) for s in uploads
        ), "obs trace artifact is not uploaded"

    def test_fast_job_runs_examples(self, workflow):
        # Examples are executed, not only compiled, so one reading a
        # removed field fails the build.
        steps = workflow["jobs"]["fast"]["steps"]
        runs = [str(s.get("run", "")) for s in steps]
        for example in ("examples/quickstart.py", "examples/custom_udf_query.py"):
            assert any(f"python {example}" in run for run in runs), example

    def test_jobs_cache_generated_datasets(self, workflow):
        # Both tiers persist the generated seeded datasets between jobs,
        # keyed on the dataset modules' content hash.
        for name in ("fast", "full"):
            job = workflow["jobs"][name]
            assert job["env"]["REPRO_DATASET_CACHE"], name
            cache_steps = [
                s
                for s in job["steps"]
                if str(s.get("uses", "")).startswith("actions/cache")
            ]
            assert cache_steps, f"job {name} has no dataset cache step"
            key = str(cache_steps[0]["with"]["key"])
            assert "hashFiles('src/repro/datasets/*.py')" in key, name
            assert cache_steps[0]["with"]["path"] == job["env"]["REPRO_DATASET_CACHE"], name

    def test_full_job_is_gated(self, workflow):
        full = workflow["jobs"]["full"]
        condition = full["if"]
        assert "schedule" in condition
        assert "workflow_dispatch" in condition
        assert "run-benchmarks" in condition
        test_step = next(s for s in full["steps"] if "pytest" in str(s.get("run", "")))
        assert "benchmarks" in test_step["run"]

    def test_full_job_tracks_micro_benchmarks(self, workflow):
        # The nightly/label-gated tier runs the kernel micro-benchmarks and
        # archives the BENCH_micro.json perf trajectory as an artifact.
        steps = workflow["jobs"]["full"]["steps"]
        micro_step = next(
            s for s in steps if "benchmarks/run_micro.py" in str(s.get("run", ""))
        )
        assert "BENCH_micro.json" in micro_step["run"]
        uploads = [
            s
            for s in steps
            if str(s.get("uses", "")).startswith("actions/upload-artifact")
        ]
        assert any("BENCH_micro.json" in str(s.get("with", {}).get("path", "")) for s in uploads)

    def test_full_job_gates_parallel_benchmark(self, workflow):
        # The nightly tier re-measures the warm-pool sweep, checks it against
        # the committed BENCH_parallel.json baseline (speedup regressions
        # fail; <4-core runners skip with a notice) and archives the fresh
        # document as an artifact.
        steps = workflow["jobs"]["full"]["steps"]
        parallel_step = next(
            s for s in steps if "benchmarks/run_parallel.py" in str(s.get("run", ""))
        )
        assert "--check-against BENCH_parallel.json" in " ".join(parallel_step["run"].split())
        assert "--breakdown" in parallel_step["run"]
        uploads = [
            s
            for s in steps
            if str(s.get("uses", "")).startswith("actions/upload-artifact")
        ]
        assert any(
            "BENCH_parallel" in str(s.get("with", {}).get("path", "")) for s in uploads
        )

    def test_full_job_gates_service_benchmark(self, workflow):
        # The nightly tier re-measures the warm-resident vs cold-one-shot
        # comparison, checks it against the committed BENCH_service.json
        # baseline (digest divergence and speedup regressions fail) and
        # archives the fresh document as an artifact.
        steps = workflow["jobs"]["full"]["steps"]
        service_step = next(
            s for s in steps if "benchmarks/run_service.py" in str(s.get("run", ""))
        )
        assert "--check-against BENCH_service.json" in " ".join(service_step["run"].split())
        assert "--breakdown" in service_step["run"]
        uploads = [
            s
            for s in steps
            if str(s.get("uses", "")).startswith("actions/upload-artifact")
        ]
        assert any(
            "BENCH_service" in str(s.get("with", {}).get("path", "")) for s in uploads
        )

    def test_jobs_pin_timeouts(self, workflow):
        for name, job in workflow["jobs"].items():
            assert "timeout-minutes" in job, f"job {name} has no timeout"


class TestTierConfiguration:
    def test_markers_registered(self):
        pyproject = pathlib.Path(__file__).parent.parent / "pyproject.toml"
        text = pyproject.read_text()
        assert "slow:" in text
        assert "benchmark:" in text

    def test_benchmarks_are_marked_slow(self):
        benchmarks = pathlib.Path(__file__).parent.parent / "benchmarks"
        drivers = sorted(benchmarks.glob("test_*.py"))
        assert drivers, "no benchmark drivers found"
        for driver in drivers:
            assert "pytest.mark.slow" in driver.read_text(), driver.name

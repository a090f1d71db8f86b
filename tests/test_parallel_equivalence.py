"""Serial-vs-parallel equivalence: the engine's core guarantee.

For the same master seed, the trial runner on the warm pool must produce
estimates that are **byte-identical** to its serial run — same counts, proportions,
intervals, variances and evaluation tallies, verified through IEEE-754-exact
fingerprints — for every method, workload and worker count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel import (
    METHODS,
    MethodSpec,
    WarmPool,
    estimates_fingerprint,
    trial_tasks,
)
from repro.sampling.rng import spawn_seed_descriptors, spawn_seeds
from repro.workloads.queries import build_workload
from repro.workloads.runner import TrialRunner

MASTER_SEED = 20190621
NUM_TRIALS = 4


def serial_fingerprint(workload, method: str, budget: int) -> str:
    runner = TrialRunner(workload=workload, num_trials=NUM_TRIALS, seed=MASTER_SEED)
    runner.run(method, MethodSpec(method), budget)
    return estimates_fingerprint(runner.estimates[method])


def parallel_fingerprint(workload, method: str, budget: int, workers: int) -> str:
    """The same trials over a workload rebuilt from its spec, on ``workers``."""
    runner = TrialRunner(
        workload=workload.spec.build(),
        num_trials=NUM_TRIALS,
        seed=MASTER_SEED,
        workers=workers,
    )
    runner.run(method, MethodSpec(method), budget)
    return estimates_fingerprint(runner.estimates[method])


@pytest.fixture(scope="module")
def sports_workload():
    return build_workload("sports", level="S", num_rows=700)


@pytest.fixture(scope="module")
def neighbors_workload():
    return build_workload("neighbors", level="S", num_rows=700)


class TestSeedDescriptors:
    @pytest.mark.parametrize(
        "seed", [0, 12345, np.random.SeedSequence(7), None], ids=["0", "int", "seq", "none"]
    )
    def test_descriptors_match_spawn_seeds(self, seed):
        if seed is None:
            # Fresh OS entropy: materialise once, then compare both paths.
            seed = np.random.SeedSequence()
        direct = [g.integers(0, 2**32, 8).tolist() for g in spawn_seeds(seed, 5)]
        sequence = np.random.SeedSequence(
            entropy=seed.entropy if isinstance(seed, np.random.SeedSequence) else seed
        )
        rebuilt = [
            d.resolve().integers(0, 2**32, 8).tolist()
            for d in spawn_seed_descriptors(sequence, 5)
        ]
        assert direct == rebuilt

    def test_generator_seed_descriptors(self):
        a = [g.integers(0, 99, 4).tolist() for g in spawn_seeds(np.random.default_rng(3), 3)]
        descriptors = spawn_seed_descriptors(np.random.default_rng(3), 3)
        b = [d.resolve().integers(0, 99, 4).tolist() for d in descriptors]
        assert a == b

    def test_descriptors_pickle_roundtrip(self):
        import pickle

        for descriptor in spawn_seed_descriptors(11, 3):
            clone = pickle.loads(pickle.dumps(descriptor))
            assert (
                clone.resolve().integers(0, 1000, 6).tolist()
                == descriptor.resolve().integers(0, 1000, 6).tolist()
            )


class TestFastEquivalence:
    """Quick spot-checks that run in the fast CI tier."""

    @pytest.mark.parametrize("method", ["srs", "lss"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_byte_identical(self, sports_workload, method, workers):
        budget = sports_workload.sample_size(0.05)
        expected = serial_fingerprint(sports_workload, method, budget)
        assert parallel_fingerprint(sports_workload, method, budget, workers) == expected

    def test_run_method_knob_matches_serial(self, sports_workload):
        budget = sports_workload.sample_size(0.05)
        spec = MethodSpec("lss")
        serial = TrialRunner(workload=sports_workload, num_trials=NUM_TRIALS, seed=MASTER_SEED)
        serial.run("lss", spec, budget)
        parallel = TrialRunner(
            workload=sports_workload, num_trials=NUM_TRIALS, seed=MASTER_SEED, workers=2
        )
        parallel.run("lss", spec, budget)
        assert estimates_fingerprint(parallel.estimates["lss"]) == estimates_fingerprint(
            serial.estimates["lss"]
        )
        # Serial trials keep their diagnostics: the backend-parity audit
        # digests each LSS design, and stripped estimates would all read as
        # "no design".
        assert all(
            estimate.details.get("design") is not None for estimate in serial.estimates["lss"]
        )

    def test_chunking_never_changes_results(self, sports_workload):
        budget = sports_workload.sample_size(0.05)
        fingerprints = set()
        tasks = trial_tasks(MASTER_SEED, NUM_TRIALS, budget)
        with WarmPool(sports_workload, workers=2) as pool:
            for chunk_size in (1, 2, NUM_TRIALS):
                records = pool.run(MethodSpec("srs"), tasks, chunk_size=chunk_size)
                fingerprints.add(estimates_fingerprint(r.to_estimate() for r in records))
        assert len(fingerprints) == 1

    def test_specless_workload_falls_back_to_serial(self, sports_workload):
        import dataclasses

        budget = sports_workload.sample_size(0.05)
        stripped = dataclasses.replace(sports_workload, spec=None)
        runner = TrialRunner(workload=stripped, num_trials=NUM_TRIALS, seed=MASTER_SEED, workers=4)
        with pytest.warns(UserWarning, match="no WorkloadSpec"):
            runner.run("srs", MethodSpec("srs"), budget)
        assert estimates_fingerprint(runner.estimates["srs"]) == serial_fingerprint(
            sports_workload, "srs", budget
        )


@pytest.mark.slow
class TestFullEquivalenceGrid:
    """The exhaustive audit: all methods x both workloads x workers {1,2,4}."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("dataset", ["sports", "neighbors"])
    def test_byte_identical_everywhere(self, request, method, dataset):
        workload = request.getfixturevalue(f"{dataset}_workload")
        budget = workload.sample_size(0.05)
        expected = serial_fingerprint(workload, method, budget)
        for workers in (1, 2, 4):
            actual = parallel_fingerprint(workload, method, budget, workers)
            assert actual == expected, (method, dataset, workers)

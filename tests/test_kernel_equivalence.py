"""Equivalence of the vectorized kernels against their scalar references.

Every vectorized kernel introduced by the kernel layer retains the original
scalar implementation as a ``*_reference`` sibling.  These tests drive both
paths over randomized, seeded inputs (children of one master seed via
:mod:`repro.sampling.rng`) and require *exact* agreement — counts and design
cuts must be identical, and stratified estimates must match bitwise, because
the experiment fingerprints are byte-exact.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading

import numpy as np
import pytest

import repro.core.stratification.dynpgm as dynpgm_module
from repro.core.stratification.design import InfeasibleDesignError, PilotSample
from repro.core.stratification.dirsol import dirsol_design, dirsol_design_reference
from repro.core.stratification.dynpgm import dynpgm_design, dynpgm_design_reference
from repro.query.predicates import NeighborCountPredicate, SkybandPredicate
from repro.query.spatial import GridIndex, dominance_count_batch, dominance_count_single
from repro.sampling.allocation import neyman_allocation
from repro.query.table import Table
from repro.sampling.rng import spawn_seeds
from repro.sampling.stratified import StrataPartition, StratifiedSampling

MASTER_SEED = 20_260_728


def child_rngs(count: int) -> list[np.random.Generator]:
    return spawn_seeds(MASTER_SEED, count)


class TestGridKernels:
    @pytest.mark.parametrize("child", range(3))
    def test_batch_matches_scalar_probes(self, child):
        rng = child_rngs(6)[child]
        points = rng.uniform(0.0, 8.0, size=(600, 2))
        radius = float(rng.uniform(0.3, 0.9))
        grid = GridIndex(points, cell_size=radius)
        queried = rng.choice(600, size=250, replace=False)
        np.testing.assert_array_equal(
            grid.count_within_batch(queried, radius),
            grid.count_within_batch_reference(queried, radius),
        )

    def test_batch_with_radius_beyond_cell_size(self):
        rng = child_rngs(6)[3]
        points = rng.uniform(0.0, 4.0, size=(300, 2))
        grid = GridIndex(points, cell_size=0.25)
        queried = np.arange(300)
        np.testing.assert_array_equal(
            grid.count_within_batch(queried, 0.9),
            grid.count_within_batch_reference(queried, 0.9),
        )

    def test_bulk_matches_batch_over_everything(self):
        rng = child_rngs(6)[4]
        points = rng.uniform(0.0, 6.0, size=(500, 2))
        grid = GridIndex(points, cell_size=0.5)
        np.testing.assert_array_equal(
            grid.count_within_bulk(0.5),
            grid.count_within_batch(np.arange(500), 0.5),
        )

    def test_batch_duplicate_and_empty_queries(self):
        rng = child_rngs(6)[5]
        points = rng.uniform(size=(100, 2))
        grid = GridIndex(points, cell_size=0.3)
        duplicated = np.array([7, 7, 3, 7])
        np.testing.assert_array_equal(
            grid.count_within_batch(duplicated, 0.3),
            grid.count_within_batch_reference(duplicated, 0.3),
        )
        assert grid.count_within_batch(np.empty(0, dtype=np.int64), 0.3).size == 0

    def test_dominance_batch_matches_scalar(self):
        rng = child_rngs(6)[0]
        points = rng.integers(0, 12, size=(400, 2)).astype(float)  # many ties
        queried = rng.choice(400, size=150, replace=False)
        expected = np.array([dominance_count_single(points, int(i)) for i in queried])
        np.testing.assert_array_equal(dominance_count_batch(points, queried), expected)

    def test_multi_block_chunking_matches_reference(self, monkeypatch):
        # The memory-bounding block loops only iterate more than once when a
        # group exceeds _MAX_PAIR_BLOCK pairs, which full-scale inputs reach
        # but test-sized ones never would; shrinking the cap forces every
        # chunk boundary through the same equivalence bar.
        import repro.query.spatial as spatial

        monkeypatch.setattr(spatial, "_MAX_PAIR_BLOCK", 64)
        rng = child_rngs(6)[1]
        points = rng.uniform(0.0, 2.0, size=(300, 2))  # few cells, big groups
        grid = GridIndex(points, cell_size=1.0)
        queried = rng.choice(300, size=300, replace=True)
        np.testing.assert_array_equal(
            grid.count_within_batch(queried, 1.0),
            grid.count_within_batch_reference(queried, 1.0),
        )
        targets = rng.choice(300, size=200, replace=False)
        expected = np.array([dominance_count_single(points, int(i)) for i in targets])
        np.testing.assert_array_equal(dominance_count_batch(points, targets), expected)


class TestPredicateKernels:
    def make_table(self, rng, rows=400):
        cluster = rng.normal(loc=(3.0, 3.0), scale=0.5, size=(rows // 2, 2))
        scattered = rng.uniform(0.0, 6.0, size=(rows - rows // 2, 2))
        points = np.vstack([cluster, scattered])
        return Table({"x": points[:, 0], "y": points[:, 1]}, name="kernel-points")

    @pytest.mark.parametrize("child", range(2))
    def test_neighbor_predicate_batch_equals_reference(self, child):
        rng = child_rngs(4)[child]
        table = self.make_table(rng)
        predicate = NeighborCountPredicate("x", "y", max_neighbors=4, distance=0.5)
        queried = rng.choice(table.num_rows, size=200, replace=False)
        np.testing.assert_array_equal(
            predicate.evaluate(table, queried),
            predicate.evaluate_reference(table, queried),
        )

    @pytest.mark.parametrize("child", range(2))
    def test_skyband_predicate_batch_equals_reference(self, child):
        rng = child_rngs(4)[2 + child]
        table = self.make_table(rng)
        predicate = SkybandPredicate("x", "y", k=5)
        queried = rng.choice(table.num_rows, size=200, replace=False)
        np.testing.assert_array_equal(
            predicate.evaluate(table, queried),
            predicate.evaluate_reference(table, queried),
        )


def random_pilot(rng, population=2_500, pilot_size=45) -> PilotSample:
    positions = np.sort(rng.choice(population, size=pilot_size, replace=False))
    probabilities = np.clip((positions - population / 3) / population, 0.02, 0.95)
    labels = (rng.uniform(size=pilot_size) < probabilities).astype(float)
    return PilotSample(positions, labels, population)


class TestDesignOptimizerKernels:
    @pytest.mark.parametrize("child", range(3))
    def test_dirsol_byte_identical(self, child):
        pilot = random_pilot(child_rngs(8)[child])
        fast = dirsol_design(pilot, 60)
        reference = dirsol_design_reference(pilot, 60)
        np.testing.assert_array_equal(fast.cuts, reference.cuts)
        assert fast.objective_value == reference.objective_value

    @pytest.mark.parametrize("labels_value", [0.0, 1.0])
    def test_dirsol_tie_breaking_on_pure_pilots(self, labels_value):
        # A pure pilot makes every variance — and hence every candidate's
        # objective — identical, so the scan order is the only tie-breaker.
        rng = child_rngs(8)[3]
        positions = np.sort(rng.choice(2_500, size=45, replace=False))
        pilot = PilotSample(positions, np.full(45, labels_value), 2_500)
        fast = dirsol_design(pilot, 60)
        reference = dirsol_design_reference(pilot, 60)
        np.testing.assert_array_equal(fast.cuts, reference.cuts)

    def test_dirsol_infeasible_raises_like_reference(self):
        pilot = PilotSample(np.arange(6), np.zeros(6), 12)
        with pytest.raises(ValueError):
            dirsol_design(pilot, 5, min_stratum_size=10)
        with pytest.raises(ValueError):
            dirsol_design_reference(pilot, 5, min_stratum_size=10)

    @pytest.mark.parametrize("child", range(3))
    def test_dynpgm_byte_identical(self, child):
        pilot = random_pilot(child_rngs(8)[4 + child])
        fast = dynpgm_design(pilot, 4, 60)
        reference = dynpgm_design_reference(pilot, 4, 60)
        np.testing.assert_array_equal(fast.cuts, reference.cuts)
        assert fast.objective_value == reference.objective_value

    def test_dynpgm_tie_breaking_on_pure_pilot(self):
        rng = child_rngs(8)[7]
        positions = np.sort(rng.choice(2_500, size=45, replace=False))
        pilot = PilotSample(positions, np.zeros(45), 2_500)
        fast = dynpgm_design(pilot, 4, 60)
        reference = dynpgm_design_reference(pilot, 4, 60)
        np.testing.assert_array_equal(fast.cuts, reference.cuts)

    def test_dynpgm_fine_grid_byte_identical(self):
        pilot = random_pilot(child_rngs(8)[6])
        fast = dynpgm_design(pilot, 3, 40, grid_ratio=0.25)
        reference = dynpgm_design_reference(pilot, 3, 40, grid_ratio=0.25)
        np.testing.assert_array_equal(fast.cuts, reference.cuts)


def assert_same_design(fast, reference, second_stage_samples: int) -> None:
    """Cuts, objective and the Neyman allocation they imply, bit for bit."""
    np.testing.assert_array_equal(fast.cuts, reference.cuts)
    for field in ("stratum_sizes", "stratum_variances", "pilot_counts"):
        assert getattr(fast, field).tobytes() == getattr(reference, field).tobytes()
    assert np.float64(fast.objective_value).tobytes() == np.float64(
        reference.objective_value
    ).tobytes()
    assert (fast.allocation, fast.algorithm) == (reference.allocation, reference.algorithm)
    counts = [
        neyman_allocation(
            design.stratum_sizes, np.sqrt(design.stratum_variances), second_stage_samples
        ).counts
        for design in (fast, reference)
    ]
    np.testing.assert_array_equal(*counts)


def pure_pilot(label: float, population=2_500, pilot_size=45) -> PilotSample:
    rng = child_rngs(12)[8]
    positions = np.sort(rng.choice(population, size=pilot_size, replace=False))
    return PilotSample(positions, np.full(pilot_size, label), population)


class TestDynPgmEquivalenceGrid:
    """The blocked DynPgm kernel against the full-square reference DP.

    Every case runs the kernel at each of :data:`POOL_WIDTHS`, so the serial
    and the threaded paths must both return the reference design.
    """

    @pytest.mark.parametrize("num_strata", [1, 2, 9, 25])
    @pytest.mark.parametrize("child", range(2))
    def test_strata_counts(self, monkeypatch, num_strata, child):
        pilot = random_pilot(child_rngs(12)[child])
        reference = dynpgm_design_reference(pilot, num_strata, 60)
        for fast in designs_at_pool_widths(monkeypatch, pilot, num_strata, 60):
            assert_same_design(fast, reference, 60)

    @pytest.mark.parametrize("num_strata", [3, 4, 9])
    def test_min_pilot_per_stratum_of_lss(self, monkeypatch, num_strata):
        # LSS passes m_⊔ = 5 (its default), the sweep-lss benchmark setting.
        pilot = random_pilot(child_rngs(12)[2], population=6_000, pilot_size=90)
        options = {"min_pilot_per_stratum": 5}
        reference = dynpgm_design_reference(pilot, num_strata, 200, **options)
        for fast in designs_at_pool_widths(monkeypatch, pilot, num_strata, 200, **options):
            assert_same_design(fast, reference, 200)

    @pytest.mark.slow
    def test_sweep_lss_shaped_pilot(self, monkeypatch):
        # N = 11,800 ordered objects, m = 180 pilot labels, n = 420: about
        # 2,100 candidate cuts, the size of a warm sweep-lss design.
        pilot = random_pilot(child_rngs(12)[3], population=11_800, pilot_size=180)
        options = {"min_pilot_per_stratum": 5}
        reference = dynpgm_design_reference(pilot, 4, 420, **options)
        for fast in designs_at_pool_widths(monkeypatch, pilot, 4, 420, **options):
            assert_same_design(fast, reference, 420)

    @pytest.mark.parametrize("label", [0.0, 1.0], ids=["all-negative", "all-positive"])
    @pytest.mark.parametrize("num_strata", [4, 9])
    def test_pure_pilots(self, monkeypatch, label, num_strata):
        # Every variance is zero: all objectives tie and argmin order decides.
        pilot = pure_pilot(label)
        reference = dynpgm_design_reference(pilot, num_strata, 60)
        for fast in designs_at_pool_widths(monkeypatch, pilot, num_strata, 60):
            assert_same_design(fast, reference, 60)

    def test_unreachable_final_cut_returns_fewer_strata(self, monkeypatch):
        # Strata of at least 300 objects: at most 8 fit in 2,500.
        pilot = random_pilot(child_rngs(12)[4])
        options = {"min_stratum_size": 300}
        reference = dynpgm_design_reference(pilot, 9, 60, **options)
        for fast in designs_at_pool_widths(monkeypatch, pilot, 9, 60, **options):
            assert fast.num_strata < 9
            assert_same_design(fast, reference, 60)

    @pytest.mark.parametrize("num_strata", [4, 9])
    def test_small_max_candidates(self, monkeypatch, num_strata):
        pilot = random_pilot(child_rngs(12)[5])
        options = {"max_candidates": 60, "grid_ratio": 0.25}
        reference = dynpgm_design_reference(pilot, num_strata, 60, **options)
        for fast in designs_at_pool_widths(monkeypatch, pilot, num_strata, 60, **options):
            assert_same_design(fast, reference, 60)

    def test_weight_equal_to_a_guess_is_admitted(self, monkeypatch):
        # [0, 64) and [64, 128) each hold 4 pilot objects with 1 positive:
        # s = 1/2, so N_h s_h = 32 sits exactly on the guess grid (2^5).
        positions = np.array([17, 37, 52, 55, 70, 90, 95, 125])
        labels = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        pilot = PilotSample(positions, labels, 128)
        options = {"min_stratum_size": 1, "min_pilot_per_stratum": 4}
        reference = dynpgm_design_reference(pilot, 2, 8, **options)
        np.testing.assert_array_equal(reference.cuts, [0, 64, 128])
        for fast in designs_at_pool_widths(monkeypatch, pilot, 2, 8, **options):
            assert_same_design(fast, reference, 8)

    @pytest.mark.parametrize(
        "options", [{"min_stratum_size": 2_501}, {"min_pilot_per_stratum": 46}]
    )
    def test_infeasible_input_raises_in_both(self, monkeypatch, options):
        pilot = random_pilot(child_rngs(12)[6])
        for width in POOL_WIDTHS:
            monkeypatch.setattr(dynpgm_module, "_usable_cores", lambda width=width: width)
            with pytest.raises(InfeasibleDesignError):
                dynpgm_design(pilot, 4, 60, **options)
        with pytest.raises(InfeasibleDesignError):
            dynpgm_design_reference(pilot, 4, 60, **options)


#: Design-pool widths of the DynPgm kernel under test: the serial path (the
#: builtin ``map``) and the thread pool, whatever this host's core count.
POOL_WIDTHS = (1, 2)


def designs_at_pool_widths(monkeypatch, pilot, *args, **options) -> list:
    """``dynpgm_design`` once per :data:`POOL_WIDTHS`, forced via the core count."""
    designs = []
    for width in POOL_WIDTHS:
        monkeypatch.setattr(dynpgm_module, "_usable_cores", lambda width=width: width)
        designs.append(dynpgm_design(pilot, *args, **options))
    return designs


def _design_in_child(pilot, connection) -> None:
    design = dynpgm_design(pilot, 4, 200, min_pilot_per_stratum=5)
    connection.send((design.cuts.tobytes(), design.objective_value))
    connection.close()


class TestDynPgmThreads:
    """The design thread pool never changes a design and never outlives a call."""

    @staticmethod
    def _pilot() -> PilotSample:
        return random_pilot(child_rngs(12)[7], population=6_000, pilot_size=90)

    def test_tasks_run_on_pool_threads(self, monkeypatch):
        # Guards the other tests here against a pool that silently runs
        # everything in the calling thread.
        pilot = self._pilot()
        solved_on: set[str] = set()
        solve = dynpgm_module._solve_dp

        def recording_solve(*args):
            solved_on.add(threading.current_thread().name)
            return solve(*args)

        monkeypatch.setattr(dynpgm_module, "_solve_dp", recording_solve)
        serial, threaded = designs_at_pool_widths(monkeypatch, pilot, 9, 200)
        assert threading.current_thread().name in solved_on
        assert any(name.startswith("dynpgm") for name in solved_on)
        assert_same_design(threaded, serial, 200)

    def test_concurrent_callers_get_the_serial_design(self, monkeypatch):
        # The estimate server runs LSS requests on its own executor, so two
        # designs (each with its own pool) may run at once.  Four threads per
        # design and a short switch interval interleave the tasks that share
        # the statistics matrices as finely as the interpreter allows.
        pilot = self._pilot()
        monkeypatch.setattr(dynpgm_module, "_usable_cores", lambda: 1)
        serial = dynpgm_design(pilot, 9, 200)
        monkeypatch.setattr(dynpgm_module, "_usable_cores", lambda: 4)
        start = threading.Barrier(2)
        designs: list = [None, None]

        def design(slot: int) -> None:
            start.wait(timeout=60)
            designs[slot] = dynpgm_design(pilot, 9, 200)

        callers = [threading.Thread(target=design, args=(slot,)) for slot in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for concurrent in designs:
            assert_same_design(concurrent, serial, 200)

    def test_fork_after_a_design_is_safe(self, monkeypatch):
        # The warm pool forks its workers from a process that has already
        # designed; a pool thread alive at the fork could hold a lock the
        # child then waits on forever (Python >= 3.12 also warns).
        monkeypatch.setattr(dynpgm_module, "_usable_cores", lambda: 2)
        pilot = self._pilot()
        threads_before = threading.active_count()
        parent = dynpgm_design(pilot, 4, 200, min_pilot_per_stratum=5)
        assert threading.active_count() == threads_before
        assert not any(thread.name.startswith("dynpgm") for thread in threading.enumerate())

        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=_design_in_child, args=(pilot, sender))
        child.start()
        sender.close()
        try:
            assert receiver.poll(60), "the forked design did not finish"
            cuts, objective = receiver.recv()
        finally:
            child.join(timeout=10)
            if child.is_alive():  # pragma: no cover - failure cleanup
                child.kill()
                child.join()
        assert child.exitcode == 0
        assert cuts == parent.cuts.tobytes()
        assert objective == parent.objective_value


class TestStratifiedEstimatorKernel:
    @pytest.mark.parametrize("child", range(4))
    def test_estimate_from_samples_bitwise(self, child):
        rng = child_rngs(4)[child]
        num_strata = int(rng.integers(2, 30))
        population = int(rng.integers(num_strata * 4, 3_000))
        cutpoints = np.sort(
            rng.choice(np.arange(1, population), num_strata - 1, replace=False)
        )
        partition = StrataPartition(np.split(np.arange(population), cutpoints))
        positive_rate = rng.uniform(0.05, 0.9)
        stratum_labels = []
        for stratum in partition.strata:
            drawn = int(rng.integers(0, min(stratum.size, 40) + 1))
            stratum_labels.append((rng.uniform(size=drawn) < positive_rate).astype(float))
        estimator = StratifiedSampling()
        fast = estimator.estimate_from_samples(partition, stratum_labels)
        reference = estimator.estimate_from_samples_reference(partition, stratum_labels)
        assert fast.count == reference.count
        assert fast.proportion == reference.proportion
        assert fast.variance == reference.variance
        assert fast.interval.low == reference.interval.low
        assert fast.interval.high == reference.interval.high
        assert fast.predicate_evaluations == reference.predicate_evaluations

    def test_unsampled_and_empty_strata_handling(self):
        partition = StrataPartition(
            [np.arange(10), np.empty(0, dtype=np.int64), np.arange(10, 40)]
        )
        stratum_labels = [np.array([1.0, 0.0, 1.0]), np.empty(0), np.empty(0)]
        estimator = StratifiedSampling()
        fast = estimator.estimate_from_samples(partition, stratum_labels)
        reference = estimator.estimate_from_samples_reference(partition, stratum_labels)
        assert fast.count == reference.count
        assert fast.variance == reference.variance

    def test_oracle_called_once_per_stage(self):
        from repro.sampling.stratified import TwoStageNeymanSampling

        labels = (child_rngs(1)[0].uniform(size=300) < 0.3).astype(float)
        calls: list[int] = []

        def oracle(indices):
            calls.append(len(indices))
            return labels[np.asarray(indices, dtype=int)]

        partition = StrataPartition([np.arange(150), np.arange(150, 300)])
        StratifiedSampling().estimate(partition, oracle, 40, seed=11)
        assert len(calls) == 1, "stage draws must reach the oracle as one batch"
        calls.clear()
        TwoStageNeymanSampling().estimate(partition, oracle, 60, seed=12)
        assert len(calls) == 2, "pilot and second stage are one batched call each"

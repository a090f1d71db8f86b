"""Tests for the stratification optimizers (DirSol, LogBdr, DynPgm, DynPgmP).

The key checks mirror the paper's theorems on small instances: every
approximation algorithm must come close to the brute-force optimum, and the
optimal layouts must beat the fixed-width/fixed-height baselines on orderings
where the labels are concentrated at one end.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.core.stratification import (
    PilotSample,
    brute_force_design,
    dirsol_design,
    dynpgm_design,
    dynpgm_proportional_design,
    fixed_height_design,
    fixed_width_design,
    logbdr_design,
    neyman_objective,
    proportional_objective,
)
from repro.core.stratification.logbdr import _design_count

CONSTRAINTS = {"min_stratum_size": 10, "min_pilot_per_stratum": 3}


@pytest.fixture
def ordered_pilot(rng):
    """Pilot over a population whose positives concentrate at the top."""
    population = 240
    positions = np.sort(rng.choice(population, size=36, replace=False))
    probabilities = np.clip((positions - 120) / 120, 0.02, 0.98)
    labels = (rng.uniform(size=36) < probabilities).astype(float)
    return PilotSample(positions, labels, population)


class TestDirSol:
    def test_close_to_brute_force(self, ordered_pilot):
        reference = brute_force_design(ordered_pilot, 3, 30, "neyman", **CONSTRAINTS)
        design = dirsol_design(ordered_pilot, 30, **CONSTRAINTS)
        assert design.num_strata == 3
        assert design.objective_value <= 1.25 * reference.objective_value + 1e-9

    def test_requires_enough_pilot_objects(self):
        pilot = PilotSample(np.array([1, 5, 9]), np.array([0.0, 1.0, 0.0]), 20)
        with pytest.raises(ValueError):
            dirsol_design(pilot, 5, min_pilot_per_stratum=2)

    def test_invalid_budget(self, ordered_pilot):
        with pytest.raises(ValueError):
            dirsol_design(ordered_pilot, 0)


class TestLogBdr:
    def test_close_to_brute_force(self, ordered_pilot):
        reference = brute_force_design(ordered_pilot, 3, 30, "neyman", **CONSTRAINTS)
        design = logbdr_design(ordered_pilot, 3, 30, **CONSTRAINTS)
        assert design.objective_value <= 4.0 * reference.objective_value + 1e-9

    def test_single_stratum_trivial(self, ordered_pilot):
        design = logbdr_design(ordered_pilot, 1, 30)
        assert design.num_strata == 1
        assert design.cuts.tolist() == [0, ordered_pilot.population_size]

    def test_design_budget_guard(self, rng):
        positions = np.sort(rng.choice(4000, size=300, replace=False))
        labels = rng.integers(0, 2, 300).astype(float)
        pilot = PilotSample(positions, labels, 4000)
        with pytest.raises(ValueError):
            logbdr_design(pilot, 6, 100, max_designs=1000)

    def test_design_count_matches_enumeration(self, rng):
        # The up-front count must equal what walking every pilot
        # partitioning would evaluate, or the cap would refuse the wrong
        # inputs.
        for _ in range(300):
            m = int(rng.integers(1, 10))
            groups = int(rng.integers(2, 6))
            min_pilot = int(rng.integers(0, 4))
            gap_sizes = [int(size) for size in rng.integers(0, 5, m)]
            walked = 0
            for chosen in combinations(range(m), groups - 1):
                bounds = np.concatenate([[-1], np.asarray(chosen, dtype=int), [m - 1]])
                if np.all(np.diff(bounds) >= min_pilot):
                    walked += int(np.prod([gap_sizes[index] for index in chosen]))
            assert _design_count(gap_sizes, groups, min_pilot) == walked

    def test_cap_refuses_before_evaluating(self, rng, monkeypatch):
        import repro.core.stratification.logbdr as logbdr_module

        def no_design(*args, **kwargs):
            raise AssertionError("a design was evaluated past the cap")

        monkeypatch.setattr(logbdr_module, "design_from_cuts", no_design)
        positions = np.sort(rng.choice(3000, size=68, replace=False))
        pilot = PilotSample(positions, rng.integers(0, 2, 68).astype(float), 3000)
        with pytest.raises(ValueError, match="more than 500000 designs"):
            logbdr_design(pilot, 4, 200, min_pilot_per_stratum=5)


class TestDynPgm:
    def test_close_to_brute_force(self, ordered_pilot):
        reference = brute_force_design(ordered_pilot, 3, 30, "neyman", **CONSTRAINTS)
        design = dynpgm_design(ordered_pilot, 3, 30, **CONSTRAINTS)
        assert design.objective_value <= 4.0 * reference.objective_value + 1e-9

    def test_respects_constraints(self, ordered_pilot):
        design = dynpgm_design(ordered_pilot, 3, 30, **CONSTRAINTS)
        assert np.all(design.stratum_sizes >= CONSTRAINTS["min_stratum_size"])
        assert np.all(design.pilot_counts >= CONSTRAINTS["min_pilot_per_stratum"])

    def test_finer_grid_not_worse(self, ordered_pilot):
        coarse = dynpgm_design(ordered_pilot, 3, 30, grid_ratio=1.0, **CONSTRAINTS)
        fine = dynpgm_design(ordered_pilot, 3, 30, grid_ratio=0.25, **CONSTRAINTS)
        assert fine.objective_value <= coarse.objective_value + 1e-9

    def test_unreachable_strata_count_degrades_gracefully(self, ordered_pilot):
        # 30 strata with 10 pilots each cannot fit 36 pilot objects; the
        # algorithm returns the best feasible design with fewer strata.
        design = dynpgm_design(ordered_pilot, 30, 30, min_pilot_per_stratum=10)
        assert design.num_strata < 30

    def test_truly_infeasible_constraints_raise(self, ordered_pilot):
        with pytest.raises(ValueError):
            dynpgm_design(ordered_pilot, 3, 30, min_pilot_per_stratum=ordered_pilot.size + 1)

    def test_objective_is_exact_neyman_value(self, ordered_pilot):
        design = dynpgm_design(ordered_pilot, 3, 30, **CONSTRAINTS)
        sizes, _, variances = ordered_pilot.stratum_statistics(design.cuts)
        assert design.objective_value == pytest.approx(neyman_objective(sizes, variances, 30))


class TestDynPgmProportional:
    def test_matches_brute_force_on_candidate_grid(self, ordered_pilot):
        reference = brute_force_design(ordered_pilot, 3, 30, "proportional", **CONSTRAINTS)
        design = dynpgm_proportional_design(ordered_pilot, 3, 30, **CONSTRAINTS)
        assert design.objective_value <= 2.0 * reference.objective_value + 1e-9

    def test_objective_is_exact_proportional_value(self, ordered_pilot):
        design = dynpgm_proportional_design(ordered_pilot, 3, 30, **CONSTRAINTS)
        sizes, _, variances = ordered_pilot.stratum_statistics(design.cuts)
        expected = proportional_objective(sizes, variances, 30, ordered_pilot.population_size)
        assert design.objective_value == pytest.approx(expected)

    def test_respects_constraints(self, ordered_pilot):
        design = dynpgm_proportional_design(ordered_pilot, 3, 30, **CONSTRAINTS)
        assert np.all(design.stratum_sizes >= CONSTRAINTS["min_stratum_size"])


class TestLayoutBaselines:
    def test_optimal_beats_fixed_layouts_on_concentrated_labels(self, ordered_pilot):
        sorted_scores = np.linspace(0.0, 1.0, ordered_pilot.population_size)
        optimal = dynpgm_design(ordered_pilot, 4, 30, min_pilot_per_stratum=3)
        width = fixed_width_design(ordered_pilot, sorted_scores, 4, 30)
        height = fixed_height_design(ordered_pilot, 4, 30)
        assert optimal.objective_value <= width.objective_value + 1e-9
        assert optimal.objective_value <= height.objective_value + 1e-9

    def test_fixed_height_sizes_nearly_equal(self, ordered_pilot):
        design = fixed_height_design(ordered_pilot, 4, 30)
        assert max(design.stratum_sizes) - min(design.stratum_sizes) <= 1

    def test_fixed_width_degenerate_scores_single_stratum(self, ordered_pilot):
        scores = np.full(ordered_pilot.population_size, 0.5)
        design = fixed_width_design(ordered_pilot, scores, 4, 30)
        assert design.num_strata == 1

    def test_fixed_width_score_length_validated(self, ordered_pilot):
        with pytest.raises(ValueError):
            fixed_width_design(ordered_pilot, np.zeros(10), 4, 30)

    def test_brute_force_guard_on_large_instances(self, rng):
        positions = np.sort(rng.choice(3000, size=40, replace=False))
        pilot = PilotSample(positions, rng.integers(0, 2, 40).astype(float), 3000)
        with pytest.raises(ValueError):
            brute_force_design(pilot, 4, 30, max_designs=10_000)

"""Benchmark: stratification-optimizer ablation (Theorems 1-4 empirically)."""

from conftest import run_once

from repro.experiments import run_optimizer_ablation
import pytest

pytestmark = [pytest.mark.slow, pytest.mark.benchmark]


def test_ablation_optimizers(benchmark, report):
    rows = run_once(
        benchmark,
        run_optimizer_ablation,
        population_size=600,
        pilot_size=48,
        second_stage_samples=80,
        num_strata=3,
    )
    report("Ablation — stratification optimizers vs brute force", rows)
    by_name = {row["algorithm"]: row for row in rows}

    # Empirical counterparts of the approximation theorems (all far inside
    # their proven bounds on this instance family): each optimizer closes at
    # least 90% of the fixed-width layout's gap to the brute-force optimum.
    baseline_gap = by_name["fixed-width"]["gap_to_optimum"]
    assert baseline_gap > 0.0
    for name in ("dirsol", "logbdr", "dynpgm"):
        assert 0.0 <= by_name[name]["gap_to_optimum"] <= 0.1 * baseline_gap
    # The fixed layouts are the baselines the optimizers must beat.
    assert by_name["dynpgm"]["objective"] <= by_name["fixed-height"]["objective"] + 1e-9
    # DynPgm must be far faster than exhaustive search on this instance.
    assert by_name["dynpgm"]["seconds"] <= by_name["brute-force"]["seconds"]

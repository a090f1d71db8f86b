"""Ablation: stratification optimizers against the brute-force optimum.

The paper proves approximation guarantees for DirSol (Theorem 1), LogBdr
(Theorem 2), DynPgm (Theorem 3) and DynPgmP (Theorem 4).  This ablation
constructs controlled score orderings, runs every optimizer plus the
exhaustive reference on the same pilot sample, and reports each algorithm's
achieved objective, its gap to the brute-force optimum and its running
time — the empirical counterpart of those theorems.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.stratification import (
    PilotSample,
    brute_force_design,
    dirsol_design,
    dynpgm_design,
    dynpgm_proportional_design,
    fixed_height_design,
    fixed_width_design,
    logbdr_design,
)
from repro.parallel.engine import ordered_map
from repro.sampling.rng import resolve_rng


def _run_competitor(args):
    """Build and time one optimizer's design (picklable pool task)."""
    name, pilot, sorted_scores, num_strata, second_stage_samples, constraints = args
    builders = {
        "dirsol": lambda: dirsol_design(pilot, second_stage_samples, **constraints),
        "logbdr": lambda: logbdr_design(pilot, num_strata, second_stage_samples, **constraints),
        "dynpgm": lambda: dynpgm_design(pilot, num_strata, second_stage_samples, **constraints),
        "dynpgm-prop": lambda: dynpgm_proportional_design(
            pilot, num_strata, second_stage_samples, **constraints
        ),
        "fixed-width": lambda: fixed_width_design(
            pilot, sorted_scores, num_strata, second_stage_samples
        ),
        "fixed-height": lambda: fixed_height_design(pilot, num_strata, second_stage_samples),
    }
    started = time.perf_counter()
    design = builders[name]()
    return name, design, time.perf_counter() - started


def synthetic_pilot(
    population_size: int = 400,
    pilot_size: int = 40,
    positive_fraction: float = 0.25,
    noise: float = 0.1,
    seed: int = 0,
) -> tuple[PilotSample, np.ndarray]:
    """Build a synthetic score ordering with a noisy positive suffix.

    Objects near the top of the ordering are positive with high probability,
    mimicking what a reasonable classifier produces; ``noise`` controls how
    blurred the transition is.
    """
    rng = resolve_rng(seed)
    positions = np.arange(population_size)
    transition = (1.0 - positive_fraction) * population_size
    spread = noise * population_size + 1e-9
    probability = 1.0 / (1.0 + np.exp(-(positions - transition) / spread))
    labels_all = (rng.uniform(size=population_size) < probability).astype(np.float64)
    pilot_positions = np.sort(rng.choice(population_size, size=pilot_size, replace=False))
    pilot = PilotSample(pilot_positions, labels_all[pilot_positions], population_size)
    sorted_scores = positions / population_size
    return pilot, sorted_scores


def run_optimizer_ablation(
    population_size: int = 400,
    pilot_size: int = 40,
    second_stage_samples: int = 60,
    num_strata: int = 3,
    seed: int = 0,
    workers: int | None = 1,
) -> list[dict[str, object]]:
    """Compare every stratification optimizer on the same pilot sample.

    The brute-force reference runs first (every row's gap is measured
    against its optimum); the competitors then fan out across ``workers``
    processes, each timing its own design run.
    """
    pilot, sorted_scores = synthetic_pilot(
        population_size=population_size, pilot_size=pilot_size, seed=seed
    )
    constraints = {"min_stratum_size": 20, "min_pilot_per_stratum": 3}

    reference_started = time.perf_counter()
    reference = brute_force_design(
        pilot, num_strata, second_stage_samples, allocation="neyman", **constraints
    )
    reference_seconds = time.perf_counter() - reference_started

    names = ("dirsol", "logbdr", "dynpgm", "dynpgm-prop", "fixed-width", "fixed-height")
    timed = ordered_map(
        _run_competitor,
        [
            (name, pilot, sorted_scores, num_strata, second_stage_samples, constraints)
            for name in names
        ],
        workers,
    )
    designs = [("brute-force", reference, reference_seconds)] + timed

    # The eq.-5 objective drops a constant and is negative for Neyman
    # allocation, so a ratio to the optimum is meaningless; report the
    # additive gap instead (0.0 for the brute-force optimum itself).
    optimum = reference.objective_value
    return [
        {
            "algorithm": name,
            "allocation": design.allocation,
            "num_strata": design.num_strata,
            "objective": round(design.objective_value, 4),
            "gap_to_optimum": round(design.objective_value - optimum, 4),
            "seconds": round(elapsed, 4),
            "cuts": list(map(int, design.cuts)),
        }
        for name, design, elapsed in designs
    ]

"""LogBdr: enumeration over the exponential candidate-boundary grid.

LogBdr considers every way of partitioning the pilot objects into ``H``
contiguous groups and, for each adjacent pair of groups, every candidate
boundary that is a power of two away from the last pilot object of the left
group (Section 4.2.1).  The enumeration yields a better approximation factor
than DynPgm but its running time grows as ``m^{H-1}``, so in this library it
serves the ablation benchmarks and the correctness tests for the faster
algorithms rather than the default LSS pipeline.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb

import numpy as np

from repro.core.stratification.design import (
    InfeasibleDesignError,
    PilotSample,
    StratificationDesign,
    default_minimum_stratum_size,
    design_from_cuts,
)


def _gap_candidates(left_cut: int, right_cut: int) -> list[int]:
    """Candidate boundary cuts between two consecutive chosen pilot objects.

    ``left_cut`` is the cut ending with the last pilot object of the left
    group; candidates are ``left_cut + 2^t`` strictly below ``right_cut``
    (the cut of the next chosen pilot object), plus ``right_cut - 1``.
    """
    candidates = {left_cut}
    step = 1
    while left_cut + step < right_cut:
        candidates.add(left_cut + step)
        step *= 2
    candidates.add(right_cut - 1)
    return sorted(cut for cut in candidates if left_cut <= cut < right_cut)


def _design_count(gap_sizes: list[int], groups: int, min_pilot: int) -> int:
    """Number of designs the enumeration below would evaluate.

    Sums, over every choice of ``groups - 1`` ending pilot objects whose
    pilot groups all hold at least ``min_pilot`` objects, the product of the
    chosen gaps' candidate counts — one prefix-sum pass per stratum instead
    of walking the partitionings, so an over-cap input is refused before any
    design is evaluated.
    """
    m = len(gap_sizes)
    step = max(min_pilot, 1)
    ways = [size if index >= min_pilot - 1 else 0 for index, size in enumerate(gap_sizes)]
    for _ in range(groups - 2):
        reachable = 0
        extended = [0] * m
        for index in range(step, m):
            reachable += ways[index - step]
            extended[index] = gap_sizes[index] * reachable
        ways = extended
    return sum(ways[: max(m - min_pilot, 0)])


def logbdr_design(
    pilot: PilotSample,
    num_strata: int,
    second_stage_samples: int,
    min_stratum_size: int | None = None,
    min_pilot_per_stratum: int = 2,
    max_designs: int = 500_000,
) -> StratificationDesign:
    """Enumerate candidate stratifications and return the best.

    Args:
        pilot: labelled pilot sample with positions in the score ordering.
        num_strata: number of strata ``H``.
        second_stage_samples: second-stage budget ``n``.
        min_stratum_size: minimum objects per stratum (``N_⊔``).
        min_pilot_per_stratum: minimum pilot objects per stratum (``m_⊔``).
        max_designs: hard cap on the number of candidate designs evaluated —
            the enumeration refuses to run past it, before evaluating any,
            rather than silently truncating.  Under LSS the refusal is an
            :class:`InfeasibleDesignError` answered by the fixed-height
            fallback; the cap is reached at pilots of a few dozen objects
            at H = 4.
    """
    if num_strata <= 0:
        raise ValueError("num_strata must be positive")
    if second_stage_samples <= 0:
        raise ValueError("second_stage_samples must be positive")
    if min_stratum_size is None:
        min_stratum_size = default_minimum_stratum_size(
            pilot.population_size, second_stage_samples, num_strata
        )
    if num_strata == 1:
        return design_from_cuts(
            pilot,
            np.array([0, pilot.population_size]),
            second_stage_samples,
            "neyman",
            algorithm="logbdr",
        )

    m = pilot.size
    population = pilot.population_size
    positions = pilot.positions
    best_design: StratificationDesign | None = None

    partitionings = comb(m, num_strata - 1)
    if partitionings > max_designs:
        raise InfeasibleDesignError(
            f"LogBdr would enumerate {partitionings} pilot partitionings (> {max_designs}); "
            "reduce the pilot size, the number of strata, or use DynPgm"
        )
    # Candidate cuts after each pilot object, up to the next one.
    gaps = [
        _gap_candidates(
            int(positions[index]) + 1,
            int(positions[index + 1]) + 1 if index + 1 < m else population,
        )
        for index in range(m)
    ]
    if _design_count([len(gap) for gap in gaps], num_strata, min_pilot_per_stratum) > max_designs:
        raise InfeasibleDesignError(
            f"LogBdr would evaluate more than {max_designs} designs; "
            "reduce the pilot size, the number of strata, or use DynPgm"
        )

    # Choose, for each of the first H-1 strata, the pilot object it ends with.
    for chosen in combinations(range(m), num_strata - 1):
        group_sizes = np.diff(np.concatenate([[-1], np.asarray(chosen), [m - 1]]))
        if np.any(group_sizes < min_pilot_per_stratum):
            continue
        for inner in product(*(gaps[index] for index in chosen)):
            cuts = np.concatenate([[0], np.asarray(inner, dtype=np.int64), [population]])
            if np.any(np.diff(cuts) <= 0):
                continue
            sizes, pilot_counts, _ = pilot.stratum_statistics(cuts)
            if np.any(sizes < min_stratum_size) or np.any(
                pilot_counts < min_pilot_per_stratum
            ):
                continue
            candidate = design_from_cuts(
                pilot, cuts, second_stage_samples, "neyman", algorithm="logbdr"
            )
            if best_design is None or candidate.objective_value < best_design.objective_value:
                best_design = candidate

    if best_design is None:
        raise InfeasibleDesignError(
            "no feasible stratification satisfies the minimum-size constraints; "
            "reduce num_strata or the minimums"
        )
    return best_design

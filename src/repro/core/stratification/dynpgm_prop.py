"""DynPgmP: dynamic-programming stratification for proportional allocation.

Under proportional allocation the estimated-variance objective (eq. 6)
decomposes across strata, so the optimal stratification restricted to the
candidate boundary grid can be found with a straightforward dynamic program
over boundary positions (Section 4.2.2).  The paper shows the restriction to
the exponential candidate grid costs at most a factor 2 in estimated
variance (Theorem 4).
"""

from __future__ import annotations

import numpy as np

from repro.core.stratification.design import (
    InfeasibleDesignError,
    PilotSample,
    StratificationDesign,
    bernoulli_variance_estimate,
    candidate_boundary_cuts,
    default_minimum_stratum_size,
    design_from_cuts,
)


def _pairwise_stratum_tables(
    pilot: PilotSample, cuts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairwise (size, pilot count, variance) tables over candidate cuts.

    Entry ``[j, i]`` describes the stratum spanning ordered positions
    ``[cuts[j], cuts[i])``.
    """
    ranks = pilot.ranks_at(cuts)
    gamma_at = pilot.gamma[ranks]
    sizes = cuts[None, :] - cuts[:, None]
    pilot_counts = ranks[None, :] - ranks[:, None]
    positives = gamma_at[None, :] - gamma_at[:, None]
    variances = bernoulli_variance_estimate(positives, pilot_counts)
    return sizes.astype(np.float64), pilot_counts, variances


def _reconstruct_cuts(
    cuts: np.ndarray, parents: np.ndarray, final_index: int, num_strata: int
) -> np.ndarray:
    """Follow parent pointers back from the final boundary."""
    chain = [final_index]
    index, level = final_index, num_strata
    while level > 0:
        index = int(parents[index, level])
        chain.append(index)
        level -= 1
    return cuts[np.asarray(chain[::-1], dtype=np.int64)]


def dynpgm_proportional_design(
    pilot: PilotSample,
    num_strata: int,
    second_stage_samples: int,
    min_stratum_size: int | None = None,
    min_pilot_per_stratum: int = 2,
    include_backward: bool = True,
    max_candidates: int | None = 4000,
) -> StratificationDesign:
    """Find a stratification minimising the proportional-allocation variance.

    Args:
        pilot: labelled pilot sample with positions in the score ordering.
        num_strata: number of strata ``H``.
        second_stage_samples: second-stage budget ``n``.
        min_stratum_size: minimum objects per stratum (``N_⊔``); a practical
            default is derived from the population size when omitted.
        min_pilot_per_stratum: minimum pilot objects per stratum (``m_⊔``).
        include_backward: also generate backward power-of-two candidates.
        max_candidates: cap on the candidate boundary grid size.

    Returns:
        The best :class:`StratificationDesign` found.  The number of strata
        can be smaller than ``num_strata`` when the constraints cannot be met
        with ``num_strata`` strata (e.g. a tiny pilot sample).
    """
    if num_strata <= 0:
        raise ValueError("num_strata must be positive")
    if second_stage_samples <= 0:
        raise ValueError("second_stage_samples must be positive")
    if min_stratum_size is None:
        min_stratum_size = default_minimum_stratum_size(
            pilot.population_size, second_stage_samples, num_strata
        )

    cuts = candidate_boundary_cuts(pilot, include_backward, max_candidates)
    sizes, pilot_counts, variances = _pairwise_stratum_tables(pilot, cuts)
    num_cuts = cuts.size

    factor = (pilot.population_size - second_stage_samples) / second_stage_samples
    cost = factor * sizes * variances
    feasible = (
        (sizes >= min_stratum_size)
        & (pilot_counts >= min_pilot_per_stratum)
        & (np.triu(np.ones((num_cuts, num_cuts), dtype=bool), k=1))
    )
    cost = np.where(feasible, cost, np.inf)

    best_value = np.full((num_cuts, num_strata + 1), np.inf)
    parents = np.full((num_cuts, num_strata + 1), -1, dtype=np.int64)
    best_value[0, 0] = 0.0  # zero strata covering zero objects
    for level in range(1, num_strata + 1):
        totals = best_value[:, level - 1][:, None] + cost
        best_value[:, level] = totals.min(axis=0)
        parents[:, level] = totals.argmin(axis=0)

    final_index = num_cuts - 1
    chosen_level = None
    for level in range(num_strata, 0, -1):
        if np.isfinite(best_value[final_index, level]):
            chosen_level = level
            break
    if chosen_level is None:
        raise InfeasibleDesignError(
            "no feasible stratification satisfies the minimum-size constraints; "
            "reduce num_strata or the minimums"
        )
    final_cuts = _reconstruct_cuts(cuts, parents, final_index, chosen_level)
    return design_from_cuts(
        pilot, final_cuts, second_stage_samples, "proportional", algorithm="dynpgm-prop"
    )

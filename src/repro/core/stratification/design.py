"""Pilot-sample bookkeeping and variance objectives for stratification design.

The design problem (Section 4.2): the objects are ordered by classifier
score; a pilot sample ``SI`` of ``m`` objects has been labelled; choose
contiguous strata (cut positions along the ordering) minimising the estimated
variance of a second-stage stratified estimator with ``n`` samples.  All of
the optimizers in this package work through :class:`PilotSample`, which
maintains the prefix-sum index Γ over the pilot labels so that any stratum's
estimated variance is available in constant time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InfeasibleDesignError(ValueError):
    """The optimizer has no design for this pilot.

    Raised when the pilot is too small (or the minimum sizes too large) for
    any feasible design, and by LogBdr when the pilot needs more candidate
    designs than its enumeration cap.  It is the one error LSS answers by
    falling back to the constraint-free fixed-height layout; any other
    ``ValueError`` from an optimizer is a bug or a bad argument and
    propagates.
    """


@dataclass
class PilotSample:
    """A labelled pilot sample positioned within the score ordering.

    Attributes:
        positions: 0-based positions of the pilot objects within the ordered
            population, sorted ascending.
        labels: the 0/1 predicate outcomes, aligned with ``positions``.
        population_size: ``N``, the size of the ordered population.
    """

    positions: np.ndarray
    labels: np.ndarray
    population_size: int

    def __post_init__(self) -> None:
        positions = np.asarray(self.positions, dtype=np.int64)
        labels = np.asarray(self.labels, dtype=np.float64)
        if positions.ndim != 1 or labels.ndim != 1:
            raise ValueError("positions and labels must be 1-d arrays")
        if positions.size != labels.size:
            raise ValueError("positions and labels must be aligned")
        if positions.size == 0:
            raise ValueError("pilot sample must not be empty")
        if self.population_size <= 0:
            raise ValueError("population_size must be positive")
        if positions.min() < 0 or positions.max() >= self.population_size:
            raise ValueError("pilot positions must lie within the population")
        if np.unique(positions).size != positions.size:
            raise ValueError("pilot positions must be distinct")
        order = np.argsort(positions, kind="stable")
        self.positions = positions[order]
        self.labels = labels[order]
        # Γ: gamma[k] = number of positive pilot objects among the first k
        # pilot objects in score order (gamma[0] = 0).
        self.gamma = np.concatenate([[0.0], np.cumsum(self.labels)])

    @property
    def size(self) -> int:
        """Number of pilot objects ``m``."""
        return int(self.positions.size)

    def ranks_at(self, cuts: np.ndarray) -> np.ndarray:
        """Number of pilot objects strictly before each cut position."""
        return np.searchsorted(self.positions, np.asarray(cuts), side="left")

    def stratum_statistics(
        self, cuts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-stratum (size, pilot count, estimated variance) for given cuts.

        ``cuts`` is the full boundary vector ``[0, c_1, ..., c_{H-1}, N]``;
        stratum ``h`` covers ordered positions ``[cuts[h], cuts[h+1])``.
        """
        cuts = np.asarray(cuts, dtype=np.int64)
        validate_cuts(cuts, self.population_size)
        sizes = np.diff(cuts)
        ranks = self.ranks_at(cuts)
        pilot_counts = np.diff(ranks)
        positives = np.diff(self.gamma[ranks])
        variances = bernoulli_variance_estimate(positives, pilot_counts)
        return sizes, pilot_counts, variances


def validate_cuts(cuts: np.ndarray, population_size: int) -> None:
    """Check that a boundary vector is strictly increasing from 0 to N."""
    cuts = np.asarray(cuts)
    if cuts.ndim != 1 or cuts.size < 2:
        raise ValueError("cuts must contain at least [0, N]")
    if cuts[0] != 0 or cuts[-1] != population_size:
        raise ValueError("cuts must start at 0 and end at the population size")
    if np.any(np.diff(cuts) <= 0):
        raise ValueError("cuts must be strictly increasing (no empty strata)")


def bernoulli_variance_estimate(positives: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Unbiased variance estimate ``s²`` of 0/1 labels per stratum.

    Matches the paper's expression ``s² = P/(m-1) · (1 - P/m)``; strata with
    fewer than two pilot objects get 0 (the feasibility constraints of the
    optimizers keep such strata from being chosen in the first place).
    """
    positives = np.asarray(positives, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    variances = np.zeros_like(positives, dtype=np.float64)
    enough = counts >= 2
    with np.errstate(divide="ignore", invalid="ignore"):
        estimate = positives / (counts - 1.0) * (1.0 - positives / counts)
    variances[enough] = estimate[enough]
    return np.clip(variances, 0.0, None)


def smoothed_bernoulli_std(positives: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Laplace-smoothed standard deviation of 0/1 labels per stratum.

    With only a handful of pilot objects per stratum the unbiased ``s²``
    estimate is frequently exactly zero even when the stratum is not pure,
    which would starve that stratum under Neyman allocation.  Smoothing the
    proportion as ``(P + 1) / (m + 2)`` keeps every stratum sampleable while
    converging to the unsmoothed estimate as the pilot grows.  Used for
    allocating the second-stage budget, not for the design objective.
    """
    positives = np.asarray(positives, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    smoothed = (positives + 1.0) / np.maximum(counts + 2.0, 2.0)
    return np.sqrt(np.clip(smoothed * (1.0 - smoothed), 0.0, None))


# -- variance objectives ------------------------------------------------------
def general_objective(
    sizes: np.ndarray, variances: np.ndarray, allocation: np.ndarray
) -> float:
    """Eq. (4): estimated variance for an explicit per-stratum allocation."""
    sizes = np.asarray(sizes, dtype=np.float64)
    variances = np.asarray(variances, dtype=np.float64)
    allocation = np.asarray(allocation, dtype=np.float64)
    if np.any(allocation <= 0):
        raise ValueError("every stratum must receive at least one sample")
    return float(np.sum(sizes**2 * variances / allocation) - np.sum(sizes * variances))


def neyman_objective(sizes: np.ndarray, variances: np.ndarray, second_stage_samples: int) -> float:
    """Eq. (5): estimated variance under Neyman allocation of ``n`` samples."""
    if second_stage_samples <= 0:
        raise ValueError("second_stage_samples must be positive")
    sizes = np.asarray(sizes, dtype=np.float64)
    deviations = np.sqrt(np.asarray(variances, dtype=np.float64))
    weighted = sizes * deviations
    return float(weighted.sum() ** 2 / second_stage_samples - np.sum(sizes * deviations**2))


def proportional_objective(
    sizes: np.ndarray,
    variances: np.ndarray,
    second_stage_samples: int,
    population_size: int,
) -> float:
    """Eq. (6): estimated variance under proportional allocation."""
    if second_stage_samples <= 0:
        raise ValueError("second_stage_samples must be positive")
    sizes = np.asarray(sizes, dtype=np.float64)
    variances = np.asarray(variances, dtype=np.float64)
    factor = (population_size - second_stage_samples) / second_stage_samples
    return float(factor * np.sum(sizes * variances))


@dataclass(frozen=True)
class StratificationDesign:
    """A stratification of the score-ordered population.

    Attributes:
        cuts: boundary vector ``[0, c_1, ..., c_{H-1}, N]``; stratum ``h``
            covers ordered positions ``[cuts[h], cuts[h+1])``.
        stratum_sizes: ``N_h`` per stratum.
        stratum_variances: pilot-estimated ``s²_h`` per stratum.
        pilot_counts: number of pilot objects per stratum.
        objective_value: the optimizer's estimated-variance objective.
        allocation: ``"neyman"`` or ``"proportional"`` — which allocation the
            objective assumed.
        algorithm: name of the optimizer that produced the design.
    """

    cuts: np.ndarray
    stratum_sizes: np.ndarray
    stratum_variances: np.ndarray
    pilot_counts: np.ndarray
    objective_value: float
    allocation: str
    algorithm: str

    @property
    def num_strata(self) -> int:
        return int(self.stratum_sizes.size)

    def stratum_slices(self) -> list[tuple[int, int]]:
        """Half-open ``(start, end)`` position ranges per stratum."""
        cuts = self.cuts
        return [(int(cuts[h]), int(cuts[h + 1])) for h in range(self.num_strata)]


def design_from_cuts(
    pilot: PilotSample,
    cuts: np.ndarray,
    second_stage_samples: int,
    allocation: str,
    algorithm: str,
) -> StratificationDesign:
    """Evaluate a boundary vector into a full :class:`StratificationDesign`."""
    cuts = np.asarray(cuts, dtype=np.int64)
    sizes, pilot_counts, variances = pilot.stratum_statistics(cuts)
    if allocation == "neyman":
        objective = neyman_objective(sizes, variances, second_stage_samples)
    elif allocation == "proportional":
        objective = proportional_objective(
            sizes, variances, second_stage_samples, pilot.population_size
        )
    else:
        raise ValueError(f"unknown allocation {allocation!r}")
    return StratificationDesign(
        cuts=cuts,
        stratum_sizes=sizes,
        stratum_variances=variances,
        pilot_counts=pilot_counts,
        objective_value=objective,
        allocation=allocation,
        algorithm=algorithm,
    )


def default_minimum_stratum_size(
    population_size: int, second_stage_samples: int, num_strata: int
) -> int:
    """A practical ``N_⊔`` default.

    The theorems assume ``N_⊔ > n``; in practice we cap it so that ``H``
    strata of the minimum size always fit in the population.
    """
    by_theory = second_stage_samples + 1
    by_population = max(population_size // (4 * num_strata), 1)
    return max(1, min(by_theory, by_population))


def candidate_boundary_cuts(
    pilot: PilotSample,
    include_backward: bool = True,
    max_candidates: int | None = 4000,
) -> np.ndarray:
    """The exponential candidate-boundary grid of LogBdr / DynPgm.

    For every pilot object at ordered position ``p`` (0-based), the cut
    ``p + 1`` ("the stratum ends with this object") is a candidate, as are the
    cuts ``p + 1 + 2^t`` up to the next pilot object and — when
    ``include_backward`` — ``p + 1 - 2^t`` down to the previous one.  The cut
    just before the next pilot object and the endpoints 0 and ``N`` are always
    included.  When the grid exceeds ``max_candidates`` the power-of-two
    refinements are thinned uniformly (the pilot cuts themselves are kept),
    trading a slightly looser approximation for bounded running time.
    """
    positions = pilot.positions
    n_population = pilot.population_size
    base_cuts = positions + 1
    cuts: list[np.ndarray] = [np.array([0, n_population], dtype=np.int64), base_cuts]

    next_cuts = np.concatenate([base_cuts[1:], [n_population]])
    previous_cuts = np.concatenate([[0], base_cuts[:-1]])
    refinements: list[int] = []
    for cut, nxt, prev in zip(base_cuts, next_cuts, previous_cuts):
        # The cut just before the next pilot object.
        refinements.append(int(nxt - 1))
        step = 1
        while cut + step < nxt:
            refinements.append(int(cut + step))
            step *= 2
        if include_backward:
            step = 1
            while cut - step > prev:
                refinements.append(int(cut - step))
                step *= 2
    refinement_array = np.unique(np.asarray(refinements, dtype=np.int64))
    if max_candidates is not None and refinement_array.size + base_cuts.size + 2 > max_candidates:
        keep = max(max_candidates - base_cuts.size - 2, 0)
        if keep == 0:
            refinement_array = np.empty(0, dtype=np.int64)
        else:
            chosen = np.linspace(0, refinement_array.size - 1, keep).astype(np.int64)
            refinement_array = refinement_array[np.unique(chosen)]
    cuts.append(refinement_array)
    merged = np.unique(np.concatenate(cuts))
    return merged[(merged >= 0) & (merged <= n_population)]

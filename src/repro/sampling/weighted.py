"""Probability-proportional-to-size sampling and the Des Raj estimator.

Learned Weighted Sampling (Section 4.1) treats the classifier score ``g(o)``
as a size measure and draws objects without replacement with probability
proportional to ``max(g(o), ε)``.  The Des Raj ordered estimator turns the
resulting draw sequence into an unbiased running estimate of the positive
proportion together with a variance estimate, regardless of how good or bad
the size measures are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.estimate import CountEstimate
from repro.sampling.intervals import normal_interval_from_variance
from repro.sampling.rng import SeedLike, as_index_array, resolve_rng
from repro.sampling.srs import LabelOracle, evaluate_labels


def normalise_size_measures(size_measures: np.ndarray, floor: float = 1e-3) -> np.ndarray:
    """Convert raw size measures into initial inclusion probabilities.

    Every object keeps a strictly positive probability by flooring the size
    measure at ``floor`` (the paper's ε guard against an over-confident
    classifier) before normalising to sum to one.
    """
    measures = np.asarray(size_measures, dtype=np.float64)
    if measures.ndim != 1:
        raise ValueError("size measures must be a 1-d array")
    if measures.size == 0:
        raise ValueError("size measures must not be empty")
    if floor <= 0:
        raise ValueError("floor must be strictly positive")
    if np.any(~np.isfinite(measures)):
        raise ValueError("size measures must be finite")
    if np.any(measures < 0):
        raise ValueError("size measures must be non-negative")
    floored = np.maximum(measures, floor)
    return floored / floored.sum()


def pps_permutation(
    probabilities: np.ndarray,
    seed: SeedLike = None,
) -> np.ndarray:
    """The full seeded PPS draw order over all candidates.

    One vectorised exponential-races pass (Efraimidis–Spirakis): sorting
    ``Exp(p_i)`` draws ascending reproduces sequential PPS sampling without
    replacement, so element ``k`` of the returned permutation is the ``k``-th
    draw.  The RNG consumption is one ``exponential(size=n)`` call regardless
    of how much of the permutation is later used.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if probabilities.ndim != 1:
        raise ValueError("probabilities must be a 1-d array")
    if np.any(probabilities <= 0):
        raise ValueError("all probabilities must be strictly positive")
    rng = resolve_rng(seed)
    keys = rng.exponential(scale=1.0, size=probabilities.size) / probabilities
    return np.argsort(keys, kind="stable")


def pps_sample_without_replacement(
    probabilities: np.ndarray,
    size: int,
    seed: SeedLike = None,
) -> np.ndarray:
    """Draw ``size`` distinct indices with probability proportional to size.

    Draws are sequential: at each step the next index is chosen among the
    remaining ones with probability proportional to its initial measure,
    which is exactly the sampling design the Des Raj estimator assumes.
    The sample is the first ``size`` elements of :func:`pps_permutation`.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if size < 0:
        raise ValueError("sample size must be non-negative")
    if size > probabilities.size:
        raise ValueError(
            f"cannot draw {size} distinct objects from {probabilities.size} candidates"
        )
    return pps_permutation(probabilities, seed=seed)[:size]


@dataclass
class DesRajEstimate:
    """Running Des Raj estimate after a number of ordered draws."""

    proportion: float
    variance: float
    draws: int


class DesRajEstimator:
    """Des Raj ordered estimator for PPS sampling without replacement.

    The estimator consumes the ordered sequence of draws ``o_1, o_2, ...``
    with their labels and initial probabilities ``π(o_i)`` and produces the
    per-draw quantities ``p_i`` of eq. (3); the estimate after ``n`` draws is
    the mean of the first ``n`` values and its variance the usual variance of
    a mean.
    """

    def __init__(self, population_size: int) -> None:
        if population_size <= 0:
            raise ValueError("population_size must be positive")
        self.population_size = population_size

    def per_draw_estimates(
        self, labels: np.ndarray, probabilities: np.ndarray
    ) -> np.ndarray:
        """Compute the Des Raj quantities ``p_i`` for an ordered draw sequence."""
        labels = np.asarray(labels, dtype=np.float64)
        probabilities = np.asarray(probabilities, dtype=np.float64)
        if labels.shape != probabilities.shape:
            raise ValueError("labels and probabilities must be aligned")
        if labels.size == 0:
            raise ValueError("need at least one draw")
        label_prefix = np.concatenate([[0.0], np.cumsum(labels)[:-1]])
        probability_prefix = np.concatenate([[0.0], np.cumsum(probabilities)[:-1]])
        with np.errstate(divide="raise", invalid="raise"):
            contributions = label_prefix + labels / probabilities * (1.0 - probability_prefix)
        return contributions / self.population_size

    def estimate(self, labels: np.ndarray, probabilities: np.ndarray) -> DesRajEstimate:
        """Return the running estimate after all supplied draws."""
        per_draw = self.per_draw_estimates(labels, probabilities)
        n = per_draw.size
        proportion = float(per_draw.mean())
        if n > 1:
            variance = float(per_draw.var(ddof=1) / n)
        else:
            variance = 0.0
        return DesRajEstimate(proportion=proportion, variance=variance, draws=n)

    def running_estimates(
        self, labels: np.ndarray, probabilities: np.ndarray
    ) -> list[DesRajEstimate]:
        """Return the estimate after every prefix of the draw sequence."""
        per_draw = self.per_draw_estimates(labels, probabilities)
        estimates = []
        for n in range(1, per_draw.size + 1):
            prefix = per_draw[:n]
            variance = float(prefix.var(ddof=1) / n) if n > 1 else 0.0
            estimates.append(
                DesRajEstimate(proportion=float(prefix.mean()), variance=variance, draws=n)
            )
        return estimates


class WeightedSampling:
    """PPS-without-replacement count estimator (the sampling half of LWS).

    Args:
        floor: minimum size measure ε so every object stays sampleable.
        confidence: coverage level for the normal-approximation interval.
    """

    method_name = "pps"

    def __init__(self, floor: float = 1e-3, confidence: float = 0.95) -> None:
        self.floor = floor
        self.confidence = confidence

    def estimate(
        self,
        objects: Sequence[int] | np.ndarray,
        size_measures: np.ndarray,
        oracle: LabelOracle,
        sample_size: int,
        seed: SeedLike = None,
        method: str | None = None,
    ) -> CountEstimate:
        """Estimate the count of positives among ``objects``.

        Args:
            objects: indices of the population to estimate over.
            size_measures: one non-negative size measure per object (for LWS
                these are classifier scores ``g(o)``).
            oracle: expensive predicate, evaluated once per drawn object.
            sample_size: number of predicate evaluations to spend.
            seed: RNG seed or generator.
        """
        objects = as_index_array(objects)
        if objects.size == 0:
            raise ValueError("cannot estimate a count over an empty object set")
        size_measures = np.asarray(size_measures, dtype=np.float64)
        if size_measures.shape != objects.shape:
            raise ValueError("size_measures must align with objects")
        sample_size = int(min(sample_size, objects.size))
        if sample_size <= 0:
            raise ValueError("sample_size must be positive")

        probabilities = normalise_size_measures(size_measures, floor=self.floor)
        positions = pps_permutation(probabilities, seed=seed)[:sample_size]
        drawn_objects = objects[positions]
        drawn_probabilities = probabilities[positions]
        labels = evaluate_labels(oracle, drawn_objects)

        estimator = DesRajEstimator(population_size=objects.size)
        result = estimator.estimate(labels, drawn_probabilities)
        interval = normal_interval_from_variance(
            result.proportion, result.variance, self.confidence, method="des-raj-normal"
        )
        return CountEstimate(
            count=result.proportion * objects.size,
            proportion=result.proportion,
            population_size=objects.size,
            predicate_evaluations=sample_size,
            method=method or self.method_name,
            interval=interval,
            variance=result.variance,
            details={
                "sample_indices": drawn_objects,
                "sample_labels": labels,
                "sample_probabilities": drawn_probabilities,
            },
        )

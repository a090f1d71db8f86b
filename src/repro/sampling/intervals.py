"""Confidence intervals for estimated proportions and counts.

The paper reports every sampling-based estimate with a confidence interval:
the Wald (normal-approximation) interval with finite-population correction
for simple random sampling, the Wilson interval as the robust alternative for
very small or very large selectivities, and a t-based interval for stratified
estimators (Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval for a proportion.

    Attributes:
        low: lower bound, clipped to ``[0, 1]``.
        high: upper bound, clipped to ``[0, 1]``.
        confidence: the nominal coverage level (e.g. ``0.95``).
        method: short name of the interval construction used.
    """

    low: float
    high: float
    confidence: float
    method: str

    @property
    def width(self) -> float:
        """Total width of the interval."""
        return self.high - self.low

    def scaled(self, factor: float) -> tuple[float, float]:
        """Return the interval rescaled by ``factor`` (e.g. population size)."""
        return self.low * factor, self.high * factor

    def contains(self, value: float) -> bool:
        """Whether ``value`` (a proportion) falls inside the interval."""
        return self.low <= value <= self.high


def _validate_inputs(proportion: float, sample_size: int, confidence: float) -> None:
    if not 0.0 <= proportion <= 1.0:
        raise ValueError(f"proportion must lie in [0, 1], got {proportion}")
    if sample_size <= 0:
        raise ValueError(f"sample size must be positive, got {sample_size}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")


def finite_population_correction(sample_size: int, population_size: int | None) -> float:
    """Return the finite-population correction ``(N - n) / (N - 1)``.

    Sampling without replacement from a finite population shrinks the
    variance of the estimated proportion by this factor; with ``N`` unknown
    (``None``) or ``N == 1`` the correction degenerates to 1.
    """
    if population_size is None or population_size <= 1:
        return 1.0
    n = min(sample_size, population_size)
    return (population_size - n) / (population_size - 1)


def wald_interval(
    proportion: float,
    sample_size: int,
    population_size: int | None = None,
    confidence: float = 0.95,
) -> ConfidenceInterval:
    """Wald (normal-approximation) interval for a proportion.

    This is the interval the paper quotes for SRS: ``p ± z * sqrt(p(1-p)/n *
    (N-n)/(N-1))``.  It is unreliable for selectivities near 0 or 1, in which
    case :func:`wilson_interval` should be preferred.
    """
    _validate_inputs(proportion, sample_size, confidence)
    z = special.ndtri(0.5 + confidence / 2.0)
    fpc = finite_population_correction(sample_size, population_size)
    half_width = z * np.sqrt(proportion * (1.0 - proportion) / sample_size * fpc)
    return ConfidenceInterval(
        low=float(max(0.0, proportion - half_width)),
        high=float(min(1.0, proportion + half_width)),
        confidence=confidence,
        method="wald",
    )


def wilson_interval(
    proportion: float,
    sample_size: int,
    population_size: int | None = None,
    confidence: float = 0.95,
) -> ConfidenceInterval:
    """Wilson score interval for a proportion.

    More reliable than the Wald interval when the predicate is highly
    selective or highly non-selective.  The finite-population correction is
    applied by deflating the effective variance in the same way as for the
    Wald interval.
    """
    _validate_inputs(proportion, sample_size, confidence)
    z = special.ndtri(0.5 + confidence / 2.0)
    fpc = finite_population_correction(sample_size, population_size)
    # Applying the correction through an inflated effective sample size keeps
    # the interval inside [0, 1] by construction.
    effective_n = sample_size / fpc if fpc > 0 else float(sample_size)
    denominator = 1.0 + z**2 / effective_n
    centre = (proportion + z**2 / (2.0 * effective_n)) / denominator
    half_width = (
        z
        * np.sqrt(
            proportion * (1.0 - proportion) / effective_n
            + z**2 / (4.0 * effective_n**2)
        )
        / denominator
    )
    return ConfidenceInterval(
        low=float(max(0.0, centre - half_width)),
        high=float(min(1.0, centre + half_width)),
        confidence=confidence,
        method="wilson",
    )


def normal_interval_from_variance(
    proportion: float,
    variance: float,
    confidence: float = 0.95,
    method: str = "normal",
) -> ConfidenceInterval:
    """Normal interval for an estimator with an explicit variance estimate.

    Used by the Des Raj (LWS) estimator where the variance of the running
    estimate is computed directly from the ordered draws.
    """
    if variance < 0:
        variance = 0.0
    z = special.ndtri(0.5 + confidence / 2.0)
    half_width = z * np.sqrt(variance)
    return ConfidenceInterval(
        low=float(max(0.0, proportion - half_width)),
        high=float(min(1.0, proportion + half_width)),
        confidence=confidence,
        method=method,
    )


def stratified_t_interval(
    proportion: float,
    variance: float,
    degrees_of_freedom: int,
    confidence: float = 0.95,
) -> ConfidenceInterval:
    """t-based interval for a stratified estimator.

    The paper uses ``p ± t_{α/2} sqrt(V̂ar(p))`` for stratified sampling,
    with degrees of freedom taken as the number of samples minus the number
    of strata.
    """
    if variance < 0:
        variance = 0.0
    if degrees_of_freedom < 1:
        degrees_of_freedom = 1
    t = special.stdtrit(degrees_of_freedom, 0.5 + confidence / 2.0)
    half_width = t * np.sqrt(variance)
    return ConfidenceInterval(
        low=float(max(0.0, proportion - half_width)),
        high=float(min(1.0, proportion + half_width)),
        confidence=confidence,
        method="stratified-t",
    )

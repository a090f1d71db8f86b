"""The result type shared by every count estimator in the library."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import only needed for type checkers
    from repro.sampling.intervals import ConfidenceInterval


@dataclass(frozen=True)
class CountEstimate:
    """An estimate of ``C(O, q)``, the number of positive objects.

    Every estimator in the library — the sampling baselines, the
    quantification-learning estimators and the learn-to-sample methods —
    returns this type so that the experiment harness can treat them
    uniformly.

    Attributes:
        count: the estimated number of positive objects in the full set.
        proportion: the estimated positive proportion over the part of the
            population the estimator sampled from (the "test" population for
            two-phase methods).
        population_size: number of objects the proportion refers to.
        predicate_evaluations: how many times the expensive predicate ``q``
            was evaluated to produce this estimate (the paper's cost model).
        method: short identifier of the estimator (``"srs"``, ``"lss"`` ...).
        interval: confidence interval on the *count* scale, when the
            estimator provides statistical guarantees (``None`` for pure
            learning estimators such as Classify-and-Count).
        variance: estimated variance of the proportion estimator, when
            available.
        count_offset: an exactly-known count added on top of the estimated
            part.  Two-phase methods know the exact count of the objects they
            labelled during the learning phase; that part carries no
            statistical uncertainty and is reported here.
        details: free-form per-method diagnostics (stratum design and
            allocation, learning-set size, fallbacks taken, ...).  Phase
            timings are not kept here: they are :mod:`repro.obs` stage spans.
    """

    count: float
    proportion: float
    population_size: int
    predicate_evaluations: int
    method: str
    interval: ConfidenceInterval | None = None
    variance: float | None = None
    count_offset: float = 0.0
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def count_interval(self) -> tuple[float, float] | None:
        """The confidence interval rescaled to the count scale, if any."""
        if self.interval is None:
            return None
        low, high = self.interval.scaled(self.population_size)
        return low + self.count_offset, high + self.count_offset

    def relative_error(self, true_count: float) -> float:
        """Absolute relative error against a known ground-truth count."""
        if true_count == 0:
            return abs(self.count)
        return abs(self.count - true_count) / abs(true_count)

    def covers(self, true_count: float) -> bool | None:
        """Whether the count-scale interval covers the true count.

        Returns ``None`` for estimators without confidence intervals.
        """
        bounds = self.count_interval
        if bounds is None:
            return None
        low, high = bounds
        return low <= true_count <= high

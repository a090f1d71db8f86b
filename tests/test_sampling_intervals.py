"""Tests for repro.sampling.intervals."""

import numpy as np
import pytest
from scipy import special, stats

from repro.sampling.intervals import (
    ConfidenceInterval,
    finite_population_correction,
    normal_interval_from_variance,
    stratified_t_interval,
    wald_interval,
    wilson_interval,
)


class TestFinitePopulationCorrection:
    def test_no_population_means_no_correction(self):
        assert finite_population_correction(10, None) == 1.0

    def test_full_sample_gives_zero(self):
        assert finite_population_correction(100, 100) == 0.0

    def test_small_sample_close_to_one(self):
        assert finite_population_correction(1, 10_001) == pytest.approx(1.0, abs=1e-3)


class TestWaldInterval:
    def test_contains_point_estimate(self):
        interval = wald_interval(0.3, 100)
        assert interval.low < 0.3 < interval.high

    def test_width_shrinks_with_sample_size(self):
        assert wald_interval(0.3, 400).width < wald_interval(0.3, 100).width

    def test_width_shrinks_with_fpc(self):
        unbounded = wald_interval(0.3, 100, population_size=None)
        bounded = wald_interval(0.3, 100, population_size=120)
        assert bounded.width < unbounded.width

    def test_clipped_to_unit_interval(self):
        interval = wald_interval(0.01, 20)
        assert interval.low >= 0.0
        assert interval.high <= 1.0

    def test_higher_confidence_is_wider(self):
        assert wald_interval(0.4, 100, confidence=0.99).width > wald_interval(
            0.4, 100, confidence=0.9
        ).width

    def test_invalid_proportion_rejected(self):
        with pytest.raises(ValueError):
            wald_interval(1.2, 100)

    def test_invalid_sample_size_rejected(self):
        with pytest.raises(ValueError):
            wald_interval(0.5, 0)

    def test_invalid_confidence_rejected(self):
        with pytest.raises(ValueError):
            wald_interval(0.5, 10, confidence=1.0)


class TestWilsonInterval:
    def test_nonzero_width_at_zero_proportion(self):
        interval = wilson_interval(0.0, 50)
        assert interval.high > 0.0

    def test_contains_point_estimate_for_moderate_p(self):
        interval = wilson_interval(0.4, 200)
        assert interval.low < 0.4 < interval.high

    def test_narrower_than_wald_at_extremes(self):
        # At p = 0 the Wald interval collapses to a point, which is exactly
        # why Wilson is preferred; check Wilson stays sane instead.
        wald = wald_interval(0.0, 50)
        wilson = wilson_interval(0.0, 50)
        assert wald.width == 0.0
        assert wilson.width > 0.0

    def test_clipped_to_unit_interval(self):
        interval = wilson_interval(0.99, 30)
        assert interval.high <= 1.0


class TestOtherIntervals:
    def test_normal_interval_from_variance(self):
        interval = normal_interval_from_variance(0.5, 0.01)
        assert interval.low < 0.5 < interval.high
        assert interval.width == pytest.approx(2 * 1.959964 * 0.1, rel=1e-3)

    def test_normal_interval_negative_variance_clamped(self):
        interval = normal_interval_from_variance(0.5, -1.0)
        assert interval.width == 0.0

    def test_stratified_t_interval_wider_with_fewer_dof(self):
        wide = stratified_t_interval(0.5, 0.01, degrees_of_freedom=2)
        narrow = stratified_t_interval(0.5, 0.01, degrees_of_freedom=200)
        assert wide.width > narrow.width

    def test_stratified_t_interval_dof_floor(self):
        interval = stratified_t_interval(0.5, 0.01, degrees_of_freedom=0)
        assert np.isfinite(interval.width)


class TestClosedFormQuantiles:
    """The intervals call ``scipy.special`` directly for their quantiles.

    ``ndtri`` and ``stdtrit`` are what ``stats.norm.ppf`` and ``stats.t.ppf``
    evaluate; every interval (and so every pinned fingerprint) depends on
    the two agreeing to the last bit, so a scipy release in which they
    diverge must fail here.
    """

    CONFIDENCES = np.concatenate([np.linspace(0.001, 0.999, 2000), [0.9, 0.95, 0.99]])

    def test_normal_quantile_matches_distribution_ppf(self):
        quantiles = 0.5 + self.CONFIDENCES / 2.0
        for confidence, q in zip(self.CONFIDENCES, quantiles):
            z = stats.norm.ppf(q)
            interval = normal_interval_from_variance(0.5, 1e-4, confidence)
            assert interval.high == float(min(1.0, 0.5 + z * np.sqrt(1e-4)))
        assert np.array_equal(special.ndtri(quantiles), stats.norm.ppf(quantiles))

    @pytest.mark.parametrize("df", [1, 2, 3, 5, 10, 50, 400, 1000.5])
    def test_t_quantile_matches_distribution_ppf(self, df):
        quantiles = 0.5 + self.CONFIDENCES / 2.0
        assert np.array_equal(special.stdtrit(df, quantiles), stats.t.ppf(quantiles, df=df))
        if float(df).is_integer():
            for confidence, q in zip(self.CONFIDENCES[::50], quantiles[::50]):
                t = stats.t.ppf(q, df=df)
                interval = stratified_t_interval(0.5, 1e-4, int(df), confidence)
                assert interval.high == float(min(1.0, 0.5 + t * np.sqrt(1e-4)))


class TestConfidenceIntervalType:
    def test_scaled(self):
        interval = ConfidenceInterval(low=0.2, high=0.4, confidence=0.95, method="wald")
        assert interval.scaled(100) == (20.0, 40.0)

    def test_contains(self):
        interval = ConfidenceInterval(low=0.2, high=0.4, confidence=0.95, method="wald")
        assert interval.contains(0.3)
        assert not interval.contains(0.5)

    def test_width(self):
        interval = ConfidenceInterval(low=0.2, high=0.45, confidence=0.95, method="wald")
        assert interval.width == pytest.approx(0.25)

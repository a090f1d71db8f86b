"""Unit tests for worker-count resolution and the ordered process-pool map."""

from __future__ import annotations

import pytest

from repro.parallel.engine import available_workers, ordered_map, resolve_worker_count


def _square(value: int) -> int:
    return value * value


def _explode(value: int) -> int:
    raise RuntimeError(f"boom on {value}")


class TestWorkerResolution:
    def test_default_serial(self):
        assert resolve_worker_count(1) == 1
        assert resolve_worker_count(7) == 7

    def test_zero_and_none_mean_all_cpus(self):
        assert resolve_worker_count(None) == available_workers()
        assert resolve_worker_count(0) == available_workers()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_worker_count(-2)

    def test_available_workers_positive(self):
        assert available_workers() >= 1


class TestEngineMap:
    def test_serial_path(self):
        # A lambda cannot be pickled, so this only passes if no pool is used.
        assert ordered_map(lambda value: value * value, range(6), workers=1) == [
            0, 1, 4, 9, 16, 25,
        ]

    def test_parallel_preserves_order(self):
        assert ordered_map(_square, range(11), workers=2) == [v * v for v in range(11)]

    def test_more_workers_than_items(self):
        assert ordered_map(_square, [3, 4], workers=8) == [9, 16]

    def test_empty_items(self):
        assert ordered_map(_square, [], workers=4) == []

    def test_errors_propagate(self):
        with pytest.raises(RuntimeError, match="boom"):
            ordered_map(_explode, range(4), workers=2)

"""Table 1: result-set sizes across selectivity levels.

For each dataset and level the driver reports the calibrated query parameter,
the exact result-set size and the realised fraction, mirroring the paper's
Table 1 (which lists e.g. Sports XS = 1 % (357) up to XXL = 90 % (42432)).
"""

from __future__ import annotations

from repro.experiments.common import build_scaled_workload
from repro.experiments.config import SMALL_SCALE, ExperimentScale
from repro.parallel.engine import ordered_map


def _selectivity_cell(args: tuple[str, str | float, ExperimentScale]) -> dict[str, object]:
    """Build and summarise one (dataset, level) cell (picklable task)."""
    dataset, level, scale = args
    workload = build_scaled_workload(dataset, level, scale)
    return {
        "dataset": dataset,
        "level": level,
        "objects": workload.num_objects,
        "parameter_k": workload.calibration.parameter,
        "result_size": workload.true_count,
        "result_pct": round(100.0 * workload.true_count / workload.num_objects, 2),
        "target_pct": round(100.0 * workload.calibration.target_fraction, 2),
    }


def run_table1_selectivity(
    scale: ExperimentScale = SMALL_SCALE,
    workers: int | None = None,
) -> list[dict[str, object]]:
    """Regenerate Table 1 at the requested scale.

    Each (dataset, level) cell builds and calibrates its own workload, so
    with ``workers > 1`` the cells fan out across processes; every cell is
    deterministic, so the table is identical for any worker count.
    """
    workers = scale.workers if workers is None else workers
    cells = [(dataset, level, scale) for dataset in scale.datasets for level in scale.levels]
    return ordered_map(_selectivity_cell, cells, workers)

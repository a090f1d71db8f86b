"""Tracked micro-benchmarks for the vectorized kernel layer.

Each benchmark times one vectorized kernel against the retained
``*_reference`` scalar implementation (for the forest kernels, the reference
CART in ``tests/reference_tree.py``; for the PPS draw, the full stable sort in
``tests/reference_sampling.py``) on a deterministic, seeded workload,
verifies that both produce identical results, and reports the speedup.  The
driver emits ``BENCH_micro.json`` at the repository root so successive PRs
leave a perf trajectory (`BENCH_*.json`) that CI can archive; the document
records the usable cores and the Python/numpy versions it was measured with.

Usage::

    python benchmarks/run_micro.py                  # full sizes, writes BENCH_micro.json
    python benchmarks/run_micro.py --scale small    # quick smoke sizes
    python benchmarks/run_micro.py --output /tmp/bench.json --repeats 5

The benchmark functions are importable (``benchmarks/micro`` reuses them at
small scale under pytest-benchmark), and every workload is seeded through
:mod:`repro.sampling.rng`, so reruns measure the same instances.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time
from typing import Callable

_REPO_ROOT = pathlib.Path(__file__).parent.parent
_SRC = _REPO_ROOT / "src"
_TESTS = _REPO_ROOT / "tests"
for _path in (_SRC, _TESTS):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np  # noqa: E402
from reference_sampling import pps_permutation_reference  # noqa: E402
from reference_tree import fit_forest_reference, forest_scores_reference  # noqa: E402

from repro.core.learning_phase import default_classifier  # noqa: E402
from repro.core.stratification.design import PilotSample  # noqa: E402
from repro.core.stratification.dirsol import dirsol_design, dirsol_design_reference  # noqa: E402
from repro.core.stratification.dynpgm import dynpgm_design, dynpgm_design_reference  # noqa: E402
from repro.datasets.neighbors import (  # noqa: E402
    NEIGHBOR_X_COLUMN,
    NEIGHBOR_Y_COLUMN,
    generate_neighbors_table,
)
from repro.parallel.engine import available_workers  # noqa: E402
from repro.query.counting import CountingQuery  # noqa: E402
from repro.query.predicates import NeighborCountPredicate  # noqa: E402
from repro.query.spatial import GridIndex  # noqa: E402
from repro.sampling.rng import spawn_seeds  # noqa: E402
from repro.sampling.stratified import StrataPartition, StratifiedSampling  # noqa: E402
from repro.sampling.weighted import normalise_size_measures, pps_permutation  # noqa: E402

DEFAULT_OUTPUT = _REPO_ROOT / "BENCH_micro.json"

#: (kernel name) -> acceptance floor on the speedup, where one exists.
SPEEDUP_TARGETS = {
    "grid_count_within_bulk": 3.0,
    "dirsol_design": 5.0,
    "dynpgm_design": 12.0,
}


def _best_of(function: Callable[[], object], repeats: int) -> tuple[float, object]:
    """Best-of-``repeats`` wall-clock time plus the (last) result.

    The reference and the kernel are always timed with the same ``repeats``
    so neither side absorbs more cold-start noise than the other.
    """
    best = float("inf")
    result = None
    for _ in range(max(repeats, 1)):
        started = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - started)
    return best, result


def _entry(name: str, reference_seconds: float, kernel_seconds: float) -> dict:
    entry = {
        "name": name,
        "reference_seconds": reference_seconds,
        "kernel_seconds": kernel_seconds,
        "speedup": reference_seconds / kernel_seconds if kernel_seconds > 0 else float("inf"),
    }
    target = SPEEDUP_TARGETS.get(name)
    if target is not None:
        entry["target_speedup"] = target
        entry["meets_target"] = bool(entry["speedup"] >= target)
    return entry


#: Radius of the Neighbors workload predicate (DEFAULT_NEIGHBOR_DISTANCE).
NEIGHBOR_RADIUS = 1.5


def _neighbor_table(num_rows: int):
    """The actual Neighbors dataset (dense traffic clusters + diffuse scans)."""
    return generate_neighbors_table(num_rows=num_rows, seed=11)


def _neighbor_points(num_rows: int) -> np.ndarray:
    return _neighbor_table(num_rows).columns([NEIGHBOR_X_COLUMN, NEIGHBOR_Y_COLUMN])


def bench_grid_bulk(scale: str = "full", repeats: int = 3) -> dict:
    """Ground-truth pass of the Neighbors workload: bulk grid sweep vs probes."""
    num_points = 20_000 if scale == "full" else 3_000
    radius = NEIGHBOR_RADIUS
    grid = GridIndex(_neighbor_points(num_points), cell_size=radius)
    everything = np.arange(num_points)
    reference_seconds, reference = _best_of(
        lambda: grid.count_within_batch_reference(everything, radius), repeats
    )
    kernel_seconds, kernel = _best_of(lambda: grid.count_within_bulk(radius), repeats)
    assert np.array_equal(reference, kernel), "bulk kernel diverged from scalar reference"
    return _entry("grid_count_within_bulk", reference_seconds, kernel_seconds)


def bench_grid_batch(scale: str = "full", repeats: int = 3) -> dict:
    """Sampled predicate evaluation: cell-grouped batch vs per-object probes."""
    num_points = 20_000 if scale == "full" else 3_000
    radius = NEIGHBOR_RADIUS
    rng = spawn_seeds(2024, 8)[1]
    grid = GridIndex(_neighbor_points(num_points), cell_size=radius)
    sample = rng.choice(num_points, num_points // 4, replace=False)
    reference_seconds, reference = _best_of(
        lambda: grid.count_within_batch_reference(sample, radius), repeats
    )
    kernel_seconds, kernel = _best_of(lambda: grid.count_within_batch(sample, radius), repeats)
    assert np.array_equal(reference, kernel), "batch kernel diverged from scalar reference"
    return _entry("grid_count_within_batch", reference_seconds, kernel_seconds)


def _random_pilot(seed_index: int, population: int, pilot_size: int) -> PilotSample:
    rng = spawn_seeds(2024, 8)[seed_index]
    positions = np.sort(rng.choice(population, size=pilot_size, replace=False))
    probabilities = np.clip(np.linspace(0.02, 0.95, pilot_size), 0.0, 1.0)
    labels = (rng.uniform(size=pilot_size) < probabilities).astype(float)
    return PilotSample(positions, labels, population)


def bench_dirsol(scale: str = "full", repeats: int = 3) -> dict:
    """DirSol design search at the paper-scale m=200 pilot."""
    pilot_size = 200 if scale == "full" else 50
    pilot = _random_pilot(2, population=20_000, pilot_size=pilot_size)
    budget = 200
    reference_seconds, reference = _best_of(
        lambda: dirsol_design_reference(pilot, budget), repeats
    )
    kernel_seconds, kernel = _best_of(lambda: dirsol_design(pilot, budget), repeats)
    assert np.array_equal(reference.cuts, kernel.cuts), "DirSol kernel diverged"
    assert reference.objective_value == kernel.objective_value
    return _entry("dirsol_design", reference_seconds, kernel_seconds)


def bench_dynpgm(scale: str = "full", repeats: int = 3) -> dict:
    """DynPgm DP across the auxiliary-sum guess grid."""
    pilot_size = 150 if scale == "full" else 60
    pilot = _random_pilot(3, population=20_000, pilot_size=pilot_size)
    budget, num_strata = 200, 5
    reference_seconds, reference = _best_of(
        lambda: dynpgm_design_reference(pilot, num_strata, budget), repeats
    )
    kernel_seconds, kernel = _best_of(
        lambda: dynpgm_design(pilot, num_strata, budget), repeats
    )
    assert np.array_equal(reference.cuts, kernel.cuts), "DynPgm kernel diverged"
    assert reference.objective_value == kernel.objective_value
    return _entry("dynpgm_design", reference_seconds, kernel_seconds)


def bench_stratified_estimate(scale: str = "full", repeats: int = 3) -> dict:
    """Stratified estimator combination step over many strata."""
    num_strata = 400 if scale == "full" else 60
    per_stratum = 80
    rng = spawn_seeds(2024, 8)[4]
    sizes = rng.integers(per_stratum, per_stratum * 10, size=num_strata)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    partition = StrataPartition(
        [np.arange(bounds[h], bounds[h + 1]) for h in range(num_strata)]
    )
    stratum_labels = [
        (rng.uniform(size=per_stratum) < rng.uniform(0.05, 0.95)).astype(float)
        for _ in range(num_strata)
    ]
    estimator = StratifiedSampling()
    reference_seconds, reference = _best_of(
        lambda: estimator.estimate_from_samples_reference(partition, stratum_labels), repeats
    )
    kernel_seconds, kernel = _best_of(
        lambda: estimator.estimate_from_samples(partition, stratum_labels), repeats
    )
    assert kernel.count == reference.count and kernel.variance == reference.variance
    return _entry("stratified_estimate_from_samples", reference_seconds, kernel_seconds)


def bench_counting_batch(scale: str = "full", repeats: int = 3) -> dict:
    """Uncached CountingQuery.evaluate_batch vs the per-object predicate loop."""
    num_points = 20_000 if scale == "full" else 3_000
    table = _neighbor_table(num_points)
    predicate = NeighborCountPredicate(
        NEIGHBOR_X_COLUMN, NEIGHBOR_Y_COLUMN, max_neighbors=6, distance=NEIGHBOR_RADIUS
    )
    query = CountingQuery(table, predicate, name="micro", cache_labels=False)
    rng = spawn_seeds(2024, 8)[6]
    sample = rng.choice(num_points, num_points // 4, replace=False)
    reference_seconds, reference = _best_of(
        lambda: predicate.evaluate_reference(table, sample), repeats
    )
    kernel_seconds, kernel = _best_of(lambda: query.evaluate_batch(sample), repeats)
    assert np.array_equal(reference, kernel), "counting batch diverged"
    return _entry("counting_evaluate_batch", reference_seconds, kernel_seconds)


def _learning_sample(scale: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All Neighbors points plus a labelled learning sample of them."""
    num_points = 12_000 if scale == "full" else 3_000
    table = _neighbor_table(num_points)
    predicate = NeighborCountPredicate(
        NEIGHBOR_X_COLUMN, NEIGHBOR_Y_COLUMN, max_neighbors=6, distance=NEIGHBOR_RADIUS
    )
    query = CountingQuery(table, predicate, name="micro", cache_labels=False)
    rng = spawn_seeds(2024, 8)[5]
    sample = rng.choice(num_points, 200 if scale == "full" else 75, replace=False)
    points = table.columns([NEIGHBOR_X_COLUMN, NEIGHBOR_Y_COLUMN])
    return points, points[sample], query.evaluate(sample)


def _assert_same_nodes(forest, reference: list[dict]) -> None:
    for tree, nodes in zip(forest.trees_, reference, strict=True):
        for key, array in nodes.items():
            assert tree.nodes_[key].tobytes() == array.tobytes(), "forest fit diverged"


def bench_forest_fit(scale: str = "full", repeats: int = 3) -> dict:
    """The estimators' default forest fitted on a labelled learning sample."""
    _, features, labels = _learning_sample(scale)
    model = default_classifier(seed=7)
    reference_seconds, reference = _best_of(
        lambda: fit_forest_reference(model, features, labels), repeats
    )
    kernel_seconds, _ = _best_of(lambda: model.fit(features, labels), repeats)
    _assert_same_nodes(model, reference)
    return _entry("forest_fit", reference_seconds, kernel_seconds)


def bench_forest_predict(scale: str = "full", repeats: int = 3) -> dict:
    """The default forest scoring every object of the table."""
    points, features, labels = _learning_sample(scale)
    model = default_classifier(seed=7).fit(features, labels)
    reference = fit_forest_reference(model, features, labels)
    _assert_same_nodes(model, reference)
    reference_seconds, expected = _best_of(
        lambda: forest_scores_reference(reference, points), repeats
    )
    kernel_seconds, scores = _best_of(lambda: model.predict_scores(points), repeats)
    assert scores.tobytes() == expected.tobytes(), "forest scores diverged"
    return _entry("forest_predict_scores", reference_seconds, kernel_seconds)


def bench_pps_draw(scale: str = "full", repeats: int = 3) -> dict:
    """The LWS sampling draw: the first k of a PPS order over forest scores.

    Full scale is the served LWS request's shape (k = 600 draws from
    N = 11,800 objects); both sides draw from an equally seeded generator.
    """
    points, features, labels = _learning_sample("full" if scale == "full" else "small")
    scores = default_classifier(seed=7).fit(features, labels).predict_scores(points)
    probabilities = normalise_size_measures(scores[: 11_800 if scale == "full" else 3_000])
    size = 600 if scale == "full" else 150
    repeats *= 20  # one draw is well under a millisecond
    reference_seconds, expected = _best_of(
        lambda: pps_permutation_reference(probabilities, size, seed=2024), repeats
    )
    kernel_seconds, drawn = _best_of(
        lambda: pps_permutation(probabilities, size, seed=2024), repeats
    )
    assert drawn.tobytes() == expected.tobytes(), "PPS draw diverged from the full sort"
    return _entry("pps_draw", reference_seconds, kernel_seconds)


BENCHMARKS: tuple[Callable[..., dict], ...] = (
    bench_grid_bulk,
    bench_grid_batch,
    bench_dirsol,
    bench_dynpgm,
    bench_stratified_estimate,
    bench_counting_batch,
    bench_forest_fit,
    bench_forest_predict,
    bench_pps_draw,
)


def run_all(scale: str = "full", repeats: int = 3) -> dict:
    """Run every micro-benchmark and assemble the trajectory document."""
    results = []
    for bench in BENCHMARKS:
        entry = bench(scale=scale, repeats=repeats)
        results.append(entry)
        print(
            f"{entry['name']:36s} reference {entry['reference_seconds']*1e3:9.2f} ms  "
            f"kernel {entry['kernel_seconds']*1e3:9.2f} ms  speedup {entry['speedup']:6.1f}x"
        )
    return {
        "suite": "micro-kernels",
        "scale": scale,
        "repeats": repeats,
        # The DynPgm kernel runs on every usable core, so its time (and
        # speedup) depends on this figure as much as on the code.
        "usable_cores": available_workers(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "benchmarks": results,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--scale", choices=("small", "full"), default="full")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    document = run_all(scale=args.scale, repeats=args.repeats)
    args.output.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {args.output}")
    # Kernel-vs-reference divergence raises (hard failure, also in CI);
    # a missed speedup floor is timing noise territory and is record-only —
    # the `meets_target` flags in the document are the durable signal.
    missing = [
        entry["name"]
        for entry in document["benchmarks"]
        if entry.get("meets_target") is False
    ]
    if missing:
        print(f"WARNING: below target speedup: {', '.join(missing)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

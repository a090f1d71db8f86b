"""The two evaluation workloads, parameterised by size and selectivity.

The paper's experiments are a grid over {dataset} × {selectivity level} ×
{sample size}.  A :class:`Workload` bundles the generated table, the
calibrated counting query and its exact ground truth so the per-figure
drivers in :mod:`repro.experiments` stay small.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets.neighbors import (
    DEFAULT_NEIGHBORS_ROWS,
    NEIGHBOR_X_COLUMN,
    NEIGHBOR_Y_COLUMN,
    generate_neighbors_table,
)
from repro.datasets.selectivity import (
    CalibrationResult,
    calibrate_neighbor_threshold,
    calibrate_skyband_depth,
)
from repro.datasets.sports import (
    DEFAULT_SPORTS_ROWS,
    SKYBAND_X_COLUMN,
    SKYBAND_Y_COLUMN,
    generate_sports_table,
)
from repro.query.backends import canonical_backend_spec
from repro.query.counting import CountingQuery
from repro.query.predicates import NeighborCountPredicate, SkybandPredicate

#: Distance used by the Neighbors query; chosen so the densest clusters give
#: large neighbour counts while isolated records have few.
DEFAULT_NEIGHBOR_DISTANCE = 1.5


@dataclass(frozen=True)
class WorkloadSpec:
    """A pickle-safe recipe for rebuilding a :class:`Workload`.

    Workload construction is fully deterministic given these fields, so a
    worker process that rebuilds from the same spec obtains an object-set,
    calibration and ground truth identical to the parent's.  The parallel
    trial engine ships specs (cheap) instead of workloads (heavy, and not
    guaranteed picklable for user-defined predicates) and caches one built
    workload per spec per process.

    ``backend`` selects the query-execution backend (canonical spec string,
    see :mod:`repro.query.backends`); it is part of the task description and
    of the deterministic task fingerprint, but never of the results — the
    backend-parity contract keeps estimates byte-identical across backends.
    """

    dataset: str
    level: str | float = "S"
    num_rows: int | None = None
    seed: int | None = None
    cache_labels: bool = True
    backend: str = "numpy"

    def __post_init__(self) -> None:
        # Canonicalise eagerly (``"sqlite:database=:memory:"`` → ``"sqlite"``)
        # so specs describing the same task compare and hash equally — shared
        # warm pools, the score cache and the task fingerprint all key on the
        # spec.
        object.__setattr__(self, "backend", canonical_backend_spec(self.backend))

    def build(self, table=None, label_cache=None) -> "Workload":
        """Construct the described workload (deterministic).

        ``table`` optionally supplies the already-materialised object set —
        the warm worker pool hands workers zero-copy shared-memory views of
        the parent's table so they skip dataset regeneration; the rows must
        be byte-identical to what the spec would generate, which the shared
        pages guarantee by construction.  ``label_cache`` likewise adopts a
        bulk predicate label cache computed once in the parent.
        """
        workload = build_workload(
            self.dataset,
            level=self.level,
            num_rows=self.num_rows,
            seed=self.seed,
            cache_labels=self.cache_labels,
            backend=self.backend,
            table=table,
        )
        if label_cache is not None:
            workload.query.attach_label_cache(label_cache)
        return workload


@dataclass
class Workload:
    """A calibrated counting workload.

    Attributes:
        name: ``"sports"`` or ``"neighbors"``.
        level: selectivity level label (``"XS"`` ... ``"XXL"``) or fraction.
        query: the :class:`CountingQuery` to estimate.
        calibration: how the query parameter was calibrated.
        spec: the recipe this workload was built from, when it came out of
            :func:`build_workload`; lets the parallel engine rebuild an
            identical workload inside worker processes.
    """

    name: str
    level: str | float
    query: CountingQuery
    calibration: CalibrationResult
    spec: WorkloadSpec | None = None

    @property
    def true_count(self) -> int:
        return self.query.true_count()

    @property
    def num_objects(self) -> int:
        return self.query.num_objects

    def sample_size(self, fraction: float) -> int:
        """Convert a sample-size fraction (e.g. 0.01 for "1 %") to a budget."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must lie in (0, 1]")
        return max(int(round(fraction * self.num_objects)), 1)


def _check_provided_table(table, num_rows: int) -> None:
    if table.num_rows != num_rows:
        raise ValueError(
            f"provided table has {table.num_rows} rows but the spec describes {num_rows}; "
            "shared pages must come from a workload built from the same spec"
        )


def build_sports_workload(
    level: str | float = "S",
    num_rows: int = DEFAULT_SPORTS_ROWS,
    seed: int = 7,
    cache_labels: bool = True,
    backend: str = "numpy",
    table=None,
) -> Workload:
    """Type 1 (Sports): k-skyband membership over pitching statistics."""
    backend = canonical_backend_spec(backend)
    if table is None:
        table = generate_sports_table(num_rows=num_rows, seed=seed)
    else:
        _check_provided_table(table, num_rows)
    calibration = calibrate_skyband_depth(table, SKYBAND_X_COLUMN, SKYBAND_Y_COLUMN, level)
    predicate = SkybandPredicate(SKYBAND_X_COLUMN, SKYBAND_Y_COLUMN, k=calibration.parameter)
    query = CountingQuery(
        table,
        predicate,
        name=f"sports-skyband-{level}",
        cache_labels=cache_labels,
        backend=backend,
    )
    spec = WorkloadSpec(
        dataset="sports",
        level=level,
        num_rows=num_rows,
        seed=seed,
        cache_labels=cache_labels,
        backend=backend,
    )
    return Workload(name="sports", level=level, query=query, calibration=calibration, spec=spec)


def build_neighbors_workload(
    level: str | float = "S",
    num_rows: int = DEFAULT_NEIGHBORS_ROWS,
    seed: int = 11,
    distance: float = DEFAULT_NEIGHBOR_DISTANCE,
    cache_labels: bool = True,
    backend: str = "numpy",
    table=None,
) -> Workload:
    """Type 2 (Neighbors): records with few neighbours within distance ``d``."""
    backend = canonical_backend_spec(backend)
    if table is None:
        table = generate_neighbors_table(num_rows=num_rows, seed=seed)
    else:
        _check_provided_table(table, num_rows)
    calibration = calibrate_neighbor_threshold(
        table, NEIGHBOR_X_COLUMN, NEIGHBOR_Y_COLUMN, distance, level
    )
    predicate = NeighborCountPredicate(
        NEIGHBOR_X_COLUMN,
        NEIGHBOR_Y_COLUMN,
        max_neighbors=calibration.parameter,
        distance=distance,
    )
    query = CountingQuery(
        table,
        predicate,
        name=f"neighbors-{level}",
        cache_labels=cache_labels,
        backend=backend,
    )
    # A spec can only describe what build_workload can rebuild; a custom
    # neighbour distance is not part of the spec vocabulary, so such
    # workloads stay serial-only (spec=None).
    spec = (
        WorkloadSpec(
            dataset="neighbors",
            level=level,
            num_rows=num_rows,
            seed=seed,
            cache_labels=cache_labels,
            backend=backend,
        )
        if distance == DEFAULT_NEIGHBOR_DISTANCE
        else None
    )
    return Workload(name="neighbors", level=level, query=query, calibration=calibration, spec=spec)


def build_workload(
    dataset: str,
    level: str | float = "S",
    num_rows: int | None = None,
    seed: int | None = None,
    cache_labels: bool = True,
    backend: str = "numpy",
    table=None,
) -> Workload:
    """Build either workload by name with sensible defaults."""
    if dataset == "sports":
        return build_sports_workload(
            level=level,
            num_rows=num_rows or DEFAULT_SPORTS_ROWS,
            seed=7 if seed is None else seed,
            cache_labels=cache_labels,
            backend=backend,
            table=table,
        )
    if dataset == "neighbors":
        return build_neighbors_workload(
            level=level,
            num_rows=num_rows or DEFAULT_NEIGHBORS_ROWS,
            seed=11 if seed is None else seed,
            cache_labels=cache_labels,
            backend=backend,
            table=table,
        )
    raise ValueError(f"unknown dataset {dataset!r}; choose 'sports' or 'neighbors'")

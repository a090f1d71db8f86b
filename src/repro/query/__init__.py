"""Workload substrate: tables, counting queries and expensive predicates.

The paper casts every workload as a pair (Q2, Q3): an object set that is
cheap to enumerate and an expensive per-object predicate.  This package
provides the pieces needed to express both example workloads — and arbitrary
new ones — in that form:

* :class:`repro.query.table.Table` — a small column-oriented in-memory table.
* :class:`repro.query.counting.CountingQuery` — the (objects, predicate)
  decomposition with evaluation accounting.
* :mod:`repro.query.predicates` — neighbour-count and k-skyband predicates
  plus generic wrappers for user-defined functions.
* :mod:`repro.query.spatial` — grid index and dominance-counting structures
  used both for exact ground truth and inside the predicates.
* :mod:`repro.query.backends` — the pluggable execution layer: the same
  counting query runs over in-memory numpy kernels or a real sqlite3
  engine (predicates pushed down as SQL), with byte-identical results.
* :mod:`repro.query.sql` — sqlite3 materialisation of a table.
"""

from repro.query.backends import (
    BACKEND_NAMES,
    NumpyBackend,
    QueryBackend,
    SqliteBackend,
    canonical_backend_spec,
    make_backend,
)
from repro.query.counting import CountingQuery
from repro.query.predicates import (
    CallablePredicate,
    NeighborCountPredicate,
    Predicate,
    SkybandPredicate,
)
from repro.query.spatial import GridIndex, dominance_counts, neighbor_counts
from repro.query.table import Table

__all__ = [
    "BACKEND_NAMES",
    "CallablePredicate",
    "CountingQuery",
    "GridIndex",
    "NeighborCountPredicate",
    "NumpyBackend",
    "Predicate",
    "QueryBackend",
    "SkybandPredicate",
    "SqliteBackend",
    "Table",
    "canonical_backend_spec",
    "dominance_counts",
    "make_backend",
    "neighbor_counts",
]

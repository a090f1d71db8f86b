"""Bring your own predicate: counting with a user-defined function.

The paper's framework only needs two things from a workload: a cheap way to
enumerate objects and an expensive per-object predicate (Q2/Q3 in Section 2).
This example defines a custom "expensive" UDF over a synthetic orders table —
a correlated subquery that checks whether a customer's order is unusually
large compared to that customer's history — estimates its count with LWS and
LSS, and cross-checks the predicate against the sqlite3 backend.

Run with:  python examples/custom_udf_query.py
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from repro import CountingQuery, session
from repro.query.predicates import CallablePredicate
from repro.query.sql import table_to_sqlite
from repro.query.table import Table


def build_orders_table(num_orders: int = 20_000, num_customers: int = 800, seed: int = 3) -> Table:
    """Synthetic orders: each customer has a personal spending profile."""
    rng = np.random.default_rng(seed)
    customer_ids = rng.integers(0, num_customers, size=num_orders)
    customer_scale = rng.lognormal(mean=3.0, sigma=0.6, size=num_customers)
    amounts = rng.gamma(shape=2.0, scale=customer_scale[customer_ids] / 2.0)
    quantities = rng.poisson(3, size=num_orders) + 1
    return Table(
        {
            "customer_id": customer_ids,
            "amount": amounts,
            "quantity": quantities,
        },
        name="orders",
    )


def unusually_large(table: Table, index: int) -> bool:
    """The expensive UDF: is this order > 2x its customer's average amount?

    Evaluating it requires scanning the customer's full history — exactly the
    kind of correlated per-object subquery the paper targets.
    """
    customer = table["customer_id"][index]
    history = table["amount"][table["customer_id"] == customer]
    return bool(table["amount"][index] > 2.0 * history.mean())


def unusually_large_bulk(table: Table) -> np.ndarray:
    """Exact bulk evaluation used only to validate the estimates."""
    amounts = table["amount"]
    customers = table["customer_id"]
    sums = np.bincount(customers, weights=amounts)
    counts = np.bincount(customers)
    means = sums / np.maximum(counts, 1)
    return (amounts > 2.0 * means[customers]).astype(float)


def main() -> None:
    table = build_orders_table()
    predicate = CallablePredicate(
        function=unusually_large,
        feature_columns=("amount", "quantity"),
        bulk_function=unusually_large_bulk,
    )
    query = CountingQuery(table, predicate, name="unusually-large-orders")
    budget = max(query.num_objects // 50, 100)  # 2% of the orders

    print(f"Orders: {query.num_objects}, budget: {budget} predicate evaluations")
    print(f"True count (for validation): {query.true_count()}\n")

    # A lazily-constructed session: nothing becomes resident, the facade just
    # runs the chosen estimator over the caller-owned query.
    with session() as facade:
        for method in ("lws", "lss", "srs"):
            result = facade.estimate_query(query, budget=budget, method=method, seed=7)
            interval = result.estimate.count_interval
            interval_text = (
                f" 95% CI [{interval[0]:,.0f}, {interval[1]:,.0f}]" if interval else ""
            )
            print(
                f"{method.upper():4s} estimate: {result.estimate.count:10,.1f}"
                f"  (relative error {result.relative_error:.2%}){interval_text}"
            )

    # Cross-check the predicate semantics on a few objects through sqlite.
    connection = table_to_sqlite(table)
    sample = np.random.default_rng(0).choice(query.num_objects, size=5, replace=False)
    print("\nsqlite3 cross-check of the UDF on 5 random orders:")
    for index in sample:
        (sql_mean,) = connection.execute(
            "SELECT AVG(amount) FROM orders WHERE customer_id = ?",
            (float(table["customer_id"][index]),),
        ).fetchone()
        sql_label = bool(table["amount"][index] > 2.0 * sql_mean)
        python_label = unusually_large(table, int(index))
        marker = "ok" if sql_label == python_label else "MISMATCH"
        print(f"  order {index:6d}: python={python_label!s:5s} sql={sql_label!s:5s} [{marker}]")
    connection.close()


if __name__ == "__main__":
    main()

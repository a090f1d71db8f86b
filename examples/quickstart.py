"""Quickstart: estimate an expensive counting query with learn-to-sample.

Builds the Neighbors workload (a synthetic stand-in for the paper's KDD Cup
1999 sample), then estimates how many records have at most ``k`` neighbours
within distance ``d`` using Learned Stratified Sampling — spending only 2 %
of the predicate evaluations an exact answer would need.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

import repro
from repro import obs
from repro.obs.export import group_stage_totals, stage_totals
from repro.workloads import build_neighbors_workload


def main() -> None:
    # A 12 000-record synthetic connections table; level "S" calibrates the
    # neighbour threshold so ~10 % of records qualify.
    workload = build_neighbors_workload(level="S", num_rows=12_000, seed=1)
    query = workload.query
    budget = workload.sample_size(0.02)  # 2 % of the objects

    print(f"Workload: {query.name}")
    print(f"Objects: {query.num_objects}, predicate-evaluation budget: {budget}")

    # The session facade is the canonical entry point; adopting the built
    # workload makes it resident, so follow-up estimates reuse the table.
    # Stage spans and oracle seconds are recorded for this one estimate only.
    was_enabled = obs.set_enabled(True)
    obs.reset()
    try:
        with repro.session(workload) as facade:
            result = facade.estimate_query(query, budget=budget, method="lss", seed=42)
    finally:
        obs.set_enabled(was_enabled)
    estimate = result.estimate
    low, high = estimate.count_interval

    print()
    print(f"Estimated count : {estimate.count:,.0f}")
    print(f"95% interval    : [{low:,.0f}, {high:,.0f}]")
    print(f"True count      : {result.true_count:,}")
    print(f"Relative error  : {result.relative_error:.2%}")
    print(f"Predicate calls : {estimate.predicate_evaluations} "
          f"({estimate.predicate_evaluations / query.num_objects:.1%} of the objects)")

    seconds = group_stage_totals(stage_totals(obs.registry()))["seconds"]
    predicate = obs.registry().counter_total(obs.ORACLE_SECONDS)
    print()
    print("LSS time by stage (seconds, from repro.obs):")
    print(f"  learning + scoring  {seconds['learning']:.4f}")
    print(f"  sample design       {seconds['design']:.4f}")
    print(f"  pilot + stage II    {seconds['sampling']:.4f}")
    print(f"  predicate (within the stages above) {predicate:.4f}")


if __name__ == "__main__":
    main()

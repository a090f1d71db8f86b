"""Sports scenario: how many pitcher-seasons sit in the k-skyband?

Reproduces the paper's Type 1 workload (Example 2): count the player-season
rows that are dominated by fewer than ``k`` others on (strikeouts, wins).
The script compares every estimator in the library over repeated trials and
prints the spread of their estimates — a miniature version of Figure 2.

Run with:  python examples/sports_skyband.py
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from repro.experiments.common import MethodSpec, run_distribution
from repro.experiments.report import print_table
from repro.workloads import build_sports_workload

METHODS = ("srs", "ssp", "ssn", "lws", "lss", "qlcc", "qlac")


def main() -> None:
    workload = build_sports_workload(level="S", num_rows=10_000, seed=7)
    print(
        f"Sports workload: {workload.num_objects} player-seasons, "
        f"skyband depth k={workload.calibration.parameter}, "
        f"true count {workload.true_count}"
    )
    print("Comparing estimators at a 2% predicate-evaluation budget, 9 trials each\n")

    rows = []
    for method in METHODS:
        distribution = run_distribution(
            workload, method, MethodSpec(method), fraction=0.02, num_trials=9, seed=2019
        )
        rows.append(distribution.as_row())
    print_table(rows, title="Estimate distributions (tighter IQR is better)")


if __name__ == "__main__":
    main()

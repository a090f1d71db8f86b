"""Benchmark: warm-pool speedup and serial equivalence at scale.

Reuses the sweep helpers from ``benchmarks/run_parallel.py`` (the driver
behind the committed ``BENCH_parallel.json``) at small scale: a figure2-style
method sweep runs serially and through the warm worker pool on the same
workload and master seed.  Byte-identical fingerprints are asserted
unconditionally; the >=2x wall-clock gate only runs on machines with at
least 4 usable cores, because a process pool cannot beat serial execution
on a single-CPU box.
"""

import pathlib
import sys

import pytest

_BENCHMARKS = pathlib.Path(__file__).parent
if str(_BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(_BENCHMARKS))

from run_parallel import GATE_WORKERS, TARGET_SPEEDUP, run_suite  # noqa: E402

pytestmark = [pytest.mark.slow, pytest.mark.benchmark]


def test_warm_pool_sweep_equivalence_and_speedup(benchmark, report):
    document = benchmark.pedantic(run_suite, kwargs={"scale": "small"}, rounds=1, iterations=1)

    # run_suite raises on any serial/warm fingerprint divergence; the
    # flag in the document records that the assertion actually ran.
    assert document["fingerprints_identical"] is True

    totals = document["totals"]
    gate = document["gate"]
    report(
        "Warm pool — figure2-style sweep, serial vs warm at 4 workers",
        [
            {
                "methods": "+".join(entry["method"] for entry in document["methods"]),
                "trials_per_method": document["trials_per_method"],
                "serial_s": round(totals["serial_seconds"], 3),
                "warm_s": round(totals["warm_seconds"], 3),
                "warm_startup_s": round(totals["warm_startup_seconds"], 3),
                "speedup_vs_serial": gate["speedup"],
                "usable_cores": document["usable_cores"],
                "gate": gate["status"],
            }
        ],
    )

    if document["usable_cores"] >= GATE_WORKERS:
        assert gate["status"] == "pass", (
            f"expected >={TARGET_SPEEDUP}x warm-pool speedup on >={GATE_WORKERS} cores, "
            f"got {gate['speedup']}x"
        )
    else:
        pytest.skip(
            f"speedup gate needs >={GATE_WORKERS} usable cores, found "
            f"{document['usable_cores']} (measured {gate['speedup']}x; "
            "fingerprint identity asserted)"
        )

"""Backend-parity audit: the seeded fingerprint workflow across backends.

The backend layer's hard invariant (see :mod:`repro.query.backends`) is that
a query backend is a *representation*, never semantics: per-object oracle
labels, cost accounting and every seed-driven estimate must be byte-identical
whichever backend executes the expensive predicate.  This module turns the
invariant into an executable gate:

* :func:`run_backend_parity` builds the same seeded workload once per
  backend, replays the full seven-method estimation workflow with identical
  master seeds, and fingerprints everything deterministic — ground-truth
  labels, probed oracle labels and charged evaluations, per-trial estimate
  fingerprints (IEEE-754 byte level, via
  :func:`repro.parallel.fingerprint.estimates_fingerprint`), LSS cut points,
  and per-trial oracle-call counts.
* ``python -m repro.experiments.parity`` runs the audit and exits non-zero
  on any divergence — the fast CI tier runs it as the ``backend-parity``
  step, so a backend that drifts by a single ULP turns the build red.
"""

from __future__ import annotations

import argparse
import hashlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.experiments.config import parse_method_spec
from repro.parallel.fingerprint import estimates_fingerprint, task_fingerprint
from repro.parallel.methods import METHODS
from repro.workloads.queries import WorkloadSpec
from repro.workloads.runner import TrialRunner

#: Backends audited by default: the in-memory reference, the SQL engine at
#: both pushdown levels (``sqlite`` is the ``counts`` default; ``off`` stores
#: only), and the out-of-core streaming backend at a degenerate, an
#: adversarially odd and a production block size.
DEFAULT_BACKENDS = (
    "numpy",
    "sqlite",
    "sqlite:pushdown=off",
    "chunked:1",
    "chunked:7",
    "chunked:4096",
)

#: Number of objects probed through the charged oracle path per backend.
_PROBE_SIZE = 64


@dataclass(frozen=True)
class MethodParity:
    """Fingerprints of one estimator's trials on one backend."""

    method: str
    backend: str
    task: str
    estimates: str
    cut_points: str
    oracle_calls: tuple[int, ...]


@dataclass
class ParityReport:
    """Everything compared across backends, plus any divergences found."""

    dataset: str
    level: str | float
    num_rows: int
    baseline: str
    ground_truth: dict[str, tuple[str, int]] = field(default_factory=dict)
    oracle_probes: dict[str, tuple[str, int]] = field(default_factory=dict)
    capabilities: dict[str, tuple[str, ...]] = field(default_factory=dict)
    rows: list[MethodParity] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every backend matched the baseline byte-for-byte."""
        return not self.mismatches


def _labels_digest(labels: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(labels, dtype=np.float64).tobytes()).hexdigest()


def _cut_points_digest(estimates) -> str:
    """Digest of the stratification cut points across a method's trials.

    Methods without a stratification design contribute a constant marker, so
    the digest still participates in the comparison without inventing cut
    points for them.
    """
    digest = hashlib.sha256()
    for estimate in estimates:
        design = estimate.details.get("design")
        if design is None:
            digest.update(b"no-design;")
            continue
        for start, end in design.stratum_slices():
            digest.update(f"{int(start)}:{int(end)};".encode())
        digest.update(b"|")
    return digest.hexdigest()


def run_backend_parity(
    dataset: str = "neighbors",
    level: str | float = "S",
    num_rows: int = 480,
    seed: int | None = None,
    fraction: float = 0.08,
    num_trials: int = 2,
    master_seed: int = 1234,
    backends: Sequence[str] = DEFAULT_BACKENDS,
    methods: Sequence[str] = METHODS,
    cache_labels: bool = False,
) -> ParityReport:
    """Audit backend parity on one seeded workload.

    For every backend the same seeded workload is rebuilt from a
    :class:`~repro.workloads.queries.WorkloadSpec` differing *only* in its
    ``backend`` field, and three layers are fingerprinted against the first
    backend (the baseline):

    1. exact ground-truth labels and the true count;
    2. a seeded probe through the charged oracle path (labels and the
       evaluations charged for them);
    3. per-method trial estimates (byte-exact fingerprints), LSS cut points
       and per-trial oracle-call counts, all under identical master seeds.

    ``cache_labels`` defaults to off so the per-object oracle path of each
    backend is genuinely exercised by the trials, not served from the bulk
    ground-truth cache.
    """
    backends = tuple(backends)
    if not backends:
        raise ValueError("need at least one backend to audit")
    report = ParityReport(
        dataset=dataset, level=level, num_rows=num_rows, baseline=backends[0]
    )
    baseline_rows: dict[str, MethodParity] = {}
    for backend in backends:
        spec = WorkloadSpec(
            dataset=dataset,
            level=level,
            num_rows=num_rows,
            seed=seed,
            cache_labels=cache_labels,
            backend=backend,
        )
        workload = spec.build()
        query = workload.query
        report.capabilities[backend] = query.backend.capabilities()

        truth = (_labels_digest(query.ground_truth_labels()), query.true_count())
        report.ground_truth[backend] = truth
        if truth != report.ground_truth[report.baseline]:
            report.mismatches.append(
                f"ground truth diverges on backend {backend!r} "
                f"(true count {truth[1]} vs {report.ground_truth[report.baseline][1]})"
            )

        probe_rng = np.random.default_rng(master_seed)
        probe = probe_rng.integers(0, query.num_objects, size=_PROBE_SIZE, dtype=np.int64)
        with query.fresh_accounting():
            probe_labels = query.evaluate(probe)
            probed = (_labels_digest(probe_labels), query.evaluations)
        report.oracle_probes[backend] = probed
        if probed != report.oracle_probes[report.baseline]:
            report.mismatches.append(
                f"oracle probe diverges on backend {backend!r} "
                f"(labels or charged evaluations differ from {report.baseline!r})"
            )

        budget = workload.sample_size(fraction)
        for method in methods:
            # One grammar for method specs everywhere: a bare name ("lss") or
            # name:argument ("lss:dirsol"), exactly as the server's JSON
            # schema and the workload spec strings parse them.
            method_spec = parse_method_spec(method)
            runner = TrialRunner(workload=workload, num_trials=num_trials, seed=master_seed)
            runner.run(method, method_spec, budget)
            estimates = runner.estimates[method]
            row = MethodParity(
                method=method,
                backend=backend,
                task=task_fingerprint(spec, method_spec, num_trials, master_seed, budget),
                estimates=estimates_fingerprint(estimates),
                cut_points=_cut_points_digest(estimates),
                oracle_calls=tuple(e.predicate_evaluations for e in estimates),
            )
            report.rows.append(row)
            base = baseline_rows.setdefault(method, row)
            if row.estimates != base.estimates:
                report.mismatches.append(
                    f"method {method!r} estimates diverge on backend {backend!r}"
                )
            if row.cut_points != base.cut_points:
                report.mismatches.append(
                    f"method {method!r} cut points diverge on backend {backend!r}"
                )
            if row.oracle_calls != base.oracle_calls:
                report.mismatches.append(
                    f"method {method!r} oracle-call counts diverge on backend {backend!r}: "
                    f"{row.oracle_calls} vs {base.oracle_calls}"
                )
    return report


def _parse_level(value: str) -> str | float:
    try:
        return float(value)
    except ValueError:
        return value


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a non-zero exit code on parity divergence."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.parity",
        description="Audit byte-level backend parity of the seeded estimation workflow.",
    )
    parser.add_argument("--dataset", default="neighbors", choices=("neighbors", "sports"))
    parser.add_argument(
        "--level",
        default="S",
        type=_parse_level,
        help="selectivity level label (XS..XXL) or a numeric fraction like 0.1",
    )
    parser.add_argument("--rows", type=int, default=480)
    parser.add_argument("--fraction", type=float, default=0.08)
    parser.add_argument("--trials", type=int, default=2)
    parser.add_argument("--master-seed", type=int, default=1234)
    parser.add_argument(
        "--backends",
        default=",".join(DEFAULT_BACKENDS),
        help="comma-separated backend specs (first is the baseline)",
    )
    parser.add_argument(
        "--methods",
        default=",".join(METHODS),
        help="comma-separated estimation methods to audit",
    )
    parser.add_argument(
        "--cache-labels",
        action="store_true",
        help="serve the oracle from the bulk label cache instead of per-object execution",
    )
    options = parser.parse_args(argv)

    report = run_backend_parity(
        dataset=options.dataset,
        level=options.level,
        num_rows=options.rows,
        fraction=options.fraction,
        num_trials=options.trials,
        master_seed=options.master_seed,
        backends=tuple(spec.strip() for spec in options.backends.split(",") if spec.strip()),
        methods=tuple(name.strip() for name in options.methods.split(",") if name.strip()),
        cache_labels=options.cache_labels,
    )

    print(
        f"backend parity — dataset={report.dataset} level={report.level} "
        f"rows={report.num_rows} baseline={report.baseline}"
    )
    for backend, tokens in report.capabilities.items():
        print(f"  capabilities  {backend:>20}  {'+'.join(tokens)}")
    for backend, (digest, true_count) in report.ground_truth.items():
        print(f"  ground truth  {backend:>20}  count={true_count}  sha256={digest[:16]}…")
    for row in report.rows:
        print(
            f"  {row.method:>5} on {row.backend:>20}  estimates={row.estimates[:16]}… "
            f"cuts={row.cut_points[:12]}… calls={row.oracle_calls}"
        )
    if report.ok:
        print("PARITY OK: all backends byte-identical to the baseline")
        return 0
    print("PARITY FAILED:")
    for mismatch in report.mismatches:
        print(f"  - {mismatch}")
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())

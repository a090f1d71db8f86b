"""The resident :class:`Session` facade — the canonical programmatic entry point.

A session owns what is expensive to build and cheap to keep: generated
tables, grid indexes, bulk label caches, trained classifier scores and
stratification designs.  Requests are cheap against that resident state —
:meth:`Session.estimate` runs seeded trials through the one trial runner
(so served estimates are byte-identical to serial ``execute_trials``), and
:meth:`Session.sweep` answers whole threshold
families from **one** learning phase, re-stratifying from cached scores
without re-labelling.

Residency is bounded: workloads live in an LRU keyed by their table recipe
(dataset, rows, generation seed, backend); evicting a resident drops its
tables, siblings and learned scores, and a later request simply rebuilds —
byte-identically, because everything resident is a pure function of its spec.

Seeds: every request names its own master seed, and trials/sweep points
derive child streams through the same
:func:`~repro.parallel.tasks.trial_tasks` as the trial runner — concurrency
never reorders randomness.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.estimate import CountEstimate
from repro.core.scores import LearnedScoresSpec
from repro.obs.metrics import MetricsRegistry
from repro.parallel.fingerprint import estimate_fingerprint, estimates_fingerprint
from repro.parallel.methods import METHODS, MethodSpec
from repro.parallel.tasks import run_single_trial, trial_tasks
from repro.query.counting import CountingQuery
from repro.sampling.rng import SeedLike
from repro.sampling.stratified import attribute_grid_strata
from repro.service.sweep import (
    ScoredMethodSpec,
    default_design_cache,
    default_scores_cache,
    sweep_point_seed,
)
from repro.workloads.queries import Workload, WorkloadSpec, build_workload
from repro.workloads.runner import TrialRunner

#: Datasets a session can make resident.
DATASET_NAMES = ("neighbors", "sports")

#: Default bound on resident workload families (tables, not levels).
DEFAULT_MAX_RESIDENT = 4


#: The counters a session accumulates across requests, in ``/stats`` order.
_STAT_FIELDS = (
    "requests",
    "estimates_served",
    "sweep_points_served",
    "workload_hits",
    "workload_misses",
    "score_cache_hits",
    "learning_runs",
    "oracle_calls",
    "oracle_calls_saved",
    "evictions",
)


class SessionStats:
    """Counters a session accumulates across requests (``GET /stats``).

    Rebuilt on the observability metrics registry: each counter is a
    ``repro_session_<name>_total`` series on a per-session, **always-on**
    :class:`~repro.obs.metrics.MetricsRegistry` (``/stats`` must report real
    numbers whether or not the gated global instrumentation is enabled).
    Attribute reads/writes keep working (``stats.requests += 1``) so call
    sites and the ``as_dict`` wire shape are unchanged; the same registry
    additionally feeds the ``GET /metrics`` exposition.
    """

    __slots__ = ("registry",)

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        object.__setattr__(self, "registry", registry or MetricsRegistry())

    @staticmethod
    def _metric(name: str) -> str:
        return f"repro_session_{name}_total"

    def __getattr__(self, name: str) -> int:
        if name in _STAT_FIELDS:
            return int(self.registry.counter_value(self._metric(name)))
        raise AttributeError(name)

    def __setattr__(self, name: str, value: object) -> None:
        if name in _STAT_FIELDS:
            self.registry.set_counter(self._metric(name), float(value))
            return
        object.__setattr__(self, name, value)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in _STAT_FIELDS}


@dataclass
class EstimateResult:
    """Estimates served for one request, with verification fingerprints.

    ``digests`` holds each trial's hex
    :func:`~repro.parallel.fingerprint.estimate_fingerprint`;
    ``fingerprint`` combines them in trial order, directly comparable to
    ``estimates_fingerprint`` of a serial run with the same task.
    """

    method: str
    budget: int
    estimates: list[CountEstimate]
    digests: list[str]
    fingerprint: str
    true_count: int
    level: "str | float"
    dataset: str

    @classmethod
    def from_estimates(
        cls,
        method: str,
        budget: int,
        estimates: Sequence[CountEstimate],
        workload: Workload,
    ) -> "EstimateResult":
        estimates = list(estimates)
        return cls(
            method=method,
            budget=budget,
            estimates=estimates,
            digests=[estimate_fingerprint(estimate) for estimate in estimates],
            fingerprint=estimates_fingerprint(estimates),
            true_count=workload.true_count,
            level=workload.level,
            dataset=workload.name,
        )


@dataclass
class SweepResult:
    """One sweep request: a family of estimates from one learning phase."""

    method: str
    budget: int
    anchor_level: "str | float"
    points: list[EstimateResult] = field(default_factory=list)
    learning_runs: int = 0

    @property
    def fingerprint(self) -> str:
        import hashlib

        combined = hashlib.sha256()
        for point in self.points:
            combined.update(point.fingerprint.encode())
        return combined.hexdigest()


@dataclass(frozen=True)
class LearnToSampleResult:
    """One :meth:`Session.estimate_query` answer, with evaluation context.

    Attributes:
        estimate: the estimator's :class:`CountEstimate`.
        method: the method name that produced it.
        true_count: exact ground truth for the query (from the bulk predicate
            path) — available because the experiments always validate against
            it.
        budget: the requested predicate-evaluation budget.
    """

    estimate: CountEstimate
    method: str
    true_count: int
    budget: int

    @property
    def error(self) -> float:
        """Signed error of the estimated count."""
        return self.estimate.count - self.true_count

    @property
    def relative_error(self) -> float:
        """Absolute relative error of the estimated count."""
        return self.estimate.relative_error(self.true_count)


def _grid_partition(query: CountingQuery, num_strata: int):
    """Surrogate-attribute grid strata for the SSP/SSN baselines."""
    features = query.features()
    cells = max(int(round(num_strata ** (1.0 / features.shape[1]))), 1)
    return attribute_grid_strata(features, cells_per_dimension=cells)


class ResidentWorkload:
    """One resident table family: shared table, per-level sibling workloads.

    All selectivity levels of one generated table share the physical table
    (and therefore the predicate's grid index), so making a new level
    resident costs one calibration + ground-truth pass, never a dataset
    regeneration.  The lock serialises estimate execution against the
    shared per-level queries — accounting on a query must not interleave.
    """

    def __init__(self, dataset: str, num_rows: int | None, seed: int | None,
                 cache_labels: bool, backend: str) -> None:
        self.dataset = dataset
        self.num_rows = num_rows
        self.seed = seed
        self.cache_labels = cache_labels
        self.backend = backend
        self.lock = threading.RLock()
        self._levels: dict = {}
        self._table = None

    def spec_for(self, level: "str | float") -> WorkloadSpec:
        return WorkloadSpec(
            dataset=self.dataset,
            level=level,
            num_rows=self.num_rows,
            seed=self.seed,
            cache_labels=self.cache_labels,
            backend=self.backend,
        )

    def adopt(self, workload: Workload) -> None:
        """Make an externally built workload this resident's first level."""
        with self.lock:
            self._levels[workload.level] = workload
            self._table = workload.query.table

    def workload(self, level: "str | float") -> Workload:
        """The sibling workload at ``level``, built over the shared table."""
        with self.lock:
            resident = self._levels.get(level)
            if resident is None:
                resident = self.spec_for(level).build(table=self._table)
                if self._table is None:
                    self._table = resident.query.table
                self._levels[level] = resident
            return resident

    def has_level(self, level: "str | float") -> bool:
        with self.lock:
            return level in self._levels

    def level_specs(self) -> list[WorkloadSpec]:
        with self.lock:
            return [self.spec_for(level) for level in self._levels]

    def backend_info(self) -> dict:
        """Canonical backend spec + advertised capabilities (for ``/stats``).

        The capability tokens come from a built level's live backend when one
        exists; before the first build only the requested spec is known.
        """
        with self.lock:
            for workload in self._levels.values():
                backend = workload.query.backend
                return {
                    "spec": backend.spec,
                    "capabilities": list(backend.capabilities()),
                }
            return {"spec": self.backend, "capabilities": None}

    def close(self) -> None:
        with self.lock:
            for workload in self._levels.values():
                workload.query.backend.close()
            self._levels.clear()
            self._table = None


class Session:
    """Resident estimation service: learn once, estimate and sweep many times.

    Args:
        source: what to make resident first — a dataset name
            (``"neighbors"`` / ``"sports"``), a
            :class:`~repro.workloads.queries.WorkloadSpec`, or an
            already-built :class:`~repro.workloads.queries.Workload` (which
            must carry its spec).  Construction is lazy for names and specs;
            nothing is generated until the first request needs it.
        level: default selectivity level for requests that name none.
        num_rows / seed: table generation knobs (library defaults if omitted).
        backend: query-execution backend spec for resident workloads.
        workers: process count handed to the trial runner (``1`` =
            in-process serial execution, the default for a service whose
            concurrency comes from request-level threads).
        dispatch: parallel dispatch mode; only ``"warm"`` (the warm worker
            pool) exists, and any other value raises :class:`ValueError`.
        max_resident: bound on simultaneously resident table families;
            least-recently-used families are evicted (scores included) and
            transparently rebuilt on the next request.
        cache_labels: per-workload bulk label cache (the experiment default).
    """

    def __init__(
        self,
        source: "str | WorkloadSpec | Workload" = "neighbors",
        *,
        level: "str | float" = "S",
        num_rows: int | None = None,
        seed: int | None = None,
        backend: str = "numpy",
        workers: int | None = 1,
        dispatch: str = "warm",
        max_resident: int = DEFAULT_MAX_RESIDENT,
        cache_labels: bool = True,
    ) -> None:
        # Lazy import: experiments.config is outside the service package's
        # import closure.
        from repro.experiments.config import SpecString

        if max_resident < 1:
            raise ValueError("max_resident must be at least 1")
        SpecString.parse("dispatch", dispatch, ("warm",))
        self.workers = workers
        self.max_resident = max_resident
        self.stats = SessionStats()
        self._residents: "OrderedDict[tuple, ResidentWorkload]" = OrderedDict()
        self._designs: dict[tuple, dict] = {}
        self._lock = threading.Lock()
        self._closed = False

        adopted: Workload | None = None
        if isinstance(source, Workload):
            if source.spec is None:
                raise ValueError(
                    "workload has no spec; only workloads built by build_workload() "
                    "can become resident"
                )
            adopted, source = source, source.spec
        if isinstance(source, WorkloadSpec):
            self.default_dataset = source.dataset
            self.default_level = source.level
            self._defaults = dict(
                num_rows=source.num_rows,
                seed=source.seed,
                cache_labels=source.cache_labels,
                backend=source.backend,
            )
        else:
            parsed = SpecString.parse("dataset", source, DATASET_NAMES)
            self.default_dataset = parsed.name
            self.default_level = level
            self._defaults = dict(
                num_rows=num_rows, seed=seed, cache_labels=cache_labels, backend=backend
            )
        if adopted is not None:
            self._resident(self.default_dataset).adopt(adopted)

    # -- resident management --------------------------------------------------
    def _resident(self, dataset: str | None = None) -> ResidentWorkload:
        dataset = dataset or self.default_dataset
        return self._resident_for(dataset, **self._defaults)

    def _resident_for(
        self,
        dataset: str,
        num_rows: int | None,
        seed: int | None,
        cache_labels: bool,
        backend: str,
    ) -> ResidentWorkload:
        if dataset not in DATASET_NAMES:
            raise ValueError(f"unknown dataset {dataset!r}; choose from {DATASET_NAMES}")
        key = (dataset, num_rows, seed, cache_labels, backend)
        with self._lock:
            if self._closed:
                # A request arriving after close() (e.g. during server
                # drain-stop) must fail loudly: silently rebuilding residents
                # here would resurrect tables the shutdown just released.
                raise RuntimeError("session is closed")
            resident = self._residents.get(key)
            if resident is not None:
                self._residents.move_to_end(key)
                self.stats.workload_hits += 1
                return resident
            self.stats.workload_misses += 1
            resident = ResidentWorkload(
                dataset, num_rows=num_rows, seed=seed,
                cache_labels=cache_labels, backend=backend,
            )
            self._residents[key] = resident
            while len(self._residents) > self.max_resident:
                _, evicted = self._residents.popitem(last=False)
                self._evict(evicted)
            return resident

    def _evict(self, resident: ResidentWorkload) -> None:
        self.stats.evictions += 1
        for spec in resident.level_specs():
            default_scores_cache.evict(spec)
        resident.close()

    @property
    def resident_workloads(self) -> int:
        with self._lock:
            return len(self._residents)

    def workload_for(self, spec: WorkloadSpec) -> Workload:
        """The resident workload described by ``spec`` (built on first use).

        The resident unit is the table recipe ``(dataset, num_rows, seed,
        cache_labels, backend)``; levels of the same recipe share one
        generated table and grid index.  This is the reuse hook the
        experiment drivers' ``--session`` flag goes through — repeated
        drivers over the same table pay generation, calibration and
        ground-truth once.
        """
        resident = self._resident_for(
            spec.dataset,
            num_rows=spec.num_rows,
            seed=spec.seed,
            cache_labels=spec.cache_labels,
            backend=spec.backend,
        )
        return resident.workload(spec.level)

    # -- request helpers ------------------------------------------------------
    def _resolve_method(self, method: "str | dict | MethodSpec") -> MethodSpec:
        if isinstance(method, MethodSpec):
            return method
        from repro.experiments.config import parse_method_spec

        return parse_method_spec(method)

    @staticmethod
    def _resolve_budget(workload: Workload, budget: int | None, fraction: float | None) -> int:
        if budget is not None:
            return int(budget)
        if fraction is not None:
            return workload.sample_size(fraction)
        return workload.sample_size(0.01)

    # -- public API -----------------------------------------------------------
    def estimate(
        self,
        method: "str | dict | MethodSpec" = "lss",
        *,
        dataset: str | None = None,
        level: "str | float | None" = None,
        budget: int | None = None,
        budget_fraction: float | None = None,
        num_trials: int = 1,
        seed: SeedLike = 0,
    ) -> EstimateResult:
        """Serve seeded estimate trials against resident state.

        Execution goes through :class:`~repro.workloads.runner.TrialRunner`
        over the resident workload — the same single path as every serial and
        parallel experiment — so the response's per-trial digests are
        byte-identical to a fresh serial ``execute_trials`` run of the same
        ``(workload spec, method spec, seed, budget)`` task.
        """
        method_spec = self._resolve_method(method)
        resident = self._resident(dataset)
        with resident.lock:
            workload = resident.workload(level if level is not None else self.default_level)
            resolved_budget = self._resolve_budget(workload, budget, budget_fraction)
            runner = TrialRunner(
                workload=workload, num_trials=num_trials, seed=seed, workers=self.workers
            )
            runner.run(method_spec.method, method_spec, resolved_budget)
            estimates = runner.estimates[method_spec.method]
            self.stats.requests += 1
            self.stats.estimates_served += len(estimates)
            self.stats.oracle_calls += sum(e.predicate_evaluations for e in estimates)
            return EstimateResult.from_estimates(
                method_spec.method, resolved_budget, estimates, workload
            )

    def sweep(
        self,
        levels: Sequence["str | float"],
        method: str = "lss",
        *,
        dataset: str | None = None,
        anchor_level: "str | float | None" = None,
        budget: int | None = None,
        budget_fraction: float | None = None,
        num_trials: int = 1,
        seed: int = 0,
        learn_budget: int | None = None,
        learn_seed: int | None = None,
        classifier: str = "rf",
        num_strata: int = 4,
        optimizer: str = "dynpgm",
    ) -> SweepResult:
        """Serve a threshold family from **one** learning phase.

        The anchor level's scores are learned once (or found in the score
        cache) and every sweep point re-stratifies from them; the learning
        set's labels transfer to each point's threshold through the
        predicate's value decomposition at zero oracle cost.  Each point's
        trials execute serially through
        :func:`~repro.parallel.tasks.run_single_trial` with a
        :class:`~repro.service.sweep.ScoredMethodSpec`, so any point is
        byte-reproducible from ``(request seed, point index, point count)``
        alone, and its estimates keep their ``details`` (design, fallbacks).
        """
        if not levels:
            raise ValueError("sweep needs at least one level")
        if method not in ("lss", "lws"):
            raise ValueError(f"sweep supports 'lss' and 'lws', got {method!r}")
        resident = self._resident(dataset)
        with resident.lock:
            anchor_level = anchor_level if anchor_level is not None else self.default_level
            anchor = resident.workload(anchor_level)
            resolved_budget = self._resolve_budget(anchor, budget, budget_fraction)
            scores_spec = LearnedScoresSpec(
                learn_budget=learn_budget or max(2, resolved_budget // 3),
                learn_seed=int(learn_seed if learn_seed is not None else seed),
                classifier_name=classifier,
            )
            was_cached = default_scores_cache.contains(anchor.spec, scores_spec)
            default_scores_cache.resolve(anchor.spec, scores_spec, workload=anchor)
            if was_cached:
                self.stats.score_cache_hits += 1
                self.stats.oracle_calls_saved += scores_spec.learn_budget
            else:
                self.stats.learning_runs += 1
                self.stats.oracle_calls += scores_spec.learn_budget
            method_spec = ScoredMethodSpec(
                method=method,
                anchor=anchor.spec,
                scores=scores_spec,
                num_strata=num_strata,
                optimizer=optimizer,
            )
            result = SweepResult(
                method=method,
                budget=resolved_budget,
                anchor_level=anchor_level,
                learning_runs=0 if was_cached else 1,
            )
            for index, point_level in enumerate(levels):
                workload = resident.workload(point_level)
                tasks = trial_tasks(
                    sweep_point_seed(seed, index, len(levels)), num_trials, resolved_budget
                )
                estimates = [run_single_trial(workload, method_spec, task) for task in tasks]
                self.stats.sweep_points_served += 1
                self.stats.estimates_served += len(estimates)
                self.stats.oracle_calls += sum(e.predicate_evaluations for e in estimates)
                result.points.append(
                    EstimateResult.from_estimates(method, resolved_budget, estimates, workload)
                )
            self.stats.requests += 1
            return result

    def design(
        self,
        *,
        dataset: str | None = None,
        level: "str | float | None" = None,
        budget: int | None = None,
        budget_fraction: float | None = None,
        seed: int = 0,
        learn_budget: int | None = None,
        learn_seed: int | None = None,
        num_strata: int = 4,
        optimizer: str = "dynpgm",
    ) -> dict:
        """The stratification design LSS would use, from cached scores.

        Runs one seeded pilot + design pass over the resident score ordering
        and returns the layout (cut points, allocation, pilot size) and how
        it was found: ``algorithm`` names the optimizer that produced the
        design (``None`` on the pilot-only path, which has none) and
        ``design_fallback`` the fallback LSS took instead of ``optimizer``
        (``"fixed_height"`` or ``"pilot_only"``, the ``kind`` tokens of
        ``repro_estimator_fallbacks_total``), or ``None``.  Designs are
        cached by ``(workload spec, design knobs)``, the session-level
        analogue of the score cache.
        """
        from repro.core.lss import LearnedStratifiedSampling

        resident = self._resident(dataset)
        with resident.lock:
            workload = resident.workload(level if level is not None else self.default_level)
            resolved_budget = self._resolve_budget(workload, budget, budget_fraction)
            key = (workload.spec, resolved_budget, seed, learn_budget, learn_seed,
                   num_strata, optimizer)
            cached = self._designs.get(key)
            if cached is not None:
                return cached
            scores_spec = LearnedScoresSpec(
                learn_budget=learn_budget or max(2, resolved_budget // 3),
                learn_seed=int(learn_seed if learn_seed is not None else seed),
            )
            was_cached = default_scores_cache.contains(workload.spec, scores_spec)
            learned = default_scores_cache.resolve(
                workload.spec, scores_spec, workload=workload
            )
            if was_cached:
                self.stats.score_cache_hits += 1
                self.stats.oracle_calls_saved += scores_spec.learn_budget
            else:
                self.stats.learning_runs += 1
                self.stats.oracle_calls += scores_spec.learn_budget
            # The estimator runs directly (not through execute_trials) because
            # trial records ship only the deterministic estimate fields — the
            # design object a caller wants here lives in the details.
            estimator = LearnedStratifiedSampling(num_strata=num_strata, optimizer=optimizer)
            (task,) = trial_tasks(sweep_point_seed(seed, 0, 1), 1, resolved_budget)
            estimate = estimator.estimate_from_scores(
                workload.query, learned, task.budget, seed=task.seed.resolve()
            )
            details = estimate.details or {}
            design = details.get("design")
            result = {
                "num_strata": details.get("num_strata"),
                "pilot_size": details.get("pilot_size"),
                "allocation": [int(n) for n in details.get("allocation", ())],
                "boundaries": [
                    [int(start), int(end)] for start, end in design.stratum_slices()
                ] if design is not None else [],
                "algorithm": design.algorithm if design is not None else None,
                "design_fallback": details.get("design_fallback"),
                "digest": estimate_fingerprint(estimate),
            }
            self.stats.requests += 1
            self.stats.oracle_calls += estimate.predicate_evaluations
            self._designs[key] = result
            return result

    def estimate_query(
        self,
        query: CountingQuery,
        budget: int,
        method: str = "lss",
        seed: SeedLike = None,
        num_strata: int = 4,
        backend: str | None = None,
        **estimator_options: Any,
    ) -> LearnToSampleResult:
        """One-shot estimate over a caller-supplied query with any method.

        ``method`` is one of :data:`~repro.parallel.methods.METHODS`;
        ``num_strata`` sizes the stratified methods, ``backend`` optionally
        overrides the query's backend (estimates are byte-identical whichever
        backend runs the predicate) and ``estimator_options`` go to the
        estimator's constructor.  Nothing becomes resident: the caller owns
        the query.
        """
        from repro.core.lss import LearnedStratifiedSampling
        from repro.core.lws import LearnedWeightedSampling
        from repro.quantification.adjusted_count import AdjustedCount
        from repro.quantification.classify_count import ClassifyAndCount
        from repro.sampling.srs import SimpleRandomSampling
        from repro.sampling.stratified import StratifiedSampling, TwoStageNeymanSampling

        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
        if budget <= 0:
            raise ValueError("budget must be positive")
        if backend is not None:
            query = query.with_backend(backend)

        evaluations_before = query.evaluations
        if method == "lss":
            estimator = LearnedStratifiedSampling(num_strata=num_strata, **estimator_options)
            estimate = estimator.estimate(query, budget, seed=seed)
        elif method == "lws":
            estimator = LearnedWeightedSampling(**estimator_options)
            estimate = estimator.estimate(query, budget, seed=seed)
        elif method == "qlcc":
            estimator = ClassifyAndCount(**estimator_options)
            estimate = estimator.estimate(query, budget, seed=seed)
        elif method == "qlac":
            estimator = AdjustedCount(**estimator_options)
            estimate = estimator.estimate(query, budget, seed=seed)
        elif method == "srs":
            estimator = SimpleRandomSampling(**estimator_options)
            estimate = estimator.estimate(
                query.object_indices(), query.evaluate, budget, seed=seed
            )
        elif method == "ssp":
            estimator = StratifiedSampling(allocation="proportional", **estimator_options)
            partition = _grid_partition(query, num_strata)
            estimate = estimator.estimate(partition, query.evaluate, budget, seed=seed)
        else:  # ssn
            estimator = TwoStageNeymanSampling(**estimator_options)
            partition = _grid_partition(query, num_strata)
            estimate = estimator.estimate(partition, query.evaluate, budget, seed=seed)

        self.stats.requests += 1
        self.stats.estimates_served += 1
        self.stats.oracle_calls += query.evaluations - evaluations_before
        return LearnToSampleResult(
            estimate=estimate,
            method=method,
            true_count=query.true_count(),
            budget=budget,
        )

    # -- lifecycle ------------------------------------------------------------
    def stats_dict(self) -> dict:
        """Stats snapshot, as served by ``GET /stats``."""
        payload = self.stats.as_dict()
        payload["resident_workloads"] = self.resident_workloads
        with self._lock:
            payload["backends"] = [
                {"dataset": resident.dataset, **resident.backend_info()}
                for resident in self._residents.values()
            ]
        payload["score_cache_entries"] = len(default_scores_cache)
        payload["design_cache_entries"] = len(default_design_cache)
        payload["design_cache_hits"] = default_design_cache.hits
        payload["design_cache_misses"] = default_design_cache.misses
        return payload

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release every resident workload; later requests raise (idempotent)."""
        with self._lock:
            self._closed = True
            residents = list(self._residents.values())
            self._residents.clear()
            self._designs.clear()
        for resident in residents:
            for spec in resident.level_specs():
                default_scores_cache.evict(spec)
            resident.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def session(
    source: "str | WorkloadSpec | Workload" = "neighbors",
    **options: Any,
) -> Session:
    """Open a :class:`Session` (the ``repro.session(...)`` entry point)."""
    return Session(source, **options)


# Re-exported for convenience alongside the facade.
__all__ = [
    "DATASET_NAMES",
    "EstimateResult",
    "ResidentWorkload",
    "Session",
    "SessionStats",
    "SweepResult",
    "build_workload",
    "session",
]

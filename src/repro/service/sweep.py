"""Deterministic score-reuse execution specs for threshold/budget sweeps.

A sweep family shares one learning phase: the anchor workload's classifier
scores are learned once (:func:`~repro.core.scores.learn_scores`) and every
sweep point re-stratifies from them.  The pieces here make that reuse
*byte-reproducible*:

* :class:`ScoredMethodSpec` — a frozen, picklable estimator description whose
  trial function resolves the learned-scores artifact from a process-wide
  cache and runs ``estimate_from_scores``.  It duck-types
  :meth:`~repro.parallel.methods.MethodSpec.build_trial_function`, so the
  untouched :func:`~repro.parallel.tasks.execute_trials` path executes it —
  a served sweep estimate and a serial run of the same spec produce the same
  32-byte :func:`~repro.parallel.fingerprint.estimate_digest`.
* :class:`LearnedScoresCache` — the process-wide artifact cache.  Because a
  :class:`~repro.core.scores.LearnedScores` is a pure function of its
  ``(anchor workload spec, scores spec)`` key, a cache miss rebuilds exactly
  what a hit would have returned; caching changes oracle cost, never bytes.
* :func:`sweep_point_seed` — the per-point seed derivation shared by the
  session, the server and any serial verifier.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import obs
from repro.core.estimate import CountEstimate
from repro.core.lss import LearnedStratifiedSampling
from repro.core.lws import LearnedWeightedSampling
from repro.core.scores import LearnedScores, LearnedScoresSpec, learn_scores
from repro.core.stratification import PilotSample, StratificationDesign
from repro.workloads.queries import Workload, WorkloadSpec

#: Methods that have a score-reuse sampling phase.
SCORED_METHODS = ("lss", "lws")


def sweep_point_seed(seed: int, point_index: int, num_points: int) -> np.random.SeedSequence:
    """The per-point master seed of one sweep request.

    Every sweep point gets its own child of the request seed, so the whole
    sweep is reproducible from ``(seed, num_points)`` and any single point
    can be re-run serially without re-running the others.
    """
    if not 0 <= point_index < num_points:
        raise ValueError(f"point index {point_index} outside sweep of {num_points} points")
    return np.random.SeedSequence(seed).spawn(num_points)[point_index]


class LearnedScoresCache:
    """Process-wide cache of learned-scores artifacts, keyed deterministically.

    The key is ``(anchor_spec, scores_spec)`` — both frozen dataclasses — and
    the artifact is a pure function of the key, so resolution is idempotent:
    the cache only decides *when* the learning oracle cost is paid, never
    what the artifact contains.  Thread-safe; the per-key lock serialises
    concurrent learners of the same key so the learning phase runs once even
    under a concurrent request burst.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[WorkloadSpec, LearnedScoresSpec], LearnedScores] = {}
        self._lock = threading.Lock()
        self._key_locks: dict[tuple[WorkloadSpec, LearnedScoresSpec], threading.Lock] = {}
        self.hits = 0
        self.misses = 0

    def resolve(
        self,
        anchor: WorkloadSpec,
        scores_spec: LearnedScoresSpec,
        workload: Workload | None = None,
    ) -> LearnedScores:
        """The artifact for this key — cached, or learned now (charged once).

        ``workload`` optionally supplies an already-built anchor workload
        (typically the session's resident one, sharing its table); a miss
        without one rebuilds from the spec, which produces byte-identical
        scores by workload determinism.
        """
        key = (anchor, scores_spec)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self.hits += 1
                return cached
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        with key_lock:
            with self._lock:
                cached = self._entries.get(key)
                if cached is not None:
                    self.hits += 1
                    return cached
            if workload is None:
                workload = anchor.build()
            learned = learn_scores(workload.query, scores_spec)
            with self._lock:
                self.misses += 1
                self._entries[key] = learned
            return learned

    def contains(self, anchor: WorkloadSpec, scores_spec: LearnedScoresSpec) -> bool:
        """Whether this key is already resident (no learning cost on resolve)."""
        with self._lock:
            return (anchor, scores_spec) in self._entries

    def evict(self, anchor: WorkloadSpec) -> int:
        """Drop every artifact learned over the given anchor workload."""
        with self._lock:
            doomed = [key for key in self._entries if key[0] == anchor]
            for key in doomed:
                del self._entries[key]
                self._key_locks.pop(key, None)
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._key_locks.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: The cache :class:`ScoredMethodSpec` trial functions resolve through — one
#: per process.
default_scores_cache = LearnedScoresCache()


class DesignCache:
    """Bounded LRU of stratification designs, keyed by their exact inputs.

    ROADMAP item 2: warm LSS requests are bound by the per-request pilot +
    design optimisation (``dynpgm_design`` is most of the request), so cache
    the :class:`~repro.core.stratification.StratificationDesign` the way
    scores already are.  The design optimizers are deterministic functions of
    their inputs (no RNG), so the key must cover *all* of them — the learned
    score ordering (digest), the RNG-drawn pilot (positions + labels +
    population), the second-stage budget, and every design knob.  A hit
    therefore returns bytes the optimizer would have recomputed: caching
    changes wall-clock, never estimates.
    """

    def __init__(self, limit: int = 512) -> None:
        if limit < 1:
            raise ValueError("limit must be at least 1")
        self.limit = limit
        self._entries: "OrderedDict[bytes, StratificationDesign]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(
        scores_digest: bytes,
        pilot: PilotSample,
        second_stage_samples: int,
        num_strata: int,
        optimizer: str,
        allocation: str,
        min_pilot_per_stratum: int,
        min_stratum_size: "int | None",
        optimizer_options: dict,
    ) -> bytes:
        hasher = hashlib.sha256()
        hasher.update(scores_digest)
        hasher.update(np.ascontiguousarray(pilot.positions).tobytes())
        hasher.update(np.ascontiguousarray(pilot.labels).tobytes())
        hasher.update(
            repr(
                (
                    int(pilot.population_size),
                    int(second_stage_samples),
                    int(num_strata),
                    optimizer,
                    allocation,
                    int(min_pilot_per_stratum),
                    min_stratum_size,
                    sorted(optimizer_options.items()),
                )
            ).encode()
        )
        return hasher.digest()

    def get(self, key: bytes) -> "StratificationDesign | None":
        with self._lock:
            design = self._entries.get(key)
            if design is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
        if obs.enabled():
            obs.registry().inc(
                obs.DESIGN_CACHE_REQUESTS,
                result="hit" if design is not None else "miss",
            )
        return design

    def put(self, key: bytes, design: StratificationDesign) -> None:
        with self._lock:
            self._entries[key] = design
            self._entries.move_to_end(key)
            while len(self._entries) > self.limit:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: The process-wide design cache (ScoredMethodSpec LSS trials go through it).
default_design_cache = DesignCache()


def _scores_digest(learned: LearnedScores) -> bytes:
    """Content digest of a learned ordering, for design-cache keying."""
    hasher = hashlib.sha256()
    hasher.update(np.ascontiguousarray(learned.sorted_scores).tobytes())
    hasher.update(np.ascontiguousarray(learned.ordered_objects).tobytes())
    return hasher.digest()


class _DesignCachingLSS(LearnedStratifiedSampling):
    """LSS whose design step is memoised in the process-wide design cache.

    Only the ``_design_with_fallback`` seam changes; the pilot draw, the
    stage-II draws and the estimator arithmetic are inherited untouched, so
    estimates are byte-identical with the cache cold, warm, or cleared
    mid-sweep (pinned by ``tests/test_obs.py``).
    """

    def __init__(self, *, scores_digest: bytes, cache: DesignCache, **kwargs) -> None:
        super().__init__(**kwargs)
        self._scores_digest = scores_digest
        self._cache = cache

    def _design_with_fallback(
        self,
        pilot: PilotSample,
        sorted_scores: np.ndarray,
        second_stage_samples: int,
    ) -> StratificationDesign:
        key = self._cache.key(
            self._scores_digest,
            pilot,
            second_stage_samples,
            self.num_strata,
            self.optimizer,
            self.allocation,
            self.min_pilot_per_stratum,
            self.min_stratum_size,
            self.optimizer_options,
        )
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        design = super()._design_with_fallback(pilot, sorted_scores, second_stage_samples)
        self._cache.put(key, design)
        return design


@dataclass(frozen=True)
class ScoredMethodSpec:
    """One score-reuse estimator configuration, as plain picklable data.

    A deliberate sibling of :class:`~repro.parallel.methods.MethodSpec` (a
    separate class, so existing task fingerprints are untouched): the same
    ``build_trial_function()`` duck type, but the trial spends its whole
    budget on the sampling phase over scores learned once from ``anchor`` +
    ``scores``.  The trial remains a pure function of ``(workload, rng,
    budget)`` because the resolved artifact is itself a pure function of the
    spec — whichever process, thread or cache state executes it.

    Attributes:
        method: ``"lss"`` or ``"lws"``.
        anchor: the workload whose query anchored the learning phase.
        scores: the learning-phase description (budget, seed, classifier).
        num_strata / optimizer: LSS sampling-phase knobs (ignored by LWS).
    """

    method: str
    anchor: WorkloadSpec
    scores: LearnedScoresSpec
    num_strata: int = 4
    optimizer: str = "dynpgm"

    def __post_init__(self) -> None:
        if self.method not in SCORED_METHODS:
            raise ValueError(
                f"unknown scored method {self.method!r}; choose from {SCORED_METHODS}"
            )
        if self.method == "lss":
            # The estimator's own checks reject a bad optimizer or strata
            # count here, before any caller pays for learning the scores.
            LearnedStratifiedSampling(num_strata=self.num_strata, optimizer=self.optimizer)

    def build_trial_function(self) -> Callable:
        """Materialise the spec as a ``run_trial(workload, rng, budget)``."""
        spec = self

        def run_trial(
            workload: Workload, rng: np.random.Generator, budget: int
        ) -> CountEstimate:
            learned = default_scores_cache.resolve(spec.anchor, spec.scores)
            if spec.method == "lss":
                estimator = _DesignCachingLSS(
                    scores_digest=_scores_digest(learned),
                    cache=default_design_cache,
                    num_strata=spec.num_strata,
                    optimizer=spec.optimizer,
                )
                return estimator.estimate_from_scores(workload.query, learned, budget, seed=rng)
            return LearnedWeightedSampling().estimate_from_scores(
                workload.query, learned, budget, seed=rng
            )

        return run_trial

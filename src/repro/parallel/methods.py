"""Pickle-safe descriptions of the estimator configurations under test.

The experiment drivers describe *what* to run as data (:class:`MethodSpec`)
rather than as closures, so a trial can be executed in the parent process or
shipped to a worker process interchangeably.  ``build_trial_function`` is the
single place that turns a spec into a concrete estimator call; the serial
:class:`~repro.workloads.runner.TrialRunner` and the parallel engine both go
through it, which is what makes their results byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.estimate import CountEstimate
from repro.core.lss import OPTIMIZERS, LearnedStratifiedSampling
from repro.core.lws import LearnedWeightedSampling
from repro.learning.base import Classifier
from repro.learning.dummy import RandomScoreClassifier
from repro.learning.knn import KNeighborsClassifier
from repro.learning.neural import NeuralNetworkClassifier
from repro.quantification.adjusted_count import AdjustedCount
from repro.quantification.classify_count import ClassifyAndCount
from repro.sampling.srs import SimpleRandomSampling
from repro.sampling.stratified import (
    StratifiedSampling,
    TwoStageNeymanSampling,
    attribute_grid_strata,
)
from repro.workloads.queries import Workload

#: All estimator identifiers a :class:`MethodSpec` accepts.
METHODS = ("srs", "ssp", "ssn", "lws", "lss", "qlcc", "qlac")

#: The classifier names :func:`classifier_factory` builds.
CLASSIFIERS = ("rf", "knn", "nn", "random")

TrialFunction = Callable[[Workload, np.random.Generator, int], CountEstimate]
"""Run one trial: ``(workload, rng, budget) -> CountEstimate``."""


def classifier_factory(name: str, seed: int | None = None) -> Classifier | None:
    """The classifiers of Figures 6 and 7, by name.

    ``"rf"`` returns ``None`` so the estimators use their default random
    forest (with a per-trial seed), matching how the other classifiers are
    re-instantiated per trial.
    """
    if name == "rf":
        return None
    if name == "knn":
        return KNeighborsClassifier(n_neighbors=15)
    if name == "nn":
        return NeuralNetworkClassifier(hidden_layers=(5, 2), seed=seed)
    if name == "random":
        return RandomScoreClassifier(seed=seed)
    raise ValueError(f"unknown classifier {name!r}; choose from {CLASSIFIERS}")


@dataclass(frozen=True)
class MethodSpec:
    """One estimator configuration, as plain (picklable, hashable) data.

    Attributes mirror the knobs the figure drivers sweep over; the defaults
    are the paper's standard configuration (4 strata, 25 % learning split,
    DynPgm optimizer, random-forest classifier, no augmentation).  The query
    backend is not a method knob: trials run on whatever backend the
    workload's query was built with (``WorkloadSpec.backend``).
    """

    method: str
    num_strata: int = 4
    classifier_name: str = "rf"
    learning_fraction: float = 0.25
    optimizer: str = "dynpgm"
    active_learning_rounds: int = 0

    def __post_init__(self) -> None:
        # Checked here, not in the trial, so a bad spec fails before a caller
        # builds any workload for it.
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.classifier_name not in CLASSIFIERS:
            raise ValueError(
                f"unknown classifier {self.classifier_name!r}; choose from {CLASSIFIERS}"
            )
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}; choose from {OPTIMIZERS}")
        if self.num_strata <= 0:
            raise ValueError("num_strata must be positive")

    def build_trial_function(self) -> TrialFunction:
        """Materialise the spec as a ``run_trial(workload, rng, budget)``.

        A fresh estimator is instantiated per trial so per-trial classifier
        seeds stay independent; the classifier seed is drawn from the
        trial's own stream, which keeps the whole trial a pure function of
        ``(workload, rng, budget)``.
        """
        spec = self

        def run_trial(
            workload: Workload, rng: np.random.Generator, budget: int
        ) -> CountEstimate:
            classifier = classifier_factory(
                spec.classifier_name, seed=int(rng.integers(2**31 - 1))
            )
            query = workload.query
            if spec.method == "srs":
                return SimpleRandomSampling().estimate(
                    query.object_indices(), query.evaluate, budget, seed=rng
                )
            if spec.method == "ssp":
                partition = attribute_grid_strata(
                    query.features(), max(int(round(np.sqrt(spec.num_strata))), 1)
                )
                return StratifiedSampling().estimate(
                    partition, query.evaluate, budget, seed=rng
                )
            if spec.method == "ssn":
                partition = attribute_grid_strata(
                    query.features(), max(int(round(np.sqrt(spec.num_strata))), 1)
                )
                return TwoStageNeymanSampling().estimate(
                    partition, query.evaluate, budget, seed=rng
                )
            if spec.method == "lws":
                return LearnedWeightedSampling(
                    classifier=classifier,
                    learning_fraction=spec.learning_fraction,
                    active_learning_rounds=spec.active_learning_rounds,
                ).estimate(query, budget, seed=rng)
            if spec.method == "lss":
                return LearnedStratifiedSampling(
                    classifier=classifier,
                    num_strata=spec.num_strata,
                    learning_fraction=spec.learning_fraction,
                    optimizer=spec.optimizer,
                    active_learning_rounds=spec.active_learning_rounds,
                ).estimate(query, budget, seed=rng)
            if spec.method == "qlcc":
                return ClassifyAndCount(
                    classifier=classifier,
                    active_learning_rounds=spec.active_learning_rounds,
                ).estimate(query, budget, seed=rng)
            return AdjustedCount(
                classifier=classifier,
                active_learning_rounds=spec.active_learning_rounds,
            ).estimate(query, budget, seed=rng)

        return run_trial

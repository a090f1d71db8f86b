"""Learning to Sample: counting with complex queries.

This package reproduces the system described in "Learning to Sample:
Counting with Complex Queries" (Walenz, Sintos, Roy, Yang -- VLDB 2019).
It provides:

* ``repro.sampling`` -- classical survey-sampling estimators (simple random
  sampling, stratified sampling with proportional or Neyman allocation,
  probability-proportional-to-size sampling with the Des Raj estimator) and
  the confidence-interval machinery they rely on.
* ``repro.learning`` -- a small, dependency-free classifier library (kNN,
  decision trees, random forests, a two-layer neural network, logistic
  regression, a random dummy classifier) plus model-selection and
  active-learning helpers.
* ``repro.quantification`` -- quantification-learning estimators
  (Classify-and-Count and Adjusted Count).
* ``repro.query`` -- the workload substrate: tables, counting queries with
  expensive predicates, a grid spatial index and the pluggable execution
  backends of ``repro.query.backends`` (numpy, sqlite3).
* ``repro.datasets`` -- synthetic stand-ins for the paper's Sports (MLB
  pitching) and Neighbors (KDD Cup 1999) datasets with selectivity
  calibration.
* ``repro.core`` -- the paper's contribution: Learned Weighted Sampling (LWS)
  and Learned Stratified Sampling (LSS) together with the stratification
  design optimizers DirSol, LogBdr, DynPgm and DynPgmP, plus the reusable
  learned-scores artifact (``repro.core.scores``).
* ``repro.parallel`` -- the deterministic parallel trial engine: seed
  descriptors, a warm shared-memory worker pool, and byte-exact estimate
  fingerprints for serial/parallel equivalence auditing.
* ``repro.service`` -- estimation as a service: the resident
  :class:`~repro.service.session.Session` facade (the canonical programmatic
  entry point, via :func:`repro.session`) and a dependency-light asyncio
  estimate server with cross-query score reuse.
* ``repro.obs`` -- determinism-safe observability: hierarchical tracing
  spans, a mergeable metrics registry and Prometheus/JSON exporters.
  Disabled by default; enabling it (``REPRO_OBS=1``) never changes a byte
  of any estimate.
* ``repro.experiments`` -- drivers that regenerate every table and figure in
  the paper's evaluation section.

Quick start::

    import repro

    with repro.session("neighbors", num_rows=2000) as s:
        result = s.estimate("lss", budget=200, num_trials=5, seed=0)
        sweep = s.sweep([0.1, 0.2, 0.3], budget=200, seed=0)  # one learning phase
"""

from repro import obs
from repro.core.estimate import CountEstimate
from repro.core.lss import LearnedStratifiedSampling
from repro.core.lws import LearnedWeightedSampling
from repro.core.scores import LearnedScores, LearnedScoresSpec, learn_scores
from repro.query.counting import CountingQuery
from repro.sampling.srs import SimpleRandomSampling
from repro.sampling.stratified import StratifiedSampling
from repro.service.session import LearnToSampleResult, Session, session

__version__ = "0.4.0"

__all__ = [
    "CountEstimate",
    "CountingQuery",
    "LearnedScores",
    "LearnedScoresSpec",
    "LearnedStratifiedSampling",
    "LearnedWeightedSampling",
    "LearnToSampleResult",
    "Session",
    "SimpleRandomSampling",
    "StratifiedSampling",
    "learn_scores",
    "obs",
    "session",
    "__version__",
]

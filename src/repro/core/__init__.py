"""Core contribution: learn-to-sample estimators.

``repro.core`` implements the paper's two learn-to-sample methods on top of
the sampling and learning substrates:

* :class:`repro.core.lws.LearnedWeightedSampling` — classifier scores as
  size measures for probability-proportional-to-size sampling, evaluated with
  the Des Raj ordered estimator (Section 4.1).
* :class:`repro.core.lss.LearnedStratifiedSampling` — classifier scores
  induce an ordering of the objects; a first-stage pilot sample is used to
  jointly optimise stratification and allocation for a second-stage
  stratified sample (Section 4.2), using the optimizers in
  :mod:`repro.core.stratification`.
* :mod:`repro.core.scores` — the reusable learning-phase artifact:
  :func:`~repro.core.scores.learn_scores` runs the oracle-charged learning
  phase once, and both estimators' ``estimate_from_scores`` spend their whole
  budget on the sampling phase over the cached ordering.
"""

from repro.core.estimate import CountEstimate
from repro.core.lss import LearnedStratifiedSampling
from repro.core.lws import LearnedWeightedSampling
from repro.core.scores import LearnedScores, LearnedScoresSpec, learn_scores

__all__ = [
    "CountEstimate",
    "LearnedScores",
    "LearnedScoresSpec",
    "LearnedStratifiedSampling",
    "LearnedWeightedSampling",
    "learn_scores",
]

"""Stratification design for Learned Stratified Sampling.

Given the score-induced ordering of the objects and a first-stage (pilot)
sample, these modules find a partition of the ordering into ``H`` contiguous
strata minimising the estimated variance of the second-stage stratified
estimator (Section 4.2 of the paper):

* :mod:`repro.core.stratification.design` — pilot-sample bookkeeping
  (the prefix-sum index Γ), variance objectives (eqs. 4–6) and the
  :class:`StratificationDesign` result type.
* :mod:`repro.core.stratification.dirsol` — DirSol, the (almost) exact
  solver for ``H = 3`` under Neyman allocation.
* :mod:`repro.core.stratification.logbdr` — LogBdr, the higher-accuracy
  approximation for any ``H`` (exponential candidate-boundary grid).
* :mod:`repro.core.stratification.dynpgm` — DynPgm, the dynamic-programming
  approximation for any ``H`` under Neyman allocation.
* :mod:`repro.core.stratification.dynpgm_prop` — DynPgmP, the dynamic
  program for proportional allocation.
* :mod:`repro.core.stratification.layouts` — fixed-width and fixed-height
  baselines plus the brute-force reference solver used in tests.
"""

from repro.core.stratification.design import (
    InfeasibleDesignError,
    PilotSample,
    StratificationDesign,
    general_objective,
    neyman_objective,
    proportional_objective,
    smoothed_bernoulli_std,
)
from repro.core.stratification.dirsol import dirsol_design, dirsol_design_reference
from repro.core.stratification.dynpgm import dynpgm_design, dynpgm_design_reference
from repro.core.stratification.dynpgm_prop import dynpgm_proportional_design
from repro.core.stratification.layouts import (
    brute_force_design,
    fixed_height_design,
    fixed_width_design,
)
from repro.core.stratification.logbdr import logbdr_design

__all__ = [
    "InfeasibleDesignError",
    "PilotSample",
    "StratificationDesign",
    "brute_force_design",
    "dirsol_design",
    "dirsol_design_reference",
    "dynpgm_design",
    "dynpgm_design_reference",
    "dynpgm_proportional_design",
    "fixed_height_design",
    "fixed_width_design",
    "general_objective",
    "logbdr_design",
    "neyman_objective",
    "smoothed_bernoulli_std",
    "proportional_objective",
]

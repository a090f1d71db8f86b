"""Experiment drivers that regenerate the paper's tables and figures.

Each module corresponds to one table or figure of the evaluation section and
exposes a ``run_*`` function returning plain row dictionaries (so the
benchmark harness, the examples and ad-hoc notebooks can all consume them)
plus the shared :func:`repro.experiments.report.format_table` renderer for a
human-readable view.
"""

from repro.experiments.ablation import run_optimizer_ablation
from repro.experiments.config import PAPER_SCALE, SMALL_SCALE, TINY_SCALE, ExperimentScale
from repro.experiments.figure1 import run_figure1_active_learning
from repro.experiments.figure2 import run_figure2_sampling_comparison
from repro.experiments.figure3 import run_figure3_overhead
from repro.experiments.figure4 import run_figure4_num_strata, run_figure4_strata_layout
from repro.experiments.figure5 import run_figure5_sample_split
from repro.experiments.figure6 import run_figure6_classifier_quality
from repro.experiments.figure7 import run_figure7_ql_classifiers
from repro.experiments.figure8 import run_figure8_ql_methods
from repro.experiments.report import format_table
from repro.experiments.table1 import run_table1_selectivity

__all__ = [
    "ExperimentScale",
    "PAPER_SCALE",
    "SMALL_SCALE",
    "TINY_SCALE",
    "format_table",
    "run_figure1_active_learning",
    "run_figure2_sampling_comparison",
    "run_figure3_overhead",
    "run_figure4_num_strata",
    "run_figure4_strata_layout",
    "run_figure5_sample_split",
    "run_figure6_classifier_quality",
    "run_figure7_ql_classifiers",
    "run_figure8_ql_methods",
    "run_optimizer_ablation",
    "run_table1_selectivity",
]

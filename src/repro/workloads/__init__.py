"""Experiment workloads: dataset + query + selectivity level in one object."""

from repro.workloads.metrics import EstimateDistribution, summarize_estimates
from repro.workloads.queries import (
    Workload,
    build_neighbors_workload,
    build_sports_workload,
    build_workload,
)
from repro.workloads.runner import TrialRunner

__all__ = [
    "EstimateDistribution",
    "TrialRunner",
    "Workload",
    "build_neighbors_workload",
    "build_sports_workload",
    "build_workload",
    "summarize_estimates",
]

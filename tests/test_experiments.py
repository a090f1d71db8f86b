"""Tests for the experiment drivers (tiny scale, structural checks)."""

import pytest

from repro import obs
from repro.experiments import (
    TINY_SCALE,
    ExperimentScale,
    format_table,
    run_figure1_active_learning,
    run_figure2_sampling_comparison,
    run_figure3_overhead,
    run_figure4_num_strata,
    run_figure4_strata_layout,
    run_figure5_sample_split,
    run_figure6_classifier_quality,
    run_figure7_ql_classifiers,
    run_figure8_ql_methods,
    run_optimizer_ablation,
    run_table1_selectivity,
)
from repro.experiments.common import MethodSpec, classifier_factory

MICRO_SCALE = ExperimentScale(
    sports_rows=1200,
    neighbors_rows=1200,
    num_trials=2,
    sample_fractions=(0.05,),
    levels=("S",),
    datasets=("sports",),
)


class TestCommonHelpers:
    def test_classifier_factory_names(self):
        assert classifier_factory("rf") is None
        assert classifier_factory("knn") is not None
        assert classifier_factory("nn", seed=0) is not None
        assert classifier_factory("random", seed=0) is not None
        with pytest.raises(ValueError):
            classifier_factory("svm")

    def test_method_spec_unknown_method(self):
        # Specs validate eagerly: an unknown method fails at construction,
        # before any budget is spent.
        with pytest.raises(ValueError):
            MethodSpec("bogus")

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("classifier_name", "bogus", "unknown classifier"),
            ("optimizer", "bogus", "unknown optimizer"),
            ("num_strata", 0, "num_strata"),
        ],
    )
    def test_method_spec_rejects_bad_knobs(self, field, value, match):
        # Every method checks every knob, so an unused one cannot carry a
        # typo into a fingerprint.
        with pytest.raises(ValueError, match=match):
            MethodSpec("srs", **{field: value})


class TestTable1:
    def test_rows_cover_grid(self):
        rows = run_table1_selectivity(TINY_SCALE)
        assert len(rows) == len(TINY_SCALE.datasets) * len(TINY_SCALE.levels)
        for row in rows:
            assert 0 < row["result_size"] < row["objects"]
            assert abs(row["result_pct"] - row["target_pct"]) < 7.0


class TestFigureDrivers:
    def test_figure2_rows(self):
        rows = run_figure2_sampling_comparison(MICRO_SCALE, methods=("srs", "lss"))
        assert len(rows) == 2
        for row in rows:
            assert row["iqr"] >= 0
            assert row["mean_evaluations"] > 0

    def test_figure3_overhead_rows(self):
        previous = obs.enabled()
        rows = []
        try:
            for obs_enabled in (False, True):
                obs.set_enabled(obs_enabled)
                rows += run_figure3_overhead(
                    MICRO_SCALE,
                    sample_fractions=(0.05,),
                    trials_per_point=1,
                    predicate_cost_seconds=0.0005,
                )
                # Figure 3 switches obs on for its own trials only.
                assert obs.enabled() is obs_enabled
        finally:
            obs.set_enabled(previous)
        assert len(rows) == 2
        phases = ("p1_learning_s", "p1_design_s", "p2_overhead_s", "predicate_s")
        for row in rows:
            assert all(row[phase] >= 0 for phase in phases)
            assert row["predicate_s"] > 0
            # Disjoint parts of the trial's root span; each column is
            # rounded to 1e-4 s on its own, hence the slack.
            assert sum(row[phase] for phase in phases) <= row["total_s"] + 5 * 0.5e-4
            assert 0 <= row["overhead_pct"] <= 100

    def test_figure4_layout_rows(self):
        rows = run_figure4_strata_layout(MICRO_SCALE)
        layouts = {row["layout"] for row in rows}
        assert layouts == {"fixed-width", "fixed-height", "optimal"}

    def test_figure4_num_strata_rows(self):
        rows = run_figure4_num_strata(MICRO_SCALE, strata_counts=(4,), methods=("lss", "ssp"))
        assert len(rows) == 2

    def test_figure5_rows(self):
        rows = run_figure5_sample_split(MICRO_SCALE, splits=(0.25, 0.5))
        assert {row["split_pct"] for row in rows} == {25, 50}

    def test_figure6_rows(self):
        rows = run_figure6_classifier_quality(MICRO_SCALE, classifiers=("rf", "random"))
        assert {row["classifier"] for row in rows} == {"rf", "random"}

    def test_figure7_rows(self):
        rows = run_figure7_ql_classifiers(
            MICRO_SCALE, classifiers=("rf",), methods=("qlcc", "qlac")
        )
        assert len(rows) == 2

    def test_figure8_rows(self):
        rows = run_figure8_ql_methods(MICRO_SCALE, methods=("qlcc",), augmentation_rounds=(0, 1))
        assert {row["augmented"] for row in rows} == {False, True}

    def test_figure1_rounds(self):
        rows = run_figure1_active_learning(MICRO_SCALE, rounds=1, dataset="sports")
        assert [row["round"] for row in rows] == [0, 1]
        assert rows[1]["training_objects"] > rows[0]["training_objects"]


class TestAblation:
    def test_every_optimizer_reported(self):
        rows = run_optimizer_ablation(population_size=150, pilot_size=18, second_stage_samples=24)
        algorithms = {row["algorithm"] for row in rows}
        assert {"brute-force", "dirsol", "logbdr", "dynpgm", "dynpgm-prop"} <= algorithms

    def test_exact_algorithms_close_to_optimum(self):
        # Large enough that the fixed-width layout is measurably worse than
        # the optimum (at 150 objects every layout ties), so the bound below
        # fails if an optimizer degrades to fixed-width's cuts.
        rows = run_optimizer_ablation(population_size=200, pilot_size=24, second_stage_samples=30)
        by_name = {row["algorithm"]: row for row in rows}
        assert by_name["brute-force"]["gap_to_optimum"] == 0.0
        baseline_gap = by_name["fixed-width"]["gap_to_optimum"]
        assert baseline_gap > 0.0
        for name in ("dirsol", "dynpgm", "logbdr"):
            assert 0.0 <= by_name[name]["gap_to_optimum"] <= 0.1 * baseline_gap


class TestReport:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

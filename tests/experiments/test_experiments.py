"""Experiment harnesses: structure and sanity at tiny scale, and the
paper's shape claims (Section 3) on visited bindings at the scale
``optimatch experiment`` prints by default."""

import pytest

from repro.experiments import fig9, fig10, fig11, linear_fit_r2, user_study
from repro.experiments.common import ExperimentTable, timed
from repro.experiments.workloads import (
    PAPER_PLANT_RATES,
    bucketed_workload,
    controlled_config,
    experiment_workload,
)


class TestCommon:
    def test_linear_fit_perfect_line(self):
        xs = [1, 2, 3, 4]
        assert linear_fit_r2(xs, [2 * x + 1 for x in xs]) == pytest.approx(1.0)

    def test_linear_fit_noise(self):
        assert linear_fit_r2([1, 2, 3, 4], [1, 4, 2, 8]) < 1.0

    def test_linear_fit_degenerate(self):
        assert linear_fit_r2([1], [5]) == 1.0
        assert linear_fit_r2([1, 1], [2, 3]) == 1.0
        assert linear_fit_r2([1, 2], [3, 3]) == 1.0

    def test_timed(self):
        elapsed, value = timed(lambda: 42)
        assert value == 42
        assert elapsed >= 0

    def test_table_rendering(self):
        table = ExperimentTable("T", ["a", "b"])
        table.add_row(1, 2.5)
        table.add_note("note")
        text = table.to_text()
        assert "T" in text and "2.5" in text and "* note" in text


class TestWorkloads:
    def test_experiment_workload_sizes(self):
        plans = experiment_workload(5, seed=1)
        assert len(plans) == 5
        assert len({p.plan_id for p in plans}) == 5

    def test_controlled_config_flags(self):
        config = controlled_config()
        assert config.avoid_pattern_a
        assert config.lojoin_prob == 0.0
        assert config.spill_sort_prob == 0.0

    def test_plant_rates_match_paper_sample(self):
        # 15 / 12 / 18 per 100 in the user-study sample
        assert PAPER_PLANT_RATES == {"A": 0.15, "B": 0.12, "C": 0.18}

    def test_bucketed_workload(self):
        buckets = bucketed_workload([(1, 30), (30, 60)], 2, seed=2)
        for (low, high), plans in buckets.items():
            assert len(plans) == 2
            for plan in plans:
                assert low <= plan.op_count < high

    def test_bucketed_workload_guarantees_study_patterns(self):
        """The first plan of every bucket carries all three study
        patterns so per-bucket timings always measure real candidates."""
        from repro.workload.reference import REFERENCE_CHECKERS

        buckets = bucketed_workload([(30, 60), (60, 90)], 2, seed=3)
        for plans in buckets.values():
            first = plans[0]
            for letter in "ABC":
                assert REFERENCE_CHECKERS[letter](first), (
                    f"bucket lead plan lacks pattern {letter}"
                )


def assert_stage_breakdown(table, *stages):
    """The profiler's stage breakdown must appear in the rendered report
    with every named stage carrying a parseable seconds value."""
    notes = [n for n in table.notes if n.startswith("stage breakdown: ")]
    assert len(notes) == 1, f"expected one stage-breakdown note: {table.notes}"
    body = notes[0][len("stage breakdown: "):]
    seconds = {}
    for part in body.split(", "):
        name, _, value = part.partition("=")
        assert value.endswith("s"), part
        seconds[name] = float(value[:-1])
    for stage in stages:
        assert stage in seconds, f"missing stage {stage!r} in {seconds}"
        assert seconds[stage] >= 0.0
    assert notes[0] in table.to_text()


class TestFig9:
    @pytest.fixture(scope="class")
    def table(self):
        return fig9.run(scale=0.02, seed=5)

    def test_ten_buckets(self, table):
        assert len(table.rows) == 10

    def test_sizes_ascending(self, table):
        sizes = [row[0] for row in table.rows]
        assert sizes == sorted(sizes)
        assert sizes[-1] == 10 * sizes[0]

    def test_times_positive(self, table):
        for row in table.rows:
            assert all(value >= 0 for value in row[1:])

    # Work, not wall-clock time: at this tiny scale timing noise
    # dominates, while the visited-binding count repeats exactly per
    # seed.  TestFig9AtTenthScale checks linearity at scale 0.1.
    def test_visited_bindings(self, table):
        series = fig9.series_from_table(table)
        assert series["bindings #1"] == [
            1245, 2556, 2660, 2748, 3242, 3641, 4024, 4353, 4433, 4505
        ]
        assert series["bindings #3"] == [
            730, 1395, 1699, 1955, 2200, 2439, 2701, 3004, 3178, 3412
        ]

    def test_roughly_linear(self, table):
        series = fig9.series_from_table(table)
        bindings = series["bindings #3"]
        r2 = linear_fit_r2(series["sizes"], bindings)
        assert r2 > 0.5, f"Pattern #3 wildly non-linear (R2={r2:.3f})"
        assert bindings[-1] > bindings[0], "no growth with workload"

    def test_largest_bucket_dominates(self, table):
        series = fig9.series_from_table(table)
        for label in ("#1", "#3"):
            bindings = series[f"bindings {label}"]
            assert bindings[-1] >= bindings[0]

    def test_report_embeds_stage_breakdown(self, table):
        assert_stage_breakdown(table, "generate", "transform", "search")


class TestFig9AtTenthScale:
    """Figure 9 at scale 0.1 (10..100 QEPs), seed 2016.

    The paper also finds recursive Pattern #2 the costliest, about 2x
    the others.  This engine plans #2's property paths from their bound
    end, so at 100 QEPs #2 visits 8,602 bindings against 23,811 (#1)
    and 16,454 (#3); benchmarks/bench_fig9_workload_size.py keeps
    asserting the paper's ordering as a standing failure."""

    @pytest.fixture(scope="class")
    def series(self):
        return fig9.series_from_table(fig9.run(scale=0.1, seed=2016))

    def test_visited_bindings(self, series):
        assert series["bindings #1"] == [
            3121, 5703, 7749, 11041, 13453, 16164, 18524, 20204, 21928, 23811
        ]
        assert series["bindings #2"] == [
            398, 603, 1528, 3344, 3344, 4365, 7374, 7875, 7875, 8602
        ]
        assert series["bindings #3"] == [
            1879, 3724, 5473, 7215, 8912, 10554, 12249, 13663, 15059, 16454
        ]

    @pytest.mark.parametrize("label", ["#1", "#2", "#3"])
    def test_linear_in_workload_size(self, series, label):
        r2 = linear_fit_r2(series["sizes"], series[f"bindings {label}"])
        assert r2 > 0.7, f"pattern {label} deviates from linear (R2={r2:.3f})"


class TestFig10:
    @pytest.fixture(scope="class")
    def table(self):
        return fig10.run(scale=0.02, seed=5, plans_per_bucket=2)

    def test_paper_buckets(self, table):
        labels = [row[0] for row in table.rows]
        assert labels[0] == "[1-50]"
        assert labels[-1] == "[500-550]"
        assert len(labels) == 6

    def test_avg_ops_within_bucket(self, table):
        for row in table.rows:
            low, high = row[0].strip("[]").split("-")
            assert int(low) <= row[2] < int(high)

    def test_bigger_plans_cost_more(self, table):
        series = fig10.series_from_table(table)
        # Pattern #3 work grows with plan size end-to-end (visited
        # bindings, not wall-clock time: see TestFig9).
        assert series["bindings #3"][-1] > series["bindings #3"][0]

    def test_report_embeds_stage_breakdown(self, table):
        assert_stage_breakdown(table, "generate", "transform", "search")


class TestFig10AtTenthScale:
    """Figure 10 at scale 0.1 (four plans per bucket), seed 2016."""

    @pytest.fixture(scope="class")
    def series(self):
        return fig10.series_from_table(fig10.run(scale=0.1, seed=2016))

    # Pattern #2's work follows a plan's left outer joins more than its
    # size (EXPERIMENTS.md), so only #1 and #3 are held to a line.
    @pytest.mark.parametrize("label", ["#1", "#3"])
    def test_per_plan_work_grows_linearly(self, series, label):
        bindings = series[f"bindings {label}"]
        assert bindings[-1] > bindings[0]
        r2 = linear_fit_r2(series["avg_ops"], bindings)
        assert r2 > 0.6, f"pattern {label} not roughly linear (R2={r2:.3f})"


class TestFig11:
    @pytest.fixture(scope="class")
    def table(self):
        return fig11.run(scale=0.02, seed=5, kb_sizes=[1, 3, 6])

    def test_kb_sizes_respected(self, table):
        assert [row[0] for row in table.rows] == [1, 3, 6]

    # Work, not wall-clock time: three tiny timed runs are too noisy for
    # a trend, while the visited-binding count repeats exactly per seed.
    def test_time_grows_with_kb(self, table):
        bindings = fig11.series_from_table(table)["bindings"]
        assert bindings == [1117, 3726, 5260]

    def test_linear_in_kb_size(self, table):
        series = fig11.series_from_table(table)
        r2 = linear_fit_r2(series["kb_sizes"], series["bindings"])
        assert r2 > 0.8

    def test_report_embeds_stage_breakdown(self, table):
        assert_stage_breakdown(
            table, "generate+transform", "kb-build", "kb-run"
        )


class TestFig11AtTenthScale:
    """Figure 11 at scale 0.1 (10 QEPs), seed 2016."""

    @pytest.fixture(scope="class")
    def series(self):
        return fig11.series_from_table(fig11.run(scale=0.1, seed=2016))

    def test_linear_in_kb_size(self, series):
        assert series["kb_sizes"] == [1, 10, 25]
        assert series["bindings"] == [1625, 11157, 41841]
        r2 = linear_fit_r2(series["kb_sizes"], series["bindings"])
        assert r2 > 0.8, f"KB-size scaling deviates from linear (R2={r2:.3f})"


class TestUserStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return user_study.run(scale=1.0, seed=5, n_plans=60)

    def test_tables_have_three_patterns(self, result):
        assert len(result.time_table.rows) == 3
        assert len(result.precision_table.rows) == 3

    def test_optimatch_exact(self, result):
        # Last column of Table 1: OptImatch found-rate is always 1.0.
        for row in result.precision_table.rows:
            assert row[4] == 1.0

    def test_manual_imperfect(self, result):
        rates = list(result.found_rates.values())
        assert any(rate < 1.0 for rate in rates)
        assert all(0.0 <= rate <= 1.0 for rate in rates)

    def test_speedup_substantial(self, result):
        # The paper reports ~40x; the model should land well above 5x.
        assert all(s > 5 for s in result.speedups.values())

    @pytest.fixture(scope="class")
    def paper_sample(self):
        """Figure 12's setting: a 100-QEP sample, seed 2016."""
        return user_study.run(scale=1.0, seed=2016, n_plans=100)

    def test_speedup_over_8x_on_paper_sample(self, paper_sample):
        """Like the check above, this reads a clock.  Tool time is
        under a second of measured search plus the paper's 60 s
        pattern-specification constant, against about 1,900 to 3,000
        modelled expert seconds, so host speed moves the speedup (31,
        50 and 34x on a 2-vCPU host; paper ~40x) by a few percent."""
        for label, speedup in paper_sample.speedups.items():
            assert speedup > 8, f"{label}: speedup {speedup:.1f}x too low"

    def test_to_text(self, result):
        text = result.to_text()
        assert "Figure 12" in text and "Table 1" in text

    def test_report_embeds_stage_breakdown(self, result):
        assert_stage_breakdown(
            result.time_table,
            "generate",
            "transform",
            "manual-search",
            "search",
        )


class TestTable1:
    """Table 1 on 100-QEP samples with known ground truth: simulated
    experts miss matches, OptImatch finds every one."""

    @pytest.fixture(scope="class")
    def result(self):
        return user_study.run(scale=1.0, seed=7, n_plans=100)

    def test_optimatch_exact(self, result):
        assert [row[4] for row in result.precision_table.rows] == [1.0] * 3

    def test_manual_found_rates(self, result):
        # Matches found by the three experts over three times the 18,
        # 10 and 23 true matches (paper: 0.88, 0.71, 0.81).
        assert result.found_rates == pytest.approx(
            {"#1": 46 / 54, "#2": 21 / 30, "#3": 57 / 69}
        )

    def test_pattern2_weakest_over_seeds(self):
        """Pattern #2 (recursive, hardest to eyeball) has the lowest
        manual found-rate averaged over three study repetitions, as in
        the paper (0.715 against 0.837 and 0.836)."""
        sums = {"#1": 0.0, "#2": 0.0, "#3": 0.0}
        for seed in (1, 32, 63):
            result = user_study.run(scale=1.0, seed=seed, n_plans=100)
            for label, rate in result.found_rates.items():
                sums[label] += rate
        assert sums["#2"] <= min(sums["#1"], sums["#3"])

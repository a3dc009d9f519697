"""The summary math of ``benchmarks/pairs.py`` on canned run results."""

import pytest

from benchmarks.pairs import compare_row, quartiles, render, summarize

SPEC = {
    "end_to_end": [
        {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [
        {"name": "storm.tuples_per_event", "unit": "count", "better": "lower"},
        {"name": "serving.miss_window_us", "unit": "us", "better": "lower"},
    ],
}


def run(phase, workload, side, pair, correct=True, **metrics):
    return {
        "phase": phase, "seed": 2015, "workload": workload, "side": side,
        "pair": pair, "correct": correct, "attempted": 10,
        "failed": 0 if correct else 1, "metrics": metrics,
    }


class TestQuartiles:
    def test_inclusive_quartiles_and_median(self):
        assert quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
        assert quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)

    def test_one_run_is_its_own_quartiles(self):
        assert quartiles([7.0]) == (7.0, 7.0, 7.0)


class TestCompareRow:
    def test_wins_follow_the_better_direction_and_ties_count_for_neither(self):
        parent = [10.0, 10.0, 10.0, 10.0]
        higher = compare_row(parent, [11.0, 10.0, 9.0, 12.0], "higher")
        lower = compare_row(parent, [11.0, 10.0, 9.0, 12.0], "lower")
        assert (higher["wins"], lower["wins"], higher["pairs"]) == (2, 1, 4)

    def test_claimable_gain_needs_nine_in_ten_and_more_than_the_spread(self):
        parent = [100.0 + k for k in range(10)]
        change = [112.0 + k for k in range(10)]
        row = compare_row(parent, change, "higher", 0.25)
        assert row["wins"] == 10 and row["claimable"]
        assert row["ratio"] == pytest.approx(116.5 / 104.5)
        assert row["every_beats_every"]
        # one lost pair of ten still claims; two do not
        assert compare_row(parent, change[:9] + [90.0], "higher")["claimable"]
        assert not compare_row(
            parent, change[:8] + [90.0, 90.0], "higher"
        )["claimable"]
        # ten wins by less than the parent's quartile distance (4.5)
        close = compare_row(parent, [p + 4.0 for p in parent], "higher")
        assert close["wins"] == 10 and not close["claimable"]

    def test_every_beats_every(self):
        parent = [10.0, 11.0, 12.0]
        assert compare_row(parent, [12.5, 13.0, 14.0], "higher")[
            "every_beats_every"
        ]
        assert not compare_row(parent, [11.5, 13.0, 14.0], "higher")[
            "every_beats_every"
        ]
        assert compare_row(parent, [9.0, 9.5, 9.9], "lower")["every_beats_every"]

    def test_bound_verdict_on_the_worse_side(self):
        parent = [1.0, 1.0, 1.0]
        slower = compare_row(parent, [1.2, 1.2, 1.2], "lower", 0.25)
        assert slower["worse_by"] == pytest.approx(0.2) and slower["within_bound"]
        breach = compare_row(parent, [1.3, 1.3, 1.3], "lower", 0.25)
        assert breach["worse_by"] == pytest.approx(0.3)
        assert breach["within_bound"] is False
        fewer = compare_row([100.0] * 3, [70.0] * 3, "higher", 0.25)
        assert fewer["worse_by"] == pytest.approx(0.3)
        assert fewer["within_bound"] is False
        better = compare_row([100.0] * 3, [130.0] * 3, "higher", 0.25)
        assert better["worse_by"] == pytest.approx(-0.3) and better["within_bound"]

    def test_a_run_without_metrics_loses_its_pair(self):
        row = compare_row([1.0, 1.0], [2.0, None], "higher", 0.25)
        assert row["wins"] == 1 and row["change"]["values"] == [2.0]
        assert not row["every_beats_every"]


class TestSummarize:
    def runs(self):
        runs = []
        for pair in range(10):
            runs.append(run("seed", "w", "parent", pair, qps=100.0 + pair,
                            p50_ms=2.0))
            runs.append(run("seed", "w", "change", pair, qps=120.0 + pair,
                            p50_ms=1.8))
        for side, miss in (("parent", 500.0), ("change", 400.0)):
            runs.append(run("trace", "w", side, 0,
                            **{"storm.tuples_per_event": 6.057,
                               "serving.miss_window_us": miss}))
        return runs

    def test_rows_per_phase_and_workload(self):
        report = summarize(self.runs(), SPEC)
        seed = report["seed"]["workloads"]["w"]
        assert seed["pairs"] == 10 and seed["correct"]
        assert seed["rows"]["qps"]["claimable"]
        assert seed["rows"]["qps"]["every_beats_every"]
        assert seed["rows"]["p50_ms"]["wins"] == 10
        assert seed["rows"]["p50_ms"]["worse_by"] == pytest.approx(-0.1)
        assert "unseen" not in report
        trace = report["trace"]["workloads"]["w"]
        assert trace["exact_equal"] and trace["exact_differences"] == {}
        assert trace["rows"]["serving.miss_window_us"]["wins"] == 1
        assert trace["rows"]["serving.miss_window_us"]["within_bound"] is None

    def test_exact_row_difference_is_reported(self):
        runs = self.runs()
        runs[-1]["metrics"]["storm.tuples_per_event"] = 6.058
        trace = summarize(runs, SPEC)["trace"]["workloads"]["w"]
        assert not trace["exact_equal"]
        assert trace["exact_differences"] == {
            "storm.tuples_per_event": {"parent": [6.057], "change": [6.058]}
        }

    def test_an_incorrect_run_marks_its_workload(self):
        runs = self.runs()
        runs[3]["correct"] = False
        assert not summarize(runs, SPEC)["seed"]["workloads"]["w"]["correct"]

    def test_render_lists_every_row(self):
        settings = {
            "parent": "aaaaaaa", "change": "bbbbbbb", "change_desc": "x",
            "pairs": 10, "seed": 2015, "seconds": 30.0, "unseen_pairs": 0,
            "unseen_seed": 7, "trace": 1,
        }
        text = render({"settings": settings,
                       "summary": summarize(self.runs(), SPEC)})
        assert "`qps`" in text and "`serving.miss_window_us`" in text
        assert "equal in every run" in text and "BREACH" not in text

    def test_render_heads_with_the_host_speed_range(self):
        settings = {
            "parent": "aaaaaaa", "change": "bbbbbbb", "change_desc": "x",
            "pairs": 10, "seed": 2015, "seconds": 30.0, "unseen_pairs": 0,
            "unseen_seed": 7, "trace": 1,
        }
        runs = self.runs()
        for n, record in enumerate(runs):
            record["calibration_ms"] = 30.0 + n % 5
        text = render({"settings": settings, "runs": runs,
                       "summary": summarize(runs, SPEC)})
        assert "`calibration_ms` 30.0–34.0 before the pairs" in text

"""Order statistics and span arithmetic."""

import pytest

from benchmarks.perf.stats import (
    Span,
    percentile,
    self_times,
    spread,
    summary,
    tail_quantile,
    worsening,
)


@pytest.mark.parametrize("n, expected", [
    (400, 95.0),   # 20 samples beyond p95, 4 beyond p99
    (2000, 99.0),  # 20 beyond p99, 2 beyond p99.9
    (20000, 99.9),
    (100, 90.0),   # exactly 10 beyond p90
    (40, 75.0),
    (19, None),    # no candidate leaves 10 samples beyond it
])
def test_tail_quantile_keeps_ten_samples_beyond(n, expected):
    assert tail_quantile(n) == expected


def test_percentile_is_nearest_rank():
    samples = list(range(1, 401))
    assert percentile(samples, 95.0) == 380
    assert percentile(samples, 50.0) == 200
    assert percentile([7.0], 99.0) == 7.0
    # 20 samples lie strictly beyond the reported p95.
    assert sum(1 for s in samples if s > percentile(samples, 95.0)) == 20


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 2.0, 5.0, parent=0),   # overlaps a: union is 1..5
        Span("a", 7.0, 8.0, parent=0),
        Span("leaf", 2.5, 4.5, parent=2),
        Span("late", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    got = self_times(spans)
    assert got["root"] == pytest.approx(10.0 - 4.0 - 1.0 - 1.0)
    assert got["a"] == pytest.approx(2.0 + 1.0)
    assert got["b"] == pytest.approx(3.0 - 2.0)
    assert got["leaf"] == pytest.approx(2.0)


def test_summary_matches_the_acceptance_check_quartiles():
    values = [10.0, 12.0, 11.0, 13.0, 9.0, 14.0, 10.5, 11.5, 12.5, 13.5]
    s = summary(values)
    assert (s["n"], s["min"], s["max"]) == (10, 9.0, 14.0)
    assert s["median"] == 11.75
    assert spread(values) == pytest.approx((s["q3"] - s["q1"]) / 11.75)
    assert summary([3.0]) == {
        "median": 3.0, "q1": 3.0, "q3": 3.0, "min": 3.0, "max": 3.0, "n": 1,
    }


def test_worsening_follows_the_metric_direction():
    assert worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert worsening(100.0, 90.0, "higher") == pytest.approx(0.10)

"""Percentile helper, including the "at least ten samples beyond" rule."""

import pytest

from bench import stats


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_samples_beyond_counts_strictly_above_the_rank():
    assert stats.samples_beyond(1000, 99) == 10
    assert stats.samples_beyond(999, 99) == 9
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(60, 90) == 6


@pytest.mark.parametrize("n, expected", [
    (5000, 99.0),   # 50 beyond p99
    (1000, 99.0),   # exactly ten beyond p99
    (999, 95.0),    # nine beyond p99: drop to p95
    (200, 95.0),    # ten beyond p95
    (199, 90.0),
    (60, 75.0),     # six beyond p90, fifteen beyond p75
    (19, 50.0),     # nothing above the median is supported
])
def test_supported_percentile_needs_ten_samples_beyond(n, expected):
    assert stats.supported_percentile(n) == expected


def test_supported_percentile_never_exceeds_the_workload_cap():
    assert stats.supported_percentile(100_000, at_most=95.0) == 95.0


def test_summarize_reports_median_tail_percentile_used_and_count():
    values = [i / 1000.0 for i in range(1, 1001)]  # 1 ms .. 1000 ms, in seconds
    summary = stats.summarize(values, tail_q=99.0, scale=1000.0)
    assert summary["n"] == 1000
    assert summary["tail_q"] == 99.0
    assert summary["p50"] == pytest.approx(500.5)
    assert summary["tail"] == pytest.approx(990.0)
    short = stats.summarize(values[:60], tail_q=99.0)
    assert short["tail_q"] == 75.0


def test_spread_is_interquartile_distance_over_median():
    assert stats.spread([10.0]) == 0.0
    values = [9.0, 10.0, 11.0, 10.0, 10.0, 9.5, 10.5, 10.0, 10.0, 10.0]
    import statistics
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / 10.0)


def test_chunked_summary_shrugs_off_a_burst_of_slow_samples():
    steady = [0.010] * 1000
    burst = list(steady)
    burst[300:380] = [0.100] * 80          # 8 % of samples, all in one stretch
    plain = stats.summarize(burst, tail_q=95.0)
    chunked = stats.summarize(burst, tail_q=95.0, chunks=10)
    assert plain["tail"] == pytest.approx(0.100)      # the one number moved
    assert chunked["tail"] == pytest.approx(0.010)    # one run of ten moved
    assert chunked["p50"] == pytest.approx(0.010) and chunked["chunks"] == 10
    assert stats.summarize(steady, 95.0, chunks=10)["tail"] == pytest.approx(0.010)

"""Prometheus text-exposition conformance and thread-safety tests.

The exposition format (v0.0.4) has sharp edges a scraper trips over
silently: HELP/TYPE must precede samples, label values need escaping,
histogram bucket counts must be cumulative and end in ``+Inf``.  These
tests pin the format down on a private :class:`MetricsRegistry` so the
process-global ``OBS`` state is never touched.
"""

import math
import re
import threading

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
)


def _registry() -> MetricsRegistry:
    return MetricsRegistry(enabled=True)


# ----------------------------------------------------------------------
# HELP / TYPE structure
# ----------------------------------------------------------------------


def test_help_and_type_precede_samples():
    reg = _registry()
    reg.counter("requests_total", "Total requests.").inc(3)
    text = reg.exposition()
    lines = text.splitlines()
    assert lines[0] == "# HELP requests_total Total requests."
    assert lines[1] == "# TYPE requests_total counter"
    assert lines[2] == "requests_total 3"
    assert text.endswith("\n")


def test_family_without_help_still_has_type():
    reg = _registry()
    reg.gauge("depth").set(7)
    lines = reg.exposition().splitlines()
    assert lines[0] == "# TYPE depth gauge"
    assert lines[1] == "depth 7"


def test_each_family_announced_exactly_once():
    reg = _registry()
    fam = reg.counter("ops_total", "Ops.", labelnames=("kind",))
    fam.labels("read").inc()
    fam.labels("write").inc(2)
    lines = reg.exposition().splitlines()
    assert lines.count("# TYPE ops_total counter") == 1
    assert 'ops_total{kind="read"} 1' in lines
    assert 'ops_total{kind="write"} 2' in lines
    # Samples follow their family's header contiguously.
    type_idx = lines.index("# TYPE ops_total counter")
    assert all(l.startswith("ops_total{") for l in lines[type_idx + 1 :])


def test_empty_registry_renders_empty_string():
    assert _registry().exposition() == ""


# ----------------------------------------------------------------------
# Label escaping
# ----------------------------------------------------------------------


def test_label_values_escape_backslash_quote_newline():
    reg = _registry()
    fam = reg.counter("weird_total", "", labelnames=("path",))
    fam.labels('C:\\tmp\\"x"\nend').inc()
    text = reg.exposition()
    assert 'weird_total{path="C:\\\\tmp\\\\\\"x\\"\\nend"} 1' in text
    # The escaped sample must stay on one physical line.
    sample_lines = [l for l in text.splitlines() if l.startswith("weird_total{")]
    assert len(sample_lines) == 1


def test_non_string_label_values_are_stringified():
    reg = _registry()
    fam = reg.counter("by_id", "", labelnames=("id",))
    fam.labels(42).inc()
    assert 'by_id{id="42"} 1' in reg.exposition()


# ----------------------------------------------------------------------
# Histogram invariants
# ----------------------------------------------------------------------


def test_histogram_buckets_cumulative_and_end_in_inf():
    reg = _registry()
    hist = reg.histogram("lat_seconds", "Latency.", buckets=(0.1, 1.0, 10.0))
    for v in (0.05, 0.5, 0.5, 5.0, 50.0):
        hist.observe(v)
    text = reg.exposition()
    buckets = re.findall(r'lat_seconds_bucket\{le="([^"]+)"\} (\d+)', text)
    assert [b[0] for b in buckets] == ["0.1", "1", "10", "+Inf"]
    counts = [int(b[1]) for b in buckets]
    assert counts == [1, 3, 4, 5]
    assert counts == sorted(counts)  # cumulative ⇒ monotone
    assert "lat_seconds_sum 56.05" in text
    assert "lat_seconds_count 5" in text
    # +Inf bucket equals _count — the invariant scrapers rely on for rate().
    assert counts[-1] == 5


def test_histogram_sum_count_consistent_with_observations():
    reg = _registry()
    hist = reg.histogram("h_seconds", "", buckets=(1.0,))
    hist.observe(0.25)
    hist.observe(0.75)
    assert hist.count == 2
    assert math.isclose(hist.sum, 1.0)
    assert hist.bucket_counts()[math.inf] == 2


def test_labeled_histogram_le_joins_existing_labels():
    reg = _registry()
    fam = reg.histogram("op_seconds", "", labelnames=("op",), buckets=(1.0,))
    fam.labels("insert").observe(0.5)
    text = reg.exposition()
    assert 'op_seconds_bucket{op="insert",le="1"} 1' in text
    assert 'op_seconds_bucket{op="insert",le="+Inf"} 1' in text
    assert 'op_seconds_sum{op="insert"} 0.5' in text
    assert 'op_seconds_count{op="insert"} 1' in text


def test_default_buckets_cover_microsecond_range():
    # Satellite of the perf observatory: lock waits are tens of µs; the
    # default buckets must resolve them.
    assert 0.000025 in DEFAULT_LATENCY_BUCKETS
    assert 0.00005 in DEFAULT_LATENCY_BUCKETS
    assert DEFAULT_LATENCY_BUCKETS == tuple(sorted(DEFAULT_LATENCY_BUCKETS))


# ----------------------------------------------------------------------
# Concurrency: no lost updates
# ----------------------------------------------------------------------


def test_histogram_hammer_loses_no_observations():
    reg = _registry()
    hist = reg.histogram("hammer_seconds", "", buckets=(0.5,))
    threads_n, per_thread = 8, 2000

    def pound():
        for i in range(per_thread):
            hist.observe(0.25 if i % 2 else 0.75)

    threads = [threading.Thread(target=pound) for _ in range(threads_n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    total = threads_n * per_thread
    assert hist.count == total
    assert math.isclose(hist.sum, total * 0.5)
    counts = hist.bucket_counts()
    assert counts[0.5] == total // 2
    assert counts[math.inf] == total


def test_counter_hammer_loses_no_increments():
    reg = _registry()
    fam = reg.counter("c_total", "", labelnames=("worker",))
    threads_n, per_thread = 8, 5000

    def bump(name):
        child = fam.labels(name)
        for _ in range(per_thread):
            child.inc()

    threads = [
        threading.Thread(target=bump, args=(str(i % 2),))
        for i in range(threads_n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert fam.labels("0").value + fam.labels("1").value == (
        threads_n * per_thread
    )

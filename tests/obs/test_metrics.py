"""The metrics registry: counters, gauges, histograms, exposition, snapshots."""

import json
import math
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
)


@pytest.fixture
def registry():
    return MetricsRegistry(enabled=True)


class TestCounters:
    def test_inc_accumulates(self, registry):
        counter = registry.counter("ops_total", "ops")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self, registry):
        counter = registry.counter("ops_total", "ops")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labeled_children_are_independent(self, registry):
        family = registry.counter("ops_total", "ops", ("kind",))
        family.labels("read").inc(2)
        family.labels("write").inc(3)
        assert family.labels("read").value == 2
        assert family.labels("write").value == 3

    def test_labels_returns_same_child(self, registry):
        family = registry.counter("ops_total", "ops", ("kind",))
        assert family.labels("read") is family.labels("read")

    def test_register_is_idempotent(self, registry):
        first = registry.counter("ops_total", "ops")
        second = registry.counter("ops_total", "ops")
        assert first is second

    def test_register_kind_conflict_raises(self, registry):
        registry.counter("ops_total", "ops")
        with pytest.raises(ValueError):
            registry.gauge("ops_total", "ops")

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("ops_total", "ops")
        counter.inc(10)
        assert counter.value == 0

    def test_reset_keeps_child_references_valid(self, registry):
        family = registry.counter("ops_total", "ops", ("kind",))
        child = family.labels("read")
        child.inc(7)
        registry.reset()
        assert child.value == 0
        child.inc()
        assert family.labels("read").value == 1


class TestGauges:
    def test_set_replaces_value(self, registry):
        gauge = registry.gauge("depth", "queue depth")
        gauge.set(10)
        gauge.set(7)
        assert gauge.value == 7

    def test_gauge_exposes_one_unlabelled_sample(self, registry):
        registry.gauge("depth", "queue depth").set(3)
        assert "depth 3\n" in registry.exposition()
        assert registry.snapshot()["depth"]["samples"] == [
            {"labels": {}, "value": 3}
        ]


class TestConcurrency:
    def test_threaded_increments_are_not_lost(self, registry):
        counter = registry.counter("ops_total", "ops")
        histogram = registry.histogram("lat_seconds", "lat")
        threads_n, per_thread = 8, 5000

        def work():
            for _ in range(per_thread):
                counter.inc()
                histogram.observe(0.001)

        threads = [threading.Thread(target=work) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == threads_n * per_thread
        assert histogram.count == threads_n * per_thread

    def test_threaded_label_creation_yields_one_child(self, registry):
        family = registry.counter("ops_total", "ops", ("kind",))
        barrier = threading.Barrier(8)
        children = []

        def work():
            barrier.wait()
            children.append(family.labels("same"))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(c) for c in children}) == 1


class TestHistograms:
    def test_bucket_boundaries_are_inclusive(self, registry):
        histogram = registry.histogram(
            "lat_seconds", "lat", buckets=(0.1, 1.0)
        )
        histogram.observe(0.1)   # lands in le=0.1 (inclusive upper bound)
        histogram.observe(0.5)   # lands in le=1.0
        histogram.observe(2.0)   # lands only in +Inf
        counts = histogram.bucket_counts()
        assert counts[0.1] == 1
        assert counts[1.0] == 2  # cumulative
        assert counts[math.inf] == 3
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(2.6)

    def test_default_buckets_cover_sub_millisecond(self):
        assert DEFAULT_LATENCY_BUCKETS[0] < 0.001
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


class TestExposition:
    def test_golden_output(self, registry):
        counter = registry.counter("ops_total", "Operations", ("kind",))
        counter.labels("read").inc(3)
        gauge = registry.gauge("depth", "Queue depth")
        gauge.set(2)
        histogram = registry.histogram(
            "lat_seconds", "Latency", buckets=(0.5, 1.0)
        )
        histogram.observe(0.25)
        histogram.observe(0.75)
        expected = "\n".join([
            "# HELP ops_total Operations",
            "# TYPE ops_total counter",
            'ops_total{kind="read"} 3',
            "# HELP depth Queue depth",
            "# TYPE depth gauge",
            "depth 2",
            "# HELP lat_seconds Latency",
            "# TYPE lat_seconds histogram",
            'lat_seconds_bucket{le="0.5"} 1',
            'lat_seconds_bucket{le="1"} 2',
            'lat_seconds_bucket{le="+Inf"} 2',
            "lat_seconds_sum 1",
            "lat_seconds_count 2",
            "",
        ])
        assert registry.exposition() == expected

    def test_label_values_are_escaped(self, registry):
        counter = registry.counter("ops_total", "ops", ("src",))
        counter.labels('a"b\\c\nd').inc()
        assert '{src="a\\"b\\\\c\\nd"}' in registry.exposition()


class TestSnapshotDelta:
    """Per-interval counts come from reset() between snapshots, not from
    subtracting one snapshot from another."""

    def test_snapshot_is_json_serializable(self, registry):
        registry.counter("ops_total", "ops").inc(2)
        registry.histogram("lat_seconds", "lat").observe(0.1)
        json.dumps(registry.snapshot())  # must not raise

    def test_reset_between_snapshots_isolates_each_interval(self, registry):
        counter = registry.counter("ops_total", "ops", ("kind",))
        histogram = registry.histogram("lat_seconds", "lat", buckets=(1.0,))
        counter.labels("read").inc(5)
        histogram.observe(0.5)
        registry.reset()
        counter.labels("read").inc(3)
        histogram.observe(2.0)
        snapshot = registry.snapshot()
        assert snapshot["ops_total"]["samples"][0]["value"] == 3
        (sample,) = snapshot["lat_seconds"]["samples"]
        assert (sample["count"], sample["sum"]) == (1, 2.0)
        assert sample["buckets"] == {"1": 0, "+Inf": 1}

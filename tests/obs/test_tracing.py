"""Span tracing: nesting, ordering, ring buffer, no-op mode."""

import threading

from repro.obs.tracing import (
    RingBufferRecorder,
    Span,
    Tracer,
    _NOOP_SPAN,
    build_span_trees,
    render_span_tree,
)


def make_tracer(capacity=100):
    return Tracer(RingBufferRecorder(capacity), enabled=True)


class TestNesting:
    def test_child_records_parent_id(self):
        tracer = make_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_children_close_before_parents(self):
        tracer = make_tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [s.name for s in tracer.recorder.spans()]
        assert names == ["inner", "outer"]  # emission order = close order

    def test_siblings_share_parent(self):
        tracer = make_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == outer.span_id
        assert b.parent_id == outer.span_id

    def test_duration_and_start_are_monotonic(self):
        tracer = make_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.start_ns >= outer.start_ns
        assert outer.duration_ns >= inner.duration_ns >= 0

    def test_exception_is_recorded_and_stack_unwound(self):
        tracer = make_tracer()
        try:
            with tracer.span("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        (span,) = tracer.recorder.spans()
        assert span.attributes["error"] == "RuntimeError"
        assert tracer.current_span() is None

    def test_threads_have_independent_stacks(self):
        tracer = make_tracer()
        seen = {}

        def work(tag):
            with tracer.span(tag) as span:
                seen[tag] = span.parent_id

        with tracer.span("main"):
            t = threading.Thread(target=work, args=("worker",))
            t.start()
            t.join()
        assert seen["worker"] is None  # not parented to another thread's span


class TestDisabled:
    def test_disabled_tracer_returns_shared_noop(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("anything", key="value")
        assert span is _NOOP_SPAN
        with span as inner:
            inner.set_attribute("k", "v")  # must be accepted and dropped
        assert tracer.recorder.spans() == []


class TestRingBuffer:
    def test_capacity_evicts_oldest(self):
        tracer = make_tracer(capacity=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [s.name for s in tracer.recorder.spans()] == ["s2", "s3", "s4"]

    def test_concurrent_overflow_keeps_emission_order(self):
        """8 threads overflow a small ring: the survivors are exactly the
        newest spans, in emission order, with per-thread order intact."""
        threads_n, spans_m, capacity = 8, 50, 64
        tracer = make_tracer(capacity=capacity)
        barrier = threading.Barrier(threads_n)

        def worker(worker_id: int) -> None:
            barrier.wait()
            for i in range(spans_m):
                with tracer.span("tick", worker=worker_id, i=i):
                    pass

        pool = [
            threading.Thread(target=worker, args=(n,))
            for n in range(threads_n)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()

        spans = tracer.recorder.spans()
        assert len(spans) == capacity  # full, nothing torn or duplicated
        # FIFO eviction means each thread's survivors are exactly the
        # newest *suffix* of its own emission sequence: if any span of a
        # thread survives, its final span does, and nothing in between is
        # missing or out of order.
        for worker_id in range(threads_n):
            ours = [
                s.attributes["i"] for s in spans
                if s.attributes["worker"] == worker_id
            ]
            if ours:
                assert ours == list(range(ours[0], spans_m))


class TestWallClock:
    def test_span_records_epoch_timestamp(self):
        import time

        before = time.time()
        tracer = make_tracer()
        with tracer.span("stamped"):
            pass
        after = time.time()
        (span,) = tracer.recorder.spans()
        assert before <= span.start_unix <= after
        assert span.to_dict()["start_unix"] == span.start_unix

    def test_renderer_shows_wall_clock_stamp(self):
        tracer = make_tracer()
        with tracer.span("stamped"):
            pass
        text = render_span_tree(build_span_trees(tracer.recorder.spans()))
        import re

        assert re.search(r"@\d{2}:\d{2}:\d{2}\.\d{3}", text)

    def test_renderer_omits_stamp_for_unstamped_spans(self):
        spans = [Span(span_id=1, parent_id=None, name="legacy", start_ns=0)]
        text = render_span_tree(build_span_trees(spans))
        assert "@" not in text


class TestSpanTrees:
    def test_build_and_render(self):
        tracer = make_tracer()
        with tracer.span("root"):
            with tracer.span("first"):
                pass
            with tracer.span("second"):
                pass
        roots = build_span_trees(tracer.recorder.spans())
        assert len(roots) == 1
        assert roots[0].name == "root"
        assert roots[0].child_names() == ["first", "second"]  # start order
        text = render_span_tree(roots)
        assert text.splitlines()[0].startswith("root (")
        assert "  first (" in text

    def test_orphaned_spans_become_roots(self):
        spans = [
            Span(span_id=2, parent_id=99, name="orphan", start_ns=10),
            Span(span_id=3, parent_id=None, name="root", start_ns=5),
        ]
        roots = build_span_trees(spans)
        assert [r.name for r in roots] == ["root", "orphan"]

    def test_find_is_depth_first(self):
        tracer = make_tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("target"):
                    pass
        (root,) = build_span_trees(tracer.recorder.spans())
        assert root.find("target").span.parent_id is not None
        assert root.find("missing") is None

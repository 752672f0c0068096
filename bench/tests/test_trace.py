"""Span self-time arithmetic, wrappers, and install/uninstall."""

import itertools
import types

import pytest

from bench import trace


def span(name, start, end, parent=-1, op=None):
    return [name, start, end, parent, op]


def test_self_time_subtracts_nested_children_once():
    spans = [
        span("a", 0.0, 10.0),            # 0: children cover 2..5 and 6..9
        span("b", 2.0, 5.0, parent=0),   # 1: child covers 3..4
        span("c", 3.0, 4.0, parent=1),   # 2
        span("d", 6.0, 9.0, parent=0),   # 3
    ]
    assert trace.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0])


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [
        span("parent", 0.0, 10.0),
        span("x", 1.0, 6.0, parent=0),
        span("y", 4.0, 8.0, parent=0),    # overlaps x on 4..6
        span("z", 9.0, 12.0, parent=0),   # runs past the parent's end
    ]
    # covered: 1..8 (7) + 9..10 (1) = 8
    assert trace.self_times(spans)[0] == pytest.approx(2.0)


def test_unfinished_spans_count_for_nothing():
    spans = [span("parent", 0.0, 4.0), span("open", 1.0, None, parent=0)]
    assert trace.self_times(spans) == pytest.approx([4.0, 0.0])
    assert trace.summarize([("t", spans)]) == {"parent": {"calls": 1, "self_s": 4.0}}


def test_coverage_is_the_share_of_op_time_inside_boundary_spans():
    spans = [
        span(trace.OP_SPAN, 0.0, 10.0, op=0),
        span("sql.execute", 1.0, 9.0, parent=0, op=0),
    ]
    assert trace.coverage([("t", spans)]) == pytest.approx(0.8)
    assert trace.coverage([]) == 0.0


def test_wrappers_nest_by_thread_and_carry_the_operation_id():
    ticks = itertools.count()
    tracer = trace.Tracer(clock=lambda: float(next(ticks)))

    inner = tracer.wrap("inner", lambda: "done")

    def outer_fn():
        return inner()

    outer = tracer.wrap("outer", outer_fn)
    handle = tracer.begin(trace.OP_SPAN, op=7)
    assert outer() == "done"
    tracer.end(handle)
    (_thread, spans), = tracer.threads()
    assert [s[0] for s in spans] == [trace.OP_SPAN, "outer", "inner"]
    assert [s[3] for s in spans] == [-1, 0, 1]          # parents
    assert {s[4] for s in spans} == {7}                 # one operation id
    assert trace.self_times(spans) == pytest.approx([2.0, 2.0, 1.0])


def test_generator_boundaries_span_iteration_and_count_items():
    ticks = itertools.count()
    tracer = trace.Tracer(clock=lambda: float(next(ticks)))

    def scan(n):
        yield from range(n)

    wrapped = tracer.wrap("engine.scan", scan)
    iterator = wrapped(3)
    assert tracer.threads() == []          # nothing recorded until iterated
    assert list(iterator) == [0, 1, 2]
    assert tracer.yielded["engine.scan"] == 3
    (_thread, spans), = tracer.threads()
    assert spans[0][0] == "engine.scan" and spans[0][2] is not None


def test_install_patches_functions_methods_and_classmethods_then_restores():
    module = types.ModuleType("bench_trace_fixture")

    class Thing:
        def method(self):
            return "m"

        @classmethod
        def make(cls):
            return cls()

    module.Thing = Thing
    module.helper = lambda: "h"
    import sys
    sys.modules[module.__name__] = module
    try:
        tracer = trace.Tracer()
        original = (Thing.__dict__["method"], Thing.__dict__["make"], module.helper)
        tracer.install([
            ("layer.method", "bench_trace_fixture:Thing.method"),
            ("layer.make", "bench_trace_fixture:Thing.make"),
            ("layer.helper", "bench_trace_fixture:helper"),
            ("layer.helper", "bench_trace_fixture:helper"),  # second patch is skipped
        ])
        assert isinstance(Thing.make(), Thing)
        assert Thing().method() == "m" and module.helper() == "h"
        names = [s[0] for _t, spans in tracer.threads() for s in spans]
        assert sorted(names) == ["layer.helper", "layer.make", "layer.method"]
        tracer.uninstall()
        assert (Thing.__dict__["method"], Thing.__dict__["make"], module.helper) == original
    finally:
        del sys.modules[module.__name__]


def test_every_boundary_target_resolves_in_this_repository():
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert len(trace.BOUNDARY_NAMES) >= 25
    finally:
        tracer.uninstall()

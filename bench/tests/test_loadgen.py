"""The open loop times from due time and reports the generator's own lag."""

import pytest

from bench import loadgen


TICK = 1e-5
NEAR = dict(abs=2e-4)


class FakeTime:
    """A clock that moves when something sleeps, takes time, or reads it.

    Reading costs one tick, so the open loop's final spin-wait terminates.
    """

    def __init__(self) -> None:
        self.now = 100.0

    def clock(self) -> float:
        self.now += TICK
        return self.now

    def sleep(self, seconds: float) -> None:
        assert seconds >= 0
        self.now += seconds


def test_open_loop_measures_latency_from_due_time_not_send_time():
    fake = FakeTime()
    service = iter([0.001, 0.250, 0.001, 0.001])  # the second op stalls 250 ms

    def do(_op) -> None:
        fake.now += next(service)

    latencies, lags = loadgen.open_loop(range(4), rate=10.0, do=do,
                                        clock=fake.clock, sleep=fake.sleep)
    # ops are due at +0, +100, +200, +300 ms; op 1 runs 100..350 ms, so op 2
    # (due at 200) cannot start before 350 and its latency includes the wait.
    assert latencies[0] == pytest.approx(0.001, **NEAR)
    assert latencies[1] == pytest.approx(0.250, **NEAR)
    assert latencies[2] == pytest.approx(0.151, **NEAR)   # 350 + 1 - 200
    assert latencies[3] == pytest.approx(0.052, **NEAR)   # 351 + 1 - 300
    # The stall was the system's, not the generator's: no lag anywhere.
    assert lags == pytest.approx([0.0, 0.0, 0.0, 0.0], **NEAR)


def test_open_loop_reports_how_late_the_generator_itself_ran():
    fake = FakeTime()

    def oversleep(seconds: float) -> None:
        fake.now += seconds + 0.004  # every sleep wakes 4 ms late

    def do(_op) -> None:
        fake.now += 0.001

    latencies, lags = loadgen.open_loop(range(3), rate=10.0, do=do,
                                        clock=fake.clock, sleep=oversleep)
    # Op 0 is due immediately (no sleep); later ops sleep, wake
    # 4 ms - SPIN late, and that lateness is charged to latency AND shown as lag.
    late = 0.004 - loadgen.SPIN_SECONDS
    assert lags[0] == pytest.approx(0.0, **NEAR)
    assert lags[1:] == pytest.approx([late, late], **NEAR)
    assert latencies[1:] == pytest.approx([0.001 + late, 0.001 + late], **NEAR)


def test_closed_loop_times_each_operation_and_probes_only_between_them():
    fake = FakeTime()
    probed = []

    class Probes:
        def begin_loop(self) -> None:
            probed.append(("begin", fake.now))

        def between_operations(self) -> None:
            probed.append(("between", fake.now))
            fake.now += 0.003  # a probe takes time, but no operation pays for it

    def do(_op) -> None:
        fake.now += 0.010

    spans = loadgen.closed_loop(range(10), do, Probes(), clock=fake.clock)
    assert [end - start for start, end in spans] == pytest.approx([0.010] * 10, **NEAR)
    assert [kind for kind, _ in probed] == ["begin"] + ["between"] * 10
    for (_, probe_at), (_start, end) in zip(probed[1:], spans):
        assert probe_at >= end

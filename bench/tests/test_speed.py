"""Times are restated at reference speed from the probes near them."""

import time

import pytest

from bench import speed as speed_module
from bench.speed import REFERENCE_PROBE_S, Speed


class FakeMachine:
    """A clock plus probe work whose duration the test sets."""

    def __init__(self) -> None:
        self.now = 50.0
        self.probe_takes = REFERENCE_PROBE_S

    def clock(self) -> float:
        return self.now

    def work(self) -> None:
        self.now += self.probe_takes


def test_speed_is_reference_over_probe_time():
    machine = FakeMachine()
    speed = Speed(machine.clock, machine.work)
    speed.probe(10)
    assert speed.speed(machine.now - 0.001, machine.now) == pytest.approx(1.0)
    machine.now += 1.0            # far from the fast probes
    machine.probe_takes = 2 * REFERENCE_PROBE_S
    speed.probe(10)
    assert speed.speed(machine.now - 0.001, machine.now) == pytest.approx(0.5)
    assert 0.5 < speed.overall() < 1.0


def test_a_span_is_restated_with_the_probes_near_it_only():
    machine = FakeMachine()
    speed = Speed(machine.clock, machine.work)
    spans = []
    for slowdown in (1.0, 1.6):               # one second fast, then one second slow
        machine.probe_takes = slowdown * REFERENCE_PROBE_S
        for _ in range(100):
            speed.probe()
            start = machine.now
            machine.now += 0.010 * slowdown   # the same work takes longer when slow
            spans.append((start, machine.now))
    restated = speed.at_reference(spans)
    # Away from the flip the same work reads the same at either speed.
    assert restated[20] == pytest.approx(0.010, rel=1e-6)
    assert restated[180] == pytest.approx(0.010, rel=1e-6)


def test_speed_is_the_mean_of_speeds_not_of_probe_times():
    machine = FakeMachine()
    speed = Speed(machine.clock, machine.work)
    for slowdown in (1.0, 1.0, 1.0, 4.0, 4.0, 4.0):
        machine.probe_takes = slowdown * REFERENCE_PROBE_S
        speed.probe()
    # Half the time at full speed and half at a quarter: 0.625 of the work.
    assert speed.overall() == pytest.approx((3 * 1.0 + 3 * 0.25) / 6)


def test_an_interval_with_no_probe_near_borrows_the_nearest():
    machine = FakeMachine()
    speed = Speed(machine.clock, machine.work)
    speed.probe(3)
    machine.now += 10.0
    assert speed.speed(machine.now, machine.now + 0.001) == pytest.approx(1.0)
    with pytest.raises(RuntimeError):
        Speed(machine.clock, machine.work).speed(0.0, 1.0)


def test_loop_probing_keeps_to_its_share_of_the_time():
    machine = FakeMachine()
    speed = Speed(machine.clock, machine.work)
    speed.begin_loop()
    started = machine.now
    for _ in range(200):
        machine.now += 0.002
        speed.between_operations()
    share = speed.loop_probe_s / (machine.now - started)
    assert share == pytest.approx(speed_module.PROBE_SHARE, abs=0.01)


def test_timed_takes_the_helper_threads_probes_back_out():
    speed = Speed()
    timing = speed.timed(lambda: time.sleep(0.15))
    # Sleeping leaves the interpreter to the helper, which probes throughout.
    assert speed.probes > 2 * speed_module.BRACKET_PROBES + 3
    assert timing.raw_s <= 0.2 and timing.speed > 0 and timing.s == timing.raw_s * timing.speed

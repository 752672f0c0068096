"""Load generation: closed loops, open loops timed from due time, CPU share.

A closed loop sends the next operation when the previous one returns, so a
slow system receives less load.  An open loop sends on a fixed schedule and
times every operation **from when it was due**, so a stall is charged to
every operation it delayed (no coordinated omission).  The generator's own
lateness — how long after it *could* have sent an operation it actually did
— is reported separately as lag: large lag means the numbers measure the
generator, not the system.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, List, Optional, Tuple

from bench.speed import Speed

Clock = Callable[[], float]
Span = Tuple[float, float]

#: How long before an operation is due the open loop stops sleeping.
SPIN_SECONDS = 0.0005


def closed_loop(
    ops: Iterable[Any],
    do: Callable[[Any], None],
    speed: Optional[Speed] = None,
    clock: Clock = time.perf_counter,
) -> List[Span]:
    """Run ``ops`` back to back; return each operation's (start, end).

    With ``speed`` the loop probes the machine's speed between operations
    (never inside one), so the spans can be restated at reference speed.
    """
    spans: List[Span] = []
    if speed is not None:
        speed.begin_loop()
    for op in ops:
        started = clock()
        do(op)
        spans.append((started, clock()))
        if speed is not None:
            speed.between_operations()
    return spans


def open_loop(
    ops: Iterable[Any],
    rate: float,
    do: Callable[[Any], None],
    clock: Clock = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> Tuple[List[float], List[float]]:
    """Send ``ops`` at ``rate`` per second; return (latencies, lags).

    Operation *i* is due at ``t0 + i / rate``.  Its latency runs from that
    due time to completion.  Its lag runs from the moment it could first
    have been sent — the later of its due time and the previous completion
    on this connection — to the moment the generator actually sent it.
    """
    interval = 1.0 / rate
    latencies: List[float] = []
    lags: List[float] = []
    origin = clock()
    previous_done = origin
    for index, op in enumerate(ops):
        due = origin + index * interval
        # Sleep most of the wait, then spin: a bare sleep wakes up to a few
        # milliseconds late on a busy two-core box, and that lateness
        # would be charged to the system as latency from due time.
        now = clock()
        if due - now > SPIN_SECONDS:
            sleep(due - now - SPIN_SECONDS)
        while clock() < due:
            pass
        sent = clock()
        do(op)
        done = clock()
        latencies.append(done - due)
        lags.append(max(0.0, sent - max(due, previous_done)))
        previous_done = done
    return latencies, lags


class CpuMeter:
    """Share of one core this process used between ``start`` and ``stop``."""

    def __init__(self) -> None:
        self._wall = 0.0
        self._cpu = 0.0
        self._started: Optional[Tuple[float, float]] = None

    def start(self) -> None:
        self._started = (time.perf_counter(), time.process_time())

    def stop(self) -> None:
        assert self._started is not None, "CpuMeter.stop() before start()"
        wall, cpu = self._started
        self._wall += time.perf_counter() - wall
        self._cpu += time.process_time() - cpu
        self._started = None

    @property
    def cpu_seconds(self) -> float:
        return self._cpu

    @property
    def share(self) -> float:
        return self._cpu / self._wall if self._wall else 0.0

"""How fast the machine is running, measured while the benchmark runs.

The sandbox is a few virtual cores of a shared host.  Each core flips, every
second or so and independently of the other, between an undisturbed state
and one where the same code takes about 1.7 times as long (a neighbour on
the sibling hardware thread), and stays mostly slow for minutes at a time.
A wall-clock time therefore says as much about the neighbour as about the
program, and no amount of repeating inside one run averages that away.

So the benchmark keeps everything it starts on ONE core (`pin_to_one_cpu`)
and keeps measuring that core's speed with a small fixed **probe**: a few
hundred microseconds of the kind of work the program does (JSON, SHA-256,
struct packing, dict/list/str handling) that no change to ``src/`` can
alter.  Probes run between the operations of a loop and, on a helper thread,
during operations too long to run them between.  Every measured time is
then restated **at reference speed**: multiplied by the share of reference
speed the core delivered around that time (`REFERENCE_PROBE_S` over the
probe's time).  The raw times and the speed are reported beside the
restated ones.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import struct
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

#: The probe's time on the box the benchmark was written on, undisturbed.
#: Only a unit: it fixes what "reference speed" means, once and for all.
REFERENCE_PROBE_S = 0.000275

#: Probes this close to an interval count towards its speed.
PAD_S = 0.05
#: An interval with fewer probes than this near it borrows the nearest ones.
MIN_PROBES = 5
#: Loops spend this share of their time probing.
PROBE_SHARE = 0.06
#: Probes before and after a `timed` piece of work.
BRACKET_PROBES = 12
#: The helper thread sleeps this long between probes.
SAMPLER_SLEEP_S = 0.008

_ROW = {"id": 12345, "owner": "owner-00012345", "balance": 77, "note": "ab" * 100}
_PACK = struct.Struct("<qI").pack


def probe_work(rounds: int = 35) -> int:
    """The fixed work a probe times.  Touches nothing of the program."""
    seen = {}
    total = 0
    for i in range(rounds):
        text = json.dumps(_ROW)
        row = json.loads(text)
        digest = hashlib.sha256(_PACK(i, len(text)) + text.encode("utf-8")).digest()
        seen[digest[:4]] = (i, row["id"] + i)
        total += sum(value[0] for value in list(seen.values())[-8:])
        total += len(",".join([str(i), str(total), str(row["balance"])]))
    return total


def pin_to_one_cpu() -> Optional[int]:
    """Keep this process, and every process it starts, on one core.

    The probe can only speak for the core it runs on.  Returns the core, or
    None where the platform cannot pin.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:  # a sandbox may forbid it; the run is then merely noisier
        return None
    return cpu


@dataclass
class Timing:
    """One timed piece of work."""

    raw_s: float
    #: Share of reference speed the core delivered meanwhile (1.0 = reference).
    speed: float

    @property
    def s(self) -> float:
        """Seconds at reference speed."""
        return self.raw_s * self.speed


class Speed:
    """Records probes; restates measured intervals at reference speed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 work: Callable[[], object] = probe_work) -> None:
        self._clock = clock
        self._work = work
        self._ends: List[float] = []      # when each probe ended, ascending
        self._took: List[float] = []      # how long it took
        self._cumulative: Optional[List[float]] = None  # running sum of REFERENCE / took
        self._loop_started: Optional[float] = None
        self._loop_probe_s = 0.0

    # -- probing -------------------------------------------------------

    def probe(self, count: int = 1) -> None:
        clock, work = self._clock, self._work
        for _ in range(count):
            started = clock()
            work()
            ended = clock()
            self._ends.append(ended)
            self._took.append(ended - started)
        self._cumulative = None

    def begin_loop(self) -> None:
        """Start of a loop that will call `between_operations`."""
        self.probe(BRACKET_PROBES)
        self._loop_started = self._clock()
        self._loop_probe_s = 0.0

    def between_operations(self) -> None:
        """Probe until probing has had `PROBE_SHARE` of the loop's time."""
        assert self._loop_started is not None, "between_operations() before begin_loop()"
        clock = self._clock
        while self._loop_probe_s < PROBE_SHARE * (clock() - self._loop_started):
            before = len(self._took)
            self.probe()
            self._loop_probe_s += self._took[before]

    @contextmanager
    def sampling(self) -> Iterator[None]:
        """Probe from a helper thread while the caller's long operation runs.

        The helper shares the interpreter lock (and the core) with the
        operation, so a probe interrupts it rather than running beside it;
        `timed` takes the probes' time back out.
        """
        stop = threading.Event()

        def sample() -> None:
            while not stop.wait(SAMPLER_SLEEP_S):
                self.probe()

        helper = threading.Thread(target=sample, name="bench-speed", daemon=True)
        helper.start()
        try:
            yield
        finally:
            stop.set()
            helper.join()

    def timed(self, work: Callable[[], object]) -> Timing:
        """Run ``work`` once between two bursts of probes, sampling meanwhile."""
        self.probe(BRACKET_PROBES)
        first = len(self._took)
        with self.sampling():
            started = self._clock()
            work()
            ended = self._clock()
        inside = sum(
            took for end, took in zip(self._ends[first:], self._took[first:])
            if started <= end - took and end <= ended
        )
        self.probe(BRACKET_PROBES)
        return Timing(ended - started - inside, self.speed(started, ended))

    # -- restating -----------------------------------------------------

    def speed(self, start: float, end: float) -> float:
        """Mean share of reference speed over the probes near [start, end].

        The mean of speeds (not of probe times): work done in an interval
        is the time-average of the speed, and the probes sample time evenly.
        """
        if not self._ends:
            raise RuntimeError("no probe was ever run")
        if self._cumulative is None:
            running, total = [0.0], 0.0
            for took in self._took:
                total += REFERENCE_PROBE_S / took
                running.append(total)
            self._cumulative = running
        low = bisect.bisect_left(self._ends, start - PAD_S)
        high = bisect.bisect_right(self._ends, end + PAD_S)
        if high - low < MIN_PROBES:
            middle = bisect.bisect_left(self._ends, (start + end) / 2.0)
            low = max(0, min(low, middle - MIN_PROBES // 2 - 1))
            high = min(len(self._ends), max(high, low + MIN_PROBES))
            low = max(0, min(low, high - MIN_PROBES))
        return (self._cumulative[high] - self._cumulative[low]) / (high - low)

    def at_reference(self, spans: Sequence[Tuple[float, float]]) -> List[float]:
        """Each (start, end) span's duration in seconds at reference speed."""
        return [(end - start) * self.speed(start, end) for start, end in spans]

    def overall(self) -> float:
        """Mean share of reference speed over every probe of the run."""
        return self.speed(self._ends[0], self._ends[-1])

    @property
    def probes(self) -> int:
        return len(self._took)

    @property
    def loop_probe_s(self) -> float:
        """Raw seconds the current (or last) loop spent probing."""
        return self._loop_probe_s

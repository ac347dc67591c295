"""Timing at a reference CPU speed.

A shared virtual machine can change CPU speed by up to 1.9x within seconds
(measured on a 2-vCPU Intel Xeon VM), which would swamp any change in the
program. So while a timed call runs, a fixed interpreter workload (the
probe) is timed over and over: ten times before the call, every 20 ms during
it (from a SIGALRM handler, which runs between bytecodes in the main
thread), and ten times after. The call's wall time, less the time spent
probing, is scaled by the mean of REF_S / probe time, which gives its
duration in seconds at the speed where the probe takes REF_S.

The probe runs inside the program's process, so a reading must not depend
on the program's state. Each reading is the fastest of three back-to-back
probes, so the last two run with the probe's code and data in cache however
the program left it, and the collector is off while they run, so a reading
never includes a collection of the program's objects. ``calibrate.py``
checks the result: a known amount of added work must raise a scaled time by
that amount.
"""

from __future__ import annotations

import gc
import signal
import time
from dataclasses import dataclass

# the probe's time on an idle 2-vCPU Intel Xeon VM, so scaled and wall
# times agree there
REF_S = 1.4e-4
INTERVAL_S = 0.02
EDGE_SAMPLES = 10
PROBES_PER_READING = 3


def _probe() -> float:
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(1000):
        table[i % 97] = table.get(i % 97, 0) + i
    return time.perf_counter() - start


@dataclass(frozen=True)
class Timing:
    """One timed call: its wall time without probing, and the speed factor."""

    wall: float
    factor: float

    @property
    def seconds(self) -> float:
        """The call's duration at reference speed."""
        return self.wall * self.factor


class Sampler:
    def __init__(self) -> None:
        self.readings: list[float] = []
        self.spent = 0.0

    def sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.readings.append(min(_probe() for _ in range(PROBES_PER_READING)))
        finally:
            if collecting:
                gc.enable()
        self.spent += time.perf_counter() - start


def timed(call):
    """Run call(); return its result and its Timing."""
    sampler = Sampler()
    for _ in range(EDGE_SAMPLES):
        sampler.sample()
    previous = signal.signal(signal.SIGALRM, sampler.sample)
    sampler.spent = 0.0
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    start = time.perf_counter()
    try:
        result = call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        wall = time.perf_counter() - start - sampler.spent
        signal.signal(signal.SIGALRM, previous)
    for _ in range(EDGE_SAMPLES):
        sampler.sample()
    factor = sum(REF_S / r for r in sampler.readings) / len(sampler.readings)
    return result, Timing(wall, factor)

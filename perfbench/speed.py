"""Machine speed, measured alongside the benchmark.

The benchmark shares its machine, whose speed drifts by tens of percent
over seconds to minutes.  Every timed run therefore also times
reference_loop, a fixed slice of pure-Python work that does not touch
leonard, and reports its times scaled to the speed at which that loop takes
REFERENCE_LOOP_S:

    scaled = measured * REFERENCE_LOOP_S / (loop time measured next to it)

The unscaled times are printed too.
"""

from __future__ import annotations

import statistics
import time

from workloads import Watch

# Time of one reference_loop() on an idle 2-vCPU Intel Xeon VM, Python 3.11.
REFERENCE_LOOP_S = 0.0042


def reference_loop() -> int:
    """A fixed slice of pure-Python work that does not touch leonard."""
    acc, t = 0, (1, 2, 3)
    for i in range(20_000):
        t = (t[1], t[2], (t[0] * 31 + i) % 1009)
        acc += t[2]
    return acc


def time_reference_loop() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class SpeedMeter(Watch):
    """Samples the machine's speed between operations and rescales each
    operation to the reference speed.

    After an operation, once the operations since the last sample took
    more than 1/share of the time spent sampling, it times reference_loop
    until sampling is back at `share`.  Each operation of that stretch is
    then scaled by REFERENCE_LOOP_S / (mean loop time), and so is the wall
    time of the stretch.
    """

    def __init__(self, share: float = 0.1):
        self.share = share
        self.op_s = self.sample_s = self.scaled_wall_s = 0.0
        self.scaled: list[float] = []
        self.pending: list[float] = []
        self.mark = time.perf_counter()

    def op_done(self, seconds: float) -> None:
        self.op_s += seconds
        self.pending.append(seconds)
        if self.sample_s < self.share * self.op_s:
            self.sample()

    def sample(self) -> None:
        wall = time.perf_counter() - self.mark
        loops = []
        while not loops or self.sample_s < self.share * self.op_s:
            loops.append(time_reference_loop())
            self.sample_s += loops[-1]
        scale = REFERENCE_LOOP_S / statistics.mean(loops)
        self.scaled.extend(s * scale for s in self.pending)
        self.pending.clear()
        self.scaled_wall_s += wall * scale
        self.mark = time.perf_counter()


def scaled(seconds: float, loops: int = 5) -> float:
    """seconds, measured just before, scaled by `loops` reference loops."""
    mean = statistics.mean(time_reference_loop() for _ in range(loops))
    return seconds * REFERENCE_LOOP_S / mean

"""A machine-speed probe, timed alongside the program.

The benchmark runs on shared VMs whose speed swings by a third over tens
of seconds (other tenants on the same cores), which moves whole-study wall
times by 25-40% from run to run and hides any change in the program.  The
probe is a fixed ~1.5 ms kernel of pure-Python arithmetic, dict updates and
small numpy solves -- the same mix of interpreter and small-array work the
program does, and none of the program's own code.  Timed right next to the
program's work, it tells how fast the machine was running at that moment;
the work's wall time, scaled by ``PROBE_REFERENCE_S / probe time``, is what
it would have taken at the speed at which the probe takes
``PROBE_REFERENCE_S``.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, List, Tuple

import numpy as np

from repro.engine import TelemetrySink

#: The probe's time on an undisturbed 2-vCPU VM (Xeon, Python 3.11.7,
#: numpy 2.4.6): the speed every time is rescaled to.
PROBE_REFERENCE_S = 1.3e-3
#: Samples taken back to back before and after a timed piece of work.
BURST = 3
#: Least time between the samples a :class:`SpeedSink` takes.
INTERVAL_S = 0.2

_MATRIX = np.eye(6) + 0.05
_VECTOR = np.ones(6)


def probe_kernel() -> int:
    """The fixed work the probe times."""
    total = 0
    for i in range(6000):
        total += (i * 31) % 7
    counts: dict = {}
    for i in range(1500):
        counts[i & 63] = counts.get(i & 63, 0) + 1
    for _ in range(60):
        total += int(np.linalg.solve(_MATRIX, _VECTOR).sum() > 0)
        total += int(np.dot(_MATRIX, _VECTOR).sum() > 0)
    return total + len(counts)


class SpeedMeter:
    """Probe samples taken during one run, in the order taken.

    A sample's speed is its CPU time (``time.thread_time``): that takes in
    the other tenants slowing the core down, but not waiting for a CPU that
    the program's own pool workers hold.  Its wall time is what it adds to
    a timed piece of work it runs inside of."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.walls: List[float] = []
        self._last = time.perf_counter()

    def sample(self) -> None:
        start, cpu = time.perf_counter(), time.thread_time()
        probe_kernel()
        self.samples.append(time.thread_time() - cpu)
        self._last = time.perf_counter()
        self.walls.append(self._last - start)

    def maybe_sample(self) -> None:
        """Sample when ``INTERVAL_S`` has passed since the last sample."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def burst(self) -> None:
        for _ in range(BURST):
            self.sample()

    def at_reference(self, wall_s: float, since: int) -> float:
        """``wall_s`` rescaled to the reference speed by the samples from
        index ``since`` on."""
        return wall_s * PROBE_REFERENCE_S / \
            statistics.mean(self.samples[since:])

    def timed(self, fn: Callable[[], Any]) -> Tuple[Any, float, float]:
        """Run ``fn`` between two bursts of samples; its result, its wall
        time less the samples taken inside it (by a :class:`SpeedSink`),
        and that time rescaled to the reference speed by every sample from
        the first burst to the second."""
        first = len(self.samples)
        self.burst()
        inside = len(self.samples)
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start - sum(self.walls[inside:])
        self.burst()
        return result, wall, self.at_reference(wall, first)


class SpeedSink(TelemetrySink):
    """Samples the probe between engine tasks, so a long study is rescaled
    by the machine's speed all along it, not only at its ends."""

    def __init__(self, meter: SpeedMeter) -> None:
        self.meter = meter

    def handle(self, event) -> None:
        if event.type == "task_completed":
            self.meter.maybe_sample()

"""Item latencies scaled to a fixed reference machine speed.

On the shared 2-CPU virtual machine the benchmark was defined on, the
speed of the CPUs drifts by up to 40% over a few minutes with the load
of other tenants of its host, and every wall time drifts with it: ten
runs of the same code spread more than the benchmark's bounds. So each
item is timed as usual, and a fixed pure-Python loop, which no change to
tribell can speed up or slow down, measures the machine's speed. The
item's seconds are scaled by the loop's reference time over its measured
time: what the item would take at the speed at which the loop takes
its reference time. Scaled seconds are the benchmark's time metrics; the
raw seconds and loop times go into the full record.

There are two ways to measure the speed:

- ``EDGES`` runs the loop a few times right before and right after the
  item and takes the mean. It follows single-threaded code: on that
  machine, it cut the spread (IQR over median) of one solve repeated
  for four minutes from 0.23 to 0.07, and that of ``certify``'s
  ``item_p50_ms`` in four sets of ten runs from 0.20-0.31 to 0.07-0.12.
- ``SAMPLED`` runs a short loop on a thread of its own every
  ``SAMPLE_INTERVAL_S`` while the item runs and takes the median. The
  ``tables`` command runs two worker threads, and its speed changes
  within a pass: over 25 passes of the same report, the edge loops did
  not follow it, but the sampled loop did (correlation 0.87 with the
  pass's seconds), and scaling by it cut the passes' coefficient of
  variation from 0.057 to 0.030. The sampler holds the interpreter lock
  for about 1.5 ms of every 100 ms. On ``certify``'s single-threaded
  solves it took that lock from the solver: five runs were slower
  (``wall_s`` median 55 s against 52 s) and spread more on
  ``item_p50_ms`` (0.15 against 0.07-0.12) than with ``EDGES``.
"""

from __future__ import annotations

import contextlib
import statistics
import threading
import time

EDGES = "edges"
SAMPLED = "sampled"

LOOP_ITERATIONS = 250_000
LOOPS_EACH_SIDE = 5
# About the loop's median on the machine the benchmark was defined on, so
# that scaled seconds read close to raw seconds there.
REFERENCE_LOOP_S = 0.02

SAMPLE_ITERATIONS = 20_000
SAMPLE_INTERVAL_S = 0.1
REFERENCE_SAMPLE_S = REFERENCE_LOOP_S * SAMPLE_ITERATIONS / LOOP_ITERATIONS


def speed_loop(iterations: int = LOOP_ITERATIONS) -> float:
    """Seconds of a fixed pure-Python loop: the machine's current speed."""
    started = time.perf_counter()
    total = 0
    for k in range(iterations):
        total += k * k
    return time.perf_counter() - started


class _Sampler:
    """Times a short speed loop every ``SAMPLE_INTERVAL_S`` on its own thread."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-sampler", daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self.samples.append(speed_loop(SAMPLE_ITERATIONS))

    def stop(self) -> list[float]:
        """Stops the thread and returns the samples, at least one."""
        self._stop.set()
        self._thread.join()
        return self.samples or [speed_loop(SAMPLE_ITERATIONS)]


class Clock:
    """Times items, scaled by ``EDGES`` or ``SAMPLED`` speed loops, or raw
    when ``scaling`` is None."""

    def __init__(self, scaling: str | None = None):
        self.scaling = scaling
        self.items: list[dict] = []

    @contextlib.contextmanager
    def item(self, name: str):
        loops = [speed_loop() for _ in range(LOOPS_EACH_SIDE if self.scaling == EDGES else 0)]
        sampler = _Sampler() if self.scaling == SAMPLED else None
        started = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - started
            if sampler is not None:
                loops = sampler.stop()
                scaled = seconds * REFERENCE_SAMPLE_S / statistics.median(loops)
            elif loops:
                loops += [speed_loop() for _ in range(LOOPS_EACH_SIDE)]
                scaled = seconds * REFERENCE_LOOP_S / statistics.fmean(loops)
            else:
                scaled = seconds
            self.items.append({"item": name, "raw_s": seconds, "loop_s": loops, "seconds": scaled})

    def seconds(self, start: int = 0) -> list[float]:
        """Scaled seconds of the items from index ``start`` on."""
        return [item["seconds"] for item in self.items[start:]]

"""Host-speed reference for the benchmark's bounded timings.

On the shared 2-core host this benchmark was built on, the speed of
Python-heavy code switches between levels up to 1.7x apart, for seconds to
minutes at a time.  Process CPU time follows wall time through those switches
(the kernel counts no steal time), so neither CPU time nor a longer run
removes them: two ten-seed sets of the same commit differed by up to 30% in
median wall time.

``Reference`` times a fixed loop that does not call forexkit: text parsing
in Python, small matrix products and medium vector operations in numpy, the
three kinds of work the workloads do.  The benchmark times the loop right
before and right after each timed phase and, inside a long phase, every
``SAMPLE_EVERY_S`` seconds from a timer signal.  It reports the phase at
reference speed: its wall seconds, less the time the samples took, times
``REFERENCE_S`` over the mean loop time.  A change to forexkit moves the
phase and not the loop, so it shows in the scaled time; a switch of host
speed moves both, and cancels.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
from time import perf_counter

import numpy as np

# The nominal time of one reference loop: a scaled time is what the phase
# would take on a host that runs the loop in exactly this long.
REFERENCE_S = 0.010
SAMPLES = 3  # loops per reference time before and after a phase; median taken
SAMPLE_EVERY_S = 0.25


class Reference:
    def __init__(self, sample_every_s: float = SAMPLE_EVERY_S):
        """``sample_every_s`` 0 turns off sampling inside phases."""
        rng = np.random.default_rng(0)
        rows = rng.random((1600, 6))
        self._lines = [",".join(f"{v:.6f}" for v in row) for row in rows]
        self._inputs = rng.standard_normal((700, 64))
        self._weights = rng.standard_normal((64, 8))
        # Preallocated, so that a sample taken at the program's memory peak
        # does not raise the peak resident memory the benchmark reports.
        self._column = np.empty((700, 1))
        self._block = np.empty((700, 64))
        self._every_s = sample_every_s
        self._samples: list = []
        self._sampled_s = 0.0
        self.checksum = 0.0
        self.loop()  # warm up
        self.mark()

    def loop(self) -> float:
        """Seconds taken by one pass of the fixed work."""
        t0 = perf_counter()
        total = 0.0
        for line in self._lines:
            total += sum([float(f) for f in line.split(",")])
        a, w = self._inputs, self._weights
        for i in range(320):
            total += float(np.tanh(a[i:i + 64] @ w).sum())
        for k in range(48):
            np.subtract(a[:, k:k + 1], a[:, :1], out=self._column)
            np.maximum(self._column, 0.0, out=self._column)
            np.multiply(self._column, a, out=self._block)
            total += float(self._block.sum())
        took = perf_counter() - t0
        self.checksum = total
        return took

    def time(self) -> float:
        """Median seconds of ``SAMPLES`` reference loops."""
        return statistics.median(self.loop() for _ in range(SAMPLES))

    def mark(self) -> None:
        """Take the reference time before a phase."""
        self._start(self.time())

    def _start(self, before: float) -> None:
        self._before = before
        self._samples.clear()
        self._sampled_s = 0.0

    @contextlib.contextmanager
    def sampling(self):
        """Run one reference loop every ``sample_every_s`` seconds of wall
        time inside the block, from a SIGALRM handler."""
        if not self._every_s:
            yield
            return

        def sample(signum, frame):
            t0 = perf_counter()
            self._samples.append(self.loop())
            self._sampled_s += perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, self._every_s, self._every_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, wall_s: float) -> float:
        """Seconds at reference speed of the phase that ran since the last
        ``mark`` or ``scale`` call and took ``wall_s``, sampling included.
        The reference time taken now is the next phase's ``before``."""
        after = self.time()
        mean = statistics.fmean([self._before, *self._samples, after])
        scaled = (wall_s - self._sampled_s) * REFERENCE_S / mean
        self._start(after)
        return scaled

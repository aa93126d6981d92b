"""Machine-speed probe for the plain passes.

Single-pass times on a shared host move by up to about 1.8x over minutes, as
neighbours load the machine. So every plain pass also measures the machine's
speed while it runs: every 20 ms a SIGALRM handler times a fixed pure-integer
reference loop. The loop uses no capelli code and no Fraction, so a change to
the library cannot change it. Timings are then reported in reference-speed
seconds: raw seconds scaled by REF_S over the median loop time of the pass.
The time spent in the probe is taken out of the pass time (about 0.5%).
"""

import signal
import statistics
import time

REF_S = 1e-4  # nominal time of one reference loop: defines reference speed
INTERVAL_S = 0.02


def _reference_loop():
    a, b, acc = 1, 1, 0
    for i in range(1, 800):
        a, b = b, (a + b) % 1000003
        acc += (a * i) // (b + 1)
    return acc


class SpeedProbe:
    """Context manager that samples the reference loop while it is open."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        _reference_loop()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def probe_s(self):
        """Median time of one reference loop while the probe was open."""
        return statistics.median(self.samples)

    def busy_s(self):
        """Time spent in the samples taken while the timer ran; the first and
        last are taken outside it."""
        return sum(self.samples[1:-1])

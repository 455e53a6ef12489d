"""Host-speed probe: job times in seconds at a fixed reference speed.

The benchmark's host is a 2-vCPU share of a shared machine.  Its speed for
pure-Python work switches between a fast and a slow state many times a
second, and the share of time spent in each drifts over minutes, so the same
job's wall time moves by 20-35 % between runs of the same code.  The job's
time divided by the host's speed while it ran moves far less.

The probe is a fixed piece of pure-Python exact arithmetic from the
benchmark's own code, never from foltools, so a change to foltools cannot
change it.  While a job runs, a SIGALRM interval timer runs the probe every
INTERVAL_S seconds; one more sample is taken just before and one just after
the job, so even a job shorter than the interval has two.  The job's own
time is its wall time minus the probe time spent inside it; its reference
time is that, scaled by REF_PROBE_S / mean(samples).  The mean, not the
median, because the job's time is the sum over every moment it ran.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

TERMS = 150
INTERVAL_S = 0.025  # a 0.6 ms probe every 25 ms: about 2.5 % of a job's time
# median probe time inside jobs on the machine in NOTES.md; it only fixes the
# unit of the reference seconds, so it stays the same for every later run
REF_PROBE_S = 0.0006


def probe() -> float:
    """Seconds one fixed harmonic sum over Fractions takes now."""
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, TERMS):
        total += Fraction(1, k)
    return time.perf_counter() - start


class Sampled:
    """Context manager that probes the host's speed while its body runs."""

    def __enter__(self) -> "Sampled":
        self.samples = [probe()]
        self.inside = 0.0
        self._running = True
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _tick(self, signum, frame) -> None:
        seconds = probe()
        self.samples.append(seconds)
        if self._running:
            self.inside += seconds

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall = time.perf_counter() - self._start
        self._running = False
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe())
        return False

    @property
    def seconds(self) -> float:
        """Wall time of the body, without the probes that ran inside it."""
        return self.wall - self.inside

    @property
    def ref_seconds(self) -> float:
        """The body's time at the reference speed."""
        return self.seconds * REF_PROBE_S / statistics.fmean(self.samples)

"""Host-normalized timing: times scaled by a probe of the host's current speed.

The shared host this benchmark was built on switches between a fast state and
one about 1.6 times slower, many times a minute, and the share of slow time
drifts from run to run; raw times of the same code spread by a quarter
between runs.  So every timed interval is also measured in units of a fixed
probe: one subset-sum table at n=10 from :mod:`oracle`, exact integer
arithmetic that never calls the library.  The probe is timed just before and
just after each interval, and, from a ``SIGALRM`` handler, every
``PERIOD_S`` of wall time while the interval runs, so a long interval is
sampled along its length.  The interval, less the time its own samples took,
is scaled by ``REF_PROBE_S`` over the mean of the probe times around and
inside it.  It then reads as on a host where the probe takes ``REF_PROBE_S``:
a library change moves the interval and not the probe, so it shows in full.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

import oracle

PROBE_R = tuple(1 + Fraction(37 * i, 1000) for i in range(10))
REF_PROBE_S = 0.0004  # the probe's time on the reference host in its fast state
PERIOD_S = 0.05


class HostClock:
    """Probe samples of one process; :meth:`start` before timing, :meth:`stop` after."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._busy = False

    def probe(self):
        if self._busy:  # a tick that lands inside a probe is dropped
            return
        self._busy = True
        t0 = perf_counter()
        oracle.SubsetTable(PROBE_R).signs()
        self.durations.append(perf_counter() - t0)
        self.starts.append(t0)
        self._busy = False

    def _tick(self, signum, frame):
        self.probe()

    def start(self):
        for _ in range(5):  # the probe's own first calls are slow
            self.probe()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, call):
        """Run call(); returns (host-normalized s, raw s, output, exception name or None).

        raw is the wall time of the call less the probes that ran inside it.
        """
        first = len(self.durations)
        self.probe()
        t0 = perf_counter()
        try:
            out, err = call(), None
        except Exception as exc:  # a failed request is counted, not fatal
            out, err = None, type(exc).__name__
        t1 = perf_counter()
        self.probe()
        samples = list(zip(self.starts[first:], self.durations[first:]))
        raw = t1 - t0 - sum(d for t, d in samples if t0 <= t < t1)
        mean = statistics.fmean(d for _, d in samples)
        return raw * REF_PROBE_S / mean, raw, out, err

"""Host-speed sampling: a small fixed probe timed again and again while jobs run.

The benchmark runs on a few cores of a shared host.  Other tenants slow every
instruction of this process by up to about 1.5-2x, in stretches of about a
second to minutes, and neither wall time nor CPU time can tell that slowdown
from a slower program.  A :class:`Sampler` interrupts the process every
``INTERVAL_S`` (a ``SIGALRM`` interval timer) and times one run of
:func:`probe`, a fixed piece of pure-Python work that does not call the
program.  A job's slowness is the mean probe time in its window over
``NOMINAL_S``; its time net of the probes, divided by that slowness, reads as
seconds on a host where the probe takes ``NOMINAL_S``.

The probe is small and touches little memory, so that it does not evict the
job's data; it imports nothing, so that it can run while numpy is imported.
A signal that arrives during a long numpy call is handled when the call
returns, so numpy-heavy stretches are sampled less densely, not wrongly.
"""

import bisect
import signal
import time

# Sets only the scale of the normalized times: about the probe's median on a
# 2-vCPU KVM guest of an Intel Xeon (family 6, model 207), where it ranged
# over 1.2-1.3 ms with the neighbours' load.
NOMINAL_S = 0.0012
INTERVAL_S = 0.05
# A window with fewer samples (a short job) uses the MIN_SAMPLES samples
# nearest to its middle (all of them, in a run too short to take that many).
MIN_SAMPLES = 8
# A probe that took more than this many times its window's median was
# descheduled: another task took the CPU, typically at the timer interrupt
# that started the probe.  Such waits meet the probes far more often than
# their share of the job's time, so they are left out of the mean.
OUTLIER_FACTOR = 3.0

# About 10 KB of data, so that a probe that interrupts a job which has
# flushed the caches refills them in microseconds.
_SCALARS = [((i * 7919) % 2003) / 1001.5 - 1.0 for i in range(300)]
_FLOATS = [((i * 104729) % 30011) / 3001.1 - 5.0 for i in range(100)]


def probe():
    """A scalar recurrence, then float text formatting and parsing.

    It makes no container objects, so it never sets off the cyclic garbage
    collector, whose cost grows with the objects the interrupted job holds.
    """
    x, total = 0.0, 0.0
    for _ in range(10):
        for e in _SCALARS:
            x = 0.97 * x + 0.2 * e
    for _ in range(6):
        for v in _FLOATS:
            total += float(repr(v))
    return x + total


class Sampler:
    """Times :func:`probe` every ``INTERVAL_S`` between :meth:`start` and :meth:`stop`."""

    def __init__(self):
        self.starts, self.ends = [], []
        self._busy = False

    def _handle(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self._busy = False

    def start(self):
        for _ in range(3):  # warm the interpreter's caches for the probe
            probe()
        signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _window(self, t0, t1):
        return bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)

    def probe_seconds(self, t0, t1):
        """Time spent in probes that started within [t0, t1]."""
        lo, hi = self._window(t0, t1)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def slowness(self, t0, t1):
        """Mean probe time around [t0, t1], outliers left out, over NOMINAL_S; 1.0 on the nominal host."""
        lo, hi = self._window(t0, t1)
        if hi - lo < MIN_SAMPLES:
            n = min(MIN_SAMPLES, len(self.starts))
            if n == 0:
                raise RuntimeError("no host-speed samples were taken")
            lo = bisect.bisect_left(self.starts, 0.5 * (t0 + t1))
            lo = min(max(lo - n // 2, 0), len(self.starts) - n)
            hi = lo + n
        times = sorted(self.ends[i] - self.starts[i] for i in range(lo, hi))
        kept = [t for t in times if t <= OUTLIER_FACTOR * times[len(times) // 2]]
        return sum(kept) / len(kept) / NOMINAL_S

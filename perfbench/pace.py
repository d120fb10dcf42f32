"""Host-speed reference for normalising host times.

The interpreter's speed on a shared host can swing by more than 1.5x
within seconds, as other tenants load the same physical core.  ``Pace``
runs a small fixed pure-Python kernel from a SIGALRM timer every
``INTERVAL`` seconds and records how long it took.  A measured interval is
then rescaled to what it would have taken with the kernel at ``REF_S``:

    normalised = (interval - kernel time inside it) * REF_S / kernel time nearby

The kernel does the simulator's kind of work (slot attributes, method
calls, string compares, small dicts) and nothing of ghostsim's, so a
change to ghostsim moves the normalised time exactly as it moves the
interval.
"""

import bisect
import signal
import statistics
from collections import deque
from time import perf_counter

INTERVAL = 0.01
# the kernel's time, run between simulator steps on an unloaded core of the
# machine the benchmark was tuned on (x86-64, Python 3.11), so normalised
# seconds read about as real ones
REF_S = 140e-6


class _Obj:
    __slots__ = ("state", "n", "seen", "due")

    def __init__(self, i):
        self.state = "ROB" if i % 3 else "EXEC"
        self.n = 0
        self.seen = {}
        self.due = i % 7

    def step(self, i):
        if self.state == "ROB":
            self.n += 1
            if self.n & 3 == 0:
                self.state = "EXEC"
        else:
            self.seen[i & 31] = (i, self.n)
            self.state = "ROB"
        return self.n


_OBJS = [_Obj(i) for i in range(16)]
_QUEUE = deque(_Obj(i) for i in range(40))


def kernel():
    """Method calls and small-dict updates, then per-cycle scans of a
    queue of slot objects, as the core's stages do over its ROB."""
    acc = 0
    table = {}
    for i in range(300):
        o = _OBJS[i & 15]
        acc += o.step(i)
        k = (o.n ^ i) & 127
        table[k] = table.get(k, 0) + 1
        if table[k] & 1:
            acc += 1
    for cycle in range(12):
        for o in list(_QUEUE):
            if o.state != "EXEC" or o.due > cycle:
                continue
            o.seen[cycle] = cycle
        for o in list(_QUEUE):
            if o.state == "ROB" and o.due in (1, 2):
                acc += len(o.seen)
    return acc


def timed_kernel():
    t0 = perf_counter()
    kernel()
    return t0, perf_counter() - t0


class Pace:
    """Samples the kernel while active (``with Pace() as pace:``)."""

    def __init__(self):
        self.starts = []
        self.times = []

    def _sample(self, signum=None, frame=None):
        t0, dt = timed_kernel()
        self.starts.append(t0)
        self.times.append(dt)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def normalise(self, t0, t1):
        """Host seconds of [t0, t1] at the reference speed.  Uses the
        samples inside the interval, or the nearest ones on either side
        when it is shorter than INTERVAL."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        inside = self.times[lo:hi]
        near = inside or self.times[max(lo - 1, 0):lo + 1]
        if not near:                    # no sample at all yet
            self._sample()
            near = self.times[-1:]
        return (t1 - t0 - sum(inside)) * REF_S / statistics.mean(near)

    def median_ref(self):
        return statistics.median(self.times) if self.times else None

"""Host-speed sampling, so that timed passes can be scaled to a fixed speed.

The benchmark runs on a shared host whose speed for one process changes by
up to a factor of two, in phases that last from seconds to minutes;
processor time follows wall time, so the process is not descheduled, it
runs slower.  No run length averages such phases out.

While a pass runs, a one-shot ``SIGALRM`` timer interrupts it every
``INTERVAL_S`` seconds of wall time and runs a fixed pure-Python kernel
(``kernel``) between two bytecodes of the workload, in the same process and
thread.  The kernel does the kinds of work the program does (tuple
composition of permutations, dict and set traffic, ``Fraction``
arithmetic) and never touches the program.  The time between two samples is
a segment of the workload's own work; its length is scaled by
``REFERENCE_KERNEL_S`` over the median kernel time of the samples around
it.  The sum over segments is the pass's wall time at the reference speed:
a host where the kernel takes ``REFERENCE_KERNEL_S`` seconds.

Time spent in the samples is left out of both the raw and the scaled
figure.  The cyclic garbage collector is held off while the kernel runs, so
that a collection of the program's heap is never charged to the kernel.  The timer re-arms itself at the end of each sample, so samples
never nest.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.2
# Samples on each side of a segment whose median kernel time scales it.
WINDOW = 2
# The kernel's time on the reference host: a fixed constant, close to its
# median on the 2-vCPU x86_64 host the baseline in README.md was taken on.
REFERENCE_KERNEL_S = 0.005

_rng = random.Random(20260417)
_PERMS = []
for _ in range(32):
    _p = list(range(40))
    _rng.shuffle(_p)
    _PERMS.append(tuple(_p))
_FRACS = [Fraction(_rng.randint(1, 50), _rng.randint(1, 50)) for _ in range(64)]


def kernel() -> int:
    """A fixed mix of permutation composition, dict/tuple traffic and
    ``Fraction`` arithmetic; a few milliseconds on a current x86_64 core."""
    seen = set()
    a = _PERMS[0]
    for i in range(400):
        a = tuple(_PERMS[i & 31][x] for x in a)
        seen.add(a)
    d = {}
    for i in range(2000):
        d[(i * 7919) % 100003] = tuple(range(i % 8))
    s = sum(k * len(v) for k, v in d.items())
    acc: dict = {}
    for i in range(250):
        x = _FRACS[i & 63] * _FRACS[(i * 7) & 63] + _FRACS[(i * 3) & 63]
        acc[i % 24] = acc.get(i % 24, 0) + x
    return len(seen) + s + len(acc)


def timed_kernel() -> tuple[float, float]:
    """(start, end) of one kernel run, with the garbage collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return start, perf_counter()
    finally:
        if enabled:
            gc.enable()


def kernel_times(n: int) -> list[float]:
    """Seconds each of ``n`` back-to-back kernel runs took."""
    out = []
    for _ in range(n):
        start, end = timed_kernel()
        out.append(end - start)
    return out


class Sampler:
    """Interleaves kernel samples with the workload; see the module doc."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, end) of each kernel run
        self._previous = None
        self._armed = False

    def _sample(self):
        self.samples.append(timed_kernel())

    def _tick(self, signum, frame):
        self._sample()
        # A tick that was pending when stop() ran must not re-arm the timer,
        # or the next SIGALRM would meet the default handler and kill us.
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self):
        """Take the first sample and arm the timer; the work starts after."""
        for _ in range(WINDOW):  # samples before the work, for the first segments' window
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self):
        """Disarm the timer and take the last samples; the work ended before."""
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(WINDOW):
            self._sample()

    def median_kernel_s(self) -> float:
        return statistics.median(e - s for s, e in self.samples)

    def scaled(self, t0: float, t1: float) -> tuple[float, float, float]:
        """(raw work seconds, work seconds at the reference speed, time in
        samples) for the work between ``t0`` and ``t1``."""
        inside = [i for i, (s, e) in enumerate(self.samples) if t0 <= s and e <= t1]
        first = WINDOW - 1  # the last sample before t0
        bounds = [t0] + [x for i in inside for x in self.samples[i]] + [t1]
        durations = [e - s for s, e in self.samples]
        raw = scaled = 0.0
        for k in range(len(inside) + 1):
            begin, end = bounds[2 * k], bounds[2 * k + 1]
            # Segment k lies between samples first + k and first + k + 1.
            lo = max(0, first + k - WINDOW + 1)
            hi = min(len(durations), first + k + 1 + WINDOW)
            local = statistics.median(durations[lo:hi])
            raw += end - begin
            scaled += (end - begin) * REFERENCE_KERNEL_S / local
        in_samples = sum(durations[i] for i in inside)
        return raw, scaled, in_samples

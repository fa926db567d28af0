"""Timing in seconds of a nominal host, steady on a shared machine.

On a host shared with other tenants the same Python code runs up to twice as
fast in one stretch as in the next, for seconds to minutes at a time (seen
on a 2-vCPU Xeon virtual machine), so a best-of-N over a 30 s run still
wanders from run to run.  ``Clock`` measures the host's speed around every
measured call with ``reference()``, fixed interpreter work of the kinds
ppcforge does, and scales the call's time by ``REF_S`` over the reference's
time.  The result is in seconds of a host on which the reference takes
``REF_S``.  It moves with the program's own speed and hardly with the
host's: the reference is part of the benchmark, never of the package.

The speed is the median of reference runs just before and just after the
call and, while the clock runs, of one every ``TICK_S`` in a ``SIGALRM``
handler, so a long call is scaled by the speed during it.  Time spent in the
handler is taken out of the call's time.  The clock must run in the main
thread.

Sampled in 3 s blocks over 90 s, while the host's own speed spread 26-33%
between blocks (interquartile range over median), the ratio of ppcforge
calls (a sequencing search, exact PPC solves, grid builds, a packing search)
to this reference spread 1.5-5.6% and rose with it at a slope of 0.89-1.00
(log against log).  A bitmask branch and bound over a few triples, tried
first, tracked them at a slope of 0.73-0.83: the host's slow stretches slow
such a small loop more than they slow ppcforge, whose memo tables and
object graphs are larger.
"""

import random
import signal
import statistics
from time import perf_counter

REF_S = 0.001  # nominal time of one reference() run
TICK_S = 0.05  # interval of the reference runs taken during a call
REUSE_S = 0.005  # a reference run this recent serves as the next call's first


def _fixed_psts(v, b, queries, seed):
    """The blocks through each point of ``b`` pair-disjoint triples on ``v``
    points, as bitmasks, and ``queries`` point sets; all drawn from ``seed``."""
    rng, pairs, blocks = random.Random(seed), set(), []
    while len(blocks) < b:
        t = sorted(rng.sample(range(v), 3))
        tp = {(t[0], t[1]), (t[0], t[2]), (t[1], t[2])}
        if not tp & pairs:
            pairs |= tp
            blocks.append((1 << t[0]) | (1 << t[1]) | (1 << t[2]))
    sets = tuple(sum(1 << p for p in rng.sample(range(v), 3 * (1 + i % 5)))
                 for i in range(queries))
    return {p: tuple(m for m in blocks if m >> p & 1) for p in range(v)}, sets


_BY_POINT, _QUERIES = _fixed_psts(21, 50, 200, 11)


def reference():
    """Fixed work, one to two milliseconds: a memoized test of which of 200
    point sets are unions of blocks of a fixed PSTS(21), the kind of search
    ``sequence.find_sequencing`` does.  Never change it: every time the
    benchmark reports is scaled by its speed."""
    memo = {0: True}

    def partitions(mask):
        known = memo.get(mask)
        if known is not None:
            return known
        p = (mask & -mask).bit_length() - 1
        ok = any(m & mask == m and partitions(mask & ~m) for m in _BY_POINT[p])
        memo[mask] = ok
        return ok

    return sum(map(partitions, _QUERIES)), len(memo)


class Clock:
    """Measures calls in raw seconds and in seconds of the nominal host.

    Use as a context manager: reference runs are taken every ``TICK_S``
    while it is entered.
    """

    def __init__(self):
        self.ticks = []  # reference times taken by the timer
        self.busy = 0.0  # seconds the timer's handler took
        self.probing = 0.0  # seconds of all reference runs
        self._last = (float("-inf"), None)  # (end, seconds) of the last run
        self._in_tick = False
        self._saved = None

    def _tick(self, signum, frame):
        if self._in_tick:  # a signal that arrived while the handler ran
            return
        self._in_tick = True
        try:
            t0 = perf_counter()
            self.ticks.append(self._reference_s())
            self.busy += perf_counter() - t0
        finally:
            self._in_tick = False

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def _reference_s(self):
        """Run the reference; return its seconds, less any tick inside it."""
        busy0 = self.busy
        t0 = perf_counter()
        reference()
        end = perf_counter()
        seconds = end - t0 - (self.busy - busy0)
        self.probing += seconds
        self._last = (end, seconds)
        return seconds

    def measure(self, fn):
        """Call ``fn()``; return (its result, raw seconds, nominal seconds)."""
        end, seconds = self._last
        speed = [seconds if perf_counter() - end < REUSE_S else self._reference_s()]
        n0, busy0 = len(self.ticks), self.busy
        t0 = perf_counter()
        result = fn()
        seconds = perf_counter() - t0 - (self.busy - busy0)
        speed += self.ticks[n0:]
        speed.append(self._reference_s())
        return result, seconds, seconds * REF_S / statistics.median(speed)

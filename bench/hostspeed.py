"""Host-speed sampling, so that timings do not move with the machine.

On a shared virtual machine the same request can take twice as long from
one second to the next, as neighbours come and go.  This module times
short fixed loops of pure-Python exact arithmetic that run no monoval
code, so no change to the program can change them.  A timing scaled by a
loop's ``REFERENCE_S`` over its time at that moment is in *reference
seconds*: the time it would have taken on a host where the loop takes
``REFERENCE_S``.  A change to the program moves reference seconds as much
as wall seconds; a change in the host's speed moves the loop and the
program alike and cancels.

``Sampler`` runs a loop from a SIGALRM handler every ``interval`` seconds,
inside requests as well as between them, so a request is scaled by the
host's speed during it and not at its ends.
"""

from __future__ import annotations

import bisect
import gc
import signal
from time import perf_counter


def fraction_loop() -> None:
    """A sum of Fractions: the calls and objects of monoval's arithmetic.

    Of the loops tried, its time tracks monoval's requests most closely.
    """
    from fractions import Fraction  # not at module level: see integer_loop

    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i % 13 + 1, i % 97 + 2)


_A, _B = 3**200, 2**300


def integer_loop() -> None:
    """Euclid's algorithm on big integers.

    It imports nothing, so it can time the host during ``import
    monoval.cli`` without loading a module that the import would load.
    """
    for i in range(8):
        a, b = _A + i, _B
        while b:
            a, b = b, a % b


# Seconds of each loop on the reference host: a 2-core x86_64 virtual
# machine running CPython 3.11.7, at its faster rate.
REFERENCE_S = {fraction_loop: 0.0010, integer_loop: 0.00014}


def loop_seconds(loop) -> float:
    """Seconds of one run of ``loop``, with the collector off.

    The collector is off so that neither the loop's objects start a
    collection of the program's nor the program's objects slow the loop.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        loop()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times ``loop`` every ``interval`` seconds while the block runs."""

    def __init__(self, interval: float, loop=fraction_loop) -> None:
        self.interval = interval
        self.loop = loop
        self.starts: list[float] = []
        self.loops: list[float] = []
        self.spent = 0.0  # seconds taken by sampling, to subtract from timings
        self._sampling = False

    def sample(self, *_signal_args) -> None:
        if self._sampling:  # a tick that arrives during a sample is dropped
            return
        self._sampling = True
        start = perf_counter()
        self.loops.append(loop_seconds(self.loop))
        self.starts.append(start)
        self.spent += perf_counter() - start
        self._sampling = False

    def __enter__(self) -> Sampler:
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def reference_seconds(self, start: float, end: float, work_s: float) -> float:
        """``work_s`` wall seconds done between start and end, in reference seconds.

        Scaled by the mean loop time of the samples taken in that interval
        and the nearest sample on each side of it.
        """
        first = max(bisect.bisect_left(self.starts, start) - 1, 0)
        last = bisect.bisect_right(self.starts, end) + 1
        window = self.loops[first:last]
        return work_s * REFERENCE_S[self.loop] * len(window) / sum(window)

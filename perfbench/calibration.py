"""Host-speed calibration: a fixed reference kernel timed between pieces of work.

The host this benchmark was built on switches between a fast and a slow
speed (a pure-Python loop takes 1.7x longer in the slow one) every fifth of a
second to few seconds, and the slowdown is not reported as steal time.  Every
timed interval is therefore divided by the speed of the host *at that
moment*.  The reference kernel runs at a fixed operation cadence between
slices of the workload.  A single call that lasts seconds (a reopen) cannot
be sliced by its caller, so :meth:`Clock.sampling` also runs the kernel
every ``SAMPLE_PERIOD_S`` from a timer signal, inside the call.  A piece of
an interval between two kernel runs is reported as
``t * NOMINAL_KERNEL_S / k``, where ``k`` is the mean time of those two
runs; the kernel runs themselves are left out.  The unit of the result is
the reference second ("ref-s"): how long the interval would have taken on a
host running the kernel in ``NOMINAL_KERNEL_S``.

The kernel is pure Python with the same instruction mix as the engine's hot
paths (dict construction, dict lookups, list appends, generator expressions,
frozenset hashing), so a host phase that slows the engine slows it too.  Its
result is checked on every run, so it can never be skipped or optimised away.
It runs with the cyclic garbage collector paused: otherwise a collection of
the workload's heap, triggered by the kernel's allocations, would be charged
to the host.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import List, Tuple

#: iterations of one kernel run (~0.7 ms on a 2-core x86-64 VM)
KERNEL_ROUNDS = 1500

#: the checksum every kernel run must return
KERNEL_RESULT = 258682

#: the nominal duration of one kernel run: one reference second is the time
#: the host takes for ``1 / NOMINAL_KERNEL_S`` kernel runs
NOMINAL_KERNEL_S = 0.000625

#: timer period of the kernel runs inside a single long call
SAMPLE_PERIOD_S = 0.1

_NAMES = ("avery", "blake", "casey", "drew", "ellis", "finley", "harper", "jordan")


def reference_kernel(rounds: int = KERNEL_ROUNDS) -> int:
    """Fixed pure-Python work; returns a checksum that depends on every step."""
    checksum = 0
    buckets = {}
    for i in range(rounds):
        key = i % 251
        row = {"id": key, "name": _NAMES[key & 7], "amount": key * 3}
        bucket = buckets.get(key % 17)
        if bucket is None:
            bucket = buckets[key % 17] = []
        bucket.append(row)
        if len(bucket) == 12:
            checksum += sum(entry["amount"] for entry in bucket if entry["id"] & 1)
            checksum += len(frozenset(entry["name"] for entry in bucket))
            bucket.clear()
    return checksum


class CalibrationError(RuntimeError):
    """The reference kernel returned a wrong checksum."""


class Clock:
    """Kernel runs with their timestamps, and intervals calibrated by them.

    Call :meth:`tick` between slices of work, once before the first and once
    after the last; :meth:`interval` then converts any stretch of time
    between the first and the last run.
    """

    def __init__(self):
        #: ``perf_counter()`` at the start of every kernel run, ascending
        self.starts: List[float] = []
        #: raw seconds of every kernel run
        self.kernel_s: List[float] = []
        self._ticking = False

    def tick(self) -> None:
        """Run the kernel once and record when and how long."""
        # The kernel's garbage is freed by reference counting; with the cyclic
        # collector off its time does not grow with the workload's heap.
        self._ticking = True
        try:
            gc.disable()
            try:
                started = perf_counter()
                result = reference_kernel()
                elapsed = perf_counter() - started
            finally:
                gc.enable()
            if result != KERNEL_RESULT:
                raise CalibrationError(
                    "reference kernel returned {} instead of {}".format(result, KERNEL_RESULT))
            self.starts.append(started)
            self.kernel_s.append(elapsed)
        finally:
            self._ticking = False

    @contextmanager
    def sampling(self, period: float = SAMPLE_PERIOD_S):
        """Also run the kernel every ``period`` seconds, whatever is running."""
        def on_timer(_signum, _frame):
            if not self._ticking:  # the timer fired inside a kernel run
                self.tick()

        previous = signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, period, period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def interval(self, started: float, ended: float) -> Tuple[float, float]:
        """Raw and reference seconds of ``[started, ended]`` without kernel runs.

        Each piece between two kernel runs is scaled by the mean of those two.
        """
        before = bisect.bisect_right(self.starts, started) - 1
        after = bisect.bisect_left(self.starts, ended)
        last = len(self.starts) - 1
        raw = calibrated = 0.0
        left = before
        mark = started
        for inside in range(before + 1, after):
            piece = self.starts[inside] - mark
            raw += piece
            calibrated += piece * self._scale(left, inside)
            left, mark = inside, self.starts[inside] + self.kernel_s[inside]
        piece = ended - mark
        raw += piece
        calibrated += piece * self._scale(left, min(after, last))
        return raw, calibrated

    def _scale(self, left: int, right: int) -> float:
        return 2.0 * NOMINAL_KERNEL_S / (self.kernel_s[max(left, 0)] + self.kernel_s[right])

    def median_kernel_ms(self) -> float:
        return statistics.median(self.kernel_s) * 1000.0

"""Reference seconds: wall time corrected for the host's changing speed.

The host this benchmark was built on changes speed by up to a half within
seconds and by a quarter between minutes.  A fixed calibration loop slows
with it, so times are reported in reference seconds: wall seconds times
REF_S over the loop's duration measured around them.  A reference second is
a wall second on a CPU that runs the loop in REF_S.

The loop is timed before and after every timed call and, while the call
runs, once every SAMPLE_PERIOD_S on a timer signal; each stretch of the call
between two samples is scaled by the mean of those two, and the samples'
own time is not counted.
"""

import signal
import statistics
import time
from fractions import Fraction

REF_S = 0.006
SAMPLE_PERIOD_S = 0.1


def loop():
    """Fixed pure-Python work of the program's kind: rationals, tuples, dicts."""
    acc = {}
    total = Fraction(0)
    for i in range(1, 1000):
        q = Fraction(i % 17 + 1, i % 13 + 2)
        total = total + q * q
        key = (i % 31, i % 7)
        acc[key] = acc.get(key, Fraction(0)) + q
    return total, len(acc)


def calibrate():
    """Seconds the loop takes now: the median of three runs."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        loop()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class Timer:
    """Times calls in wall and reference seconds.

    ``sample_during`` turns on the samples taken while a call runs.  The
    traced run turns them off, since a span would count them as its own.
    """

    def __init__(self, sample_during=True):
        self.sample_during = sample_during and hasattr(signal, "setitimer")
        self._marks = []

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        loop()
        self._marks.append((start, time.perf_counter()))

    def time(self, fn, before):
        """Run ``fn()``; ``before`` is a calibration taken just before.

        Returns (result, exception or None, wall s, reference s, a
        calibration taken just after, which serves as the next ``before``).
        """
        self._marks = []
        if self.sample_during:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        start = time.perf_counter()
        try:
            result, error = fn(), None
        except Exception as exc:  # the caller counts a failed call
            result, error = None, exc
        finally:
            end = time.perf_counter()
            if self.sample_during:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, previous)
        after = calibrate()
        wall = ref = 0.0
        at, speed = start, before
        for mark_start, mark_end in self._marks:
            if mark_start >= end:
                break
            ref += (mark_start - at) * REF_S * 2 / (speed + mark_end - mark_start)
            wall += mark_start - at
            at, speed = mark_end, mark_end - mark_start
        ref += (end - at) * REF_S * 2 / (speed + after)
        wall += end - at
        return result, error, wall, ref, after

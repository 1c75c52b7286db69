"""The drift reference: a fixed Fraction loop that uses no triggaudin code.

On a shared machine the speed of a process changes by tens of percent
from one second to the next and from one minute to the next (another
tenant on the sibling hardware thread, for instance).  The benchmark
therefore times this loop at regular intervals *while* the workload
runs, from a timer signal, and reports the workload's time scaled to
the speed the loop saw: seconds at the reference speed.
"""

import signal
import time
from fractions import Fraction

ITERATIONS = 50
# A typical time of the loop on the 2-thread machine the benchmark was tuned
# on: the speed at which scaled times read as plain seconds.
NOMINAL_S = 0.0007


def reference_loop(iterations=ITERATIONS):
    """Seconds taken by a fixed loop of exact rational arithmetic."""
    t0 = time.perf_counter()
    a, b, acc = Fraction(1), Fraction(1, 3), Fraction(0)
    for i in range(1, iterations + 1):
        acc += Fraction(i, 7) * b - a / (i + 1)
        a = a * Fraction(i + 1, i + 2) + b
    dt = time.perf_counter() - t0
    if not acc:
        raise ArithmeticError("reference loop gave zero")
    return dt


class Sampler:
    """Times the reference loop every ``interval`` seconds of wall time
    while the body of a ``with`` block runs.

    ``samples`` holds the loop timings; ``spent`` the seconds taken by
    the sampling itself, which the caller subtracts from its own timings.
    """

    def __init__(self, interval):
        self.interval = interval
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference_loop())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self):
        """Factor that turns seconds measured here into reference seconds."""
        if not self.samples:  # a body shorter than one interval
            self._tick(None, None)
        return NOMINAL_S * len(self.samples) / sum(self.samples)

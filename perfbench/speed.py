"""Machine-speed sampler: rescales the benchmark's times to one fixed speed.

This machine's speed is not constant.  A fixed 4 ms job takes from 1x to
2x its fastest time from one run to the next, and the share of slow time
drifts over minutes, so the same workload pass took 4.7 s in one process
and 6.5 s in the next.  Medians over a run cannot average out a drift that
lasts the whole run.

The sampler therefore measures the machine's speed while the program runs.
At intervals drawn uniformly from INTERVAL_S it interrupts the process
(SIGALRM) and times a fixed pure-Python job, `reference`, that does not
touch motrbench.  The intervals are random: with a fixed 10 ms period the
rescaled passes spread as much as the raw ones (7.7% coefficient of
variation), as if the samples fell on one phase of some periodic
slowness; with random intervals they spread 5.5% where the raw ones
spread 17.6%.  A window of
the program's time T, with mean reference time r over the same window, is
reported as T * REF_S / r: seconds at the speed at which `reference` takes
REF_S.  A change to the program changes T and not r, so it shows in full.
The sampler's own time is taken out of every window, and each tick runs
`reference` once untimed first, so that the timed run does not pay for the
caches the program's work just used.
"""

import random
import signal
import time

INTERVAL_S = (0.005, 0.015)
# `reference` on this machine at its fastest; any constant would do, this
# one keeps the rescaled figures near the fastest wall-clock seconds.
REF_S = 130e-6


def reference():
    s = 0.0
    d = {}
    for i in range(1000):
        s += (i * 0.5) ** 0.5
        d[i & 15] = s
    return s


class Sampler:
    """SIGALRM-driven speed samples; `spent` is the time spent sampling."""

    def __init__(self):
        self.samples = []  # timed `reference` durations, s
        self.spent = 0.0  # s
        self._intervals = random.Random(0)
        self._running = False

    def start(self):
        self._running = True
        signal.signal(signal.SIGALRM, self._tick)
        self._arm()

    def _arm(self):
        signal.setitimer(signal.ITIMER_REAL, self._intervals.uniform(*INTERVAL_S))

    def stop(self):
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        reference()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.spent += t2 - t0
        if self._running:
            self._arm()

    def mark(self):
        return len(self.samples)

    def speed(self, since):
        """Mean reference time over the samples taken since `mark()`, as a
        factor: 1.0 at REF_S, 2.0 on a machine running at half that speed."""
        window = self.samples[since:]
        if not window:
            raise RuntimeError("no speed sample in the window; it is shorter than the sampling interval")
        return sum(window) / len(window) / REF_S

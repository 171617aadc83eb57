"""Host speed, measured beside the program so that its drift cancels.

The benchmark runs on shared virtual machines whose speed drifts: a fixed
pure-Python loop has been seen to run 35% slower for minutes at a time, and
to change speed from one 5 s block to the next.  Both hit the program's
operations and this module's :func:`reference` computation alike.  So the
run samples the reference between operations, and every timing is reported
at reference speed: multiplied by ``REF_S`` over the median of the reference
samples taken around it.  A faster or slower program moves the result; a
faster or slower host moves both and cancels.

The reference is pure-Python interpreter work (integer arithmetic, tuples,
a dict), like the program's inner loops.  It shares no code with the
program and never changes, so no change to the program can move it.
"""

from __future__ import annotations

import statistics
import time

#: Seconds one reference computation is taken to last; the timings are
#: reported as if the host ran it in exactly this time.
REF_S = 0.002

#: Operation time after which the next reference sample is taken.
SAMPLE_EVERY_S = 0.05

#: Reference samples on each side of an operation whose median scales it.
WINDOW = 6

#: Reference samples taken to scale a set-up time.
SETUP_SAMPLES = 25

_ITEMS = 4000


def reference() -> int:
    """A fixed computation of about 2 ms on a 2.1 GHz Xeon."""
    table, acc = {}, 0
    for i in range(_ITEMS):
        key = (i * 7919) % 1009, i & 7
        acc = (acc * 31 + key[0] + table.get(key, i)) % 1_000_003
        table[key] = acc
    return acc


def time_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def speed_now(samples: int = SETUP_SAMPLES) -> float:
    """Median seconds of ``samples`` reference computations, after one
    untimed call."""
    reference()
    return statistics.median(time_reference() for _ in range(samples))


class Sampler:
    """Reference samples interleaved with timed operations.

    Call :meth:`before_op` before each operation and :meth:`after_op` with
    its duration; :meth:`scaled` then gives each duration at reference
    speed.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.at: list[int] = []  # per operation: index of the last sample
        self.since = float("inf")

    def before_op(self) -> None:
        if self.since >= SAMPLE_EVERY_S:
            self.samples.append(time_reference())
            self.since = 0.0

    def after_op(self, seconds: float) -> None:
        self.since += seconds
        self.at.append(len(self.samples) - 1)

    def scaled(self, durations) -> list[float]:
        out = []
        for seconds, k in zip(durations, self.at):
            lo = max(0, k - WINDOW)
            local = statistics.median(self.samples[lo : k + WINDOW + 1])
            out.append(seconds * REF_S / local)
        return out

"""Host-speed reference: a fixed piece of work timed between ops.

The benchmark runs on shared virtual machines whose speed changes from one
second to the next with the neighbours' load.  On a 2-vCPU machine the same
sweep op took 0.29 s or 0.56 s, and the median op time of 25-second windows
of one process spread by 45% of its median, wider than any bound the
benchmark could fix.  The speed changes hit most work nearly alike, so the
benchmark times this reference work, which belongs to the benchmark and
never changes with the program, right before and after every op, and
scales the op's measured time by the reference time around it:

    normalized = measured * REFERENCE_S / (reference time around the op)

A normalized time reads in seconds of a host on which one reference call
takes ``REFERENCE_S``.  A change to the program moves the op's time and not
the reference, so it moves the normalized time by the same share.  On the
machine above, in two sets of ten 25-second runs of every workload, the
median op time spread by 2-6% of its median normalized and by 8-24% as
measured.  The reference is pure Python: a float loop, like the engine's
scalar solves, and 17-digit float formatting, like the writers.  Of the
candidates tried, this pair slowed most nearly in step with the ops when
the host slowed: a numpy pass over a grid tracked it worse on trajectory
and phase, and dict churn and random reads from a large list worse on
sweep.
"""

from __future__ import annotations

import math
import time

REFERENCE_S = 0.0015    # seconds of one reference call at the reference speed
SAMPLES = 6             # reference calls timed at each op boundary
_LOOP = 5000
_FLOATS = [(i * 0.6180339887498949) % 1.0 * 100.0 for i in range(1200)]


def reference_work() -> str:
    """A float loop, then the floats written as 17-digit text."""
    acc = 0.0
    for i in range(_LOOP):
        x = math.sqrt(i + 1.0) * 1.0001
        acc += x / (1.0 + x)
    return f"{acc:.17g}," + ",".join(f"{x:.17g}" for x in _FLOATS)


def sample(samples: int = SAMPLES) -> float:
    """Mean seconds of one reference call, over ``samples`` calls."""
    total = 0.0
    for _ in range(samples):
        start = time.perf_counter()
        reference_work()
        total += time.perf_counter() - start
    return total / samples


def normalize(measured: float, before: float, after: float) -> float:
    """``measured`` seconds taken between two reference samples, in
    seconds at the reference speed."""
    return measured * REFERENCE_S / ((before + after) / 2.0)

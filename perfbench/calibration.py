"""Host-speed calibration: a fixed pure-Python loop, timed next to every measurement.

The benchmark runs on a few cores of a shared host whose speed changes over
seconds to minutes by up to a factor of two; a single-threaded loop and an
embedlens request are slowed by the same factor at the same moment (to about
2% on the `analyze` requests, against about 20% for their wall times). So
every measured time is scaled by REFERENCE_S over the loop's time taken just
before and just after it: a reported time is the time the measurement would
have taken on a host where `loop_seconds()` returns REFERENCE_S.

The loop only does small-integer arithmetic: it allocates no object the
garbage collector tracks, so it neither triggers nor pays for a collection
of the program's garbage. This module imports nothing but `time`, so a
set-up child can use it without loading what it times.
"""

import time

LOOP_ITERATIONS = 20_000
REFERENCE_S = 0.001


def loop_seconds() -> float:
    start = time.perf_counter()
    s = 0
    for i in range(LOOP_ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` at the reference speed, given the loop's time before and after."""
    return seconds * 2 * REFERENCE_S / (before + after)

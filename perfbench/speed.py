"""Rescaling of measured times to a reference CPU speed.

On the VM this benchmark was written on, the host's CPU speed changes for
seconds to minutes at a time, for every process alike: the same op takes
1.5-1.8 times as long, and its CPU time grows with its wall time, so it is
not time stolen from a waiting process.  A fixed loop that never touches
restcipher is timed before each window of ops.  The CPU-time part of each op
is scaled by the loop's reference time over its current time; time spent
waiting (sleeps, polls) is kept as measured.
"""

import time

#: the loop's CPU time on that VM in its faster state (2 cores, Python 3.11.7)
REFERENCE_SECONDS = 0.0032


def _loop() -> float:
    start = time.thread_time()
    x = 0
    for i in range(50_000):
        x += i * i % 7
    return time.thread_time() - start


def factor() -> float:
    """Reference time over the loop's current CPU time, best of two."""
    return REFERENCE_SECONDS / min(_loop(), _loop())


def rescale(wall: float, cpu: float, speed: float) -> float:
    """Time at reference speed: the CPU part scaled, the rest as measured."""
    busy = min(cpu, wall)
    return busy * speed + wall - busy

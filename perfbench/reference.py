"""Host speed, measured next to the program so timings can be rescaled.

The benchmark runs on a shared virtual machine whose speed changes by
up to 1.8x from one few-second stretch to the next (CPU time stretches
with wall time, so the slowdown is not stolen time; it hits every
instruction).  No statistic over one run's passes removes that: a run
that spends most of its time in a slow stretch reads slow.

So the benchmark times a fixed reference task, which lives here and
does not touch the program, right before and after every stretch of
program work, and rescales that work's times to a host on which the
reference task takes :data:`REFERENCE_SECONDS`.  Every rescaled time is
``measured * REFERENCE_SECONDS / reference``; a program change moves it
exactly as it moves the measured time, while a host slowdown moves
both the measured time and the reference and cancels out.

The task is pure-Python dictionary lookups, integer and string work and
a sort, like the program's hot paths.  It allocates no containers that
the cyclic garbage collector tracks except one list, and runs with the
collector off, so it never collects the program's heap and its time
does not depend on how much memory the program holds.
"""

from __future__ import annotations

import gc
import statistics
import time

#: Seconds one :func:`task` takes on the reference host, an Intel Xeon
#: virtual machine (2 vCPUs, Python 3.11) at about its fastest.  Only
#: ratios matter: this constant fixes the unit of every rescaled time.
REFERENCE_SECONDS = 0.005

_SIZE = 8192
_KEYS = [(index * 2654435761) & 0xFFFFF for index in range(_SIZE)]
_TABLE = {key: f"k{key:x}" for key in _KEYS}


def task() -> int:
    """The reference task: a fixed amount of interpreter work."""
    counts: dict[int, int] = {}
    rows = []
    table = _TABLE
    for index, key in enumerate(_KEYS):
        bucket = key % 509
        counts[bucket] = counts.get(bucket, 0) + 1
        rows.append((bucket, table[key], index))
    rows.sort()
    return len(counts) + rows[len(rows) // 2][2]


def measure(repeat: int = 1) -> float:
    """Median seconds of ``repeat`` runs of :func:`task`, with the
    garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeat):
            started = time.perf_counter()
            task()
            times.append(time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that rescales a time measured between two reference
    measurements to the reference host."""
    return REFERENCE_SECONDS / ((before + after) / 2)

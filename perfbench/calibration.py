"""Host-speed calibration for the benchmark's host-time metrics.

The sandbox hosts this benchmark shares its CPUs: the same run read up to
1.5x slower from one minute to the next, in stretches of a second to a
minute.  A fixed slice of interpreter work, timed between ops, tracks
those stretches (its per-window time correlated 0.9 with simulator
iteration time), so host-time metrics are reported at the speed of the
reference host: each measured time is scaled by ``REFERENCE_S`` over the
kernel time measured around it.  The raw times are printed beside them.
"""

import statistics
import time

REFERENCE_S = 0.0025   # calibration_kernel() time on the 2-vCPU reference host
WINDOW = 2             # kernel samples on each side of an op

_TABLE = {i: i * 2654435761 & 0xFFFFFFFF for i in range(1 << 16)}


def calibration_kernel():
    """Pseudo-random lookups in a 64 Ki-entry dict, integer arithmetic and
    small string formatting.  It allocates no garbage-collected objects,
    so it does not move the program's collection schedule."""
    table = _TABLE
    acc = 0
    x = 12345
    chars = 0
    for _ in range(2500):
        x = (x * 1103515245 + 12345) & 0xFFFF
        acc = (acc + table[x]) & 0xFFFFFFFF
        chars += len("%d:%d" % (x, acc))
    return acc + chars


def time_kernel(repeats=1):
    """Median seconds of ``repeats`` kernel runs."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        calibration_kernel()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def scale_ops(ops_s, kernel_s):
    """Each op scaled by the median of the kernel times around it."""
    return [op * REFERENCE_S /
            statistics.median(kernel_s[max(0, i - WINDOW):i + WINDOW + 1])
            for i, op in enumerate(ops_s)]

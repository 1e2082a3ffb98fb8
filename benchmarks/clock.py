"""Wall times scaled to the speed the machine had while they were taken.

The speed of a shared host wanders: on the reference machine a fixed loop
runs up to twice as slow for a minute at a time, because of load that is
not the benchmark's.  Each timed stretch is therefore bracketed by two runs
of a calibration kernel that calls nothing from hqreg, and its wall time is
reported at the kernel's nominal time:

    scaled = wall * CALIBRATION_NOMINAL_S / kernel

where ``kernel`` is the mean of the kernel's times just before and just
after the stretch.  A change to hqreg moves the stretch and not the kernel;
a slow spell of the host moves both.  README.md, "Timing on a shared host",
gives the figures.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# the kernel's time on the reference machine in its fast spells, so that
# scaled seconds read close to wall seconds there
CALIBRATION_NOMINAL_S = 0.012
KERNEL_RUNS = 5


def kernel_once() -> float:
    """Seconds taken by a fixed mix of interpreter loops and numpy calls on a
    2000-element array, the two kinds of work a Gibbs scan does."""
    start = time.perf_counter()
    x = np.linspace(0.1, 2.0, 2000)
    total = 0.0
    for _ in range(250):
        y = np.sqrt(x * x + 1.0)
        x = np.abs(np.log(y) - np.exp(-x)) + 0.1
        for j in range(400):
            total += j * 0.5
    if not math.isfinite(total + float(x[0])):
        raise AssertionError("calibration kernel gave a non-finite value")
    return time.perf_counter() - start


def calibration_kernel() -> float:
    """The kernel's median time over KERNEL_RUNS runs, which a single
    interrupt or page fault does not move."""
    return statistics.median(kernel_once() for _ in range(KERNEL_RUNS))


class Clock:
    """Scales wall times by the calibration kernel run around them.

    Consecutive stretches share the kernel run between them, so each
    ``scaled`` call runs the kernel once.
    """

    def __init__(self):
        calibration_kernel()  # warm-up: numpy's first calls are slower
        self.last = calibration_kernel()
        self.kernels = [self.last]

    def scaled(self, wall: float) -> float:
        """``wall`` seconds that have just ended, scaled by the kernel's mean
        time before and after them."""
        after = calibration_kernel()
        kernel = 0.5 * (self.last + after)
        self.last = after
        self.kernels.append(after)
        return wall * CALIBRATION_NOMINAL_S / kernel

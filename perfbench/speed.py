"""Machine-speed probe for timings on hosts whose speed drifts.

On the shared 2-vCPU x86_64 hosts this benchmark was built on, the median
task time of runs on identical inputs varied by up to 60 % within minutes.
CPU time moved with wall time: the host ran slower, it did not deschedule
the process.  The probe below, timed right before and right after a task,
measures the speed the task ran at.  Dividing the task's wall time by the
probe's slowdown against REFERENCE_S rescales it to one fixed speed.  Over
ten seeds per workload this cut the quartile spread of the median task time
from 6-36 % (wall) to 2-6 %.

The probe is fixed code that does not touch the program, so a change to the
program moves the rescaled times and not the probe.  It uses the same mix as
the program's hot paths: numpy ufuncs on small arrays, called from Python.
Over 5700 back-to-back calls in 20 s on such a host it took 1.95 to 11.1 ms,
5 % to 95 % of the calls within 2.1 to 4.2 ms, with a median of 3.7 ms.
"""

import time

import numpy as np

# the probe's time at the reference speed: its median on the host above, so
# a slowdown of 1.0 is that host at its median speed
REFERENCE_S = 3.7e-3

_X = np.linspace(0.0, 1.0, 16)


def probe() -> float:
    """Wall time of the fixed kernel, in seconds."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(400):
        y = np.sin(_X * i) + np.cos(_X)
        acc += float(np.sqrt(y * y + 1.0).sum())
    return time.perf_counter() - start


def slowdown(probes) -> float:
    """Mean probe time over REFERENCE_S: the factor by which the host ran
    slower than the reference speed."""
    return sum(probes) / len(probes) / REFERENCE_S

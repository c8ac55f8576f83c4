"""Host-speed probe: a fixed piece of work whose time tracks the host.

On a shared host the speed of a core drifts by up to 1.6x over seconds,
in the wall and the CPU time of identical work alike. Timing this probe
next to each request measures that speed, and a time rescaled by
PROBE_NOMINAL_S / probe time reads as if the host ran at full speed.
"""

import time

import numpy as np

# Time of one probe() on the reference host (2-CPU x86-64 virtual machine at
# 2.1 GHz, Python 3.11, numpy 2.4) when it runs at full speed.
PROBE_NOMINAL_S = 3.0e-4


class Probe:
    """Work in the style of excal's hot loop, small numpy gathers and
    bincounts plus dict updates, sharing no code with excal."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.ia, self.ib = rng.integers(0, 20, 120), rng.integers(0, 20, 120)
        self.io = rng.integers(0, 35, 120)
        self.a, self.b = rng.random(20), rng.random(20)

    def __call__(self):
        t0 = time.perf_counter()
        acc = {}
        for i in range(150):
            c = np.bincount(self.io, weights=self.a[self.ia] * self.b[self.ib], minlength=35)
            key = (i % 7, i % 3)
            acc[key] = acc.get(key, 0.0) + c[0]
        return time.perf_counter() - t0

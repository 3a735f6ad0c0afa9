"""Host-speed probe: a fixed unit of benchmark-owned work timed between ops.

On a shared 2-core host the speed a process gets drifts by up to +-25% over
tens of seconds, with process CPU time tracking wall time: the same op on the
same input takes 37 ms in one run and 50 ms in the next.  The probe measures
that drift where it happens.  After every op (outside its timed interval) the
runner times one probe unit: interpreter arithmetic, small numpy calls and a
complex matrix product, the three kinds of work the library does.  The probe
calls no einalg code, so a change to the library cannot move it.

Each op's time is scaled by ``REFERENCE_S / m``, where ``m`` is the median
time of the probes taken within ``WINDOW`` ops of it, so a drift within a
run is corrected where it happens.  Scaled times read as the time the op
would take on a host that runs the probe in ``REFERENCE_S``.  Set-up time,
a few short intervals, is scaled by the median of the probes taken around
all of them.  The raw times are kept in the result file next to the scaled
ones, so the two spreads can be compared.
"""

from __future__ import annotations

import statistics
import time

#: About the median probe time on a 2-core Xeon at 2.1 GHz (OpenBLAS, one thread).
REFERENCE_S = 0.45e-3
#: Probes on each side of an op whose median scales that op.
WINDOW = 10


class Probe:
    def __init__(self, np):
        rng = np.random.default_rng(0)
        self._np = np
        self._small = rng.standard_normal((16, 16)) * 0.1
        self._factor = (rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))) / 8
        # Preallocated, and small enough to stay in cache, so the probe's own
        # time does not depend on the memory the op before it touched.
        self._product = np.empty_like(self._factor)

    def _unit(self):
        np = self._np
        total = 0.0
        for i in range(3000):
            total += i * 0.5
        x = self._small
        for _ in range(30):
            x = np.tanh(x @ self._small)
        for _ in range(8):
            np.matmul(self._factor, self._factor, out=self._product)
        return total

    def time_one(self) -> float:
        start = time.perf_counter()
        self._unit()
        return time.perf_counter() - start

    def time_many(self, n: int) -> list[float]:
        return [self.time_one() for _ in range(n)]


def scale(probe_times) -> float:
    """Factor that converts times measured alongside these probes to reference-host time."""
    return REFERENCE_S / statistics.median(probe_times)


def scales(probe_times, window: int = WINDOW) -> list[float]:
    """Per-op factors: ``scale`` of the probes within ``window`` ops of each op."""
    n = len(probe_times)
    return [scale(probe_times[max(0, i - window):i + window + 1]) for i in range(n)]

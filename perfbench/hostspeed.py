"""Host-speed reference: a fixed loop timed next to every timed unit of work.

The benchmark host shares its cores with other machines' work.  The same
single-thread code runs up to about 2x slower for stretches of a fraction
of a second to several minutes, and thread CPU time rises with wall time
in those stretches, so the slowdown is contention for the core and its
caches, not lost time slices.  Runs made minutes apart differ by 20-40%
on raw wall time, which would hide any change smaller than that.

Each timed unit of a workload (a training step, a plan execution, one
set-up) is therefore paired with passes of a fixed reference loop taken
just before and just after it, and the bounded timings are reported at
the reference's nominal speed::

    t_reported = t_measured * NOMINAL_S / ref_s

(``serve_lenet`` scales its phases by the median of all its passes
instead; see that module.)

The loop is NumPy and plain Python only, so no change under ``src/``
moves it.  It mixes the two kinds of work the workloads do: a gather
from a 256 KiB float32 table followed by a multiply and a reduction (the
shape of the LUT GEMM kernels' inner loop) and a dict-and-integer
interpreter loop (dispatch and set-up).  ``NOMINAL_S`` is one pass on an
uncontended core of the host the benchmark was calibrated on (Intel
Xeon, 2.1 GHz, 2 vCPUs, NumPy 2.4); it only sets the scale.  The raw
timings and the reference's median pass time (``host.ref_ms``) are
printed beside the reported ones.
"""

from __future__ import annotations

import time

import numpy as np

#: One reference pass on an uncontended core of the calibration host [s].
NOMINAL_S = 0.0012
_TABLE = 256 * 256
_GATHER = (32, 3125)
_PY_ITERS = 12_000


class HostRef:
    """The reference loop and the pairing of timed units with it.

    A reference point is the median of ``passes_per_point`` passes: one
    is enough next to many short units, whose medians average the noise
    of single passes out; next to a few long units a point needs several.
    """

    def __init__(self, passes_per_point: int = 1):
        self.passes_per_point = passes_per_point
        rng = np.random.default_rng(20240601)  # fixed: the same loop on every run
        self._table = rng.standard_normal(_TABLE).astype(np.float32)
        self._idx = rng.integers(0, _TABLE, size=_GATHER)
        self._buf = np.empty(_GATHER, dtype=np.float32)
        self._last: float | None = None
        #: Every pass measured so far [s].
        self.passes: list[float] = []

    def measure(self) -> float:
        """Time one pass of the reference loop [s]."""
        t0 = time.perf_counter()
        for _ in range(2):
            self._table.take(self._idx, out=self._buf)
            np.multiply(self._buf, 1.5, out=self._buf)
            self._buf.sum(axis=0)
        counts: dict[int, int] = {}
        for i in range(_PY_ITERS):
            counts[i & 255] = counts.get(i & 255, 0) + i
        elapsed = time.perf_counter() - t0
        self.passes.append(elapsed)
        return elapsed

    def point(self) -> float:
        """One reference point: the median of ``passes_per_point`` passes [s]."""
        return float(np.median([self.measure() for _ in range(self.passes_per_point)]))

    def mark(self) -> None:
        """Take the point that comes before the next timed unit."""
        self._last = self.point()

    def pair(self) -> float:
        """Reference time for the unit since :meth:`mark` or the last call: mean of the points around it.

        The point after one unit is the point before the next.
        """
        before = self._last if self._last is not None else self.point()
        self._last = self.point()
        return 0.5 * (before + self._last)

    def median_ms(self) -> float:
        """Median of every pass so far [ms] (0 before the first)."""
        return 1e3 * float(np.median(self.passes)) if self.passes else 0.0


def at_nominal(seconds: float, ref_s: float) -> float:
    """``seconds`` measured while a reference pass took ``ref_s``, at nominal host speed."""
    return seconds * NOMINAL_S / ref_s

"""Host speed probe, and the clock that scales timed sections by it.

`probe` is a fixed kernel the benchmark owns, about 15 ms here: 280
compensated hypergeometric series sums in plain Python.  Of the probes tried
(a float loop with dense solves, a sparse LU with solves, this one) it
tracked the host's speed best for the `figures` and `crosscheck` ops and for
a fresh interpreter's import.  `StepProbe` (solver-style steps) does the
same for the `march` ops.  No gbgroove code runs in either, so no change to
the package can move them.  This module imports nothing but `time` until a
StepProbe is made, so a fresh interpreter can run `probe` around
`import gbgroove.cli` without paying any of that import early.
"""

from __future__ import annotations

import time

PROBE_REF_S = 0.015    # scaled times are seconds on a host where `probe` takes this
STEP_PROBE_REF_S = 0.012   # the same for StepProbe


class _ProbeSum:
    """Compensated accumulator, as the series code uses."""

    __slots__ = ("s", "c")

    def __init__(self):
        self.s = 0.0
        self.c = 0.0

    def add(self, x: float) -> None:
        t = self.s + x
        if abs(self.s) >= abs(x):
            self.c += (self.s - t) + x
        else:
            self.c += (x - t) + self.s
        self.s = t


def _series(nums, dens, z: float) -> float:
    """60 terms of pFq(nums; dens; z) by the term recurrence."""
    acc = _ProbeSum()
    term = 1.0
    for k in range(60):
        r = z / (k + 1.0)
        for a in nums:
            r *= a + k
        for b in dens:
            r /= b + k
        term *= r
        acc.add(term)
    return acc.s + acc.c


def probe() -> float:
    """Seconds the probe kernel takes right now."""
    t0 = time.perf_counter()
    for i in range(280):
        _series((0.25,), (0.75, 1.25, 1.5), -(i * 0.025) ** 4 / 256.0)
    return time.perf_counter() - t0


class StepProbe:
    """Seconds 80 solver-style steps take right now, for solver-bound ops.

    Each step is what one implicit time step of the groove solver does,
    on a fixed banded 1025 x 1025 system factored once: a sparse
    matrix-vector product, two LU solves and a residual.  About 7 ms.  The
    series probe tracks the march workload's solves poorly (its quartile
    spread over five seeds was 20%; with this probe, 4%).
    """

    def __init__(self):
        import numpy as np
        from scipy.sparse import diags
        from scipy.sparse.linalg import splu
        n = 1025
        offsets = range(-3, 6)
        values = (1.0, -6.0, 15.0, 2980.0, 15.0, -6.0, 1.0, 0.5, 0.25)
        matrix = diags([np.full(n - abs(k), v) for k, v in zip(offsets, values)],
                       list(offsets), format="csc")
        self._lu = splu(matrix)
        self._a = matrix.tocsr()
        self._y = np.linspace(0.0, 1.0, n)
        self._mask = np.ones(n)
        self._mask[:3] = 0.0

    def __call__(self) -> float:
        t0 = time.perf_counter()
        y = self._y
        for _ in range(80):
            rhs = self._mask * (y + 0.001 * (self._a @ y))
            y = self._lu.solve(rhs)
            y += self._lu.solve(rhs - self._a @ y)
        return time.perf_counter() - t0


def scale(raw: float, before: float, after: float, ref: float = PROBE_REF_S) -> float:
    """`raw` seconds scaled by the probe times on either side of it."""
    return raw * ref / (0.5 * (before + after))


class ScaledClock:
    """Probes before the first timed section and after each one."""

    def __init__(self, kernel=probe, ref: float = PROBE_REF_S):
        self.kernel = kernel
        self.ref = ref
        self.before = kernel()

    def scaled(self, raw: float) -> tuple[float, float]:
        """(raw, scaled) for a section that ended just now."""
        after = self.kernel()
        pair = raw, scale(raw, self.before, after, self.ref)
        self.before = after
        return pair

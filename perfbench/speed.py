"""CPU time scaled to a reference speed, so runs on a shared host compare.

On the shared 2-vCPU host this benchmark was built on, the same frame's
wall time moved by up to half between runs: the hypervisor takes the vCPU
away (steal), and the host's load changes how fast the vCPU runs.  CPU time
(``time.process_time`` and the kernel's per-task run time) leaves out the
first.  For the second, a fixed calibration kernel is run next to the
measured operations: an operation's CPU time is multiplied by
``REFERENCE_S`` over the kernel's CPU time measured around it, which turns
it into the CPU time the operation would have taken at the speed the host
had when ``REFERENCE_S`` was fixed.

The kernel is this file's own code on numpy and the interpreter, so no
change to the program can move it.  It mixes what the program's hot paths
do: gathers, sorts, prefix sums and elementwise math on arrays of a few
thousand elements, gathers and a streaming pass over an array larger than
L2, and an interpreted loop over a dict with calls.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median CPU seconds of one :func:`calibrate` on the development machine
#: (Xeon, 2 vCPU, Python 3.11, numpy 2.4): 895 calls, one before each frame
#: of a 75 s ``render-exact`` loop.
REFERENCE_S = 0.00520
#: A measured operation is scaled by the median of this many calibrations
#: around it, centred on the one taken just before it.
WINDOW = 9

_rng = np.random.default_rng(12345)
_KEYS = _rng.random(8192)
_IDX = _rng.integers(0, 8192, 8192)
_MAT = _rng.random((48, 48))
_TABLE = {i: (i * 7919) % 1009 for i in range(512)}
#: 8 MiB, larger than a core's L2: random gathers and a streaming pass over
#: it slow down with the shared cache and memory, as the raster buffers do.
_BIG = _rng.random(1 << 20)
_BIG_IDX = _rng.integers(0, 1 << 20, 1 << 15)
_STRIDE = 1 << 17
_offset = [0]


def _kernel() -> float:
    acc = 0.0
    for _ in range(3):
        order = np.argsort(_KEYS, kind="stable")
        gathered = _KEYS[order][_IDX]
        acc += float(np.cumsum(gathered)[-1])
        acc += float(np.exp(-gathered[gathered > 0.5]).sum())
        acc += float((_MAT @ _MAT).trace())
    for _ in range(2):
        acc += float(_BIG[_BIG_IDX].sum())
        start = _offset[0]
        acc += float(_BIG[start:start + _STRIDE].sum())
        _offset[0] = (start + _STRIDE) % _BIG.size
    total = 0
    for i in range(2500):
        total += _TABLE[i & 511]
        if total & 1:
            total = _step(total)
    return acc + total


def _step(x: int) -> int:
    return (x >> 1) + 3


def calibrate() -> float:
    """CPU seconds one run of the fixed kernel takes now."""
    start = time.process_time()
    _kernel()
    return time.process_time() - start


class SpeedScale:
    """Calibrations taken during a run, and the factor for each moment."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.samples: list[float] = []

    def calibrate(self) -> int:
        """Take one calibration; return its index (the moment it marks).

        A disabled scale takes none, and :meth:`scale` then leaves times as
        measured.
        """
        if not self.enabled:
            return -1
        self.samples.append(calibrate())
        return len(self.samples) - 1

    def factors(self) -> list[float]:
        """``REFERENCE_S`` over the windowed median calibration, per moment."""
        half = WINDOW // 2
        n = len(self.samples)
        out = []
        for i in range(n):
            lo = max(0, min(i - half, n - WINDOW))
            window = self.samples[lo:lo + WINDOW]
            out.append(REFERENCE_S / statistics.median(window))
        return out

    def scale(self, timed: list[tuple[int, float]]) -> list[float]:
        """Scale (moment, CPU seconds) pairs to the reference speed."""
        if not self.enabled:
            return [seconds for _, seconds in timed]
        factors = self.factors()
        return [seconds * factors[moment] for moment, seconds in timed]

"""Host-speed probe for the untraced run.

On a small shared host the speed of a vCPU drifts by up to about 1.8x
within seconds and from one minute to the next, so raw wall times of two
runs of the same code differ by more than any useful bound.  The probe
measures that drift alongside the work: a fixed kernel of pure-Python and
small numpy work (the mix the package spends its time on), run in the
main thread, which runs the operations, and whose CPU time rates the
host's current speed.
The kernel uses only Python and numpy, never swapforge, so a change to
the package does not move it.

A time is reported at the reference host speed: wall time less the
probe's own time, scaled by ``REFERENCE_PROBE_S`` over the measured
kernel time.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter, thread_time

import numpy as np

INTERVAL_S = 0.025
# Half-width of the window of probe samples that rates an operation.
WINDOW_S = 0.15
# CPU time of one kernel call at the reference host speed (a reading of
# an unloaded 2-vCPU x86-64 VM, numpy 2 on OpenBLAS); only ratios to it
# matter.
REFERENCE_PROBE_S = 0.5e-3
# A burst, which rates a set-up interpreter once: untimed warm-up calls
# (the first numpy calls of a process are slow), then timed calls.
BURST_WARM_CALLS = 20
BURST_CALLS = 40


class Kernel:
    """The fixed unit of work the probe times."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = []
        for _ in range(4):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            self._small.append(m + m.conj().T)

    def __call__(self) -> float:
        acc = 0.0
        for k in range(12):
            w, v = np.linalg.eigh(self._small[k % 4])
            acc += float(np.abs(w).sum())
            t = np.kron(v, v.conj())
            acc += float(np.einsum("ij,ij->", t.real, t.real))
            row = {"k": k, "parts": [k] * 4}
            acc += sum(row["parts"])
        return acc


def burst() -> tuple[float, float]:
    """Rate the host once: (mean CPU seconds per kernel call, wall seconds
    the whole burst took, warm-up included)."""
    w0 = perf_counter()
    kernel = Kernel()
    for _ in range(BURST_WARM_CALLS):
        kernel()
    c0 = thread_time()
    for _ in range(BURST_CALLS):
        kernel()
    cpu = (thread_time() - c0) / BURST_CALLS
    return cpu, perf_counter() - w0


class SpeedProbe:
    """Kernel samples taken on a timer signal in the main thread, the
    thread that runs the operations: start, CPU time and wall time."""

    def __init__(self):
        self._kernel = Kernel()
        self._previous = None
        self.starts: list[float] = []
        self.cpu: list[float] = []
        self.wall: list[float] = []

    def _sample(self, signum, frame) -> None:
        w0 = perf_counter()
        self._kernel()  # refill the caches the operation evicted; untimed
        c0 = thread_time()
        self._kernel()
        c1 = thread_time()
        self.starts.append(w0)
        self.cpu.append(c1 - c0)
        self.wall.append(perf_counter() - w0)

    def __enter__(self) -> "SpeedProbe":
        for _ in range(50):  # warm numpy's dispatch before the first sample
            self._kernel()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def inside(self, t0: float, t1: float) -> float:
        """Wall time the probe took between t0 and t1."""
        return sum(self.wall[bisect_left(self.starts, t0) : bisect_right(self.starts, t1)])

    def scale(self, t0: float, t1: float) -> float:
        """Reference over measured kernel time around [t0, t1]: above 1
        when the host ran fast, below 1 when it ran slow."""
        lo = bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect_right(self.starts, t1 + WINDOW_S)
        if hi <= lo:
            raise RuntimeError("no probe samples near the operation; is SIGALRM blocked?")
        return REFERENCE_PROBE_S * (hi - lo) / sum(self.cpu[lo:hi])

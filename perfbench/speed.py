"""Machine-speed reference: reported times are scaled to a fixed core speed.

On the shared 2-vCPU virtual machine the baseline was measured on, the
speed of one core drifts by 30-60% over tens of seconds; that alone moved
one workload's wall time from 31 s to 42 s between runs of identical inputs.
A fixed reference kernel, timed every 0.1 s throughout a pass, tracks
that drift: over 70 s its ratio to a cell-solve loop varied by 2.9%
(coefficient of variation) while the loop itself varied by 11.4%.

The kernel is a frozen copy of the arithmetic pattern that dominates
filmcell's run time: gather the corner values of a 2^3 mesh, map them to
quadrature-point gradients, apply a p-norm stress, and scatter back.  It
lives here, not in ``src/``, so no change to filmcell can make it faster
or slower.  A time is multiplied by ``REF_KERNEL_S / median(kernel)``
over the samples around it: seconds on a core where the kernel takes
``REF_KERNEL_S``.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REF_KERNEL_S = 7.5e-4      # typical median on the 2-vCPU reference machine
SAMPLE_EVERY_S = 0.1
WINDOW_S = 1.0

_CORNERS = [(c >> 2 & 1, c >> 1 & 1, c & 1) for c in range(8)]
_RNG = np.random.default_rng(20260917)
_VALUES = _RNG.normal(size=(3, 3, 3, 3))
_DSHAPE = _RNG.normal(size=(8, 8, 3))


def kernel():
    """One timed run of the reference kernel, in seconds."""
    t0 = time.perf_counter()
    for _ in range(4):
        corners = np.empty((2, 2, 2, 8, 3))
        for c, (ci, cj, ck) in enumerate(_CORNERS):
            corners[:, :, :, c, :] = _VALUES[ci:ci + 2, cj:cj + 2, ck:ck + 2, :]
        G = np.einsum("ijkcd,qca->ijkqda", corners, _DSHAPE, optimize=True)
        n = np.sqrt(np.einsum("...ij,...ij->...", G, G))
        T = np.einsum("ijkqda,qca->ijkcd", (2.0 * n)[..., None, None] * G, _DSHAPE,
                      optimize=True)
        grad = np.zeros((3, 3, 3, 3))
        for c, (ci, cj, ck) in enumerate(_CORNERS):
            grad[ci:ci + 2, cj:cj + 2, ck:ck + 2, :] += T[:, :, :, c, :]
        float(np.linalg.norm(grad))
    return time.perf_counter() - t0


class Speedometer:
    """Times the reference kernel every ``every_s`` seconds between start and stop.

    An interval timer (SIGALRM) runs the kernel in the main thread.  Python
    runs the handler between bytecodes, so samples land inside long filmcell
    calls as well as between them.  Each sample keeps its start and its
    duration, so the kernel's own time can be taken out of any span it fell
    into (``busy``).  With ``every_s=None`` only the samples at start and
    stop are taken: traced passes use that, so no kernel time lands inside
    a traced span.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.samples: list[float] = []
        self._old = None
        self._sampling = False

    def sample(self, count=1):
        for _ in range(count):
            t0 = time.perf_counter()
            self.samples.append(kernel())
            self.starts.append(t0)

    def _on_alarm(self, signum, frame):
        if not self._sampling:          # never nest inside a running sample
            self._sampling = True
            try:
                self.sample()
            finally:
                self._sampling = False

    def start(self, every_s=SAMPLE_EVERY_S):
        self.sample(5)
        if every_s is not None:
            self._old = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, every_s, every_s)

    def stop(self):
        if self._old is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._old)
            self._old = None
        self.sample(5)

    def busy(self, t0, t1):
        """Seconds the kernel ran in samples that started within [t0, t1).

        ``t0`` and ``t1`` may be arrays of span ends.
        """
        cumulative = np.concatenate([[0.0], np.cumsum(self.samples)])
        return (cumulative[np.searchsorted(self.starts, t1)]
                - cumulative[np.searchsorted(self.starts, t0)])

    def factor(self, t0, t1):
        """Factor for a time measured over [t0, t1]: multiply to get reference seconds.

        Uses the samples within WINDOW_S of the span; the nearest one if none.
        """
        starts, k = np.asarray(self.starts), np.asarray(self.samples)
        lo = np.searchsorted(starts, t0 - WINDOW_S)
        hi = np.searchsorted(starts, t1 + WINDOW_S, side="right")
        if hi <= lo:
            lo = min(int(np.argmin(np.abs(starts - 0.5 * (t0 + t1)))), len(k) - 1)
            hi = lo + 1
        return REF_KERNEL_S / float(np.median(k[lo:hi]))

    def point_factors(self, at):
        """``factor`` for many short spans at once, given their mid-points."""
        starts, k = np.asarray(self.starts), np.asarray(self.samples)
        lo = np.searchsorted(starts, starts - WINDOW_S)
        hi = np.searchsorted(starts, starts + WINDOW_S, side="right")
        local = REF_KERNEL_S / np.array([np.median(k[a:b]) for a, b in zip(lo, hi)])
        nearest = np.clip(np.searchsorted(starts, np.asarray(at, dtype=float)),
                          0, len(k) - 1)
        return local[nearest]

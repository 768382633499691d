"""Times at a reference machine speed.

The 2-core host this benchmark was written on changes speed by up to 2x
within seconds, because other tenants share its cores.  Identical passes of
`sparse-desk` took 4.3 s in one run and 8.1 s in another a few minutes
later, and the raw wall times of seven runs spread by 42-63 % (quartile
distance over median) on every workload.  A calibration timed only between
operations did not help the long ones: the speed changes within a
5-second operation.

So while a run is timed, a timer signal interrupts it every ``INTERVAL``
seconds and times one of four fixed calibrations, in turn.  They are written
in the program's idioms: a cmath scalar loop, mpmath elementary functions,
an mpmath 2x2 transfer product, and mpmath Bessel/Hankel functions, all on a
private mpmath context so the program's precision is never touched.  No one
of them tracks every workload's slowdowns; their geometric mean tracked all
four workloads to 6-9 % per operation.  The benchmark's clock leaves out the
time spent calibrating, and a time measured on it is multiplied by the
geometric mean over the calibrations of ``CAL_REF_S[i] / median(times of
calibration i within WINDOW of it)``: the time it would have taken on a
machine that runs calibration i in ``CAL_REF_S[i]``.  The calibrations are
benchmark code, so a change to the program moves the rescaled times exactly
as it moves the wall times.
"""

from __future__ import annotations

import bisect
import cmath
import contextlib
import math
import signal
import statistics
import time

import mpmath

#: seconds between calibrations, and the half-width of the window of
#: calibrations that rescales one measurement
INTERVAL = 0.1
WINDOW = 1.0

_mp = mpmath.MPContext()


def _cmath_loop():
    acc = 0j
    for i in range(6000):
        w = cmath.sqrt(0.3 + 0.1j + i * 1e-5)
        acc += cmath.exp(1j * w) / (1.0 + w * w)


def _mp_elementary():
    _mp.dps = 50
    x, acc = _mp.mpc(0.3, 0.1), 0
    for i in range(40):
        acc += _mp.exp(1j * _mp.sqrt(x + i)) / (1 + x * x)


def _mp_transfer():
    _mp.dps = 50
    E, psi, dpsi = _mp.mpc(1.0, 0.08), _mp.mpc(1), _mp.mpc(0)
    for width, v in ((40.0, -0.3 + 0.02j), (330.0, 0), (70.0, -0.5 + 0.01j), (330.0, 0)) * 5:
        k2 = E - v
        k = _mp.sqrt(k2)
        c, s = _mp.cos(k * width), width * _mp.sinc(k * width)
        psi, dpsi = c * psi + s * dpsi, -k2 * s * psi + c * dpsi


def _mp_bessel():
    _mp.dps = 30
    for i in range(2):
        z = _mp.mpc(2.0 + 0.3 * i, 3.5)
        _mp.besselj(0, z)
        _mp.hankel1(1, z)


CALIBRATIONS = (_cmath_loop, _mp_elementary, _mp_transfer, _mp_bessel)
#: seconds each calibration takes at the reference speed
CAL_REF_S = (0.004, 0.006, 0.006, 0.01)


class Speed:
    """The benchmark's clock, and the calibrations that rescale its times."""

    def __init__(self):
        self.starts = []  # calibration start, on this clock
        self.kinds = []  # index into CALIBRATIONS
        self.samples = []  # calibration seconds
        self.stolen = 0.0  # seconds spent calibrating
        self._busy = False

    def now(self) -> float:
        """Wall clock minus the time spent in calibrations."""
        return time.perf_counter() - self.stolen

    def _calibrate(self, signum=None, frame=None) -> None:
        if self._busy:  # a signal that lands inside a calibration is dropped
            return
        self._busy = True
        kind = len(self.samples) % len(CALIBRATIONS)
        t0 = time.perf_counter()
        CALIBRATIONS[kind]()
        dt = time.perf_counter() - t0
        self._busy = False
        self.starts.append(t0 - self.stolen)
        self.kinds.append(kind)
        self.samples.append(dt)
        self.stolen += dt

    @contextlib.contextmanager
    def sampling(self):
        """Calibrate every ``INTERVAL`` seconds for the length of the block."""
        for _ in CALIBRATIONS:
            self._calibrate()
        previous = signal.signal(signal.SIGALRM, self._calibrate)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def _factor(self, lo: int, hi: int) -> float:
        log_sum = 0.0
        for kind, ref in enumerate(CAL_REF_S):
            times = [s for k, s in zip(self.kinds[lo:hi], self.samples[lo:hi]) if k == kind]
            log_sum += math.log(ref / statistics.median(times))
        return math.exp(log_sum / len(CAL_REF_S))

    def scale(self, start: float, seconds: float) -> float:
        """Reference seconds of ``seconds`` measured from ``start`` on this clock."""
        lo = bisect.bisect_left(self.starts, start - WINDOW)
        hi = bisect.bisect_right(self.starts, start + seconds + WINDOW)
        if hi - lo < 3 * len(CALIBRATIONS):
            lo, hi = 0, len(self.samples)
        return seconds * self._factor(lo, hi)

    @property
    def factor(self) -> float:
        """Rescaling by the calibrations of the whole run."""
        return self._factor(0, len(self.samples))

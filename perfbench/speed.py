"""Machine-speed calibration for timings taken on a shared host.

On a host shared with other tenants the speed of one core changes by up to
1.5x for seconds at a time, so raw wall times of identical runs spread far
wider than the regressions the benchmark must catch.  ``Speedometer`` runs a
fixed calibration kernel from a SIGALRM handler every ``INTERVAL_S`` of wall
time, in the benchmark's own thread, and keeps each kernel's duration.  A
timed interval is then reported in nominal seconds:

    nominal = (raw wall time - handler time inside it) * NOMINAL_S / c

where c is the median kernel duration sampled in and around the interval.
The kernel is a frozen copy of the engine's hot path (exact m=2 and m=3
scalar products in a small dense matrix product) and calls no
``colorhomlie`` code, so an engine change moves the nominal time and a
machine-speed change does not.  Raw seconds are kept next to every
nominal one.
"""
from __future__ import annotations

import gc
import signal
import statistics
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.1
# Median kernel duration on the 2-vCPU x86-64 host the baseline was taken on.
NOMINAL_S = 2.5e-3
MIN_SAMPLES = 3
MARGIN_S = 0.25


@dataclass(frozen=True, slots=True)
class _Scalar:
    """Element of Q(zeta_m) for m = 2 (one coefficient) or m = 3 (two)."""

    coeffs: tuple

    def __add__(self, other):
        return _Scalar(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) == 1:
            return _Scalar((a[0] * b[0],))
        prod = [Fraction(0)] * 3
        for i, ca in enumerate(a):
            if ca != 0:
                for j, cb in enumerate(b):
                    if cb != 0:
                        prod[i + j] += ca * cb
        # zeta^2 = -1 - zeta
        return _Scalar((prod[0] - prod[2], prod[1] - prod[2]))


_N = 4
_M2 = [[_Scalar((Fraction(i * _N + j + 1, j + 2),)) for j in range(_N)]
       for i in range(_N)]
_M3 = [[_Scalar((Fraction(i + 1, j + 2), Fraction(j - i, 3))) for j in range(_N)]
       for i in range(_N)]


def _square(M):
    out = []
    for i in range(_N):
        row = []
        for j in range(_N):
            acc = None
            for t in range(_N):
                term = M[i][t] * M[t][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def kernel():
    """The calibration work: one 4x4 product at m = 2 and one at m = 3."""
    return _square(_M2), _square(_M3)


class Speedometer:
    """Samples the calibration kernel while active (a context manager)."""

    def __init__(self):
        self.samples = []     # (start, duration) of every kernel run
        self.spent = 0.0      # total seconds spent in the handler
        self._previous = None

    def _handler(self, signum, frame):
        # A collection triggered inside the kernel would time the engine's heap.
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        kernel()
        duration = perf_counter() - start
        if collecting:
            gc.enable()
        self.samples.append((start, duration))
        self.spent += perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def kernel_seconds(self, start, end):
        """Median kernel duration in [start, end] widened by ``MARGIN_S``, or
        else over the ``MIN_SAMPLES`` samples nearest the interval."""
        near = [d for t, d in self.samples if start - MARGIN_S <= t <= end + MARGIN_S]
        if len(near) < MIN_SAMPLES:
            def distance(sample):
                t = sample[0]
                return start - t if t < start else t - end if t > end else 0.0
            near = [d for _, d in sorted(self.samples, key=distance)[:MIN_SAMPLES]]
        if not near:
            raise RuntimeError("no calibration samples were taken")
        return statistics.median(near)

    def nominal(self, raw, start, end):
        """``raw`` seconds measured over [start, end], in nominal seconds."""
        return raw * NOMINAL_S / self.kernel_seconds(start, end)

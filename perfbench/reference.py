"""Host speed, from a fixed reference kernel timed between operations.

The shared host the benchmark runs on changes speed by up to 1.4x, for tens
of seconds to minutes at a time, which no statistic inside one run can
remove.  So the worker (and run.py, between set-ups) times a fixed piece of
pure-Python exact arithmetic, the kind of work passlab's kernels do, and
scales its times to a host on which that piece takes REF_NOMINAL_S.  The
kernel uses only the standard library, so no change to passlab moves it.
"""

from __future__ import annotations

import time
from fractions import Fraction

REF_SHARE = 0.1  # reference time per second of measured time
REF_NOMINAL_S = 0.004  # one chunk on the reference host: the 2-vCPU Xeon VM, idle
_A = [Fraction(3 * i - 17, 2 * i + 3) for i in range(30)]
_B = [Fraction(5 * i + 2, 7 - 3 * i) for i in range(30)]


def chunk() -> float:
    """Seconds one fixed polynomial product over Fractions takes now."""
    t0 = time.perf_counter()
    out = [Fraction(0)] * (len(_A) + len(_B) - 1)
    for i, x in enumerate(_A):
        for j, y in enumerate(_B):
            out[i + j] += x * y
    return time.perf_counter() - t0


class Reference:
    """Runs chunks so that they take `share` of the time measured."""

    def __init__(self, share: float = REF_SHARE):
        self.share = share
        self.chunks: list[float] = []
        self._owed = 0.0

    def top_up(self, measured_s: float):
        self._owed += self.share * measured_s
        while self._owed > 0:
            t = chunk()
            self.chunks.append(t)
            self._owed -= t

    def speed(self, since: int = 0) -> float:
        """Nominal over measured chunk time, over chunks[since:]: below 1 on
        a slow host.  A measured time times this is the time on the
        reference host."""
        xs = self.chunks[since:]
        return REF_NOMINAL_S * len(xs) / sum(xs) if xs else 1.0

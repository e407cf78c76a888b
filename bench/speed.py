"""Machine-speed probe: wall times rescaled to a nominal machine speed.

The benchmark runs on shared virtual machines whose speed drifts by
±30 % over seconds to minutes as other tenants load the host.  Rounds
within one run agree far better than runs do, so a phase's wall time
alone measures mostly that drift.  :class:`SpeedProbe` measures the
drift beside the phase: while the phase runs, a ``SIGALRM`` timer
interrupts it every :data:`PERIOD_S` and times a fixed pure-Python loop
(one *sample*).  The samples cut the phase into slices, and each slice
is rescaled by the speed the samples read around it:

    scaled_s = Σ slice × NOMINAL_S / median(last three samples)

the time the phase would take on a machine where the loop takes
:data:`NOMINAL_S`.  The median of three keeps one sample that the host
happened to interrupt from rescaling its slice.  The program under test
is untouched; the loop allocates no object the garbage collector
tracks, so collections happen where they would without the probe.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any, List, Optional

#: Wall-clock seconds between two samples.
PERIOD_S = 0.05
#: Iterations of the sample loop.
LOOP = 20_000
#: What one sample takes on the calibration VM (a 2-vCPU Xeon VM at
#: 2.1 GHz, in a quiet spell), so scaled times read in its seconds.
NOMINAL_S = 0.00105


def _sample() -> float:
    """Seconds one run of the fixed loop takes now."""
    start = time.perf_counter()
    total = 0
    for step in range(LOOP):
        total += step
    return time.perf_counter() - start


class SpeedProbe:
    """Context manager timing one phase and sampling machine speed.

    ``with SpeedProbe() as probe: phase()`` leaves the phase's wall time
    without the samples in :attr:`wall_s`, its rescaled time in
    :attr:`scaled_s`, and its wall time with the samples taken inside it
    in :attr:`elapsed_s`.  One sample is also taken just before and just
    after the phase, so a phase shorter than :data:`PERIOD_S` still has
    a speed reading.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.elapsed_s = 0.0
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self._start = 0.0
        self._mark = 0.0
        self._previous: Any = None

    def _close_slice(self, end: float, took: float) -> None:
        """Add the slice from the last mark to ``end``, followed by a
        sample that took ``took`` seconds."""
        self.samples.append(took)
        self.wall_s += end - self._mark
        self.scaled_s += (end - self._mark) * NOMINAL_S / statistics.median(self.samples[-3:])

    def _on_alarm(self, signum: int, frame: Optional[Any]) -> None:
        end = time.perf_counter()
        self._close_slice(end, _sample())
        self._mark = time.perf_counter()

    def __enter__(self) -> "SpeedProbe":
        self.samples.append(_sample())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start = self._mark = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        self.elapsed_s = end - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self._close_slice(end, _sample())

    @property
    def speed(self) -> float:
        """Mean machine speed over the phase: 1.0 is the calibration VM's."""
        return self.scaled_s / self.wall_s if self.wall_s else 1.0

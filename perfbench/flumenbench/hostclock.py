"""Contention-normalised host time.

The benchmark host is shared.  Other tenants' work slows this process
down by tens of percent, in phases that last from milliseconds to
minutes.  The vCPU is not taken away (process CPU time grows with wall
time); it runs slower.  So neither wall time nor CPU time of a long
operation is steady from run to run.

A :class:`HostClock` measures that slowdown while an operation runs.
An interval timer interrupts the program every :data:`PERIOD_S` and
runs a fixed interpreter probe.  The probe's duration tracks the
interpreter's current speed.  The normalised time of an interval is its
host time, less the probes' own time, times the mean of
``PROBE_REF_S / probe duration`` over the probes that ran inside it.
That is the time the interval's work would take at the speed at which
one probe takes exactly :data:`PROBE_REF_S`.  Work the program adds or
removes changes the normalised time; host contention, to first order,
does not.
"""

from __future__ import annotations

import signal
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

#: Interval between probes (seconds of host time).
PERIOD_S = 0.004
#: Nominal probe duration: normalised times are in units where one
#: probe takes this long.
PROBE_REF_S = 100e-6
#: Dictionary stores per probe (about 60-120 us of interpreter work,
#: integer allocation included, as in the program's own loops).  An
#: allocation-free probe tracked the program's slowdown less well: its
#: normalised grid pass spread 0.036 between passes, against 0.024.
PROBE_STORES = 1500


class HostClock:
    """Probe samples taken while :meth:`running`, and the normalised
    duration of any interval within them."""

    def __init__(self) -> None:
        self.at = array("q")
        self.cost = array("q")
        self._table: dict[int, int] = {}
        self._probing = False

    def probe(self, *_signal) -> None:
        """One probe: fixed interpreter work, timed.

        A timer signal that arrives while a probe runs (the interpreter
        delivers signals late after a long C call) is dropped, so probes
        never nest.
        """
        if self._probing:
            return
        self._probing = True
        try:
            start = perf_counter_ns()
            table = self._table
            for i in range(PROBE_STORES):
                table[i & 255] = i
            self.cost.append(perf_counter_ns() - start)
            self.at.append(start)
        finally:
            self._probing = False

    @contextmanager
    def running(self):
        """Probe every :data:`PERIOD_S` while the block runs."""
        previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def speed(self, start_ns: int | None = None,
              end_ns: int | None = None) -> tuple[float, int]:
        """``(mean of PROBE_REF_S / probe duration, probe ns)`` over the
        probes that began in ``[start_ns, end_ns)`` (all probes when no
        bounds are given).  An interval without a probe of its own takes
        the speed of all probes; without any probe the speed is 1."""
        import numpy as np  # not at import: set-up probes time the import

        at = np.array(self.at, dtype=np.int64)
        cost = np.array(self.cost, dtype=np.int64)
        if start_ns is not None:
            lo, hi = np.searchsorted(at, [start_ns, end_ns])
            inside = cost[lo:hi]
            if len(inside):
                return (float(np.mean(PROBE_REF_S * 1e9 / inside)),
                        int(inside.sum()))
            return self.speed()[0], 0
        if not len(cost):
            return 1.0, 0
        return float(np.mean(PROBE_REF_S * 1e9 / cost)), int(cost.sum())

    def normalised(self, start_ns: int, end_ns: int) -> float:
        """Normalised seconds of the interval ``[start_ns, end_ns)``."""
        factor, probe_ns = self.speed(start_ns, end_ns)
        return (end_ns - start_ns - probe_ns) * 1e-9 * factor

"""Host-speed probe: take a shared VM's drifting host speed out of timings.

On a shared 2-vCPU VM the same pass of the simulator takes anywhere from
24 s to 34 s: the host's speed drifts by 10-20% over tens of seconds, the
same for every point of a pass.  A timer signal interrupts the run every
``INTERVAL`` seconds and times a fixed, benchmark-owned probe: ``OPS``
``OrderedDict.move_to_end`` calls on a persistent 1024-entry dict.  That
is the operation the simulator's LRU loops spend their time on, it
allocates nothing, and no change to the program can alter it.  Measured
on the VM, probe time tracks the simulator's speed (correlation ~0.8), and
dividing by it cuts the drift of 10 s blocks of simulator work from ~10%
to ~2%.

:meth:`HostSpeedProbe.normalize` turns a measured interval into host
seconds at the probe's reference speed ``NOMINAL_S``: the probes' own time
is removed, and the rest is scaled by ``NOMINAL_S / mean probe time``.
The probe shares the process's caches, so a change that alters the
program's cache footprint can move it by a few percent; the raw seconds
are printed beside every normalized figure.
"""

from __future__ import annotations

import random
import signal
from collections import OrderedDict

from layerclock import _now

#: Seconds between probes (wall clock).
INTERVAL = 0.025

#: move_to_end calls per probe.
OPS = 6000

#: Mean probe seconds on the reference host (2-vCPU Xeon VM, Python 3.11).
NOMINAL_S = 0.00055


class HostSpeedProbe:
    """Times the fixed probe on a timer while a block of work runs."""

    def __init__(self, seed: int = 20140215):
        rng = random.Random(seed)
        self._lru = OrderedDict((key, True) for key in range(1024))
        self._keys = [rng.randrange(1024) for _ in range(OPS)]
        self.samples = []
        self._previous = None

    def _probe(self, signum, frame) -> None:
        move = self._lru.move_to_end
        start = _now()
        for key in self._keys:
            move(key)
        self.samples.append(_now() - start)

    def __enter__(self) -> "HostSpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, first: int = 0) -> float:
        """Mean time of probes ``first``.. over the reference (1.0 if none)."""
        samples = self.samples[first:]
        if not samples:
            return 1.0
        return sum(samples) / len(samples) / NOMINAL_S

    def normalize(self, seconds: float, first: int = 0) -> float:
        """``seconds`` that began at probe ``first``, at the reference
        host speed."""
        return (seconds - sum(self.samples[first:])) / self.slowdown(first)

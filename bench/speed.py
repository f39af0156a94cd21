"""Host-speed probe: time the program in units of a fixed reference kernel.

The machine the benchmark was tuned on is a shared host whose speed drifts
by up to 1.5x, in phases of seconds to many minutes, for the same code; CPU
time drifts with wall time, so the slowdown is not stolen time but a slower
core.  A ``Speedometer`` samples the speed while the program runs: an
interval timer interrupts the program every ``INTERVAL`` seconds and times
one run of ``probe``, a fixed sparse polynomial product written here, so
that no change to the program changes it.  The measured time, less the
probes' own time, divided by the probes' typical time, is the time in
probe units; multiplied by ``NOMINAL_PROBE_S`` it reads as seconds on a
machine where one probe takes that long.

This module imports nothing heavy, so ``run.py`` can start a speedometer
before the program is imported.
"""

from __future__ import annotations

import gc
import random
import signal
import time
from typing import List, Optional

# Seconds between probes; each probe takes about 0.3 ms, so the probes cost
# about 3 % of the measured time.
INTERVAL = 0.01

# The probe's time (in a timer interrupt, with the program's data in the
# caches) on the reference machine: 2 vCPUs of an Intel Xeon, Python 3.11.
NOMINAL_PROBE_S = 300e-6

# Share of the slowest probes left out of their mean: a probe that a page
# fault or an interrupt of the host lands on says nothing about the speed.
TRIM = 0.1


def _operands():
    rng = random.Random(20261017)

    def poly():
        return {tuple(rng.randrange(4) for _ in range(4)): rng.randrange(1, 5)
                for _ in range(14)}

    return poly(), poly()


_A, _B = _operands()


def probe() -> int:
    """The reference kernel: a product of two 14-term polynomials mod 5,
    kept as dicts from exponent tuples to coefficients."""
    out = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = (out.get(e, 0) + ca * cb) % 5
    return len(out)


class Speedometer:
    """Probe the host's speed while code runs between ``start`` and ``stop``.

    One speedometer at a time: it owns SIGALRM and ITIMER_REAL while it runs.
    """

    def __init__(self):
        self.samples: List[float] = []
        self._t0 = 0.0
        self.elapsed = 0.0

    def _tick(self, signum, frame) -> None:
        was_enabled = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not the probe's time
        t0 = time.perf_counter()
        probe()
        self.samples.append(time.perf_counter() - t0)
        if was_enabled:
            gc.enable()

    def start(self, t0: Optional[float] = None) -> "Speedometer":
        """Start probing; the measured time counts from ``t0``, a
        perf_counter reading taken earlier, if one is given."""
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)
        self._t0 = time.perf_counter() if t0 is None else t0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def stop(self) -> "Speedometer":
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.elapsed = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self

    def probe_s(self) -> float:
        """Typical probe time: the mean of the fastest (1 - TRIM) of them."""
        if not self.samples:
            return NOMINAL_PROBE_S
        ordered = sorted(self.samples)
        kept = ordered[:max(1, int(len(ordered) * (1.0 - TRIM)))]
        return sum(kept) / len(kept)

    def speed(self) -> float:
        """The host's speed against the reference machine (1.0 is as fast)."""
        return NOMINAL_PROBE_S / self.probe_s()

    def normalized(self) -> float:
        """Measured time less the probes' own, in reference-machine seconds."""
        return (self.elapsed - sum(self.samples)) * self.speed()

"""A machine-speed reference for timings taken on a shared host.

On a small shared VM the CPU speed a process gets changes from one
second to the next (other tenants on the same cores): the same
Figure 11 unit took anywhere from 43 to 176 ms within one minute on
the 2-core development machine, and 20-second averages of it spread by
a quarter from one run to the next.  A :class:`SpeedProbe` runs a fixed
pure-Python loop on a background thread every :data:`PERIOD_S` seconds
while a timed region runs, so its mean duration samples the machine's
speed over exactly that region.  Dividing a timing by it cancels the
host's drift (the same 20-second averages, normalised, spread by 3%)
and leaves what the program changed.  It tracks some kinds of
neighbour load less well than others: in a quieter period ten
Figure 11 runs spread by 6% raw and 9% normalised.

:func:`normalise` maps a duration measured at the probed speed to the
duration on a nominal machine whose probe mean is
:data:`NOMINAL_PROBE_S`.  The probe costs the timed region about 1.5%
(the loop holds the interpreter lock for ~0.35 ms every 25 ms), the
same on every commit.
"""

from __future__ import annotations

import threading
import time

#: Seconds between probe samples.
PERIOD_S = 0.025
#: Probe mean that defines the nominal machine (on the order of the
#: development machine's).
NOMINAL_PROBE_S = 4e-4


def probe_loop() -> None:
    """The fixed reference work: dict and float arithmetic, like the
    program's interpreter-bound hot loops."""
    d: dict[int, int] = {}
    acc = 0.0
    for i in range(2000):
        k = i & 255
        d[k] = d.get(k, 0) + i
        acc += k * 0.5


class SpeedProbe:
    """Context manager sampling :func:`probe_loop` durations."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self) -> None:
        clock = time.perf_counter
        while not self._stop.wait(PERIOD_S):
            t0 = clock()
            probe_loop()
            self.samples.append(clock() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()
        if not self.samples:  # region shorter than one period
            t0 = time.perf_counter()
            probe_loop()
            self.samples.append(time.perf_counter() - t0)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)


def normalise(duration: float, probe: SpeedProbe) -> float:
    """``duration`` as it would read on the nominal machine."""
    return duration * NOMINAL_PROBE_S / probe.mean

"""Speed probe: scales measured times to a reference machine speed.

The shared cores this benchmark runs on change speed by a quarter or more
over seconds to minutes, and CPU time follows wall time, so this is not
preemption.  A fixed pure-Python probe runs between subjects, at most every
``EVERY_S``.  The time between two probe readings is scaled by ``REF_S``
over the mean of those two readings, since the speed can change within a
pass.  A subject's latency gets the factor of the interval it ran in, and
the total of a pass is the sum of its scaled intervals, so both follow the
same time-weighted rule.  A change to openpoint cannot change the probe: it
is the benchmark's own code, and it allocates no object the garbage
collector tracks, so a larger heap does not slow it.  Probe time itself is
left out of every measurement.
"""

from __future__ import annotations

import time

REF_S = 0.002   # sets the unit: scaled seconds are seconds at a probe time of 2 ms
EVERY_S = 0.2
_BUF = [0] * 1024


def probe_kernel() -> int:
    x, acc, buf = 0x9E3779B1, 0, _BUF
    for _ in range(3000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        k = x & 1023
        buf[k] ^= x >> 9
        acc ^= buf[k] & (x | k)
    return acc


class Pace:
    """Probes between subjects and turns raw durations into scaled ones.

    ``probes`` is how many kernel runs make up the first and the last
    reading; a long stretch with no probe in between, such as set-up, wants
    several so that one slow kernel run does not set its scale.
    """

    def __init__(self, probes: int = 1, clock=time.perf_counter, kernel=probe_kernel):
        self.clock = clock
        self.kernel = kernel
        self.probes_at_ends = probes
        self.readings: list = []   # (start, end, mean kernel time) per reading
        self.spans: list = []
        self.probe(probes)

    def probe(self, runs: int = 1) -> None:
        t0 = self.clock()
        for _ in range(runs):
            self.kernel()
        self.last_end = self.clock()
        self.readings.append((t0, self.last_end, (self.last_end - t0) / runs))

    def tick(self) -> None:
        """Call between subjects: probes when ``EVERY_S`` has passed."""
        if self.clock() - self.last_end >= EVERY_S:
            self.probe()

    def record(self, raw_s: float) -> None:
        """A span that ran entirely after the latest reading."""
        self.spans.append((raw_s, len(self.readings) - 1))

    def finish(self):
        """Return (raw spans, scaled spans, raw total, scaled total)."""
        self.probe(self.probes_at_ends)
        r = self.readings
        gaps = [b[0] - a[1] for a, b in zip(r, r[1:])]
        local = [2 * REF_S / (a[2] + b[2]) for a, b in zip(r, r[1:])]
        return ([s for s, _ in self.spans], [s * local[i] for s, i in self.spans],
                sum(gaps), sum(g * f for g, f in zip(gaps, local)))

"""Host-speed normalisation of measured times.

The benchmark runs on shared hosts whose speed drifts: on a 2-CPU
container the same request took 1.4-2.6x longer for stretches of
seconds to minutes while a neighbour was busy, and process CPU time
slowed down with it (no steal time is reported), so neither longer runs
nor CPU time remove the drift.

A *probe* is a fixed piece of work that lives here, outside the
program under test: an interpreter-bound half (dict and integer work,
as in grammar induction) and a NumPy call-bound half (z-normalising and
self-dotting short rows, as in a discord search).  After every request
(and every stretch of ~2000 pushes on ``stream``) the benchmark runs
probes in proportion to the time it just measured, outside every timed
region.  Each measured stretch is then reported as

    measured time x REFERENCE_PROBE_S / (mean probe time),

that is, in seconds of a host that runs the probe in REFERENCE_PROBE_S.
The mean is over the probes just before and just after the stretch
(``local``), or over the whole run, each probe weighted by the time it
stands for (``run``), for workloads whose request time follows the
probes next to it less closely than the run's host speed.
A change to the program moves the measured time and not the probe, so
it moves the reported figure in full; a change in host speed moves both
and largely cancels.  Measured on a busy 2-CPU host, the mean probe
time over 15 s stretches correlated 0.9-0.97 with the total time of
``table1`` and ``stream`` requests in them, and normalising cut the
spread of those totals from 12 % to 4-6 %; on ``density_long`` from 9 %
to 5 %.  The probes next to a request also cut its own jitter on
``table1`` (17 % to 11 %) and ``stream``, but raised it on
``density_long`` and ``ensemble`` (12 % to 16 %; its work runs in two
worker processes), so those two use the run mean.  Raw times stay in the
run's detail record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe time on an idle 2-CPU Xeon container (the scale of every
#: normalised time; changing it rescales, but does not steady, results).
REFERENCE_PROBE_S = 4.0e-3
#: One probe per this much measured time (~5 % extra wall time) ...
PROBE_SPACING_S = 0.08
#: ... and at most this many after one measured stretch.
MAX_PROBES = 25

_ROWS = np.random.default_rng(20150323).standard_normal((160, 128))


def probe() -> float:
    """Run the fixed probe work once; return its wall time in seconds."""
    clock = time.perf_counter
    start = clock()
    counts: dict = {}
    for i in range(20_000):
        key = (i * 7919) % 1009
        counts[key] = counts.get(key, 0) + 1
    total = 0.0
    for row in _ROWS:
        z = (row - row.mean()) / row.std()
        total += float(z @ z)
    return clock() - start


class HostSpeed:
    """Groups of probes, one group after each measured stretch, and the
    factors that turn raw times into reference-host times."""

    def __init__(self, local: bool = True) -> None:
        #: Normalise by the probes next to a stretch (else the run mean).
        self.local = local
        self.groups: list[list[float]] = []
        #: Measured seconds each group stands for.
        self.covered: list[float] = []
        #: Wall time spent probing so far (to subtract from any timed
        #: region a probe had to run inside).
        self.spent_s = 0.0

    def cover(self, seconds: float) -> int:
        """Probe right after a measured stretch of *seconds*; return the
        index of the new probe group."""
        n = max(1, min(MAX_PROBES, round(seconds / PROBE_SPACING_S)))
        group = [probe() for _ in range(n)]
        self.groups.append(group)
        self.covered.append(seconds)
        self.spent_s += sum(group)
        return len(self.groups) - 1

    def factor(self, first: int, last: int | None = None) -> float:
        """Factor for the stretches covered by groups *first*..*last*:
        REFERENCE_PROBE_S over the mean probe of those groups and of the
        group before them (probes just before and just after), or over
        the run's time-weighted mean probe when not ``local``."""
        if not self.local:
            return REFERENCE_PROBE_S / self.run_mean_probe_s()
        last = first if last is None else last
        near = [d for group in self.groups[max(0, first - 1) : last + 1] for d in group]
        return REFERENCE_PROBE_S / statistics.fmean(near)

    def run_mean_probe_s(self) -> float:
        """Mean probe of the run, each group weighted by the measured
        time it stands for."""
        total = sum(self.covered)
        means = [statistics.fmean(group) for group in self.groups]
        if total <= 0.0:
            return statistics.fmean(means)
        return sum(w * m for w, m in zip(self.covered, means)) / total

    def summary(self) -> dict:
        every = [d for group in self.groups for d in group]
        return {
            "local": self.local,
            "probes": len(every),
            "run_factor": REFERENCE_PROBE_S / self.run_mean_probe_s(),
            "probe_ms_mean": 1e3 * statistics.fmean(every),
            "probe_ms_median": 1e3 * statistics.median(every),
            "probe_ms_min": 1e3 * min(every),
            "probe_ms_max": 1e3 * max(every),
        }

"""Host-speed scaling of the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts: the same code runs
up to twice as slowly for seconds to minutes at a time, and the process
is not descheduled while it does (its CPU time rises with its wall
time), so neither medians nor CPU time keep a run-to-run comparison
steady. A fixed reference loop, written with the standard library only,
slows down with the host in the same way.

A run times the reference loop at the start of each series of timed
spans (the set-up rounds, the iterations) and then whenever the last
timing is at least ``SAMPLE_EVERY_S`` old and a span has ended. Each span
is reported as

    seconds * NOMINAL_REFERENCE_S / (mean of the reference timings just
                                     before and just after it)

that is, in seconds on a host where the reference loop takes
``NOMINAL_REFERENCE_S``; the median of a series is then taken over
scaled spans. The loop never calls hochtrace, so a change to hochtrace
moves the scaled time as it moves the raw one.

The loop's working set (a dict of 40000 tuple keys, several MB) is
what makes it follow hochtrace: on a shared VM, scaling by a loop over a
dict of that size steadied medians of hochtrace iterations about twice
as well as scaling by a loop over a small dict (bench/README.md, "Noise
notes").
"""
from __future__ import annotations

import gc
import time
from fractions import Fraction

# a round figure within the range the loop took (0.06-0.12 s) on the
# 2-vCPU Intel Xeon VM the benchmark was written on, Python 3.11
NOMINAL_REFERENCE_S = 0.1
SAMPLE_EVERY_S = 0.5


def reference_loop(keys=40000):
    table = {}
    for i in range(keys):
        table[(i, i % 97, str(i % 13))] = i * 3 + 1
    third = Fraction(1, 3)
    sums = {}
    for key, value in table.items():
        if value % 8 == 0:
            short = (key[1], key[2])
            sums[short] = sums.get(short, 0) + Fraction(value, key[1] + 1) * third
    order = sorted(table, key=lambda key: (key[1], key[0]))
    return len(sums) + len(order)


class HostSpeed:
    """The reference loop's timings over one run."""

    def __init__(self):
        self.samples = []
        self.last = 0.0

    def sample(self):
        gc.collect()
        start = time.perf_counter()
        reference_loop()
        self.last = time.perf_counter()
        self.samples.append(self.last - start)
        return self.samples[-1]

    def due(self):
        return time.perf_counter() - self.last >= SAMPLE_EVERY_S


class Series:
    """Consecutive timed spans, each scaled by the reference timings that
    bracket it; spans shorter than ``SAMPLE_EVERY_S`` share a bracket."""

    def __init__(self, host):
        self.host = host
        self.before = host.sample()
        self.pending = []
        self.raw = []
        self.scaled = []

    def add(self, seconds):
        self.raw.append(seconds)
        self.pending.append(seconds)
        if self.host.due():
            self.flush()

    def flush(self):
        if not self.pending:
            return
        after = self.host.sample()
        factor = NOMINAL_REFERENCE_S / ((self.before + after) / 2)
        self.scaled.extend(seconds * factor for seconds in self.pending)
        self.pending.clear()
        self.before = after

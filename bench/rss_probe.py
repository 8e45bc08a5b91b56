"""Sets up one workload and runs one iteration of it, for the peak
resident memory of a fresh process doing so; run.py starts it and reads
the figure from ``resource.getrusage(resource.RUSAGE_CHILDREN)``.

    python3 bench/rss_probe.py <workload> <seed>

It runs apart from the measured process because the measured process
also times a reference loop whose working set would show in its own peak.
"""
from __future__ import annotations

import sys

from certify import Checks
from run import SRC, import_hochtrace
from workloads import WORKLOADS


def main(name, seed):
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[name]
    lib = import_hochtrace()
    inputs = workload.setup(lib, seed, Checks(None))
    # every part's result is held to the end, as in a measured iteration
    results = [part.run(lib, inputs) for part in workload.parts]
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))

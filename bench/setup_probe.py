"""One fresh interpreter doing a workload's set-up, for timing ``setup_s``.

    python3 bench/setup_probe.py WORKLOAD SEED WORKDIR

Prints the set-up's seconds, from the first import to the last input
written, and then the mean of two timings of the reference kernel, so that
the set-up is scaled by the speed of the process that did it.
"""
import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from run import import_package, reference_kernel  # noqa: E402

if __name__ == "__main__":
    workload, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    import_package()
    workloads.setup(workload, work, seed)
    setup_s = time.perf_counter() - T0
    print(setup_s, 0.5 * (reference_kernel() + reference_kernel()))

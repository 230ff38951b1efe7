"""Child process that times the benchmark's set-up: import asepx, build the inputs.

Usage: python3 bench/setup_probe.py <src dir> <workload> <seed>
Prints the set-up time in seconds.  Run in a fresh process so that the
import is measured cold, as a user of `asepx` pays it on every call.
"""

import sys
import time

start = time.perf_counter()
import workloads  # noqa: E402

asepx = workloads.import_asepx(sys.argv[1])
w = workloads.WORKLOADS[sys.argv[2]]
workloads.build_ops(w, int(sys.argv[3]), asepx)
print(repr(time.perf_counter() - start))

"""Set-up probe, run in a fresh interpreter by ``run.py``.

Usage: probe.py SRC_DIR WORKLOAD SEED REDUCED(0|1)

Prints the wall time of ``import fstheta`` plus the public constructors of
the workload's finest level (mesh, space, scheme parameters, scheme and
estimator engine), before any step.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import fstheta  # noqa: E402,F401  (timed)
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[2]](int(sys.argv[3]), reduced=sys.argv[4] == "1").construct_finest()
print(repr(time.perf_counter() - start))

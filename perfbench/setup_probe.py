"""Time one set-up of a workload in this fresh interpreter and print the
seconds: importing idealtop and, for the search workloads, building the
workspaces up to (3, 3).  Run by ``run.py`` from the repository root:

    python3 perfbench/setup_probe.py certify
"""

import os
import sys
import time

start = time.perf_counter()
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import workloads  # noqa: E402  (imports idealtop)

workloads.WORKLOADS[sys.argv[1]].setup()
print(time.perf_counter() - start)

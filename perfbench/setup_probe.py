"""Cold start of one workload in a fresh interpreter: import degconn, then
build the workload's input.  Prints {"import_s": ..., "setup_s": ...}, where
setup_s is the import plus the build (the benchmark module's own import is
left out).

    PYTHONPATH=src python3 perfbench/setup_probe.py <workload>
"""

import json
import sys
import time

t0 = time.perf_counter()
import degconn  # noqa: E402,F401
t1 = time.perf_counter()

import workloads  # noqa: E402

t2 = time.perf_counter()
workloads.WORKLOADS[sys.argv[1]].build()
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "setup_s": (t1 - t0) + (t3 - t2)}))

"""Set-up probe: a fresh interpreter imports the package, warms the workload's
first op, and prints one JSON line once that op is ready to run.

    PYTHONPATH=src python3 perfbench/probe.py <workload>
"""

import json
import sys
import time

start = time.perf_counter()
import cohsynth.cli  # noqa: E402,F401  (the whole package: every layer)

import_ms = (time.perf_counter() - start) * 1e3

import workloads  # noqa: E402

workloads.warm_up(sys.argv[1])
print(json.dumps({"import_ms": import_ms}), flush=True)

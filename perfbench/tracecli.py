"""Run one cohsynth CLI command with every layer traced.

    PYTHONPATH=src python3 perfbench/tracecli.py <trace.json> <cohsynth arguments...>

Writes the spans, the pool task count and the serial replay time of every
swept grid to <trace.json>, then exits with the command's exit code. The
replay re-evaluates the cells of each `run_sweep` call one by one in this
process, untraced, so that run_sweep's wall time minus the replay is the
cost of dispatching the cells to the pool.
"""

import json
import sys
import time

import cohsynth.cli
from cohsynth import sweep

from tracer import Tracer, jsonable

tracer = Tracer()
tracer.install()
tracer.active = True
try:
    code = cohsynth.cli.main(sys.argv[2:])
finally:
    tracer.active = False
    tracer.uninstall()

replay_ms = 0.0
for name, _, _, _, attrs in tracer.spans:
    if name != "sweep.run_sweep":
        continue
    config = attrs["config"]
    for n in config.n_values:
        for p in config.p_values:
            start = time.perf_counter()
            sweep.evaluate_cell(n, p, config.protocol, config.pre_epsilon,
                                config.post_epsilon, config.energy_gap)
            replay_ms += (time.perf_counter() - start) * 1e3

with open(sys.argv[1], "w") as fh:
    json.dump({"replay_ms": replay_ms, "pool_tasks": tracer.pool_tasks,
               "spans": jsonable(tracer.spans)}, fh)
sys.exit(code)

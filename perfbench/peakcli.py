"""Run one cohsynth CLI command and record its peak resident memory.

    PYTHONPATH=src python3 perfbench/peakcli.py <peak.json> <cohsynth arguments...>

Writes {"peak_kb": ...} to <peak.json>, then exits with the command's exit
code. The peak is the larger of this process's VmHWM (its own address space
since exec) and the largest pool worker it reaped. Its ru_maxrss is not
used: exec carries the spawning benchmark's own peak over into it.
"""

import json
import resource
import sys

import cohsynth.cli


def _vm_hwm_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


code = 1
try:
    code = cohsynth.cli.main(sys.argv[2:])
finally:
    peak_kb = max(_vm_hwm_kb(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    with open(sys.argv[1], "w") as fh:
        json.dump({"peak_kb": peak_kb}, fh)
sys.exit(code)

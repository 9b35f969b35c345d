"""Benchmark entry point: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload pure-large-n --seed 1 --seconds 30 --trace 0

Run it from the repository root; it uses the package under src/ as checked
out. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics of a traced run with ``--trace 1``.
Spans of a traced run and the CLI outputs go to .perfbench_out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread per process. With OpenBLAS's default of one per core, the CLI's
# pool workers oversubscribe the cores and figure commands vary several-fold
# from run to run. The value is printed with every result.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402  (after the BLAS settings above)

SETUP_PROBES = 7
# About what one `Calibration` kernel run takes on the reference machine; every
# time metric is scaled by REFERENCE_CALIBRATION_MS / the kernel time measured
# around it, so it reads as ms at the reference machine's speed.
REFERENCE_CALIBRATION_MS = 20.0
WALL_CAP_S = 140.0  # stop adding rounds past this, to end well within 180 s
FAILED_LATENCY_MS = 1e9  # a failed op misses any latency limit; JSON has no infinity


class Calibration:
    """A fixed numpy kernel, timed between rounds to follow the machine's speed.

    On a shared host the speed of the whole machine drifts by 15-25% over
    minutes, the same way for this kernel as for the ops. Scaling each round's
    times by the kernel time measured around that round removes most of the
    drift from run-to-run comparisons; the unscaled figures are printed too.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))
        self._matrix = matrix + matrix.conj().T
        self._last = self._measure()

    def _measure(self) -> float:
        """Median ms of 5 runs of a 200x200 Hermitian eigensolve plus a fresh 32 MB array summed."""
        times = []
        for _ in range(5):
            start = time.perf_counter()
            np.linalg.eigvalsh(self._matrix)
            np.ones(2**22).sum()
            times.append(time.perf_counter() - start)
        return statistics.median(times) * 1e3

    def scale(self) -> float:
        """Reference over measured kernel time, averaged over the last interval's two ends."""
        before, self._last = self._last, self._measure()
        return 2 * REFERENCE_CALIBRATION_MS / (before + self._last)


def measure_setup(workload: str, env: dict, calibration: Calibration) -> tuple[float, float]:
    """Medians over fresh interpreters of (start to first op ready, import time).

    The first is scaled to the reference speed like the op times."""
    setups, imports = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "probe.py"), workload],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        if proc.wait() != 0 or not line:
            raise RuntimeError(f"set-up probe for {workload} exited with {proc.returncode}")
        setups.append((elapsed, elapsed * calibration.scale()))
        imports.append(json.loads(line)["import_ms"])
    print(f"setup_s unscaled={statistics.median(s for s, _ in setups)}")
    return statistics.median(s for _, s in setups), statistics.median(imports)


def run_rounds(runner, rounds_source, seconds: float, min_ops: int, started: float,
               calibration: Calibration):
    """Whole rounds until `seconds` of timed ops and at least `min_ops` ops."""
    outcomes, rounds = [], []
    timed_ms = 0.0
    for ops in rounds_source:
        batch = runner.run_round(ops)
        scale = calibration.scale()
        for outcome in batch:
            outcome.round = len(rounds)
            outcome.scale = scale
        rounds.append(ops)
        outcomes += batch
        timed_ms += sum(o.ms for o in batch)
        if timed_ms >= seconds * 1e3 and len(outcomes) >= min_ops:
            break
        if time.perf_counter() - started > WALL_CAP_S:
            break
    return outcomes, rounds


def fresh_rounds(workload, seed: int):
    """Endless rounds of the workload, drawn from one generator seeded with `seed`."""
    rng = np.random.default_rng(seed)
    while True:
        yield workload.make_round(rng)


def record_ops(outcomes, out_dir: Path) -> None:
    """Print every failed op and keep the per-op timings in ops.json."""
    for o in outcomes:
        if o.failed:
            print(f"{'WRONG' if o.wrong else 'FAILED'}  {o.label}: {o.note}")
    with open(out_dir / "ops.json", "w") as fh:
        json.dump([[o.label, o.round, o.ms, o.failed, o.scale] for o in outcomes], fh)


def end_to_end(workload, outcomes, scaled: bool = True) -> dict:
    """Every end-to-end metric but setup_s, which the probes measure afterwards."""
    from workloads import percentile

    if workload.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:  # the largest CLI command, pool workers included
        peak_kb = max(o.peak_kb for o in outcomes)
    scales = [o.scale if scaled else 1.0 for o in outcomes]
    latencies = [o.latency_ms * k for o, k in zip(outcomes, scales)]
    completed = sum(not o.failed for o in outcomes)
    wall_s = sum(o.ms * k for o, k in zip(outcomes, scales)) / 1e3

    def finite(ms: float) -> float:
        return FAILED_LATENCY_MS if ms == math.inf else ms

    return {
        "ops_per_s": (completed / wall_s, "1/s"),
        "op_ms_p50": (finite(percentile(latencies, 50)), "ms"),
        "op_ms_tail": (finite(percentile(latencies, workload.tail_percentile)), "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(summary: dict, ops: int, pool_tasks: int, replay_ms: float,
              import_ms: float, overhead_ms: float, failed_ratio: float) -> dict:
    incl, calls, self_ms = summary["incl_ms"], summary["calls"], summary["self_ms"]
    layer_self, layer_calls = summary["layer_self_ms"], summary["layer_calls"]

    def per_op(value: float) -> float:
        return value / ops

    metrics = {f"{layer}.self_ms": (per_op(layer_self.get(layer, 0.0)), "ms/op")
               for layer in ("linalg", "states", "measures", "protocol", "dephasing",
                             "sweep", "validation", "cli")}
    metrics.update({
        "states.calls": (per_op(layer_calls.get("states", 0)), "calls/op"),
        "measures.gain_report_self_ms": (per_op(self_ms.get("measures.gain_report", 0.0)), "ms/op"),
        "measures.average_energy_ms": (per_op(incl.get("measures.average_energy", 0.0)), "ms/op"),
        "measures.rel_entropy_coherence_ms":
            (per_op(incl.get("measures.rel_entropy_coherence", 0.0)), "ms/op"),
        "measures.local_coherence_ms": (per_op(incl.get("measures.local_coherence", 0.0)), "ms/op"),
        "protocol.apply_protocol_ms": (per_op(incl.get("protocol.apply_protocol", 0.0)), "ms/op"),
        "protocol.kept_fraction": (summary["kept_sum"] / max(summary["kept_n"], 1), "ratio"),
        "protocol.failed": (per_op(summary["refused"]), "calls/op"),
        "linalg.spectrum_ms": (per_op(incl.get("linalg.spectrum", 0.0)), "ms/op"),
        "linalg.spectrum_calls": (per_op(calls.get("linalg.spectrum", 0)), "calls/op"),
        "linalg.spectrum_dim_max": (summary["spectrum_dim_max"], "dim"),
        "linalg.eig_work": (per_op(summary["eig_work"]), "d3/op"),
        "linalg.partial_trace_ms": (per_op(incl.get("linalg.partial_trace", 0.0)), "ms/op"),
        "dephasing.dephase_local_ms": (per_op(incl.get("dephasing.dephase_local", 0.0)), "ms/op"),
        "dephasing.calls": (per_op(calls.get("dephasing.dephase_local", 0)), "calls/op"),
        "dephasing.table_bytes": (summary["table_bytes_max"], "bytes"),
        "sweep.run_sweep_ms": (per_op(incl.get("sweep.run_sweep", 0.0)), "ms/op"),
        "sweep.cells": (per_op(summary["cells"]), "cells/op"),
        "sweep.pool_tasks": (per_op(pool_tasks), "tasks/op"),
        "sweep.pool_overhead_ms": (per_op(incl.get("sweep.run_sweep", 0.0) - replay_ms), "ms/op"),
        "sweep.write_ms": (per_op(incl.get("sweep.write_records", 0.0)), "ms/op"),
        "sweep.bytes_written": (per_op(summary["bytes_written"]), "bytes/op"),
        "validation.run_all_ms": (per_op(incl.get("validation.run_all", 0.0)), "ms/op"),
        "validation.criterion_ms_max": (summary["criterion_ms_max"], "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.main_ms": (per_op(incl.get("cli.main", 0.0)), "ms/op"),
        "closedform.ms": (per_op(layer_self.get("closedform", 0.0)), "ms/op"),
        "closedform.calls": (per_op(layer_calls.get("closedform", 0)), "calls/op"),
        "trace.overhead_ms": (overhead_ms, "ms/op"),
        "failed_ratio": (failed_ratio, "ratio"),
    })
    return metrics


def print_layer_table(summary: dict, ops: int) -> None:
    total = sum(summary["layer_self_ms"].values()) or 1.0
    print(f"per-layer self time over {ops} traced ops:")
    for layer, ms in sorted(summary["layer_self_ms"].items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<11} {ms / ops:10.3f} ms/op  {100 * ms / total:5.1f}%  "
              f"{summary['layer_calls'][layer] / ops:9.1f} calls/op")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cohsynth" / "__init__.py").is_file():
        print(f"error: no cohsynth package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracer import Tracer, jsonable, merge, summarize

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    env = workloads.child_env(BLAS_THREADS)
    out_dir = ROOT / ".perfbench_out" / workload.name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    started = time.perf_counter()
    print(f"workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} blas_threads={BLAS_THREADS} nproc={os.cpu_count()}")

    workloads.warm_up(workload.name)
    calibration = Calibration()
    plain = workloads.Runner(out_dir, env)
    if not args.trace:
        outcomes, _ = run_rounds(plain, fresh_rounds(workload, args.seed), args.seconds,
                                 workload.min_ops, started, calibration)
        record_ops(outcomes, out_dir)
        metrics = end_to_end(workload, outcomes)
        unscaled = end_to_end(workload, outcomes, scaled=False)
        print("unscaled " + " ".join(f"{k}={unscaled[k][0]}" for k in ("ops_per_s", "op_ms_p50", "op_ms_tail")))
        metrics["setup_s"] = (measure_setup(workload.name, env, calibration)[0], "s")
        tail = workload.tail_percentile
        print(f"ops={len(outcomes)} failed={sum(o.failed for o in outcomes)} "
              f"tail=p{tail} ({len(outcomes) * (100 - tail) / 100:.1f} ops beyond it)")
    else:
        # untraced half, then the same rounds traced: the difference is the overhead
        untraced, rounds = run_rounds(plain, fresh_rounds(workload, args.seed),
                                      args.seconds / 2, 1, started, calibration)
        tracer = Tracer()
        if workload.in_process:
            tracer.install()
        traced_runner = workloads.Runner(out_dir, env, tracer=tracer if workload.in_process else None,
                                         trace_cli=not workload.in_process)
        traced = [o for ops in rounds for o in traced_runner.run_round(ops)]
        tracer.uninstall()
        outcomes = untraced + traced
        record_ops(outcomes, out_dir)
        if workload.in_process:
            summary = summarize(tracer.spans)
            pool_tasks, replay_ms = tracer.pool_tasks, 0.0
            with open(out_dir / "spans.json", "w") as fh:
                json.dump(jsonable(tracer.spans), fh)
        else:
            summary = summarize([])
            for trace in traced_runner.cli_traces:
                summary = merge(summary, summarize(trace["spans"]))
            pool_tasks = sum(t["pool_tasks"] for t in traced_runner.cli_traces)
            replay_ms = sum(t["replay_ms"] for t in traced_runner.cli_traces)
        _, import_ms = measure_setup(workload.name, env, calibration)
        ops = len(traced)
        overhead_ms = (sum(o.ms for o in traced) - sum(o.ms for o in untraced)) / ops
        metrics = per_layer(summary, ops, pool_tasks, replay_ms, import_ms, overhead_ms,
                            sum(o.failed for o in outcomes) / len(outcomes))
        print_layer_table(summary, ops)
        silent = [layer for layer in workload.expected_layers
                  if summary["layer_calls"].get(layer, 0) == 0]
        if silent:
            print(f"error: traced run recorded no calls in {silent}", file=sys.stderr)
            return 1

    result = {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

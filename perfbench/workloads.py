"""Benchmark workloads: seeded rounds of ops, how an op runs, how it is checked.

An op is one grid cell (one ``run_experiment`` call) in the in-process
workloads and one CLI command in ``figures-cli``. Every workload is a closed
loop with one client: the next op starts when the previous one has ended.
A workload is a list of rounds; every round has the same composition, drawn
afresh from the seeded generator, so the op mix (and the share of cells the
program is known to refuse) is exact whenever whole rounds are run.

Each op's output is checked outside its timed region. An op fails when it
raises, exits with an unexpected code or fails its check; a failed op has
infinite latency.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference"
TRACE_CLI = Path(__file__).resolve().parent / "tracecli.py"
PEAK_CLI = Path(__file__).resolve().parent / "peakcli.py"

from cohsynth import closedform, protocol, sweep  # noqa: E402
from cohsynth.dephasing import DephasingSpec  # noqa: E402
from cohsynth.errors import ProtocolImpossibleError  # noqa: E402
from cohsynth.states import SystemSpec, TlsParams  # noqa: E402

FIGURES = ("fig2", "fig3b", "fig4", "fig5", "figA")
REL_TOL = 1e-9
ABS_TOL = 1e-9
# cohsynth.linalg.EIG_CLIP: the package's entropies count probabilities at or
# below it as 0, so a pure C_f may sit below the exact value by the clipped terms
ENTROPY_CLIP = 1e-12


# ----------------------------------------------------------------- checks


def enumerate_pure(p: tuple[float, ...], plan: str) -> tuple[float, float, float, float]:
    """(p_s, E_f, C_f, clipped) of the conditional pure state, by listing surviving strings.

    Independent of the package: string k has TLS 1 as its most significant
    bit, 1 = excited; the chain drops strings with two adjacent grounds, the
    global plan drops only the all-ground string. Energy gap 1. ``clipped``
    is the part of C_f carried by probabilities at or below ENTROPY_CLIP,
    which the package's entropy counts as 0.
    """
    n = len(p)
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    if plan == "chain":
        alive = ~((bits[:, :-1] == 0) & (bits[:, 1:] == 0)).any(axis=1)
    else:
        alive = bits.any(axis=1)
    kept = bits[alive]
    p_arr = np.asarray(p)
    weights = np.where(kept == 1, p_arr, 1.0 - p_arr).prod(axis=1)
    p_s = float(weights.sum())
    q = weights / p_s
    energy = 0.5 * (2.0 * kept.sum(axis=1) - n)
    q = q[q > 0.0]
    terms = -q * np.log(q)
    return p_s, float((weights / p_s) @ energy), float(terms.sum()), float(terms[q <= ENTROPY_CLIP].sum())


def _rel_ok(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * abs(want)


def _abs_ok(got: float, want: float) -> bool:
    return abs(got - want) <= ABS_TOL * max(1.0, abs(want))


def _table_value_ok(got: str, want: str) -> bool:
    """Numeric match at relative 1e-9; an exact reference 0 allows |x| <= 1e-15."""
    got_parts, want_parts = got.split(";"), want.split(";")
    if len(got_parts) != len(want_parts):
        return False
    for g, w in zip(got_parts, want_parts):
        if (g == "") != (w == ""):
            return False
        if w == "":
            continue
        g_val, w_val = float(g), float(w)
        if w_val == 0.0:
            if abs(g_val) > 1e-15:
                return False
        elif not _rel_ok(g_val, w_val):
            return False
    return True


def compare_table(path: Path, reference: Path) -> list[str]:
    """Problems found comparing a CSV data file with its stored reference."""
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    with open(reference, newline="") as fh:
        want = list(csv.reader(fh))
    if not got or got[0] != want[0]:
        return [f"{path.name}: header differs from the reference"]
    if len(got) != len(want):
        return [f"{path.name}: {len(got) - 1} rows, reference has {len(want) - 1}"]
    problems = []
    for i, (row, ref) in enumerate(zip(got[1:], want[1:]), start=1):
        for column, g, w in zip(want[0], row, ref):
            if not _table_value_ok(g, w):
                problems.append(f"{path.name} row {i} {column}: {g!r} != {w!r}")
    return problems


def _binary_entropy(p: float) -> float:
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def expected_sweep_row(n: int, p: float, r: int) -> dict[str, tuple[float | None, str]]:
    """Closed-form value and tolerance kind of each column of a pure chain sweep row."""
    ps = closedform.ps_exact(n, p)
    cf = closedform.cf_exact(n, p)
    c0 = n * _binary_entropy(p)
    return {
        "epsilon_pre": (1.0, "abs"),
        "epsilon_post": (1.0, "abs"),
        "p_s": (ps, "rel"),
        "delta_e": (closedform.ef_exact(n, p) - 0.5 * n * (2.0 * p - 1.0), "abs"),
        "delta_c": (cf - c0, "abs"),
        "c0": (c0, "abs"),
        "cf": (cf, "abs"),
        "approx_ps": (closedform.approx_ps(n, p), "rel"),
        "approx_de": (closedform.approx_de(n, p), "abs"),
        "approx_dc": (closedform.approx_dc(n, p), "abs"),
        "approx_dcm": (closedform.approx_dcm(n, p) if n % 2 == 0 else None, "abs"),
        "p_f": ((1.0 - ps) ** r, "rel"),
    }


def check_sweep_table(path: Path, n_values, p_values, rus) -> list[str]:
    """Every (n, p, r) row present once and matching the closed forms."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    seen = sorted((int(r["n"]), float(r["p"]), int(r["r"])) for r in rows)
    wanted = sorted((n, p, r) for n in n_values for p in p_values for r in rus)
    if seen != wanted:
        return [f"{path.name}: grid rows {seen} != {wanted}"]
    problems = []
    for row in rows:
        n, p, r = int(row["n"]), float(row["p"]), int(row["r"])
        for column, (want, kind) in expected_sweep_row(n, p, r).items():
            text = row[column]
            if want is None:
                ok = text == ""
            elif text == "":
                ok = False
            else:
                ok = (_rel_ok if kind == "rel" else _abs_ok)(float(text), want)
            if not ok:
                problems.append(f"{path.name} n={n} p={p} r={r} {column}: {text!r} != {want!r}")
    return problems


def check_validate_output(stdout: str) -> list[str]:
    """`validate` must report 10/11 with criterion 9 as its only FAIL."""
    lines = stdout.strip().splitlines()
    criteria = [line for line in lines if line.startswith(("PASS", "FAIL"))]
    failing = [i for i, line in enumerate(criteria, start=1) if line.startswith("FAIL")]
    problems = []
    if len(criteria) != 11:
        problems.append(f"validate printed {len(criteria)} criteria, expected 11")
    if failing != [9] or "dephasing critical behaviour" not in criteria[8]:
        problems.append(f"validate FAIL lines {failing}, expected only criterion 9")
    if not lines or lines[-1] != "10/11 criteria passed":
        problems.append(f"validate summary {lines[-1:]!r}, expected '10/11 criteria passed'")
    return problems


# -------------------------------------------------------------------- ops


@dataclass(frozen=True)
class Cell:
    """One in-process grid cell: a run_experiment call on a product input."""

    n: int
    p: tuple[float, ...]
    plan: str  # "chain" or "global"
    side: str | None = None  # "pre" or "post" dephasing, None for pure
    eps: tuple[float, ...] | None = None
    pair: int | None = None  # chain pre/post cells sharing (n, p, eps)

    @property
    def label(self) -> str:
        p = f"p={self.p[0]:.4g}" if len(set(self.p)) == 1 else "p=het"
        side = "" if self.side is None else f"-{self.side}"
        eps = "" if self.eps is None else (
            f" eps={self.eps[0]:.3g}" if len(set(self.eps)) == 1 else " eps=per-TLS")
        return f"N={self.n} {self.plan}{side} {p}{eps}"

    def prepare(self):
        spec = SystemSpec(self.n)
        params = [TlsParams(x) for x in self.p]
        plan = (protocol.MeasurementPlan.chain(self.n) if self.plan == "chain"
                else protocol.MeasurementPlan.global_protocol())
        dephasing = None if self.side is None else DephasingSpec(**{self.side: self.eps})
        return lambda: protocol.run_experiment(spec, params, plan, dephasing)

    def check(self, report) -> list[str]:
        p_s, e_f, c_f, clipped = enumerate_pure(self.p, self.plan)
        if self.plan == "chain" and self.side is None and len(set(self.p)) == 1:
            p = self.p[0]
            p_s, e_f, c_f = (closedform.ps_exact(self.n, p), closedform.ef_exact(self.n, p),
                             closedform.cf_exact(self.n, p))
        problems = []
        if not _rel_ok(report.p_s, p_s):
            problems.append(f"p_s {report.p_s!r} != {p_s!r}")
        if not _abs_ok(report.ef, e_f):
            problems.append(f"E_f {report.ef!r} != {e_f!r}")
        # a dephased C_f is checked against its pre/post partner instead
        if self.side is None and abs(report.cf - c_f) > ABS_TOL * max(1.0, c_f) + clipped:
            problems.append(f"C_f {report.cf!r} != {c_f!r} (clipped terms {clipped:.3g})")
        return problems


@dataclass(frozen=True)
class CliCommand:
    """One `cohsynth` CLI call, run as a subprocess at the default --jobs."""

    label: str
    args: tuple[str, ...]
    output: str | None  # data file written under the work directory
    exit_code: int
    grid: tuple | None = None  # (n_values, p_values, rus) of a sweep


@dataclass
class Outcome:
    label: str
    ms: float  # wall time of the timed region
    failed: bool = False
    wrong: bool = False  # a check failed or the op broke in an unexpected way
    note: str = ""
    result: object = None
    round: int = 0
    peak_kb: int = 0  # peak RSS of a CLI command and its pool workers
    scale: float = 1.0  # reference / measured machine speed around the op's round

    @property
    def latency_ms(self) -> float:
        return math.inf if self.failed else self.ms


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default rule); inf-safe."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    if ordered[hi] == math.inf:
        return math.inf if pos > lo or ordered[lo] == math.inf else ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _checked(check, *args) -> list[str]:
    """Run a check; output it cannot read (missing file, bad number) is a problem too."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, IndexError, AttributeError) as exc:
        return [f"output unreadable: {exc!r}"]


class Runner:
    """Runs ops one after another, optionally under the span tracer."""

    def __init__(self, workdir: Path, env: dict, tracer=None, trace_cli: bool = False):
        self.workdir = workdir
        self.env = env
        self.tracer = tracer
        self.trace_cli = trace_cli
        self.cli_traces: list[dict] = []

    def run(self, op) -> Outcome:
        if isinstance(op, CliCommand):
            return self._run_cli(op)
        start = None
        try:
            call = op.prepare()
            start = time.perf_counter()
            if self.tracer is None:
                report = call()
            else:
                with self.tracer.span("op"):
                    self.tracer.active = True
                    try:
                        report = call()
                    finally:
                        self.tracer.active = False
            ms = (time.perf_counter() - start) * 1e3
        except ProtocolImpossibleError as exc:
            ms = 0.0 if start is None else (time.perf_counter() - start) * 1e3
            return Outcome(op.label, ms, failed=True, note=f"refused: {exc}")
        except Exception as exc:  # any other error is a broken op, reported as such
            ms = 0.0 if start is None else (time.perf_counter() - start) * 1e3
            return Outcome(op.label, ms, failed=True, wrong=True, note=repr(exc))
        problems = _checked(op.check, report)
        return Outcome(op.label, ms, failed=bool(problems), wrong=bool(problems),
                       note="; ".join(problems[:3]), result=report)

    def _run_cli(self, op: CliCommand) -> Outcome:
        args = list(op.args)
        out_path = None
        if op.output is not None:
            out_path = self.workdir / op.output
            if out_path.exists():
                out_path.unlink()
            args += ["--out", str(out_path)]
        if self.trace_cli:
            spans_path = self.workdir / f"trace-{len(self.cli_traces)}.json"
            argv = [sys.executable, str(TRACE_CLI), str(spans_path), *args]
        else:
            peak_path = self.workdir / "peak.json"
            argv = [sys.executable, str(PEAK_CLI), str(peak_path), *args]
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True, text=True)
        ms = (time.perf_counter() - start) * 1e3
        peak_kb = 0
        if not self.trace_cli and peak_path.exists():
            with open(peak_path) as fh:
                peak_kb = json.load(fh)["peak_kb"]
            peak_path.unlink()
        if self.trace_cli and spans_path.exists():
            with open(spans_path) as fh:
                trace = json.load(fh)
            self.cli_traces.append(trace)
            ms -= trace["replay_ms"]  # the serial replay is not part of the command
        if proc.returncode != op.exit_code:
            note = f"exit {proc.returncode}, expected {op.exit_code}: {proc.stderr.strip()[-200:]}"
            return Outcome(op.label, ms, failed=True, wrong=True, note=note, peak_kb=peak_kb)
        if op.args[0] == "figure":
            problems = _checked(compare_table, out_path, REFERENCE / f"{op.args[1]}.csv")
        elif op.args[0] == "sweep":
            problems = _checked(check_sweep_table, out_path, *op.grid)
        else:
            problems = _checked(check_validate_output, proc.stdout)
        return Outcome(op.label, ms, failed=bool(problems), wrong=bool(problems),
                       note="; ".join(problems[:3]), peak_kb=peak_kb)

    def run_round(self, ops) -> list[Outcome]:
        outcomes = [self.run(op) for op in ops]
        check_pairs(ops, outcomes)
        return outcomes


def check_pairs(ops, outcomes: list[Outcome]) -> None:
    """Chain pre-eps and post-eps cells with the same eps must give the same C_f."""
    partners: dict[int, list[Outcome]] = {}
    for op, outcome in zip(ops, outcomes):
        if getattr(op, "pair", None) is not None:
            partners.setdefault(op.pair, []).append(outcome)
    for pair in partners.values():
        if len(pair) != 2 or any(o.result is None for o in pair):
            continue
        a, b = pair
        if not _abs_ok(a.result.cf, b.result.cf):
            for o in pair:
                o.failed = o.wrong = True
                o.note = f"pre/post C_f differ: {a.result.cf!r} vs {b.result.cf!r}"


# -------------------------------------------------------------- workloads


def _p_values(rng, n: int, heterogeneous: bool, low: float, high: float):
    if heterogeneous:
        return tuple(round(float(x), 6) for x in rng.uniform(low, high, n))
    return (round(float(rng.uniform(low, high)), 6),) * n


def pure_large_n_round(rng) -> list:
    """40 pure cells: 14 at N=11, 19 at N=12, 6 at N=13 over chain/global plans
    with shared or per-TLS p in [0.01, 0.3], and one N=12 chain cell at p in
    [5e-4, 1e-3] (exact p_s <= 7e-18) that the 1e-15 success floor refuses.

    The shares put the median inside the N=12 cells and p90 in the middle of
    the N=13 cells, away from the jumps between sizes."""
    cells = []
    for n, count in ((11, 14), (12, 19), (13, 6)):
        for i in range(count):
            plan = ("chain", "global")[i % 2]
            cells.append(Cell(n, _p_values(rng, n, (i // 2) % 2 == 1, 0.01, 0.3), plan))
    cells.append(Cell(12, _p_values(rng, 12, False, 5e-4, 1e-3), "chain"))
    rng.shuffle(cells)
    return cells


def dephased_round(rng) -> list:
    """20 dephased cells: chain pre/post pairs (2 at N=8, 4 at N=9, 1 at N=10) and
    global-pre cells (4 at N=8, 2 at N=9), p in [0.02, 0.2] and eps in
    [0.7, 0.95], each either shared or drawn per TLS.

    The shares put the median in the middle of the N=9 post cells and p75 in
    the middle of the N=9 pre cells."""
    cells = []
    draw = 0
    for n, pairs, globals_ in ((8, 2, 4), (9, 4, 2), (10, 1, 0)):
        for _ in range(pairs + globals_):
            p = _p_values(rng, n, draw % 2 == 1, 0.02, 0.2)
            eps = _p_values(rng, n, (draw // 2) % 2 == 1, 0.7, 0.95)
            if pairs:
                pairs -= 1
                cells.append(Cell(n, p, "chain", "pre", eps, pair=draw))
                cells.append(Cell(n, p, "chain", "post", eps, pair=draw))
            else:
                cells.append(Cell(n, p, "global", "pre", eps))
            draw += 1
    rng.shuffle(cells)
    return cells


def figures_cli_round(rng) -> list:
    """The five figure tables, one `sweep --rus` grid drawn from the seed, and `validate`."""
    ops = [CliCommand(f"figure {name}", ("figure", name), f"{name}.csv", 0) for name in FIGURES]
    n_values = tuple(sorted(int(x) for x in rng.choice(np.arange(2, 9), 4, replace=False)))
    p_values: set[float] = set()
    while len(p_values) < 3:
        p_values.add(round(float(rng.uniform(0.005, 0.3)), 4))
    p_values = tuple(sorted(p_values))
    rus = tuple(sorted(int(x) for x in rng.choice(np.arange(1, 101), 3, replace=False)))
    args = ("sweep", "--n", ",".join(map(str, n_values)), "--p", ",".join(map(str, p_values)),
            "--rus", ",".join(map(str, rus)))
    ops.append(CliCommand(f"sweep {len(n_values)}x{len(p_values)}x{len(rus)}", args,
                          "sweep.csv", 0, (n_values, p_values, rus)))
    ops.append(CliCommand("validate", ("validate",), None, 1))
    rng.shuffle(ops)
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[np.random.Generator], list]
    in_process: bool
    tail_percentile: int  # highest percentile with >= 10 ops beyond it at the run length
    expected_layers: tuple[str, ...]  # layers that must record calls in a traced run

    @property
    def min_ops(self) -> int:
        return math.ceil(10 * 100 / (100 - self.tail_percentile))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("figures-cli", figures_cli_round, False, 80,
                 ("cli", "sweep", "validation", "closedform", "protocol", "measures",
                  "states", "linalg", "dephasing")),
        Workload("pure-large-n", pure_large_n_round, True, 90,
                 ("states", "measures", "protocol", "linalg")),
        Workload("dephased", dephased_round, True, 75,
                 ("states", "measures", "protocol", "linalg", "dephasing")),
    )
}


def warm_up(name: str) -> None:
    """First-touch work done once before the first op: imports, BLAS and LAPACK
    code paths, and the first large allocation."""
    if name == "pure-large-n":
        Cell(12, (0.05,) * 12, "chain").prepare()()
    elif name == "dephased":
        Cell(8, (0.05,) * 8, "chain", "pre", (0.9,) * 8).prepare()()
        Cell(8, (0.05,) * 8, "chain", "post", (0.9,) * 8).prepare()()
    else:
        sweep.evaluate_cell(8, 0.05)


def child_env(blas_threads: str) -> dict:
    """Environment for every child: the package from src/ and a fixed BLAS thread count."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = blas_threads
    return env

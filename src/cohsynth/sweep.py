"""Grid evaluation and figure-ready data tables (CSV / JSON).

Rows carry the simulated quantities next to the matching small-p
approximations; approximation branches that do not exist (odd-n mutual
coherence, global-protocol mutual coherence at n = 2) serialize as an
empty CSV cell / JSON null, never as 0. Floats are written with 12
significant digits and rows are sorted by (n, p, eps_pre, eps_post, r),
so a given config always produces byte-identical files.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import closedform
from .dephasing import DephasingSpec
from .protocol import MeasurementPlan, run_experiment, rus_failure_probability
from .states import SystemSpec, TlsParams

SWEEP_FIELDS = [
    "n", "p", "epsilon_pre", "epsilon_post", "p_s",
    "delta_e", "delta_c", "delta_cm", "c0", "cf",
    "approx_ps", "approx_de", "approx_dc", "approx_dcm",
]
RUS_FIELDS = SWEEP_FIELDS + ["r", "p_f"]

FIGURE_NAMES = ("fig2", "fig3a", "fig3b", "fig4", "fig5", "figA")
OUTPUT_FORMATS = ("csv", "json")
PROTOCOLS = ("pairwise", "global")

_FIG_P_VALUES = (0.005, 0.01, 0.05)
_FIG_N_VALUES = tuple(range(2, 9))


@dataclass(frozen=True)
class SweepConfig:
    """One grid of experiment cells and how many worker processes evaluate it."""

    n_values: tuple[int, ...]
    p_values: tuple[float, ...]
    protocol: str = "pairwise"
    pre_epsilon: float | tuple[float, ...] | None = None
    post_epsilon: float | tuple[float, ...] | None = None
    rus_repetitions: tuple[int, ...] = ()
    jobs: int = 1  # 0: one worker per available core
    energy_gap: float = 1.0

    def __post_init__(self):
        if not self.n_values or not self.p_values:
            raise ValueError("empty sweep grid")
        if any(not 0.0 < p < 1.0 for p in self.p_values):
            raise ValueError("sweep p values must lie in (0, 1)")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}; choose from {PROTOCOLS}")


def _eps_tuple(eps: float | tuple[float, ...] | None, n: int) -> tuple[float, ...] | None:
    if eps is None:
        return None
    if isinstance(eps, (int, float)):
        return (float(eps),) * n
    if len(eps) != n:
        raise ValueError(f"per-TLS epsilon list has {len(eps)} entries, expected {n}")
    return tuple(float(e) for e in eps)


def _eps_record(eps: tuple[float, ...] | None) -> float | tuple[float, ...]:
    if eps is None:
        return 1.0
    return eps[0] if len(set(eps)) == 1 else eps


def _pairwise_approx(n: int, p: float) -> dict:
    return {
        "approx_ps": closedform.approx_ps(n, p),
        "approx_de": closedform.approx_de(n, p),
        "approx_dc": closedform.approx_dc(n, p),
        "approx_dcm": closedform.approx_dcm(n, p) if n % 2 == 0 else None,
    }


def _global_approx(n: int, p: float) -> dict:
    ga = closedform.global_approx(n, p)
    return {"approx_ps": ga.ps, "approx_de": ga.de, "approx_dc": ga.dc, "approx_dcm": ga.dcm}


def evaluate_cell(
    n: int,
    p: float,
    protocol: str = "pairwise",
    pre_epsilon: float | tuple[float, ...] | None = None,
    post_epsilon: float | tuple[float, ...] | None = None,
    energy_gap: float = 1.0,
) -> dict:
    """Run one experiment and return it as a SweepRow record."""
    spec = SystemSpec(n, energy_gap)
    pre = _eps_tuple(pre_epsilon, n)
    post = _eps_tuple(post_epsilon, n)
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; choose from {PROTOCOLS}")
    plan = MeasurementPlan.chain(n) if protocol == "pairwise" else MeasurementPlan.global_protocol()
    report = run_experiment(
        spec, [TlsParams(p)] * n, plan, DephasingSpec(pre=pre, post=post)
    )
    approx = _pairwise_approx(n, p) if protocol == "pairwise" else _global_approx(n, p)
    return {
        "n": n,
        "p": p,
        "epsilon_pre": _eps_record(pre),
        "epsilon_post": _eps_record(post),
        "p_s": report.p_s,
        "delta_e": report.delta_e,
        "delta_c": report.delta_c,
        "delta_cm": report.delta_cm,
        "c0": report.c0,
        "cf": report.cf,
        **approx,
    }


def _cell_records(args: tuple) -> list[dict]:
    n, p, protocol, pre, post, rus, gap = args
    record = evaluate_cell(n, p, protocol, pre, post, gap)
    if not rus:
        return [record]
    out = []
    for r in rus:
        row = dict(record)
        row["r"] = r
        row["p_f"] = rus_failure_probability(record["p_s"], r)
        out.append(row)
    return out


def _sort_key(record: dict):
    def eps_key(v):
        return (sum(v) / len(v)) if isinstance(v, tuple) else float(v)

    return (
        record["n"],
        record["p"],
        eps_key(record.get("epsilon_pre", 1.0)),
        eps_key(record.get("epsilon_post", 1.0)),
        record.get("r", 0),
    )


def run_sweep(config: SweepConfig) -> list[dict]:
    """Evaluate every grid cell, deterministically sorted."""
    cells = [
        (n, p, config.protocol, config.pre_epsilon, config.post_epsilon,
         tuple(config.rus_repetitions), config.energy_gap)
        for n in config.n_values
        for p in config.p_values
    ]
    jobs = config.jobs or os.cpu_count() or 1
    if jobs > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_cell_records, cells))
    else:
        chunks = [_cell_records(c) for c in cells]
    records = [row for chunk in chunks for row in chunk]
    records.sort(key=_sort_key)
    return records


def sweep_fieldnames(config: SweepConfig) -> list[str]:
    return RUS_FIELDS if config.rus_repetitions else SWEEP_FIELDS


def figure_rows(name: str, jobs: int = 1) -> tuple[list[str], list[dict]]:
    """Grid and columns backing one of the published data figures."""
    if name not in FIGURE_NAMES:
        raise ValueError(f"unknown figure {name!r}; choose from {FIGURE_NAMES}")

    if name in ("fig2", "fig3a"):
        # pairwise gains vs N with the global protocol shown for comparison
        cfg = SweepConfig(_FIG_N_VALUES, _FIG_P_VALUES, jobs=jobs)
        records = run_sweep(cfg)
        for row in records:
            ga = closedform.global_approx(row["n"], row["p"])
            row["global_approx_ps"] = ga.ps
            row["global_approx_de"] = ga.de
            row["global_approx_dc"] = ga.dc
            row["global_approx_dcm"] = ga.dcm
        fields = SWEEP_FIELDS + [
            "global_approx_ps", "global_approx_de", "global_approx_dc", "global_approx_dcm",
        ]
        return fields, records

    if name == "fig3b":
        records = []
        p = 0.05
        for n in (2, 4, 6):
            ps_pair = closedform.ps_exact(n, p)
            ps_global = 1.0 - (1.0 - p) ** n
            for r in range(1, 101):
                records.append({
                    "n": n,
                    "p": p,
                    "r": r,
                    "p_f": rus_failure_probability(ps_pair, r),
                    "global_p_f": rus_failure_probability(ps_global, r),
                })
        return ["n", "p", "r", "p_f", "global_p_f"], records

    if name == "fig4":
        cfg = SweepConfig(_FIG_N_VALUES, _FIG_P_VALUES, pre_epsilon=0.9, jobs=jobs)
    elif name == "fig5":
        cfg = SweepConfig(_FIG_N_VALUES, _FIG_P_VALUES, post_epsilon=0.9, jobs=jobs)
    else:  # figA: p-dependence with N as the curve parameter
        p_grid = tuple(round(0.005 * i, 3) for i in range(1, 61))
        cfg = SweepConfig(_FIG_N_VALUES, p_grid, jobs=jobs)
    return SWEEP_FIELDS, run_sweep(cfg)


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ";".join(f"{v:.12g}" for v in value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _json_value(value):
    if isinstance(value, tuple):
        return [float(f"{v:.12g}") for v in value]
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def render_records(fieldnames: list[str], records: list[dict], fmt: str) -> str:
    """Serialize records as CSV (12 significant digits) or JSON."""
    if fmt == "csv":
        lines = [",".join(fieldnames)]
        lines += [",".join(_format_value(r.get(f)) for f in fieldnames) for r in records]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = [{f: _json_value(r.get(f)) for f in fieldnames} for r in records]
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown output format {fmt!r}; choose from {OUTPUT_FORMATS}")


def write_records(path: str, fieldnames: list[str], records: list[dict], fmt: str) -> None:
    """Write the text of render_records to path."""
    text = render_records(fieldnames, records, fmt)
    with open(path, "w", newline="") as fh:
        fh.write(text)

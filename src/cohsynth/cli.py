"""Command-line experiment runner.

Subcommands: single (one experiment to stdout), sweep (grid to CSV/JSON),
figure (regenerate a published data table), validate (cross-validation
suite). Defaults may come from a JSON config file via --config; explicit
flags win, and a key that names no flag of the subcommand is an error.
The dense-size cap honours the COHSYNTH_MAX_TLS environment variable.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import sweep as sweep_mod
from . import validation
from .errors import CohsynthError, ProtocolImpossibleError
from .sweep import FIGURE_NAMES, OUTPUT_FORMATS, PROTOCOLS, SweepConfig


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip())


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _eps_value(value):
    """Dephasing factors from a flag ("0.9" or "0.9,0.8,1"); config values pass as is."""
    if not isinstance(value, str):
        return value
    values = _float_list(value)
    return values[0] if len(values) == 1 else values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohsynth",
        description="Conditional coherence synthesis from weakly excited TLS: "
                    "simulate, sweep, and cross-validate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_experiment_flags(p: argparse.ArgumentParser):
        p.add_argument("--protocol", choices=PROTOCOLS, default=None,
                       help="measurement plan (default pairwise)")
        p.add_argument("--pre-eps", default=None,
                       help="pre-protocol dephasing factor, scalar or comma list per TLS")
        p.add_argument("--post-eps", default=None,
                       help="post-protocol dephasing factor, scalar or comma list per TLS")
        p.add_argument("--gap", type=float, default=None, help="energy gap (default 1)")

    def add_output_flags(p: argparse.ArgumentParser, with_out: bool):
        p.add_argument("--format", choices=OUTPUT_FORMATS, default=None,
                       help="output format (default csv)")
        p.add_argument("--config", default=None, help="JSON config file; flags win")
        if with_out:
            p.add_argument("--out", default=None, help="output file path")
            p.add_argument("--jobs", type=int, default=None,
                           help="worker processes (default: available cores)")

    p_single = sub.add_parser("single", help="run one experiment and print the row")
    p_single.add_argument("--n", type=int, default=None, help="number of TLS")
    p_single.add_argument("--p", type=float, default=None, help="excitation probability")
    add_experiment_flags(p_single)
    add_output_flags(p_single, with_out=False)

    p_sweep = sub.add_parser("sweep", help="evaluate a (N, p) grid into a data file")
    p_sweep.add_argument("--n", default=None, help="comma list of TLS counts")
    p_sweep.add_argument("--p", default=None, help="comma list of excitation probabilities")
    p_sweep.add_argument("--rus", default=None,
                         help="comma list of repeat-until-success repetition counts")
    add_experiment_flags(p_sweep)
    add_output_flags(p_sweep, with_out=True)

    p_fig = sub.add_parser("figure", help="regenerate the data grid behind a figure")
    p_fig.add_argument("name", choices=FIGURE_NAMES)
    add_output_flags(p_fig, with_out=True)

    p_val = sub.add_parser("validate", help="run the full cross-validation suite")
    p_val.add_argument("--seed", type=int, default=None, help="seed for the robustness draws")
    p_val.add_argument("--samples", type=int, default=None, help="number of robustness draws")
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    """Start from the config file (if any); explicitly set flags override."""
    merged: dict = {}
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    path = getattr(args, "config", None)
    if path:
        with open(path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {path}: expected a JSON object")
        unknown = sorted(set(loaded) - set(flags))
        if unknown:
            raise ValueError(
                f"config file {path}: unknown key(s) {', '.join(map(repr, unknown))}; "
                f"known keys: {', '.join(sorted(flags))}"
            )
        merged.update(loaded)
    for key, value in flags.items():
        if value is not None:
            merged[key] = value
    return merged


def _output_format(cfg: dict) -> str:
    """The --format value after the config merge, checked before any cell runs."""
    fmt = cfg.get("format") or "csv"
    if fmt not in OUTPUT_FORMATS:
        raise ValueError(f"unknown output format {fmt!r}; choose from {OUTPUT_FORMATS}")
    return fmt


def _cmd_single(args) -> int:
    cfg = _merge_config(args)
    fmt = _output_format(cfg)
    if cfg.get("n") is None or cfg.get("p") is None:
        print("single: --n and --p are required", file=sys.stderr)
        return 2
    record = sweep_mod.evaluate_cell(
        int(cfg["n"]),
        float(cfg["p"]),
        cfg.get("protocol") or "pairwise",
        _eps_value(cfg.get("pre_eps")),
        _eps_value(cfg.get("post_eps")),
        float(cfg.get("gap") or 1.0),
    )
    sys.stdout.write(sweep_mod.render_records(sweep_mod.SWEEP_FIELDS, [record], fmt))
    return 0


def _sweep_config(cfg: dict) -> SweepConfig:
    if cfg.get("n") is None or cfg.get("p") is None:
        raise ValueError("sweep: --n and --p are required")
    n_values = _int_list(cfg["n"]) if isinstance(cfg["n"], str) else tuple(cfg["n"])
    p_values = _float_list(cfg["p"]) if isinstance(cfg["p"], str) else tuple(cfg["p"])
    rus = cfg.get("rus") or ()
    rus = _int_list(rus) if isinstance(rus, str) else tuple(rus)
    return SweepConfig(
        n_values=n_values,
        p_values=p_values,
        protocol=cfg.get("protocol") or "pairwise",
        pre_epsilon=_eps_value(cfg.get("pre_eps")),
        post_epsilon=_eps_value(cfg.get("post_eps")),
        rus_repetitions=rus,
        jobs=int(cfg.get("jobs") or 0),
        energy_gap=float(cfg.get("gap") or 1.0),
    )


def _cmd_sweep(args) -> int:
    merged = _merge_config(args)
    fmt = _output_format(merged)
    cfg = _sweep_config(merged)
    out = merged.get("out")
    if not out:
        print("sweep: --out is required", file=sys.stderr)
        return 2
    records = sweep_mod.run_sweep(cfg)
    sweep_mod.write_records(out, sweep_mod.sweep_fieldnames(cfg), records, fmt)
    print(f"wrote {len(records)} rows to {out}")
    return 0


def _cmd_figure(args) -> int:
    cfg = _merge_config(args)
    fmt = _output_format(cfg)
    out = cfg.get("out") or f"{args.name}.{fmt}"
    fields, records = sweep_mod.figure_rows(args.name, jobs=int(cfg.get("jobs") or 0))
    sweep_mod.write_records(out, fields, records, fmt)
    print(f"wrote {len(records)} rows to {out}")
    return 0


def _cmd_validate(args) -> int:
    cfg = _merge_config(args)
    seed = int(cfg.get("seed") or 7)
    samples = int(cfg.get("samples") or 200)
    results = validation.run_all(seed=seed, samples=samples)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        suffix = f"  [{r.detail}]" if r.detail else ""
        print(f"{status}  {r.name:<{width}}{suffix}")
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "single": _cmd_single,
        "sweep": _cmd_sweep,
        "figure": _cmd_figure,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except ProtocolImpossibleError as exc:
        print(f"protocol impossible: {exc}", file=sys.stderr)
        return 1
    except (CohsynthError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

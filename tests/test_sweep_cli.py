import csv
import json
import math
from pathlib import Path

import pytest

from cohsynth import closedform, validation
from cohsynth import sweep as sweep_mod
from cohsynth.cli import main
from cohsynth.sweep import (
    SWEEP_FIELDS,
    SweepConfig,
    evaluate_cell,
    figure_rows,
    run_sweep,
    sweep_fieldnames,
    write_records,
)


REFERENCE_TABLES = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_evaluate_cell_fields():
    row = evaluate_cell(4, 0.05)
    assert list(row) == SWEEP_FIELDS
    assert row["delta_c"] > 0
    assert row["epsilon_pre"] == 1.0 and row["epsilon_post"] == 1.0
    assert abs(row["approx_ps"] - closedform.approx_ps(4, 0.05)) < 1e-15


def test_evaluate_cell_odd_n_has_no_dcm_approximation():
    assert evaluate_cell(3, 0.05)["approx_dcm"] is None


def test_evaluate_cell_global_protocol():
    row = evaluate_cell(2, 0.05, protocol="global")
    assert row["approx_dcm"] is None  # undefined branch at n=2
    assert abs(row["approx_ps"] - 0.1) < 1e-15
    # n=2 global and pairwise protocols coincide
    assert abs(row["p_s"] - 0.0975) < 1e-12


def test_run_sweep_sorted_and_complete():
    cfg = SweepConfig(n_values=(4, 2), p_values=(0.05, 0.01))
    records = run_sweep(cfg)
    keys = [(r["n"], r["p"]) for r in records]
    assert keys == [(2, 0.01), (2, 0.05), (4, 0.01), (4, 0.05)]


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(n_values=(), p_values=(0.1,))
    with pytest.raises(ValueError):
        SweepConfig(n_values=(2,), p_values=(0.0,))
    with pytest.raises(ValueError):
        SweepConfig(n_values=(2,), p_values=(0.1,), protocol="other")
    with pytest.raises(ValueError, match="'globl'"):
        evaluate_cell(4, 0.05, protocol="globl")
    with pytest.raises(ValueError, match="'xml'"):
        write_records("unused.xml", SWEEP_FIELDS, [], "xml")


def test_rus_sweep_appends_columns():
    cfg = SweepConfig(n_values=(2,), p_values=(0.05,), rus_repetitions=(1, 20))
    records = run_sweep(cfg)
    assert sweep_fieldnames(cfg) == SWEEP_FIELDS + ["r", "p_f"]
    assert [r["r"] for r in records] == [1, 20]
    ps = closedform.ps_exact(2, 0.05)
    assert abs(records[1]["p_f"] - (1 - ps) ** 20) < 1e-15


def test_csv_schema_and_precision(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = SweepConfig(n_values=(3,), p_values=(0.05,))
    write_records(str(out), SWEEP_FIELDS, run_sweep(cfg), "csv")
    rows = read_csv(out)
    assert rows[0] == SWEEP_FIELDS
    record = dict(zip(rows[0], rows[1]))
    assert record["approx_dcm"] == ""  # unsupported branch stays empty
    assert float(record["p_s"]) == pytest.approx(closedform.ps_exact(3, 0.05), rel=1e-11)
    # 12 significant digits
    assert len(record["p_s"].replace(".", "").replace("-", "").lstrip("0")) <= 12


def test_json_schema(tmp_path):
    out = tmp_path / "rows.json"
    cfg = SweepConfig(n_values=(3,), p_values=(0.05,))
    write_records(str(out), SWEEP_FIELDS, run_sweep(cfg), "json")
    payload = json.loads(out.read_text())
    assert isinstance(payload, list) and list(payload[0]) == SWEEP_FIELDS
    assert payload[0]["approx_dcm"] is None


def test_outputs_are_deterministic(tmp_path):
    args = ["sweep", "--n", "2,4", "--p", "0.01,0.05", "--jobs", "1"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_parallel_matches_serial(tmp_path):
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    base = ["sweep", "--n", "2,3,4", "--p", "0.01,0.05"]
    assert main(base + ["--jobs", "1", "--out", str(serial)]) == 0
    assert main(base + ["--jobs", "2", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_single_command(capsys):
    assert main(["single", "--n", "2", "--p", "0.1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split(",")[:5] == SWEEP_FIELDS[:5]
    record = dict(zip(out[0].split(","), out[1].split(",")))
    assert float(record["p_s"]) == pytest.approx(0.19, abs=1e-12)


def test_single_command_json(capsys):
    assert main(["single", "--n", "4", "--p", "0.05", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["delta_c"] > 0


def test_single_with_dead_input_has_no_coherence_gain(capsys):
    assert main(["single", "--n", "4", "--p", "0.05", "--pre-eps", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    record = dict(zip(out[0].split(","), out[1].split(",")))
    assert abs(float(record["delta_c"])) < 1e-12


def test_single_impossible_input_exit_code(capsys):
    assert main(["single", "--n", "3", "--p", "0"]) == 1
    assert "impossible" in capsys.readouterr().err


def test_usage_errors_exit_two(capsys):
    assert main(["single", "--n", "2"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["figure", "nope"])
    assert exc.value.code == 2
    assert main(["sweep", "--n", "2", "--p", "0.1"]) == 2  # missing --out


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": "2,4", "p": "0.05", "format": "json"}))
    out = tmp_path / "rows.json"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out), "--jobs", "1"]) == 0
    assert len(json.loads(out.read_text())) == 2
    # flag overrides the config's n list
    out2 = tmp_path / "rows2.json"
    assert main(["sweep", "--config", str(cfg_path), "--n", "2", "--out", str(out2), "--jobs", "1"]) == 0
    assert len(json.loads(out2.read_text())) == 1


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"protcol": "global", "n": 4, "p": 0.05}))
    assert main(["single", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "'protcol'" in err and "unknown key" in err
    cfg_path.write_text(json.dumps([4, 0.05]))
    assert main(["single", "--config", str(cfg_path)]) == 2
    assert "JSON object" in capsys.readouterr().err


def test_config_values_outside_the_flag_choices_exit_two(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 4, "p": 0.05, "protocol": "globl"}))
    assert main(["single", "--config", str(cfg_path)]) == 2
    assert "'globl'" in capsys.readouterr().err
    cfg_path.write_text(json.dumps({"n": 4, "p": 0.05, "format": "xml"}))
    assert main(["single", "--config", str(cfg_path)]) == 2
    assert "'xml'" in capsys.readouterr().err
    # sweep and figure refuse the format before any cell runs
    ran = []
    monkeypatch.setattr(sweep_mod, "evaluate_cell", lambda *a, **k: ran.append(a))
    out = str(tmp_path / "rows.xml")
    assert main(["sweep", "--config", str(cfg_path), "--jobs", "1", "--out", out]) == 2
    assert "'xml'" in capsys.readouterr().err
    cfg_path.write_text(json.dumps({"format": "xml"}))
    assert main(["figure", "fig2", "--config", str(cfg_path), "--jobs", "1", "--out", out]) == 2
    assert "'xml'" in capsys.readouterr().err
    assert ran == []


def test_sweep_config_naming_seed_exits_two(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": "2", "p": "0.05", "seed": 3}))
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(cfg_path), "--jobs", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'seed'" in err and "unknown key" in err
    assert not out.exists()


def test_config_eps_list_matches_flag(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    config = {"n": 3, "p": 0.05, "pre_eps": [0.9, 0.8, 1.0], "post_eps": 0.7}
    cfg_path.write_text(json.dumps(config))
    assert main(["single", "--config", str(cfg_path)]) == 0
    from_config = capsys.readouterr().out
    flags = ["--n", "3", "--p", "0.05", "--pre-eps", "0.9,0.8,1", "--post-eps", "0.7"]
    assert main(["single", *flags]) == 0
    assert capsys.readouterr().out == from_config


def test_bad_max_tls_value_is_named(monkeypatch, capsys):
    monkeypatch.setenv("COHSYNTH_MAX_TLS", "abc")
    assert main(["single", "--n", "2", "--p", "0.1"]) == 2
    assert "COHSYNTH_MAX_TLS='abc'" in capsys.readouterr().err


def test_single_prints_no_negative_zero(capsys):
    assert main(["single", "--n", "2", "--p", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    record = dict(zip(out[0].split(","), out[1].split(",")))
    assert record["c0"] == record["cf"] == "0"
    assert "-0" not in record.values()


@pytest.mark.parametrize("name", ["fig2", "fig3b", "fig4", "fig5", "figA"])
def test_figure_tables_match_reference_bytes(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    assert main(["figure", name, "--jobs", "1", "--out", str(out)]) == 0
    assert out.read_bytes() == (REFERENCE_TABLES / f"{name}.csv").read_bytes()


def test_figure_fig3b_values(tmp_path):
    fields, records = figure_rows("fig3b")
    assert fields == ["n", "p", "r", "p_f", "global_p_f"]
    assert len(records) == 300
    target = next(r for r in records if r["n"] == 2 and r["r"] == 20)
    assert abs(target["p_f"] - (1 - closedform.ps_exact(2, 0.05)) ** 20) < 1e-15
    # the two protocols coincide at n=2 but diverge beyond
    assert target["global_p_f"] == target["p_f"]
    beyond = next(r for r in records if r["n"] == 4 and r["r"] == 20)
    assert beyond["global_p_f"] < beyond["p_f"]


def test_figure_fig2_includes_global_columns():
    fields, records = figure_rows("fig2")
    assert "global_approx_dc" in fields
    row = next(r for r in records if r["n"] == 4 and r["p"] == 0.01)
    assert abs(row["global_approx_ps"] - 0.04) < 1e-15
    assert row["delta_c"] > 0


def test_figure_fig4_dephasing_lowers_gain():
    _, pure_rows = figure_rows("fig2")
    _, deph_rows = figure_rows("fig4")
    for n in (2, 4, 6, 8):
        pure = next(r for r in pure_rows if r["n"] == n and r["p"] == 0.01)
        deph = next(r for r in deph_rows if r["n"] == n and r["p"] == 0.01)
        assert deph["epsilon_pre"] == 0.9
        assert deph["delta_c"] < pure["delta_c"]


def test_figure_fig5_post_dephasing():
    _, rows = figure_rows("fig5")
    row = next(r for r in rows if r["n"] == 4 and r["p"] == 0.01)
    assert row["epsilon_post"] == 0.9 and row["epsilon_pre"] == 1.0
    assert row["delta_c"] > 0


def test_figure_figA_covers_wide_p_range():
    _, rows = figure_rows("figA")
    ps = sorted({r["p"] for r in rows})
    assert ps[0] == 0.005 and ps[-1] == 0.3
    assert len(rows) == 7 * 60


def test_figure_command_writes_file(tmp_path):
    out = tmp_path / "fig3b.csv"
    assert main(["figure", "fig3b", "--out", str(out), "--jobs", "1"]) == 0
    rows = read_csv(out)
    assert rows[0] == ["n", "p", "r", "p_f", "global_p_f"]
    assert len(rows) == 301


def test_validate_detects_broken_combinatorics(monkeypatch):
    result = validation.check_oracle_equivalence()
    assert result.passed
    monkeypatch.setattr(
        closedform, "count_no_adjacent_ground", lambda n, k: math.comb(n, k)
    )
    broken = validation.check_oracle_equivalence()
    assert not broken.passed


def test_validate_cli_reports_known_failure(capsys):
    # the matched-epsilon pre/post comparison cannot hold (see decisions log),
    # so the suite honestly reports 10/11 and exits nonzero
    code = main(["validate", "--samples", "25"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.count("PASS") == 10
    assert out.count("FAIL") == 1
    assert "10/11" in out

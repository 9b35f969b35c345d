"""Self-test of the benchmark's checker: wrong or refused outputs count as failed ops.

    python3 -m pytest -q perfbench/test_checker.py
"""

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from workloads import percentile  # noqa: E402


class Perturbed:
    """An op whose output has C_f (or another field) shifted after the real call."""

    def __init__(self, cell, **shift):
        self.cell, self.shift, self.label = cell, shift, cell.label

    def __getattr__(self, name):
        return getattr(self.cell, name)

    def prepare(self):
        call = self.cell.prepare()

        def perturbed():
            report = call()
            return dataclasses.replace(
                report, **{k: getattr(report, k) + v for k, v in self.shift.items()})

        return perturbed

    def check(self, report):
        return self.cell.check(report)


def _runner(tmp_path):
    return workloads.Runner(tmp_path, workloads.child_env("1"))


def test_correct_cells_pass(tmp_path):
    cells = [
        workloads.Cell(6, (0.05,) * 6, "chain"),
        workloads.Cell(6, (0.05, 0.1, 0.2, 0.07, 0.3, 0.02), "chain"),
        workloads.Cell(5, (0.1,) * 5, "global"),
    ]
    outcomes = _runner(tmp_path).run_round(cells)
    assert [o.failed for o in outcomes] == [False] * 3


def test_perturbed_coherence_is_a_failed_op(tmp_path):
    runner = _runner(tmp_path)
    for cell in (workloads.Cell(6, (0.05,) * 6, "chain"),
                 workloads.Cell(6, (0.05, 0.1, 0.2, 0.07, 0.3, 0.02), "global")):
        outcome = runner.run(Perturbed(cell, cf=1e-6))
        assert outcome.failed and outcome.wrong
        assert outcome.latency_ms == float("inf")


def test_perturbed_success_probability_is_a_failed_op(tmp_path):
    cell = workloads.Cell(5, (0.1,) * 5, "chain", "pre", (0.9,) * 5)
    outcome = _runner(tmp_path).run(Perturbed(cell, p_s=1e-6))
    assert outcome.failed and outcome.wrong


def test_refused_cell_counts_as_failed_not_skipped(tmp_path):
    cell = workloads.Cell(12, (1e-3,) * 12, "chain")
    outcomes = _runner(tmp_path).run_round([cell, workloads.Cell(4, (0.05,) * 4, "chain")])
    assert len(outcomes) == 2
    assert outcomes[0].failed and not outcomes[0].wrong
    assert outcomes[0].latency_ms == float("inf")
    assert percentile([o.latency_ms for o in outcomes], 50) == float("inf")


def test_pre_post_mismatch_fails_both_cells(tmp_path):
    eps = (0.8,) * 5
    pre = workloads.Cell(5, (0.1,) * 5, "chain", "pre", eps, pair=0)
    post = workloads.Cell(5, (0.1,) * 5, "chain", "post", eps, pair=0)
    runner = _runner(tmp_path)
    assert not any(o.failed for o in runner.run_round([pre, post]))
    outcomes = runner.run_round([pre, Perturbed(post, cf=1e-6)])
    assert all(o.failed and o.wrong for o in outcomes)


def test_table_check_tolerates_drift_but_not_errors(tmp_path):
    reference = workloads.REFERENCE / "fig2.csv"
    lines = reference.read_text().splitlines()
    header, row = lines[0].split(","), lines[1].split(",")
    col = header.index("cf")

    def variant(value):
        changed = list(row)
        changed[col] = value
        path = tmp_path / "fig2.csv"
        path.write_text("\n".join([lines[0], ",".join(changed), *lines[2:]]) + "\n")
        return workloads.compare_table(path, reference)

    cf = float(row[col])
    assert variant(repr(cf * (1 + 1e-11))) == []
    assert variant(repr(cf + 1e-6)) != []


def test_validate_output_check():
    good = "\n".join([f"PASS  c{i}" for i in range(1, 9)]
                     + ["FAIL  dephasing critical behaviour  [gap]", "PASS  c10", "PASS  c11",
                        "10/11 criteria passed"])
    assert workloads.check_validate_output(good) == []
    all_pass = good.replace("FAIL", "PASS").replace("10/11", "11/11")
    assert workloads.check_validate_output(all_pass) != []

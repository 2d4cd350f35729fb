"""Tests for the benchmark's correctness gate and result plumbing.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import bench_check  # noqa: E402
import run  # noqa: E402

SEED = HERE / "data" / "seed"
REF = json.loads((HERE / "data" / "reference.json").read_text())


def _copy(tmp_path, workload, config):
    out = tmp_path / config
    shutil.copytree(SEED / workload / config, out)
    return out


def _edit(path, row, column, value):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload", sorted(REF))
def test_seed_artifacts_pass_their_checks(tmp_path, workload):
    for config in REF[workload]["configs"]:
        out = _copy(tmp_path, workload, config)
        assert bench_check.check_config(REF[workload], config, str(out)) == []
        assert bench_check.csv_max_rel_change(str(out), str(SEED / workload / config)) == 0.0


def test_error_table_flags_perturbed_error_and_rate(tmp_path):
    out = _copy(tmp_path, "error_tables", "table2")
    _edit(out / "errors.csv", 2, 1, "2.5E-02")        # 3x the reference 6.6298e-3
    problems = bench_check.check_config(REF["error_tables"], "table2", str(out))
    assert len(problems) == 1 and "error_gamma_0.5" in problems[0]
    _edit(out / "rates.csv", 1, 2, "2.8000")          # reference 2.98, tolerance 0.15
    problems = bench_check.check_config(REF["error_tables"], "table2", str(out))
    assert len(problems) == 2 and "rate_gamma_0.7886751346" in problems[1]


def test_quotient_digits_flag_a_change_in_the_fourth_digit(tmp_path):
    out = _copy(tmp_path, "quotients_small_n", "table6")
    _edit(out / "ratios.csv", 1, 3, "1.38614852417E+00")
    problems = bench_check.check_config(REF["quotients_small_n"], "table6", str(out))
    assert problems == ["E_H1xH1 at N=16: 1.3861, seed printed 1.3860"]
    change = bench_check.csv_max_rel_change(str(out), str(SEED / "quotients_small_n" / "table6"))
    assert change == pytest.approx(1e-4 / 1.38604852417)


def test_quotient_bounds_flag_criterion_4(tmp_path):
    out = _copy(tmp_path, "quotients_large_n", "table5")
    _edit(out / "ratios.csv", 1, 1, "2.90000000000E+00")
    problems = bench_check.check_config(REF["quotients_large_n"], "table5", str(out))
    assert len(problems) == 1 and "2.818" in problems[0]


def test_missing_artifacts_fail_and_count_as_full_change(tmp_path):
    out = tmp_path / "empty"
    out.mkdir()
    assert bench_check.check_config(REF["error_tables"], "table1", str(out))
    assert bench_check.csv_max_rel_change(str(out), str(SEED / "error_tables" / "table1")) == 1.0


def test_merge_sums_counts_and_keeps_maxima():
    a = {"calls": {"x": 2}, "total": {"x": 1.0}, "self": {"x": 0.5},
         "counters": {"timestep.steps": 3, "timestep.max_stage_iters": 7}, "root_s": 1.0}
    b = {"calls": {"x": 1}, "total": {"x": 2.0}, "self": {"x": 1.5},
         "counters": {"timestep.steps": 4, "timestep.max_stage_iters": 5}, "root_s": 2.0}
    merged = run.merge([a, b])
    assert merged["calls"] == {"x": 3}
    assert merged["counters"] == {"timestep.steps": 7, "timestep.max_stage_iters": 7}
    assert merged["root_s"] == 3.0


def test_layer_metrics_cover_every_declared_metric():
    metrics = run.layer_metrics(run.merge([]))
    declared = {m for m in run.PER_LAYER if not m.startswith("trace.")}
    assert declared - set(metrics) == {"experiments.csv_max_rel_change"}


def test_benchmark_json_matches_run_py():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == [HERE.name]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER

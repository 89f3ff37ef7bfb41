"""Tests of the benchmark harness itself, on tiny item lists.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import workloads  # noqa: E402
from halfspace_qed import kernels, medium, spectral  # noqa: E402

# items per tiny run: enough to reach every check family of the workload
TINY = {"kz-profiles": 5, "kernel-assembly": 2, "energy-sweep": 2, "closed-forms": 4}


def _tiny(workload, trace, seed=1):
    return harness.run_workload(workload, seed, 0.01, trace, count=TINY[workload], setup_reps=1)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric(workload):
    plain = _tiny(workload, trace=False)
    assert set(plain.metrics) == set(harness.END_TO_END)
    assert plain.failed == 0 and plain.metrics["pass_frac"] == 1.0
    assert plain.err_over_tol_max < 1.0
    assert all(v > 0.0 for v in plain.metrics.values())

    traced = _tiny(workload, trace=True)
    assert set(traced.metrics) == set(harness.PER_LAYER)
    assert traced.failed == 0 and traced.absent == []
    assert traced.digest == plain.digest
    m = traced.metrics
    assert m["bench.item.calls"] == TINY[workload]
    # the layers' self times add up to the traced item time
    assert m["trace.self_sum_s"] <= m["trace.wall_s"]
    assert m["trace.self_sum_s"] == pytest.approx(m["trace.wall_s"], rel=0.05)


def test_traced_run_separates_the_layers_and_restores_the_package():
    run = _tiny("kernel-assembly", trace=True)  # slot 0 is a z = z' pair
    m = run.metrics
    assert m["kernels.assemble_kernel_result.calls"] == 2
    assert m["spectral.halfline_radial.calls"] >= 1
    assert m["spectral.halfline_oscillatory_integral.calls"] > 100
    assert m["spectral.halfline_oscillatory_integral.nodes"] > 0
    assert m["energy.second_order_shift.calls"] == 0
    assert m["kernels.est_over_obs.min"] > 0.0
    assert kernels.halfline_oscillatory_integral is spectral.halfline_oscillatory_integral


def test_wrong_closed_form_counts_as_failed(monkeypatch, tmp_path, capsys):
    right = kernels.residue_closed_form
    monkeypatch.setattr(kernels, "residue_closed_form", lambda *a: 2.0 * right(*a))
    run = _tiny("kz-profiles", trace=False)
    assert run.failed == 4  # the four TM components; the TE item compares with 0
    assert run.metrics["pass_frac"] == pytest.approx(1.0 / 5.0)

    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)
    code = harness.main(["--workload", "kz-profiles", "--seed", "1", "--seconds", "0.01"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0
    assert result["metrics"]["pass_frac"]["value"] < 1.0


def test_item_cost_is_its_time_over_the_yardstick_around_it(monkeypatch):
    # a yardstick call that "takes" 2 ms makes a long item's block 10% of it
    monkeypatch.setattr(harness, "_yardstick", lambda: 0.002)
    assert len(harness._yardstick_block(0.0)) == 1
    assert len(harness._yardstick_block(1.0)) == 50
    run = harness.run_workload("closed-forms", 1, 0.0, False, count=4, setup_reps=1)
    assert run.passes == 1
    assert run.raw["yardstick_ms"] == pytest.approx(2.0)
    assert run.metrics["item_ref.p50"] == pytest.approx(run.raw["item_ms.p50"] / 2.0)
    assert run.metrics["wall_ref"] == pytest.approx(run.raw["wall_s"] / 0.002)


def test_seeds_change_inputs_but_not_counts():
    for workload in workloads.WORKLOADS:
        a = workloads.make_items(workload, 1)
        b = workloads.make_items(workload, 2)
        assert len(a) == len(b) == workloads.ITEMS_PER_PASS[workload]
        assert [i.kind for i in a] == [i.kind for i in b]
        assert [i.params for i in a] != [i.params for i in b]
        assert repr(workloads.make_items(workload, 1)) == repr(a)


def test_absent_layer_is_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(medium, "mode_frequency")
    run = _tiny("closed-forms", trace=True)
    assert run.absent == ["medium.mode_frequency"]
    assert run.metrics["medium.mode_frequency.calls"] == 0
    assert run.failed == 0


def test_absent_radial_caller_is_reported(monkeypatch):
    monkeypatch.delattr(kernels, "_radial_assemble")
    run = _tiny("kz-profiles", trace=True)
    assert run.absent == ["kernels._radial_assemble"]
    assert run.failed == 0


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kz-profiles", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

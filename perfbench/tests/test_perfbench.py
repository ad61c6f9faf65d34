"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench/tests``.

They live outside ``tests/`` so the library's own suite never collects them.
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench")]

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, check_ball_doc, op_seed  # noqa: E402

cli = run.import_program()
SPEC = run.load_spec()

import densityball  # noqa: E402

TINY = {
    "ball-hist": replace(WORKLOADS["ball-hist"], dims=(1, 2, 4, 8), n=300),
    "ball-fourier": replace(WORKLOADS["ball-fourier"], dims=(1, 3, 5, 7), n=200),
    "coverage": replace(WORKLOADS["coverage"], n=30, dm=5, nb=200, reps=4),
    "simulate-pw": replace(WORKLOADS["simulate-pw"], n=20, dm=4, nb=100, reps=50),
}


def run_tiny(name, tmp_path, trace=False):
    return run.run_workload(cli, TINY[name], seed=3, seconds=0.3, trace=trace, setup_samples=1,
                            spec=SPEC, out_dir=tmp_path)


def assert_unwrapped():
    assert densityball.ball.resampling_variance is densityball.estimators.resampling_variance
    assert densityball.cli.main.__module__ == "densityball.cli"
    assert not hasattr(densityball.cli.main, "__wrapped__")
    assert not hasattr(densityball.basis.FourierModel.basis_matrix, "__wrapped__")
    assert not hasattr(densityball.oracle.DensityOracle.true_coefficients, "__wrapped__")


def test_spec_matches_workloads_and_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    mapped = {name for group in spans.LAYER_MAP for name in group["metrics"]}
    assert mapped == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_every_workload(name, trace, tmp_path, monkeypatch):
    if not trace:
        monkeypatch.setattr(spans, "installed", None)  # an untraced run must not wrap anything
    result = run_tiny(name, tmp_path, trace)
    assert result["correct"], result["problems"] + [r["errors"] for r in result["ops"]]
    assert result["attempted"] >= 1 and result["failed"] == 0
    line = run.driver_line(result)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in expected]
    assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
    assert_unwrapped()
    if trace:
        doc = json.loads((tmp_path / f"spans_{name}_seed3.json").read_text())
        assert doc["fields"] == ["name", "start_s", "end_s", "parent", "op", "work"]
        assert doc["spans"] and all(row[4] is not None for row in doc["spans"])
        assert line["metrics"]["cli.main.self_s"]["value"] > 0


def test_layer_metrics_follow_the_work(tmp_path):
    ball = run.driver_line(run_tiny("ball-hist", tmp_path, trace=True))["metrics"]
    models = len(TINY["ball-hist"].dims)
    assert ball["estimators.projection_bias_estimate.calls"]["value"] == models
    assert ball["bounds.calls"]["value"] == 5 * models  # radius re-derives both bounds
    assert ball["cli.bytes_in"]["value"] > 0 and ball["basis.eval_ratio"]["value"] > 1
    pw = run.driver_line(run_tiny("simulate-pw", tmp_path, trace=True))["metrics"]
    reps = TINY["simulate-pw"].reps
    assert pw["weights.replication_rng.busy_s"]["value"] > 0
    assert pw["weights.sample_weights_batch.entries"]["value"] == reps * 100 * 20
    assert pw["bounds.calls"]["value"] == 0 and pw["cli.bytes_in"]["value"] == 0


def test_results_file_schema(tmp_path):
    path = run.write_results(run_tiny("coverage", tmp_path), tmp_path)
    doc = json.loads(path.read_text())
    env = doc["environment"]
    assert {"git_commit", "python", "numpy", "scipy", "nproc", "blas"} <= set(env)
    assert {"name", "version", "threads", "env"} <= set(env["blas"])
    assert isinstance(env["nproc"], int) and env["nproc"] >= 1
    assert doc["workload"] == "coverage" and doc["seed"] == 3
    assert doc["op_count"] == doc["attempted"] == len(doc["ops"]) - 1  # plus the warm-up op
    for op in doc["ops"]:
        assert {"op", "seed", "sizes", "wall_s", "cpu_s", "ok"} <= set(op)
        assert op["sizes"] == TINY["coverage"].sizes()
    for m in doc["metrics"].values():
        assert set(m) == {"value", "unit"}
    assert doc["metrics"]["error_rate"]["value"] == 0
    assert "_quadrature" in doc["unmeasured"] and doc["layer_map"]


def _ball_doc(tmp_path):
    workload = TINY["ball-hist"]
    op = workload.prepare(1, op_seed(9, 1), tmp_path)
    assert cli.main(op.argv) == 0
    return workload, op, json.loads(op.out_path.read_text())


def test_ball_check_accepts_the_library_output(tmp_path):
    workload, op, doc = _ball_doc(tmp_path)
    assert check_ball_doc(doc, workload.prefix_norms(op.points), op.points.size, workload.dims) == []


@pytest.mark.parametrize("corrupt", ["radius", "selected_index", "variance_estimate", "bias_estimate"])
def test_ball_check_rejects_corruption(corrupt, tmp_path):
    workload, op, doc = _ball_doc(tmp_path)
    if corrupt == "radius":
        doc["radius"] *= 1.001
    elif corrupt == "selected_index":
        doc["selected_index"] = (doc["selected_index"] + 1) % len(doc["models"])
    else:
        doc["models"][-2][corrupt] += 1e-6
    assert check_ball_doc(doc, workload.prefix_norms(op.points), op.points.size, workload.dims)


@pytest.mark.parametrize("corrupt", ["radius", "selected_index"])
def test_corrupted_output_counts_as_failed_op(corrupt, tmp_path, monkeypatch):
    original = densityball.cli.ball_to_doc

    def corrupted(ball):
        doc = original(ball)
        if corrupt == "radius":
            doc["models"][doc["selected_index"]]["radius"] *= 1.5
        else:
            doc["selected_index"] = len(doc["models"]) - 1 - doc["selected_index"]
        return doc

    monkeypatch.setattr(densityball.cli, "ball_to_doc", corrupted)
    result = run_tiny("ball-hist", tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["error_rate"]["value"] == 1.0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ball-hist", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

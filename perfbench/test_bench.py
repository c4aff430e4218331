"""Tests of the benchmark harness: every workload path in smoke mode, and the
output checks against deliberately broken outputs."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from swirlfem import cli, vtkio  # noqa: E402
from swirlfem.config import parse_config  # noqa: E402
from swirlfem.pipeline import build_mesh, read_snapshot  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] == 2 * run.WORKLOADS[workload].operations()
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}
    if trace and workload != "analyze_desk":
        assert result["metrics"]["pointlocate.feet"]["value"] > 0
    if trace and workload == "fine_straight_gmres":
        assert result["metrics"]["solver.gmres_iters"]["value"] > 0


def test_seed_only_moves_the_profile():
    wl = run.WORKLOADS["desk_curved"]
    a, b = (json.loads(run.config_text(wl, s, False)) for s in (1, 2))
    assert a["profile"] != b["profile"]
    a.pop("profile"), b.pop("profile")
    assert a == b
    assert run.config_text(wl, 1, False) == run.config_text(wl, 1, False)


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    wl = run.WORKLOADS["desk_curved"]
    text = run.config_text(wl, 1, smoke=True)
    work = tmp_path_factory.mktemp("desk")
    (work / "config.yaml").write_text(text)
    out = work / "out"
    assert cli.main(["run", "--config", str(work / "config.yaml"),
                     "--out", str(out)]) == 0
    _, mesh = build_mesh(parse_config(text))
    return wl, out, mesh


OK = run.Rep(traced=False, wall_s=1.0, code=0, result={}, stderr="")


def test_checks_pass_on_real_outputs(desk_run):
    wl, out, mesh = desk_run
    assert run.check_run(wl, out, mesh, OK) == (0, [])
    csv = out / "diagnostics.csv"
    assert checks.compare_csv(csv, csv, len(wl.record_steps())) == (set(), [])


def test_non_finite_and_missing_rows_fail_records(desk_run, tmp_path):
    wl, out, _ = desk_run
    times = [k * run.TAU for k in wl.record_steps()]
    lines = (out / "diagnostics.csv").read_text().splitlines()
    broken = tmp_path / "diagnostics.csv"
    cols = lines[2].split(",")
    cols[1] = "nan"
    lines[2] = ",".join(cols)
    broken.write_text("\n".join(lines[:-1]) + "\n")
    failed, problems = checks.check_csv(broken, times, run.Q_THRESHOLDS)
    assert failed == {1, len(times) - 1} and problems


def test_analyze_mismatch_fails_the_differing_record(desk_run, tmp_path):
    wl, out, _ = desk_run
    lines = (out / "diagnostics.csv").read_text().split("\n")
    lines[3] = lines[3][:-1] + ("1" if lines[3][-1] != "1" else "2")
    other = tmp_path / "diagnostics.csv"
    other.write_text("\n".join(lines))
    failed, problems = checks.compare_csv(other, out / "diagnostics.csv",
                                          len(wl.record_steps()))
    assert failed == {2} and problems


def test_invalid_final_state_fails_the_last_step(desk_run, tmp_path):
    wl, out, mesh = desk_run
    name = f"snapshot_{wl.steps:06d}.vtk"
    state = read_snapshot(out / name, mesh)
    state.velocity[mesh.boundary_nodes[0]] = 1.0
    vtkio.write_snapshot_vtk(tmp_path / name, mesh, state)
    problems = checks.check_final_state(tmp_path, mesh, wl.steps)
    assert problems and "boundary velocity" in problems[0]

    state.velocity[:] = np.nan
    vtkio.write_snapshot_vtk(tmp_path / name, mesh, state)
    assert "non-finite" in checks.check_final_state(tmp_path, mesh,
                                                    wl.steps)[0]


def test_missing_outputs_and_exit_codes_fail(desk_run, tmp_path):
    wl, _, mesh = desk_run
    failed, problems = run.check_run(wl, tmp_path, mesh, OK)
    # every record, plus the steps owing a snapshot or checkpoint
    assert failed == len(wl.record_steps()) + 2 and problems
    crashed = run.Rep(traced=False, wall_s=1.0, code=2, result={},
                      stderr="internal error: boom")
    failed, problems = run.check_run(wl, tmp_path, mesh, crashed)
    assert failed == wl.operations() and "boom" in problems[0]


def test_without_sources_exits_nonzero_and_prints_nothing(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_curved",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_tail_percentile_needs_ten_samples_beyond_it():
    from tracestats import tail

    assert tail([]) == (0.0, 0.0, 0)
    assert tail([1.0] * 19)[2] == 50
    assert tail(list(range(40)))[2] == 75
    p50, p99, q = tail([float(i) for i in range(1000)])
    assert (p50, p99, q) == (499.5, 989.0, 99)

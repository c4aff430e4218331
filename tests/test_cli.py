"""End-to-end checks of the pipeline commands and CLI surface on tiny runs."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from swirlfem import solver, verify, vtkio
from swirlfem.cli import main
from swirlfem.config import parse_config
from swirlfem import pipeline

TINY = """
mesh: {n_r: 3, n_z: 5}
solver: {tau: 0.025, t_end: 0.2, reynolds: 1000.0}
planes: {count: 10}
output:
  snapshot_interval: 0.05
  diagnostics_interval: 0.05
  checkpoint_interval: 0.1
"""


@pytest.fixture()
def tiny_cfg():
    return parse_config(TINY)


def set_wall_velocity(cfg, path, value):
    """Rewrite a checkpoint with the velocity on the wall nodes set to value."""
    with np.load(path) as data:
        payload = dict(data)
    mesh = pipeline.build_mesh(cfg)[1]
    payload["velocity"][mesh.boundary_nodes] = value
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


class TestPipeline:
    def test_cmd_mesh_writes_readable_vtk(self, tiny_cfg, tmp_path):
        path = pipeline.cmd_mesh(tiny_cfg, tmp_path)
        nodes, tets, _, cdata, _ = vtkio.read_vtk(path)
        assert len(tets) > 0 and len(nodes) > 0
        assert "region" in cdata

    def test_cmd_run_outputs(self, tiny_cfg, tmp_path):
        state = pipeline.cmd_run(tiny_cfg, tmp_path)
        assert state.step_index == 8
        snaps = sorted(tmp_path.glob("snapshot_*.vtk"))
        assert len(snaps) == 5          # t = 0, 0.05, 0.1, 0.15, 0.2
        assert (tmp_path / "diagnostics.csv").exists()
        data = vtkio.read_csv(tmp_path / "diagnostics.csv")
        assert len(data["t"]) == 5
        assert data["t"][0] == 0.0
        chks = sorted(tmp_path.glob("checkpoint_*.npz"))
        assert len(chks) == 2           # steps 4 and 8

    def test_run_determinism_byte_identical(self, tiny_cfg, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        pipeline.cmd_run(tiny_cfg, d1)
        pipeline.cmd_run(tiny_cfg, d2)
        assert (d1 / "diagnostics.csv").read_bytes() \
            == (d2 / "diagnostics.csv").read_bytes()
        for s1 in sorted(d1.glob("snapshot_*.vtk")):
            assert s1.read_bytes() == (d2 / s1.name).read_bytes()

    def test_interrupt_and_resume_byte_identical(self, tiny_cfg, tmp_path):
        ref, part = tmp_path / "ref", tmp_path / "part"
        pipeline.cmd_run(tiny_cfg, ref)
        # interrupt after 5 steps (not aligned with the checkpoint cadence)
        state = pipeline.cmd_run(tiny_cfg, part, max_steps=5)
        assert state.step_index == 5
        state = pipeline.cmd_run(tiny_cfg, part)   # resumes from step 4
        assert state.step_index == 8
        assert (ref / "diagnostics.csv").read_bytes() \
            == (part / "diagnostics.csv").read_bytes()
        for s1 in sorted(ref.glob("snapshot_*.vtk")):
            assert s1.read_bytes() == (part / s1.name).read_bytes()

    def test_steps_go_through_solver_time_step(self, tiny_cfg, tmp_path,
                                               monkeypatch):
        # the benchmark's trace wraps solver.time_step; every step of a run
        # must be looked up there
        calls = []
        step = solver.time_step

        def counted(*args, **kwargs):
            calls.append(1)
            return step(*args, **kwargs)

        monkeypatch.setattr(solver, "time_step", counted)
        pipeline.cmd_run(tiny_cfg, tmp_path / "full")
        assert len(calls) == 8
        calls.clear()
        pipeline.cmd_run(tiny_cfg, tmp_path / "part", max_steps=3)
        assert len(calls) == 3

    def test_resume_rejects_invalid_checkpoint(self, tiny_cfg, tmp_path):
        pipeline.cmd_run(tiny_cfg, tmp_path, max_steps=5)
        set_wall_velocity(tiny_cfg, tmp_path / "checkpoint_000004.npz", 1.0)
        with pytest.raises(ValueError, match="boundary velocity"):
            pipeline.cmd_run(tiny_cfg, tmp_path)

    def test_analyze_reproduces_run_csv(self, tiny_cfg, tmp_path):
        run_dir = tmp_path / "run"
        pipeline.cmd_run(tiny_cfg, run_dir)
        ana_dir = tmp_path / "ana"
        snaps = sorted(run_dir.glob("snapshot_*.vtk"))
        pipeline.cmd_analyze(tiny_cfg, snaps, ana_dir)
        assert (run_dir / "diagnostics.csv").read_bytes() \
            == (ana_dir / "diagnostics.csv").read_bytes()

    def test_analyze_rejects_mismatched_snapshot(self, tiny_cfg, tmp_path):
        other = parse_config(TINY + "\ndomain: {a: 0.125}\n")
        big = parse_config("mesh: {n_r: 4, n_z: 5}\n"
                           "solver: {tau: 0.025, t_end: 0.05}\n"
                           "output: {snapshot_interval: 0.025,"
                           " diagnostics_interval: 0.025,"
                           " checkpoint_interval: 0.05}")
        run_dir = tmp_path / "run"
        pipeline.cmd_run(big, run_dir)
        snaps = sorted(run_dir.glob("snapshot_*.vtk"))
        with pytest.raises(ValueError, match="nodes"):
            pipeline.cmd_analyze(other, snaps, tmp_path / "ana")

    def test_read_snapshot_rejects_another_mesh(self, tiny_cfg, tmp_path):
        # same node and tet counts, different coordinates
        pipeline.cmd_run(tiny_cfg, tmp_path, max_steps=0)
        snap = tmp_path / "snapshot_000000.vtk"
        curved = parse_config(TINY + "domain: {kind: curved, R: 1.5}\n")
        _, mesh = pipeline.build_mesh(curved)
        assert mesh.n_nodes == pipeline.build_mesh(tiny_cfg)[1].n_nodes
        with pytest.raises(ValueError, match="differs from the configured"):
            pipeline.read_snapshot(snap, mesh)
        state = pipeline.read_snapshot(snap, pipeline.build_mesh(tiny_cfg)[1])
        assert state.step_index == 0

    def test_output_root_env(self, tiny_cfg, tmp_path, monkeypatch):
        monkeypatch.setenv(pipeline.OUTPUT_ROOT_ENV, str(tmp_path))
        out = pipeline.resolve_output_dir(tiny_cfg, "rel")
        assert out == tmp_path / "rel"
        assert out.is_dir()


class TestCli:
    def test_mesh_command(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.yaml"
        cfgfile.write_text(TINY)
        rc = main(["mesh", "--config", str(cfgfile), "--out",
                   str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "mesh.vtk").exists()

    def test_run_and_analyze_commands(self, tmp_path):
        cfgfile = tmp_path / "run.yaml"
        cfgfile.write_text(TINY)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == 0
        snaps = sorted(str(p) for p in out.glob("snapshot_*.vtk"))
        out2 = tmp_path / "out2"
        assert main(["analyze", "--config", str(cfgfile), "--out", str(out2),
                     *snaps]) == 0
        assert (out / "diagnostics.csv").read_bytes() \
            == (out2 / "diagnostics.csv").read_bytes()

    def test_set_overrides(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["mesh", "--set", "mesh.n_r=2", "--set", "mesh.n_z=2",
                   "--out", str(out)])
        assert rc == 0

    def test_max_steps_zero_writes_only_initial_outputs(self, tmp_path,
                                                       capsys):
        cfgfile = tmp_path / "run.yaml"
        cfgfile.write_text(TINY)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgfile), "--out", str(out),
                     "--max-steps", "0"]) == 0
        assert "finished at step 0" in capsys.readouterr().out
        assert [p.name for p in out.glob("snapshot_*.vtk")] \
            == ["snapshot_000000.vtk"]
        assert not list(out.glob("checkpoint_*.npz"))
        assert list(vtkio.read_csv(out / "diagnostics.csv")["t"]) == [0.0]

    def test_negative_max_steps_exits_1(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.yaml"
        cfgfile.write_text(TINY)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgfile), "--out", str(out),
                     "--max-steps", "-3"]) == 1
        assert "max_steps" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_checkpoint_exits_1(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.yaml"
        cfgfile.write_text(TINY)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgfile), "--out", str(out),
                     "--max-steps", "5"]) == 0
        set_wall_velocity(parse_config(TINY), out / "checkpoint_000004.npz",
                          1.0)
        assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "checkpoint_000004.npz" in err and "boundary velocity" in err

    def test_resume_under_another_config_exits_1(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.yaml"
        cfgfile.write_text(TINY.replace("n_r: 3", "n_r: 4"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgfile), "--out", str(out),
                     "--max-steps", "5"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert "checkpoint_000004.npz" in before
        rc = main(["run", "--config", str(cfgfile), "--out", str(out),
                   "--set", "domain.kind=curved", "--set", "domain.R=1.5"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "checkpoint_000004.npz" in err and "another config" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        # the config it was started with still resumes
        assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == 0

    def test_analyze_of_another_mesh_exits_1(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.yaml"
        cfgfile.write_text(TINY)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgfile), "--out", str(out),
                     "--max-steps", "0"]) == 0
        snap = str(out / "snapshot_000000.vtk")
        rc = main(["analyze", "--config", str(cfgfile), "--out",
                   str(tmp_path / "ana"), "--set", "domain.kind=curved",
                   "--set", "domain.R=1.5", snap])
        assert rc == 1
        assert "differs from the configured mesh" in capsys.readouterr().err
        assert not (tmp_path / "ana" / "diagnostics.csv").exists()

    def test_user_errors_exit_1(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "missing.yaml")]) == 1
        bad = tmp_path / "bad.yaml"
        bad.write_text("solver: {tau: -1}\n")
        assert main(["run", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "tau" in err

    def test_verify_command_writes_what_it_prints(self, tmp_path, capsys,
                                                  monkeypatch):
        study = verify.convergence_study
        reports = []

        def short_study():
            reports.append(study(levels=((3, 3), (6, 6)), t_end=0.05))
            return reports[-1]

        # cmd_verify looks the study up at call time, so the patch holds
        monkeypatch.setattr(verify, "convergence_study", short_study)
        out = tmp_path / "out"
        assert main(["verify", "--out", str(out)]) == 0
        report = out / "verify_report.txt"
        assert report.exists()
        assert len(reports) == 1
        assert report.read_text() == capsys.readouterr().out \
            == reports[0].format()

    def test_import_leaves_out_sympy_and_kdtree(self):
        # mesh, run and analyze need neither; verify imports sympy itself
        src = str(Path(solver.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        code = ("import sys, swirlfem.cli; print(sorted(m for m in "
                "('sympy', 'scipy.spatial') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

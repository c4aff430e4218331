"""Pipeline stages behind the CLI: mesh -> run -> analyze, plus verify.

cmd_run is resumable: checkpoints carry the solver state, the diagnostics
rows accumulated so far and the run's config, so an interrupted run continues
from the latest checkpoint and finishes with byte-identical outputs, and a
checkpoint from another config is refused.  cmd_analyze recomputes
diagnostics from saved snapshots; because snapshots round-trip every float
exactly, its CSV matches the in-run one byte for byte (at equal cadences).
"""

import os
import re
from pathlib import Path

import numpy as np

from . import vtkio
from .config import RunConfig, serialize_config
from .diagnostics import compute_record
from .geometry import DomainKind, DomainSpec, build_straight_mesh, \
    cross_section_planes, map_to_torus
from .initcond import sample_initial_state
from .solver import StepOperator, run_simulation
from .verify import convergence_study
from .vtkio import record_to_row

OUTPUT_ROOT_ENV = "SWIRLFEM_OUTPUT_ROOT"

_CHECKPOINT_RE = re.compile(r"checkpoint_(\d{6})\.npz$")


def resolve_output_dir(cfg: RunConfig, out_dir=None) -> Path:
    """Output directory: explicit argument, else config value, optionally
    rooted at $SWIRLFEM_OUTPUT_ROOT."""
    path = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not path.is_absolute():
        path = Path(root) / path
    path.mkdir(parents=True, exist_ok=True)
    return path


def build_mesh(cfg: RunConfig):
    """(spec, mesh) from a config: straight lattice, bent if curved, with
    cross-section planes bound to the mesh."""
    spec = cfg.domain_spec()
    if spec.kind is DomainKind.CURVED:
        straight = DomainSpec(DomainKind.STRAIGHT, r_max=cfg.r_max, a=cfg.a)
        mesh = map_to_torus(build_straight_mesh(straight, cfg.n_r, cfg.n_z),
                            spec)
    else:
        mesh = build_straight_mesh(spec, cfg.n_r, cfg.n_z)
    return spec, cross_section_planes(spec, cfg.n_planes, mesh)


def initial_state(cfg: RunConfig, mesh, spec):
    return sample_initial_state(mesh, cfg.profile(), spec,
                                cfg.profile_params(),
                                frame_radius=cfg.frame_radius)


def cmd_mesh(cfg: RunConfig, out_dir=None) -> Path:
    """Build the mesh and export it as legacy VTK."""
    out = resolve_output_dir(cfg, out_dir)
    _, mesh = build_mesh(cfg)
    path = out / "mesh.vtk"
    vtkio.write_mesh_vtk(path, mesh)
    return path


def _latest_checkpoint(out: Path):
    best = None
    for p in out.iterdir():
        m = _CHECKPOINT_RE.match(p.name)
        if m:
            step = int(m.group(1))
            if best is None or step > best[0]:
                best = (step, p)
    return best


def cmd_run(cfg: RunConfig, out_dir=None, max_steps=None):
    """Advance the configured simulation, emitting snapshots, checkpoints and
    the diagnostics CSV; resumes from the latest checkpoint if one exists
    and was written under the same config.

    max_steps limits the number of new steps this invocation takes (used to
    exercise interruption/resume; 0 writes only the t = 0 outputs of a fresh
    run); the diagnostics CSV is flushed even when stopping early or on error.
    """
    if max_steps is not None and max_steps < 0:
        # rejected before any output is touched
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    out = resolve_output_dir(cfg, out_dir)
    spec, mesh = build_mesh(cfg)
    solver_cfg = cfg.solver_config()
    diag_steps = cfg.steps_per(cfg.diagnostics_interval, "diagnostics_interval")
    snap_steps = cfg.steps_per(cfg.snapshot_interval, "snapshot_interval")
    chk_steps = cfg.steps_per(cfg.checkpoint_interval, "checkpoint_interval")

    config_text = serialize_config(cfg)

    resume = _latest_checkpoint(out)
    rows = []
    if resume is not None:
        state, stored_rows = vtkio.read_checkpoint(resume[1], mesh.n_nodes,
                                                   config_text)
        try:
            state.validate(mesh)
        except ValueError as exc:
            raise ValueError(f"{resume[1]}: {exc}") from exc
        rows = [list(r) for r in stored_rows]
    else:
        state = initial_state(cfg, mesh, spec)

    def sink(st):
        # record, snapshot, then checkpoint, so a checkpoint holds the row
        # of its own step
        k = st.step_index
        if k % diag_steps == 0:
            rec = compute_record(st, mesh, spec,
                                 q_thresholds=cfg.q_thresholds,
                                 region_thresholds=cfg.region_thresholds)
            rows.append(record_to_row(rec, cfg.q_thresholds,
                                      rows[-1] if rows else None))
        if k % snap_steps == 0:
            vtkio.write_snapshot_vtk(out / f"snapshot_{k:06d}.vtk", mesh, st)
        if k > 0 and k % chk_steps == 0:
            vtkio.write_checkpoint(out / f"checkpoint_{k:06d}.npz", st, rows,
                                   config_text)

    op = StepOperator(mesh, solver_cfg)
    csv_path = out / "diagnostics.csv"
    try:
        state = run_simulation(op, state, sink=sink, max_steps=max_steps)
    finally:
        vtkio.write_csv_rows(csv_path, rows, cfg.q_thresholds)
    return state


_SNAP_TITLE_RE = re.compile(r"step=(\d+) t=([^\s]+)")


def read_snapshot(path, mesh):
    """Load a snapshot VTK back into a FieldState (exact values); its nodes
    and tets must equal the mesh's, which %.17g round-trips exactly."""
    from .solver import FieldState

    nodes, tets, pdata, _ = vtkio.read_vtk(path)
    if not (np.array_equal(nodes, mesh.nodes)
            and np.array_equal(tets, mesh.tets)):
        raise ValueError(
            f"{path}: snapshot mesh ({len(nodes)} nodes, {len(tets)} tets) "
            f"differs from the configured mesh ({mesh.n_nodes} nodes, "
            f"{mesh.n_tets} tets)"
        )
    with open(path) as fh:
        fh.readline()
        title = fh.readline()
    m = _SNAP_TITLE_RE.search(title)
    if not m:
        raise ValueError(f"{path}: snapshot title lacks step/time metadata")
    return FieldState(step_index=int(m.group(1)), time=float(m.group(2)),
                      velocity=pdata["velocity"], pressure=pdata["pressure"])


def cmd_analyze(cfg: RunConfig, snapshot_paths, out_dir=None) -> Path:
    """Recompute the diagnostics series from saved snapshots."""
    out = resolve_output_dir(cfg, out_dir)
    spec, mesh = build_mesh(cfg)
    states = [read_snapshot(p, mesh) for p in snapshot_paths]
    states.sort(key=lambda s: s.step_index)
    rows = []
    for st in states:
        rec = compute_record(st, mesh, spec,
                             q_thresholds=cfg.q_thresholds,
                             region_thresholds=cfg.region_thresholds)
        rows.append(record_to_row(rec, cfg.q_thresholds,
                                  rows[-1] if rows else None))
    path = out / "diagnostics.csv"
    vtkio.write_csv_rows(path, rows, cfg.q_thresholds)
    return path


def cmd_verify(cfg: RunConfig, out_dir=None):
    """Manufactured-solution convergence study; writes the report and
    returns it."""
    out = resolve_output_dir(cfg, out_dir)
    report = convergence_study()
    vtkio._atomic_write(out / "verify_report.txt", report.format())
    return report

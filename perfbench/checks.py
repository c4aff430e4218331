"""Output checks for one benchmark repetition.

Each check returns the operations it found broken, so a failed check counts
against ``error_rate`` instead of printing a warning.  A step is identified by
its index, a record by its row position in the diagnostics CSV.
"""

import math
import os

import numpy as np

from swirlfem import pipeline, vtkio

# The fixed diagnostics CSV layout documented in README.md.
CSV_COLUMNS = (
    ["t", "v_max", "d_v_max", "E_total", "E_inner", "E_middle", "E_outer",
     "E_none", "L_x", "L_y", "L_z", "L_mag", "L_inner", "L_middle", "L_outer",
     "L_none", "delta_E", "delta_L"]
    + [f"c_{axis}{j}" for axis in "xyz" for j in range(4)]
    + ["curve_J", "planes_skipped"]
)


def csv_header(q_thresholds) -> str:
    return ",".join(CSV_COLUMNS + [f"structures_q{q:g}" for q in q_thresholds])


def check_csv(path, times, q_thresholds):
    """Rows that are missing, misplaced in time, short or non-finite.

    Returns (failed record positions, problems).
    """
    if not os.path.exists(path):
        return set(range(len(times))), [f"{path} missing"]
    with open(path) as fh:
        lines = fh.read().splitlines()
    problems = []
    if not lines or lines[0] != csv_header(q_thresholds):
        problems.append(f"{path}: unexpected header")
        return set(range(len(times))), problems
    rows = lines[1:]
    if len(rows) != len(times):
        problems.append(f"{path}: {len(rows)} rows, expected {len(times)}")
    width = len(lines[0].split(","))
    failed = set(range(len(rows), len(times)))
    for i, line in enumerate(rows[:len(times)]):
        try:
            values = [float(v) for v in line.split(",")]
        except ValueError:
            values = []
        if len(values) != width or not all(map(math.isfinite, values)) \
                or abs(values[0] - times[i]) > 1e-12:
            failed.add(i)
            problems.append(f"{path}: row {i} is malformed, non-finite or "
                            f"not at t={times[i]!r}")
    return failed, problems


def check_files(out_dir, names):
    """Names of expected output files that do not exist."""
    return [n for n in names if not os.path.exists(os.path.join(out_dir, n))]


def check_final_state(out_dir, mesh, step):
    """The last snapshot is finite, passes FieldState.validate (zero wall
    velocity, zero-mean pressure) and equals the checkpoint of the same step
    bit for bit when one was written.  Returns problems."""
    snap = os.path.join(out_dir, f"snapshot_{step:06d}.vtk")
    try:
        state = pipeline.read_snapshot(snap, mesh)
        if state.step_index != step:
            return [f"{snap}: holds step {state.step_index}, expected {step}"]
        if not (np.isfinite(state.velocity).all()
                and np.isfinite(state.pressure).all()):
            return [f"{snap}: non-finite field values"]
        state.validate(mesh)
    except (OSError, ValueError) as exc:
        return [f"{snap}: {exc}"]
    chk = os.path.join(out_dir, f"checkpoint_{step:06d}.npz")
    if os.path.exists(chk):
        saved, _ = vtkio.read_checkpoint(chk, mesh.n_nodes)
        if not (np.array_equal(saved.velocity, state.velocity)
                and np.array_equal(saved.pressure, state.pressure)):
            return [f"{chk}: differs from {snap}"]
    return []


def compare_csv(path, reference, n_records):
    """Record positions whose line differs from the reference CSV (the
    analyze output must match the in-run CSV byte for byte).  Returns
    (failed record positions, problems)."""
    try:
        with open(path, "rb") as fh:
            got = fh.read().split(b"\n")
    except OSError as exc:
        return set(range(n_records)), [str(exc)]
    with open(reference, "rb") as fh:
        want = fh.read().split(b"\n")
    if got == want:
        return set(), []
    failed = {i for i in range(n_records)
              if got[i + 1:i + 2] != want[i + 1:i + 2]}
    if got[:1] != want[:1] or not failed:
        failed = set(range(n_records))
    return failed, [f"{path}: differs from {reference} in "
                    f"{len(failed)} of {n_records} records"]

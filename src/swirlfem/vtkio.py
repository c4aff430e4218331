"""File formats: legacy ASCII VTK, binary checkpoints, diagnostics CSV.

VTK files are written with %.17g floats so every value round-trips exactly
through the bundled reader; checkpoints use a versioned npz container so
resume is bit-exact.  All writes go through a temp file + rename so partial
files never end up under the final name.
"""

import os
from dataclasses import dataclass

import numpy as np

from .diagnostics import REGION_NAMES, DiagnosticsRecord
from .geometry import Mesh

CHECKPOINT_FORMAT = 2

_F = "%.17g"  # exact decimal round-trip for float64


def _atomic_write(path, text: str):
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# legacy ASCII VTK unstructured grid


def write_vtk(path, nodes: np.ndarray, tets: np.ndarray,
              point_data: dict | None = None,
              cell_data: dict | None = None,
              title: str = "swirlfem output"):
    """Write an unstructured tet grid with optional nodal/cell fields.

    point_data / cell_data map name -> array; (n,) arrays become SCALARS,
    (n, 3) arrays become VECTORS.  Integer arrays are written as int.
    """
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {len(nodes)} double",
    ]
    for p in nodes:
        lines.append(f"{_F % p[0]} {_F % p[1]} {_F % p[2]}")
    lines.append(f"CELLS {len(tets)} {5 * len(tets)}")
    for t in tets:
        lines.append(f"4 {t[0]} {t[1]} {t[2]} {t[3]}")
    lines.append(f"CELL_TYPES {len(tets)}")
    lines.extend(["10"] * len(tets))

    def emit_fields(data, count):
        for name, arr in data.items():
            arr = np.asarray(arr)
            if arr.shape[0] != count:
                raise ValueError(
                    f"field {name!r} has {arr.shape[0]} entries, expected {count}"
                )
            if arr.ndim == 2 and arr.shape[1] == 3:
                lines.append(f"VECTORS {name} double")
                for v in arr:
                    lines.append(f"{_F % v[0]} {_F % v[1]} {_F % v[2]}")
            elif np.issubdtype(arr.dtype, np.integer):
                lines.append(f"SCALARS {name} int 1")
                lines.append("LOOKUP_TABLE default")
                lines.extend(str(int(v)) for v in arr)
            else:
                lines.append(f"SCALARS {name} double 1")
                lines.append("LOOKUP_TABLE default")
                lines.extend(_F % v for v in arr)

    if cell_data:
        lines.append(f"CELL_DATA {len(tets)}")
        emit_fields(cell_data, len(tets))
    if point_data:
        lines.append(f"POINT_DATA {len(nodes)}")
        emit_fields(point_data, len(nodes))
    _atomic_write(path, "\n".join(lines) + "\n")


def read_vtk(path):
    """Read files produced by write_vtk.

    Returns (nodes, tets, point_data, cell_data).  Only the subset of the
    legacy format that the writer emits is supported.
    """
    with open(path) as fh:
        tokens = fh.read().split("\n")
    i = 0

    def expect(prefix):
        nonlocal i
        while i < len(tokens) and not tokens[i].strip():
            i += 1
        if i >= len(tokens) or not tokens[i].startswith(prefix):
            raise ValueError(f"{path}: expected {prefix!r} at line {i + 1}")
        line = tokens[i]
        i += 1
        return line

    expect("# vtk DataFile")
    i += 1  # title
    expect("ASCII")
    expect("DATASET UNSTRUCTURED_GRID")
    n_pts = int(expect("POINTS").split()[1])
    nodes = np.empty((n_pts, 3))
    for k in range(n_pts):
        nodes[k] = [float(v) for v in tokens[i].split()]
        i += 1
    n_cells = int(expect("CELLS").split()[1])
    tets = np.empty((n_cells, 4), dtype=np.int64)
    for k in range(n_cells):
        parts = tokens[i].split()
        if parts[0] != "4":
            raise ValueError(f"{path}: cell {k} is not a tetrahedron")
        tets[k] = [int(v) for v in parts[1:5]]
        i += 1
    expect("CELL_TYPES")
    i += n_cells

    point_data: dict = {}
    cell_data: dict = {}
    target, count = None, 0
    while i < len(tokens):
        line = tokens[i].strip()
        i += 1
        if not line:
            continue
        if line.startswith("CELL_DATA"):
            target, count = cell_data, int(line.split()[1])
        elif line.startswith("POINT_DATA"):
            target, count = point_data, int(line.split()[1])
        elif line.startswith("VECTORS"):
            name = line.split()[1]
            arr = np.empty((count, 3))
            for k in range(count):
                arr[k] = [float(v) for v in tokens[i].split()]
                i += 1
            target[name] = arr
        elif line.startswith("SCALARS"):
            parts = line.split()
            name, dtype = parts[1], parts[2]
            i += 1  # LOOKUP_TABLE
            if dtype == "int":
                target[name] = np.array([int(tokens[i + k]) for k in range(count)])
            else:
                target[name] = np.array([float(tokens[i + k]) for k in range(count)])
            i += count
        else:
            raise ValueError(f"{path}: unsupported section {line!r}")
    return nodes, tets, point_data, cell_data


def write_mesh_vtk(path, mesh: Mesh, cell_data: dict | None = None):
    data = dict(cell_data or {})
    data.setdefault("region", np.zeros(mesh.n_tets, dtype=np.int64))
    write_vtk(path, mesh.nodes, mesh.tets, cell_data=data,
              title="swirlfem mesh")


def write_snapshot_vtk(path, mesh: Mesh, state):
    write_vtk(path, mesh.nodes, mesh.tets,
              point_data={"velocity": state.velocity,
                          "pressure": state.pressure},
              title=f"swirlfem snapshot step={state.step_index} "
                    f"t={_F % state.time}")


# ---------------------------------------------------------------------------
# checkpoints (exact precision, versioned)


def write_checkpoint(path, state, record_rows, config_text: str):
    """Binary checkpoint: state arrays, the diagnostics rows accumulated so
    far (so a resumed run rebuilds the identical CSV) and the serialized
    config the run was started with."""
    tmp = str(path) + ".tmp"
    payload = {
        "format": np.int64(CHECKPOINT_FORMAT),
        "step_index": np.int64(state.step_index),
        "time": np.float64(state.time),
        "velocity": state.velocity,
        "pressure": state.pressure,
        "record_rows": np.asarray(record_rows, dtype=float),
        "config": np.str_(config_text),
    }
    with open(tmp, "wb") as fh:
        np.savez(fh, **payload)
    os.replace(tmp, path)


def read_checkpoint(path, n_nodes: int, config_text: str | None = None):
    """(state, diagnostics rows) of a checkpoint; with config_text, refuse
    one written under another config."""
    from .solver import FieldState

    with np.load(path) as data:
        version = int(data["format"])
        if version != CHECKPOINT_FORMAT:
            raise ValueError(
                f"{path}: checkpoint format {version} not supported "
                f"(expected {CHECKPOINT_FORMAT})"
            )
        if config_text is not None and str(data["config"]) != config_text:
            raise ValueError(
                f"{path}: checkpoint was written under another config; "
                f"resume with the config it was started with, or use a "
                f"fresh output directory"
            )
        velocity = data["velocity"]
        if velocity.shape[0] != n_nodes:
            raise ValueError(
                f"{path}: checkpoint has {velocity.shape[0]} nodes, "
                f"mesh has {n_nodes}"
            )
        state = FieldState(
            step_index=int(data["step_index"]),
            time=float(data["time"]),
            velocity=velocity,
            pressure=data["pressure"],
        )
        rows = data["record_rows"]
    return state, rows


# ---------------------------------------------------------------------------
# diagnostics CSV


def csv_columns(q_thresholds) -> list:
    cols = ["t", "v_max", "d_v_max",
            "E_total", "E_inner", "E_middle", "E_outer", "E_none",
            "L_x", "L_y", "L_z", "L_mag",
            "L_inner", "L_middle", "L_outer", "L_none",
            "delta_E", "delta_L"]
    for axis in "xyz":
        cols.extend(f"c_{axis}{j}" for j in range(4))
    cols += ["curve_J", "planes_skipped"]
    cols += [f"structures_q{thr:g}" for thr in q_thresholds]
    return cols


def record_to_row(rec: DiagnosticsRecord, q_thresholds,
                  prev_row=None) -> list:
    """One CSV row (see csv_columns).  delta_E and delta_L are the changes
    of E_total and of the vector L from prev_row, the row before this one;
    both are 0 on the first row."""
    changes = [0.0, 0.0]
    if prev_row is not None:
        l_prev = np.array(prev_row[8:11])
        changes = [abs(rec.e_total - prev_row[3]),
                   float(np.linalg.norm(rec.l_total - l_prev))]
    row = [rec.t, rec.v_max, rec.d_v_max,
           rec.e_total] + [rec.e_regions[n] for n in REGION_NAMES]
    row += [rec.l_total[0], rec.l_total[1], rec.l_total[2],
            float(np.linalg.norm(rec.l_total))]
    row += [float(np.linalg.norm(rec.l_regions[n])) for n in REGION_NAMES]
    row += changes
    row += list(rec.curve.coeffs.ravel())
    row += [rec.curve.residual, float(rec.planes_skipped)]
    row += [float(rec.structure_counts[float(q)]) for q in q_thresholds]
    return row


def format_csv_rows(rows, q_thresholds) -> str:
    """The diagnostics CSV text: header plus one line per row of floats,
    each written with repr so that it reads back exactly."""
    lines = [",".join(csv_columns(q_thresholds))]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def write_csv_rows(path, rows, q_thresholds):
    _atomic_write(path, format_csv_rows(rows, q_thresholds))


def read_csv(path):
    """Diagnostics CSV -> dict of column name -> float array."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.split(",") for line in fh if line.strip()]
    data = np.array([[float(v) for v in row] for row in rows])
    if data.size == 0:
        data = data.reshape(0, len(header))
    return {name: data[:, j] for j, name in enumerate(header)}

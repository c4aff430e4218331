"""File formats: legacy ASCII VTK, binary checkpoints, diagnostics CSV.

VTK files are written with %.17g floats so every value round-trips exactly
through the bundled reader; checkpoints use a versioned npz container so
resume is bit-exact.  All writes go through a temp file + rename so partial
files never end up under the final name; a file the readers cannot read
raises ValueError naming it.
"""

import os
import re
import zipfile

import numpy as np

from .diagnostics import REGION_NAMES, DiagnosticsRecord
from .geometry import Mesh
from .solver import FieldState

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

    Returns (nodes, tets, point_data, cell_data, title).  Exactly the layout
    the writer emits is read; a short, garbled or unknown section raises
    ValueError naming the file.
    """
    try:
        with open(path) as fh:
            lines = fh.read().split("\n")
        return _parse_vtk(lines)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _parse_vtk(lines):
    end = len(lines) - 1  # the writer ends the last line with a newline too
    if lines[end]:
        raise ValueError(f"file ends inside line {end + 1} (truncated?)")

    def header(i, pattern):
        """The groups of pattern, which line i must match in full."""
        m = re.fullmatch(pattern, lines[i]) if i < end else None
        if m is None:
            found = repr(lines[i]) if i < end else "the end of the file"
            raise ValueError(f"line {i + 1}: expected {pattern!r}, "
                             f"found {found}")
        return m.groups()

    def block(i, count, dtype, width):
        """The count lines from line i as a (count, width) array."""
        if not 0 < count <= end - i:
            raise ValueError(f"line {i + 1}: {count} data lines announced, "
                             f"{max(end - i, 0)} left in the file")
        try:
            arr = np.loadtxt(lines[i:i + count], dtype=dtype, comments=None,
                             ndmin=2)
        except ValueError as exc:
            raise ValueError(f"data from line {i + 1}: {exc}") from None
        if arr.shape != (count, width):
            raise ValueError(f"data from line {i + 1}: expected {count} "
                             f"rows of {width}, read {arr.shape}")
        return arr

    header(0, r"# vtk DataFile Version \d\.\d")
    title = lines[1]
    header(2, "ASCII")
    header(3, "DATASET UNSTRUCTURED_GRID")
    n_pts = int(header(4, r"POINTS (\d+) double")[0])
    nodes = block(5, n_pts, float, 3)
    i = 5 + n_pts
    n_cells, size = map(int, header(i, r"CELLS (\d+) (\d+)"))
    cells = block(i + 1, n_cells, np.int64, 5)
    if size != 5 * n_cells or (cells[:, 0] != 4).any():
        raise ValueError(f"line {i + 1}: cells are not all tetrahedra")
    i += 1 + n_cells
    header(i, f"CELL_TYPES {n_cells}")
    if lines[i + 1:i + 1 + n_cells] != ["10"] * n_cells:
        raise ValueError(f"line {i + 2}: expected {n_cells} cell types 10")
    i += 1 + n_cells

    point_data: dict = {}
    cell_data: dict = {}
    sections = {"POINT_DATA": (point_data, n_pts),
                "CELL_DATA": (cell_data, n_cells)}
    target, count = None, 0
    while i < end:
        kind = lines[i].split(" ", 1)[0]
        if kind in sections:
            target, count = sections[kind]
            header(i, f"{kind} {count}")
            i += 1
        elif kind == "VECTORS" and target is not None:
            name, = header(i, r"VECTORS (\S+) double")
            target[name] = block(i + 1, count, float, 3)
            i += 1 + count
        elif kind == "SCALARS" and target is not None:
            name, dtype = header(i, r"SCALARS (\S+) (int|double) 1")
            header(i + 1, "LOOKUP_TABLE default")
            dtype = np.int64 if dtype == "int" else float
            target[name] = block(i + 2, count, dtype, 1)[:, 0]
            i += 2 + count
        else:
            raise ValueError(f"line {i + 1}: unsupported section "
                             f"{lines[i]!r}")
    return nodes, cells[:, 1:], point_data, cell_data, title


def write_mesh_vtk(path, mesh: Mesh):
    write_vtk(path, mesh.nodes, mesh.tets,
              cell_data={"region": np.zeros(mesh.n_tets, dtype=np.int64)},
              title="swirlfem mesh")


def write_snapshot_vtk(path, mesh: Mesh, state):
    write_vtk(path, mesh.nodes, mesh.tets,
              point_data={"velocity": state.velocity,
                          "pressure": state.pressure},
              title=f"swirlfem snapshot step={state.step_index} "
                    f"t={_F % state.time}")


_SNAP_TITLE_RE = re.compile(
    r"swirlfem snapshot step=(\d+) t=(\d+(?:\.\d+)?(?:e[-+]\d+)?)")


def read_snapshot(path, mesh: Mesh) -> FieldState:
    """Load a snapshot VTK back into a FieldState (exact values); its nodes
    and tets must equal the mesh's, which %.17g round-trips exactly."""
    nodes, tets, pdata, _, title = read_vtk(path)
    if not {"velocity", "pressure"} <= pdata.keys():
        raise ValueError(f"{path}: snapshot lacks velocity or pressure")
    if not (np.array_equal(nodes, mesh.nodes)
            and np.array_equal(tets, mesh.tets)):
        raise ValueError(
            f"{path}: snapshot mesh ({len(nodes)} nodes, {len(tets)} tets) "
            f"differs from the configured mesh ({mesh.n_nodes} nodes, "
            f"{mesh.n_tets} tets)"
        )
    m = _SNAP_TITLE_RE.fullmatch(title)
    if not m:
        raise ValueError(f"{path}: snapshot title lacks step/time metadata")
    return FieldState(step_index=int(m.group(1)), time=float(m.group(2)),
                      velocity=pdata["velocity"], pressure=pdata["pressure"])


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
    one written under another config.  A file np.load cannot open, or one
    that lacks an array, raises ValueError naming it like every refusal."""
    try:
        with np.load(path) as data:
            version = int(data["format"])
            if version != CHECKPOINT_FORMAT:
                raise ValueError(f"checkpoint format {version} not supported "
                                 f"(expected {CHECKPOINT_FORMAT})")
            if config_text is not None \
                    and str(data["config"]) != config_text:
                raise ValueError("checkpoint was written under another "
                                 "config; resume with the config it was "
                                 "started with, or use a fresh output "
                                 "directory")
            velocity = data["velocity"]
            if velocity.shape[0] != n_nodes:
                raise ValueError(f"checkpoint has {velocity.shape[0]} nodes, "
                                 f"mesh has {n_nodes}")
            state = FieldState(step_index=int(data["step_index"]),
                               time=float(data["time"]), velocity=velocity,
                               pressure=data["pressure"])
            rows = data["record_rows"]
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile,
            TypeError) as exc:  # TypeError: an .npy array is no npz archive
        raise ValueError(f"{path}: {exc}") from exc
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


def write_csv_rows(path, rows, q_thresholds):
    """The diagnostics CSV: header plus one line per row of floats, each
    written with repr so that it reads back exactly."""
    lines = [",".join(csv_columns(q_thresholds))]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def read_csv(path):
    """Diagnostics CSV -> dict of column name -> float array."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.split(",") for line in fh if line.strip()]
    data = np.array([[float(v) for v in row] for row in rows])
    if data.size == 0:
        data = data.reshape(0, len(header))
    return {name: data[:, j] for j, name in enumerate(header)}

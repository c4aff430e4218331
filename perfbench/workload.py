"""One benchmark repetition: a single swirlfem CLI command in this process.

    python3 workload.py RESULT.json [--trace] [--direct-threshold N] -- ARGV...

ARGV is handed to ``swirlfem.cli.main`` unchanged.  The process writes
RESULT.json once the command has returned: exit code, phase marks, peak
resident memory and, with --trace, every recorded span.

Untraced, only three names are wrapped, each called a handful of times per
command, to mark where set-up ends: ``pipeline.build_mesh``, the first
``pipeline.compute_record`` and ``scipy.sparse.linalg.splu``.  With
--trace, the public functions of every layer are wrapped where their
caller looks them up (see ``install_trace``); spans stay in memory and are
written out at the end.  Nothing inside ``src/`` is changed.

--direct-threshold lowers ``SolverConfig.direct_threshold`` so that the
smoke test reaches the GMRES path on a tiny mesh; measured runs never set it.
"""

import dataclasses
import functools
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import scipy.sparse.linalg as spla  # noqa: E402

from swirlfem import (cli, diagnostics, fem, pipeline,  # noqa: E402
                      pointlocate, solver, vtkio)
from swirlfem.config import RunConfig  # noqa: E402

clock = time.perf_counter


class Tracer:
    """In-memory span recorder.

    A span is [name, layer, parent index, start, end, attrs]; the parent is
    the span that was open when this one started (-1 for the root).
    """

    def __init__(self):
        self.spans = []
        self._open = []

    def begin(self, name, layer):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, layer, parent, clock(), None, None])
        self._open.append(len(self.spans) - 1)
        return self.spans[-1]

    def end(self, span):
        span[4] = clock()
        self._open.pop()

    def wrap(self, owner, attr, layer, name=None, attrs=None):
        """Replace owner.attr by a spanned version.  attrs(args, kwargs,
        result) returns counts to store on the span; it runs after the span
        has closed, so its cost is tracing overhead, not layer time."""
        fn = getattr(owner, attr)
        name = name or attr
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        setattr(owner, attr, traced)


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _lu_fill(args, kwargs, lu):
    return {"nnz": int(lu.L.nnz + lu.U.nnz)}


def _clamped(args, kwargs, result):
    # clamp_inside returns untouched targets for feet inside the mesh
    targets = args[2]
    moved = (result[0] != targets).any(axis=1)
    return {"feet": int(len(targets)), "clamped": int(moved.sum())}


def _walk(args, kwargs, result):
    found = result[1]
    return {"points": int(len(found)), "found": int(found.sum())}


def install_trace(tr: Tracer):
    """Wrap each layer's public functions at the place its caller finds them."""
    g = "geometry"
    tr.wrap(pipeline, "build_straight_mesh", g)
    tr.wrap(pipeline, "map_to_torus", g)
    tr.wrap(pipeline, "cross_section_planes", g)
    tr.wrap(pipeline, "sample_initial_state", "initcond")

    for name in ("assemble_mass", "assemble_stiffness", "assemble_divergence",
                 "field_at_quadrature", "scatter_quadrature_load"):
        tr.wrap(fem, name, "fem")

    loc = pointlocate.TetLocator
    tr.wrap(loc, "__init__", "pointlocate", name="TetLocator")
    tr.wrap(loc, "clamp_inside", "pointlocate", attrs=_clamped)
    tr.wrap(loc, "locate_many", "pointlocate", attrs=_walk)
    tr.wrap(loc, "interpolate_at", "pointlocate")

    op = solver.StepOperator
    tr.wrap(op, "__init__", "solver", name="StepOperator")
    tr.wrap(op, "assemble_rhs", "solver")
    tr.wrap(op, "solve", "solver")
    tr.wrap(solver, "time_step", "solver")
    tr.wrap(spla, "splu", "solver", attrs=_lu_fill)
    _wrap_gmres(tr)

    tr.wrap(pipeline, "compute_record", "diagnostics")
    for name in ("fit_curve_from_state", "region_decomposition",
                 "kinetic_energy", "angular_momentum", "max_velocity",
                 "q_criterion", "connected_vortex_structures",
                 "nearest_points_on_curve"):
        tr.wrap(diagnostics, name, "diagnostics")

    tr.wrap(vtkio, "write_snapshot_vtk", "vtkio", attrs=_file_bytes)
    tr.wrap(vtkio, "write_checkpoint", "vtkio", attrs=_file_bytes)
    tr.wrap(pipeline, "read_snapshot", "vtkio")


def _wrap_gmres(tr: Tracer):
    """GMRES span carrying its inner-iteration count (solver passes no
    callback of its own, so counting through one changes nothing)."""
    gmres = spla.gmres

    @functools.wraps(gmres)
    def counted(*args, **kwargs):
        iters = 0

        def tick(_):
            nonlocal iters
            iters += 1

        span = tr.begin("gmres", "solver")
        try:
            result = gmres(*args, callback=tick, callback_type="pr_norm",
                           **kwargs)
        finally:
            tr.end(span)
        span[5] = {"iters": iters}
        return result

    spla.gmres = counted


def install_marks(marks: dict):
    """Untraced run: time mesh build and factorization, note the first
    diagnostics record."""

    def timed(owner, attr, key):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def inner(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                marks[key] = marks.get(key, 0.0) + clock() - t0

        setattr(owner, attr, inner)

    timed(pipeline, "build_mesh", "mesh_s")
    timed(spla, "splu", "factor_s")

    record = pipeline.compute_record

    @functools.wraps(record)
    def first_record(*args, **kwargs):
        marks.setdefault("first_record", clock())
        return record(*args, **kwargs)

    pipeline.compute_record = first_record


def force_direct_threshold(n: int):
    solver_config = RunConfig.solver_config

    @functools.wraps(solver_config)
    def lowered(self, *args, **kwargs):
        return dataclasses.replace(solver_config(self, *args, **kwargs),
                                   direct_threshold=n)

    RunConfig.solver_config = lowered


def main(argv):
    split = argv.index("--")
    opts, command = argv[:split], argv[split + 1:]
    out_path = opts[0]
    traced = "--trace" in opts
    if "--direct-threshold" in opts:
        force_direct_threshold(int(opts[opts.index("--direct-threshold") + 1]))

    marks, tracer = {}, None
    if traced:
        tracer = Tracer()
        install_trace(tracer)
    else:
        install_marks(marks)

    root = tracer.begin("main", "pipeline") if traced else None
    start = clock()
    code = cli.main(command)
    end = clock()
    if traced:
        tracer.end(root)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"code": code, "main_s": end - start, "peak_rss_mb": peak_kb / 1024.0}
    if "first_record" in marks:
        marks["first_record"] -= start
    result["marks"] = marks
    if traced:
        result["spans"] = [[n, layer, parent, t0 - start, t1 - start, attrs]
                           for n, layer, parent, t0, t1, attrs in tracer.spans]
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

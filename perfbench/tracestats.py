"""Per-layer metrics from the spans of one traced command.

A span is [name, layer, parent index, start, end, attrs] as workload.py
records it.  Named ``*_s`` metrics are the summed duration of the listed
spans, children included; ``solver.solve_s`` leaves out the one-time
factorization that the first solve triggers.  ``<layer>.self_s`` is the time
spans of that layer spend outside their child spans; code the trace does not
wrap counts to the layer that called it, and ``pipeline.self_s`` is command
time no other span covers.  Counts are per command, except the per-solve,
per-record and ratio metrics that say so.
"""

import math
import statistics
from collections import defaultdict

LAYERS = ("geometry", "initcond", "fem", "pointlocate", "solver",
          "diagnostics", "vtkio", "pipeline")

# metric -> span names whose durations it sums
DURATIONS = {
    "geometry.mesh_build_s": ("build_straight_mesh", "map_to_torus",
                              "cross_section_planes"),
    "initcond.sample_s": ("sample_initial_state",),
    "fem.assembly_s": ("assemble_mass", "assemble_stiffness",
                       "assemble_divergence"),
    "fem.quadrature_s": ("field_at_quadrature", "scatter_quadrature_load"),
    "pointlocate.locator_build_s": ("TetLocator",),
    "pointlocate.clamp_s": ("clamp_inside",),
    "solver.operator_build_s": ("StepOperator",),
    "solver.factor_s": ("splu",),
    "solver.rhs_s": ("assemble_rhs",),
    "diagnostics.record_s": ("compute_record",),
    "diagnostics.curve_fit_s": ("fit_curve_from_state",),
    "diagnostics.projection_s": ("nearest_points_on_curve",),
    "diagnostics.energy_momentum_s": ("region_decomposition", "kinetic_energy",
                                      "angular_momentum"),
    "diagnostics.q_structures_s": ("q_criterion",
                                   "connected_vortex_structures"),
    "vtkio.snapshot_write_s": ("write_snapshot_vtk",),
    "vtkio.checkpoint_write_s": ("write_checkpoint",),
    "vtkio.snapshot_read_s": ("read_snapshot",),
}

# metric -> (span name, attribute) summed over the command
COUNTS = {
    "solver.lu_fill_nnz": ("splu", "nnz"),
    "pointlocate.feet": ("clamp_inside", "feet"),
    "pointlocate.clamped_feet": ("clamp_inside", "clamped"),
    "pointlocate.walk_points": ("locate_many", "points"),
    "vtkio.snapshot_bytes": ("write_snapshot_vtk", "bytes"),
    "vtkio.checkpoint_bytes": ("write_checkpoint", "bytes"),
}

# distributions: prefix -> span name whose durations are the samples
SAMPLES = {"solver.step": "time_step", "diagnostics.record": "compute_record"}

TAIL_PERCENTILES = (99, 95, 90, 75)

UNITS = {name: "s" for name in DURATIONS}
UNITS.update({name: "count" for name in COUNTS})
UNITS.update({f"{layer}.self_s": "s" for layer in LAYERS})
UNITS.update({
    "solver.solve_s": "s",
    "solver.gmres_iters": "count",
    "pointlocate.walk_found_ratio": "ratio",
    "diagnostics.projection_calls": "1/record",
    "trace.spans": "count",
})
for _prefix in SAMPLES:
    UNITS.update({f"{_prefix}_p50_s": "s", f"{_prefix}_tail_s": "s",
                  f"{_prefix}_tail_pct": "%", f"{_prefix}_samples": "count"})


def tail(samples):
    """Median and the highest of TAIL_PERCENTILES with at least ten samples
    beyond it (nearest rank); the median stands in when none has."""
    if not samples:
        return 0.0, 0.0, 0
    s = sorted(samples)
    n = len(s)
    p50 = statistics.median(s)
    for q in TAIL_PERCENTILES:
        if n * (100 - q) / 100 >= 10:
            return p50, s[math.ceil(q / 100 * n) - 1], q
    return p50, p50, 50


def _ancestor(spans, i, name):
    i = spans[i][2]
    while i >= 0 and spans[i][0] != name:
        i = spans[i][2]
    return i


def layer_metrics(spans) -> dict:
    """Every per-layer metric of one command, as plain numbers."""
    dur = [s[4] - s[3] for s in spans]
    by_name = defaultdict(list)
    covered = [0.0] * len(spans)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)
        if s[2] >= 0:
            covered[s[2]] += dur[i]

    def total(*names):
        return sum(dur[i] for n in names for i in by_name[n])

    def count(name, key):
        return sum(spans[i][5][key] for i in by_name[name])

    m = {metric: total(*names) for metric, names in DURATIONS.items()}
    m.update({metric: count(*src) for metric, src in COUNTS.items()})

    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        self_s[s[1]] += dur[i] - covered[i]
    m.update({f"{layer}.self_s": v for layer, v in self_s.items()})

    # the first solve, and so the first step, carries the factorization
    m["solver.solve_s"] = total("solve") - m["solver.factor_s"]
    factor_in = defaultdict(float)
    for i in by_name["splu"]:
        factor_in[_ancestor(spans, i, "time_step")] += dur[i]

    iters = defaultdict(int)
    for i in by_name["gmres"]:
        iters[_ancestor(spans, i, "solve")] += spans[i][5]["iters"]
    m["solver.gmres_iters"] = statistics.median(iters.values()) if iters else 0

    walked = m["pointlocate.walk_points"]
    found = count("locate_many", "found")
    m["pointlocate.walk_found_ratio"] = found / walked if walked else 0.0
    records = len(by_name["compute_record"])
    m["diagnostics.projection_calls"] = \
        len(by_name["nearest_points_on_curve"]) / records if records else 0.0
    m["trace.spans"] = len(spans)  # tracing overhead grows with this

    m["_samples"] = {prefix: [dur[i] - factor_in[i] for i in by_name[name]]
                     for prefix, name in SAMPLES.items()}
    return m


def combine(per_command) -> dict:
    """Median of each metric over the traced commands of a run; the step and
    record distributions pool their samples across commands."""
    out = {}
    for name in UNITS:
        if name in per_command[0]:
            out[name] = statistics.median(m[name] for m in per_command)
    for prefix in SAMPLES:
        pooled = [x for m in per_command for x in m["_samples"][prefix]]
        p50, tail_v, q = tail(pooled)
        out.update({f"{prefix}_p50_s": p50, f"{prefix}_tail_s": tail_v,
                    f"{prefix}_tail_pct": q,
                    f"{prefix}_samples": len(pooled)})
    return {name: {"value": out[name], "unit": UNITS[name]}
            for name in sorted(out)}

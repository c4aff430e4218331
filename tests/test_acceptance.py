"""Acceptance criteria, one test per criterion.

Each test prints `ACCEPTANCE <n> (<name>): PASS` on success (visible with
pytest -s/-rA).  Criteria 5-7 share four desk-scale simulations produced once
per session: straight plus three curved domains at n_r = n_z = 12,
tau = 1.25e-2, T = 3, Re = 1e3 (1e4 is unstable at this resolution: the
velocity maximum grows spuriously and the structure census is noise), plus a
fifth cross-pairing run for the profile-influence observation.
"""

import time
from dataclasses import dataclass, field

import numpy as np
import pytest

import swirlfem as sf
from swirlfem import diagnostics as dg
from swirlfem import fem, pipeline
from swirlfem.config import parse_config
from swirlfem.solver import StepOperator
from swirlfem.verify import convergence_study

DESK_N = 12
DESK_RE = 1000.0
DESK_TAU = 1.25e-2
DESK_T = 3.0
SAMPLE_EVERY = 4          # diagnostics every 0.05 time units


def announce(num, name, ok=True):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")


# ---------------------------------------------------------------------------
# shared desk-scale runs


@dataclass
class RunData:
    name: str
    spec: object
    records: list = field(default_factory=list)
    split_times: list = field(default_factory=list)   # primary-structure splits

    def series(self, getter):
        return np.array([getter(r) for r in self.records])

    @property
    def times(self):
        return self.series(lambda r: r.t)

    def curve_series(self):
        return [(r.t, r.curve) for r in self.records]


def _run_desk(name, domain_extra, track_primary=False):
    cfg = parse_config(
        f"mesh: {{n_r: {DESK_N}, n_z: {DESK_N}}}\n"
        f"solver: {{reynolds: {DESK_RE}, tau: {DESK_TAU}, t_end: {DESK_T}}}\n"
        + domain_extra)
    spec, mesh = pipeline.build_mesh(cfg)
    state = pipeline.initial_state(cfg, mesh, spec)
    solver_cfg = cfg.solver_config()
    op = StepOperator(mesh, solver_cfg)
    data = RunData(name=name, spec=spec)

    # primary-structure lineage: start from the component containing the
    # element closest to the mid-height axis point; a split counts only when
    # at least two offspring carry a non-trivial share of the volume, so a
    # single element flickering across the threshold is not a split
    mid = sf.geometric_axis_point(spec, 1.5 * cfg.a)
    e0 = int(np.argmin(((mesh.tet_centroids() - mid) ** 2).sum(axis=1)))
    vol = mesh.tet_volumes()
    tracked = {"elems": None}
    SPLIT_FRACTION = 0.05

    def sink(st):
        if st.step_index % SAMPLE_EVERY:
            return
        rec = dg.compute_record(st, mesh, spec,
                                q_thresholds=cfg.q_thresholds,
                                region_thresholds=cfg.region_thresholds)
        data.records.append(rec)
        if track_primary:
            q_elem = dg.q_criterion(st, mesh)
            comps = dg.connected_vortex_structures(mesh, q_elem, 50.0)
            members = [set(int(e) for e in c.elements)
                       for c in comps.components]
            if tracked["elems"] is None:
                for m in members:
                    if e0 in m:
                        tracked["elems"] = m
                        break
                return
            hits = [m for m in members if m & tracked["elems"]]
            if hits:
                vols = sorted((sum(vol[e] for e in m) for m in hits),
                              reverse=True)
                if len(hits) >= 2 and vols[1] >= SPLIT_FRACTION * sum(vols):
                    data.split_times.append(st.time)
                tracked["elems"] = max(
                    hits, key=lambda m: len(m & tracked["elems"]))

    sf.run_simulation(op, state, sink=sink)
    return data


@pytest.fixture(scope="session")
def desk_runs():
    t0 = time.time()
    runs = {
        "straight": _run_desk("straight", ""),
        "R2.0": _run_desk(
            "R2.0", "domain: {kind: curved, R: 2.0}\n"
                    "profile: {kind: curved_frame}\n"),
        "R1.5": _run_desk(
            "R1.5", "domain: {kind: curved, R: 1.5}\n"
                    "profile: {kind: curved_frame}\n",
            track_primary=True),
        "R1.1": _run_desk(
            "R1.1", "domain: {kind: curved, R: 1.1}\n"
                    "profile: {kind: curved_frame}\n"),
        "pairing": _run_desk(
            "pairing", "domain: {kind: curved, R: 1.5}\n"
                       "profile: {kind: straight_frame}\n"),
    }
    runs["_elapsed"] = time.time() - t0
    return runs


def smoothed_rate(t, series, width=0.25):
    """Centered moving-average smoothing followed by a central difference."""
    dt = t[1] - t[0]
    k = max(1, int(round(width / dt)))
    kernel = np.ones(2 * k + 1) / (2 * k + 1)
    pad = np.r_[np.repeat(series[0], k), series, np.repeat(series[-1], k)]
    smooth = np.convolve(pad, kernel, mode="valid")
    return np.gradient(smooth, t)


def transfer_event(run, src, dst, window=(0.2, 2.9)):
    """Time where the source-region |L| falls and the destination rises most
    strongly (peak of the smoothed rate difference)."""
    t = run.times
    a = smoothed_rate(t, run.series(lambda r: np.linalg.norm(r.l_regions[src])))
    b = smoothed_rate(t, run.series(lambda r: np.linalg.norm(r.l_regions[dst])))
    mask = (t >= window[0]) & (t <= window[1])
    score = b - a
    return float(t[mask][np.argmax(score[mask])])


# ---------------------------------------------------------------------------
# criterion 1: scheme verification


def test_acceptance_1_scheme_verification():
    t0 = time.time()
    report = convergence_study()
    elapsed = time.time() - t0
    print(report.format())
    # The step is the first-order Lagrange-Galerkin scheme, whose L2 error is
    # O(tau + h^2) (Notsu & Tabata, ESAIM: M2AN 50 (2016) 361-380).  With
    # e = A tau + B h^2 (A, B >= 0), tau halved exactly and h shrinking by
    # ~1.96-1.98 per level, each pairwise order log2(e_i / e_{i+1}) lies in
    # [1, 2 log2(h_i / h_{i+1})] ~ [1, 1.96] and tends to 1 under refinement.
    assert all(o >= 1.0 for o in report.orders_l2), report.orders_l2
    assert all(o >= 0.8 for o in report.orders_h1), report.orders_h1
    assert elapsed < 600.0, f"verification took {elapsed:.0f}s (budget 600s)"
    announce(1, "scheme verification: manufactured-solution orders")


# ---------------------------------------------------------------------------
# criterion 2: analytic diagnostics


def test_acceptance_2_analytic_diagnostics(straight_spec):
    mesh32 = sf.build_straight_mesh(straight_spec, n_r=32, n_z=8)
    state = sf.FieldState(0, 0.0, np.zeros((mesh32.n_nodes, 3)),
                          np.zeros(mesh32.n_nodes))
    x, y = mesh32.nodes[:, 0], mesh32.nodes[:, 1]
    state.velocity[:, 0] = -y
    state.velocity[:, 1] = x

    q_elem = dg.q_criterion(state, mesh32)
    assert np.abs(q_elem - 1.0).max() < 1e-10

    shear = sf.FieldState(0, 0.0, np.zeros((mesh32.n_nodes, 3)),
                          np.zeros(mesh32.n_nodes))
    shear.velocity[:, 0] = y
    q_shear = dg.q_criterion(shear, mesh32)
    assert np.abs(q_shear).max() < 1e-10

    H = 0.625
    e_exact = 0.25 * np.pi * H
    l_exact = 0.5 * np.pi * H
    curve = dg.CentralCurve.straight_axis((-0.125, 0.5))
    errs = []
    for n_r, mesh in ((16, sf.build_straight_mesh(straight_spec, 16, 8)),
                      (32, mesh32)):
        st = sf.FieldState(0, 0.0, np.zeros((mesh.n_nodes, 3)),
                           np.zeros(mesh.n_nodes))
        st.velocity[:, 0] = -mesh.nodes[:, 1]
        st.velocity[:, 1] = mesh.nodes[:, 0]
        e = dg.kinetic_energy(st, mesh)
        l = dg.angular_momentum(st, mesh, curve)
        errs.append((abs(e - e_exact) / e_exact,
                     abs(l[2] - l_exact) / l_exact))
    assert errs[1][0] < 0.02 and errs[1][1] < 0.02, errs
    assert errs[1][0] < errs[0][0] and errs[1][1] < errs[0][1]
    announce(2, "analytic diagnostics: Q, energy, angular momentum")


# ---------------------------------------------------------------------------
# criterion 3: curve fitting


def test_acceptance_3_curve_fitting():
    coeffs = np.array([[0.02, -0.4, 1.1, 0.9],
                       [-0.15, 0.75, -0.3, 0.2],
                       [0.01, 1.0, 0.0, -1.4]])
    xi = np.linspace(-0.125, 0.5, 30)
    exact = dg.CentralCurve(coeffs=coeffs, xi_range=(-0.125, 0.5))
    fitted = dg.fit_central_curve(xi, exact.evaluate(xi))
    assert fitted.residual <= 1e-18

    import mpmath as mp
    mp.mp.dps = 50
    rng = np.random.default_rng(2024)
    pts = exact.evaluate(xi) + 0.02 * rng.standard_normal((30, 3))
    noisy = dg.fit_central_curve(xi, pts)
    j_oracle = mp.mpf(0)
    for d in range(3):
        A = mp.matrix([[mp.mpf(v) ** k for k in range(4)] for v in xi])
        b = mp.matrix([mp.mpf(v) for v in pts[:, d]])
        c = mp.lu_solve(A.T * A, A.T * b)
        r = A * c - b
        j_oracle += sum(r[i] ** 2 for i in range(len(xi))) / 2
    assert abs(noisy.residual - float(j_oracle)) <= 1e-10
    announce(3, "curve fitting: exact recovery and extended-precision oracle")


# ---------------------------------------------------------------------------
# criterion 4: conservation / partition / gauge


def test_acceptance_4_conservation_partition(straight_spec):
    mesh = sf.build_straight_mesh(straight_spec, n_r=6, n_z=5)
    mesh = sf.cross_section_planes(straight_spec, 20, mesh)
    cfg = sf.SolverConfig(nu=1e-3, tau=1.25e-2, t_end=3.0)
    op = StepOperator(mesh, cfg)

    zero = sf.FieldState(0, 0.0, np.zeros((mesh.n_nodes, 3)),
                         np.zeros(mesh.n_nodes))
    z1 = sf.time_step(op, zero)
    assert np.abs(z1.velocity).max() == 0.0
    assert np.abs(z1.pressure).max() == 0.0

    state = sf.sample_initial_state(mesh, sf.ProfileKind.STRAIGHT_FRAME,
                                    straight_spec)
    for _ in range(5):
        state = sf.time_step(op, state)
        assert np.abs(state.velocity[mesh.boundary_nodes]).max() == 0.0
        assert abs(state.pressure.mean()) <= 1e-10

    rec = dg.compute_record(state, mesh, straight_spec)
    assert abs(sum(rec.e_regions.values()) - rec.e_total) \
        <= 1e-12 * max(rec.e_total, 1.0)
    announce(4, "conservation: partition, Dirichlet, gauge, zero fixed point")


# ---------------------------------------------------------------------------
# criteria 5-7: desk-scale trend reproduction


def test_acceptance_5_qualitative_trends(desk_runs):
    assert desk_runs["_elapsed"] < 7200.0

    d_of = {k: r.series(lambda rec: rec.d_v_max)
            for k, r in desk_runs.items() if k != "_elapsed"}

    # (a) straight stays near the axis; every curved run leaves
    assert d_of["straight"].max() < 0.2, d_of["straight"].max()
    for key in ("R2.0", "R1.5", "R1.1"):
        assert d_of[key].max() > 0.2, (key, d_of[key].max())
    # the cross-pairing run behaves like its domain shape, not its profile
    assert d_of["pairing"].max() > 0.2

    # (b) final distance ordered by curvature
    final = {k: d_of[k][-1] for k in ("R2.0", "R1.5", "R1.1")}
    assert final["R1.1"] > final["R1.5"] > final["R2.0"], final

    # (c) angular-momentum hand-off between regions
    for key in ("R2.0", "R1.5", "R1.1"):
        t1 = transfer_event(desk_runs[key], "inner", "middle")
        assert abs(t1 - 0.8) <= 0.4, (key, t1)
    t2 = {k: transfer_event(desk_runs[k], "middle", "outer")
          for k in ("R2.0", "R1.5", "R1.1")}
    assert abs(t2["R1.5"] - 1.9) <= 0.4, t2
    assert t2["R1.1"] <= t2["R1.5"] + 0.05, t2
    assert t2["R2.0"] >= t2["R1.5"] - 0.05, t2

    # (d) energy decay within the per-step interpolation tolerance
    for key, run in desk_runs.items():
        if key == "_elapsed":
            continue
        e = run.series(lambda rec: rec.e_total)
        tol = 0.01 * e[0] * SAMPLE_EVERY
        assert np.diff(e).max(initial=-np.inf) <= tol, key
    announce(5, "qualitative trends: drift, ordering, transfer, decay")


def test_acceptance_6_central_curve_drift(desk_runs):
    targets = {"R2.0": 0.366, "R1.5": 0.418, "R1.1": 0.49}
    speeds = {}
    for key in targets:
        speeds[key] = dg.central_curve_speed(
            desk_runs[key].curve_series(), (0.0, DESK_T))
        assert speeds[key] > 0.0
    assert speeds["R1.1"] > speeds["R1.5"] > speeds["R2.0"], speeds
    for key, ref in targets.items():
        assert abs(speeds[key] - ref) <= 0.3 * ref, (key, speeds[key], ref)
    print(f"  curve speeds: {speeds}")
    announce(6, "central-curve drift: positive, ordered, near reference")


def test_acceptance_7_structure_extraction(medium_mesh, desk_runs):
    # synthetic two-blob check against a hand-rolled flood fill
    from test_diagnostics import TestStructures

    cen = medium_mesh.tet_centroids()
    q = 300.0 * np.exp(-((cen - [0.5, 0, 0.1]) ** 2).sum(axis=1) / 0.15 ** 2) \
        + 300.0 * np.exp(-((cen - [-0.5, 0, 0.25]) ** 2).sum(axis=1) / 0.15 ** 2)
    out = dg.connected_vortex_structures(medium_mesh, q, 50.0)
    assert out.count == 2
    oracle = TestStructures.flood_fill_oracle(medium_mesh,
                                              np.nonzero(q >= 50.0)[0])
    assert {frozenset(int(e) for e in c.elements)
            for c in out.components} == oracle

    rng = np.random.default_rng(5)
    perm = rng.permutation(medium_mesh.n_tets)
    import swirlfem.geometry as geo
    permuted = geo.Mesh(nodes=medium_mesh.nodes, tets=medium_mesh.tets[perm],
                        boundary_faces=medium_mesh.boundary_faces,
                        boundary_nodes=medium_mesh.boundary_nodes,
                        h=medium_mesh.h)
    out_p = dg.connected_vortex_structures(permuted, q[perm], 50.0)
    assert out_p.count == out.count
    assert {frozenset(int(perm[e]) for e in c.elements)
            for c in out_p.components} \
        == {frozenset(int(e) for e in c.elements) for c in out.components}

    # primary vortex of the R=1.5 desk run stays single early, then splits
    splits = desk_runs["R1.5"].split_times
    assert splits, "primary structure never split"
    first = min(splits)
    assert 0.6 <= first <= 1.3, splits
    announce(7, "structure extraction: oracle match and primary split timing")


# ---------------------------------------------------------------------------
# criterion 8: determinism


def test_acceptance_8_determinism(tmp_path):
    cfg_text = (
        "mesh: {n_r: 4, n_z: 5}\n"
        "solver: {tau: 0.025, t_end: 0.3, reynolds: 1000.0}\n"
        "planes: {count: 20}\n"
        "output: {snapshot_interval: 0.1, diagnostics_interval: 0.05,\n"
        "         checkpoint_interval: 0.1}\n")
    cfg = parse_config(cfg_text)

    d1, d2, d3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    pipeline.cmd_run(cfg, d1)
    pipeline.cmd_run(cfg, d2)
    assert (d1 / "diagnostics.csv").read_bytes() \
        == (d2 / "diagnostics.csv").read_bytes()
    for snap in sorted(d1.glob("snapshot_*.vtk")):
        assert snap.read_bytes() == (d2 / snap.name).read_bytes()

    # interrupt between checkpoints, resume, compare everything
    pipeline.cmd_run(cfg, d3, max_steps=7)
    pipeline.cmd_run(cfg, d3)
    assert (d1 / "diagnostics.csv").read_bytes() \
        == (d3 / "diagnostics.csv").read_bytes()
    for snap in sorted(d1.glob("snapshot_*.vtk")):
        assert snap.read_bytes() == (d3 / snap.name).read_bytes()
    announce(8, "determinism: identical reruns and checkpoint resume")

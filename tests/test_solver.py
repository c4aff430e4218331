import time

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import swirlfem as sf
from swirlfem import fem
from swirlfem.pointlocate import TetLocator
from swirlfem.solver import ConvergenceError, StepOperator
from swirlfem.verify import manufactured_solution

from conftest import nearest_centroid_seeds, zero_state


@pytest.fixture(scope="module")
def cfg():
    return sf.SolverConfig(nu=1e-3, tau=0.0125, t_end=3.0)


@pytest.fixture(scope="module")
def operator(small_mesh, cfg):
    return StepOperator(small_mesh, cfg)


class TestConfig:
    def test_step_count_for_reference_parameters(self):
        cfg = sf.SolverConfig(nu=1e-4, tau=1.25e-2, t_end=3.0)
        assert cfg.n_steps == 240

    def test_step_count_truncates(self):
        assert sf.SolverConfig(nu=1.0, tau=0.3, t_end=1.0).n_steps == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            sf.SolverConfig(nu=0.0, tau=0.1, t_end=1.0)
        with pytest.raises(ValueError):
            sf.SolverConfig(nu=1.0, tau=-0.1, t_end=1.0)
        with pytest.raises(ValueError):
            sf.SolverConfig(nu=1.0, tau=0.1, t_end=1.0, delta_s0=0.0)


def upstream_points(mesh, state, points, tau):
    """Feet x - v(x) tau of the characteristics through points, clamped
    inside the mesh by the batched calls StepOperator.composed_velocity
    makes; returns (feet, their tets, the locator)."""
    loc = TetLocator(mesh)
    tets, ok = loc.locate_many(points, nearest_centroid_seeds(mesh, points))
    assert ok.all()
    v = loc.interpolate_at(tets, points, state.velocity)
    feet, foot_tets = loc.clamp_inside(points, points - tau * v, tets)
    return feet, foot_tets, loc


class TestUpstreamPoint:
    def test_zero_velocity_fixed_point(self, small_mesh, cfg):
        state = zero_state(small_mesh)
        x = small_mesh.nodes[[small_mesh.n_nodes // 2]]
        feet, _, _ = upstream_points(small_mesh, state, x, cfg.tau)
        assert np.allclose(feet, x)

    def test_boundary_node_stays(self, small_mesh, cfg):
        state = zero_state(small_mesh, step_index=1)
        x = small_mesh.nodes[[small_mesh.boundary_nodes[0]]]
        feet, _, _ = upstream_points(small_mesh, state, x, cfg.tau)
        assert np.allclose(feet, x)

    def test_large_displacement_stays_inside(self, small_mesh, cfg):
        state = zero_state(small_mesh)
        state.velocity[:] = [80.0, 0.0, 0.0]  # tau * v far beyond the wall
        x = small_mesh.nodes[[0, 7, 23]]
        feet, tets, loc = upstream_points(small_mesh, state, x, cfg.tau)
        assert (tets >= 0).all()
        _, ok = loc.locate_many(feet, tets)
        assert ok.all()


class TestStepSystem:
    def test_zero_state_is_fixed_point(self, small_mesh, cfg, operator):
        s1 = sf.time_step(operator, zero_state(small_mesh))
        assert np.abs(s1.velocity).max() == 0.0
        assert np.abs(s1.pressure).max() == 0.0

    def test_system_size(self, small_mesh, cfg, operator):
        n_interior = small_mesh.n_nodes - len(small_mesh.boundary_nodes)
        assert operator.n_unknowns == 3 * n_interior + small_mesh.n_nodes

    def test_assemble_and_solve_api(self, small_mesh, cfg, operator):
        state = sf.sample_initial_state(
            small_mesh, sf.ProfileKind.STRAIGHT_FRAME, sf.straight_domain())
        rhs = operator.assemble_rhs(state)
        assert operator.matrix.shape == (operator.n_unknowns,
                                         operator.n_unknowns)
        vel, pres = operator.solve(rhs)
        assert np.abs(vel[small_mesh.boundary_nodes]).max() == 0.0
        assert abs(pres.mean()) <= 1e-10
        assert np.isfinite(vel).all() and np.isfinite(pres).all()

    def test_mass_projection_of_constant_field(self, small_mesh):
        # with viscous and pressure contributions absent, one step reduces to
        # the L2 projection of the composed field; a constant field composes
        # to itself, so the projection returns it exactly
        c = np.array([0.2, -0.1, 0.05])
        cfg = sf.SolverConfig(nu=1e-3, tau=0.0125, t_end=1.0)
        op = StepOperator(small_mesh, cfg)
        state = zero_state(small_mesh)
        state.velocity[:] = c
        composed = op.composed_velocity(state)
        assert np.abs(composed - c).max() < 1e-12
        load = fem.scatter_quadrature_load(small_mesh, composed)
        m = fem.assemble_mass(small_mesh).tocsc()
        proj = np.stack([spla.spsolve(m, load[:, d]) for d in range(3)], axis=1)
        assert np.abs(proj - c).max() < 1e-10

    @pytest.mark.parametrize("direct_threshold", [25_000, 1],
                             ids=["lu", "gmres"])
    def test_unreachable_tolerance_raises(self, small_mesh, direct_threshold):
        cfg = sf.SolverConfig(nu=1e-3, tau=0.0125, t_end=1.0,
                              linear_tol=1e-300,
                              direct_threshold=direct_threshold)
        op = StepOperator(small_mesh, cfg)
        state = sf.sample_initial_state(
            small_mesh, sf.ProfileKind.STRAIGHT_FRAME, sf.straight_domain())
        rhs = op.assemble_rhs(state)
        t0 = time.perf_counter()
        with pytest.raises(ConvergenceError):
            op.solve(rhs)
        assert time.perf_counter() - t0 < 20.0

    @pytest.mark.parametrize("direct_threshold", [25_000, 1],
                             ids=["lu", "gmres"])
    def test_non_finite_rhs_raises(self, small_mesh, direct_threshold):
        cfg = sf.SolverConfig(nu=1e-3, tau=0.0125, t_end=1.0,
                              direct_threshold=direct_threshold)
        op = StepOperator(small_mesh, cfg)
        rhs = op.assemble_rhs(zero_state(small_mesh))
        rhs[3] = np.nan
        with pytest.raises(ConvergenceError, match="non-finite"):
            op.solve(rhs)

    def test_non_finite_lu_solution_raises(self, small_mesh, monkeypatch):
        # NaN > tol is False, so only an explicit finiteness check stops a
        # NaN solution from passing the residual test
        cfg = sf.SolverConfig(nu=1e-3, tau=0.0125, t_end=1.0)
        op = StepOperator(small_mesh, cfg)

        class NanLU:
            def solve(self, b):
                return np.full_like(b, np.nan)

        monkeypatch.setattr(spla, "splu", lambda a, **kw: NanLU())
        rhs = op.assemble_rhs(zero_state(small_mesh))
        with pytest.raises(ConvergenceError, match="non-finite"):
            op.solve(rhs)

    def test_non_finite_gmres_solution_raises(self, small_mesh, monkeypatch):
        cfg = sf.SolverConfig(nu=1e-3, tau=0.0125, t_end=1.0,
                              direct_threshold=1)
        op = StepOperator(small_mesh, cfg)
        monkeypatch.setattr(spla, "gmres", lambda a, b, **kw:
                            (np.full_like(b, np.nan), 0))
        rhs = op.assemble_rhs(zero_state(small_mesh))
        with pytest.raises(ConvergenceError, match="non-finite"):
            op.solve(rhs)


def desk_mesh(n, curved):
    spec = sf.straight_domain()
    mesh = sf.build_straight_mesh(spec, n_r=n, n_z=n)
    return sf.map_to_torus(mesh, sf.curved_domain(R=1.5)) if curved else mesh


class TestOrderedFactorization:
    @pytest.mark.parametrize("curved", [False, True],
                             ids=["straight", "curved"])
    def test_direct_solve_matches_spsolve(self, curved):
        mesh = desk_mesh(5, curved)
        cfg = sf.SolverConfig(nu=1e-3, tau=0.0125, t_end=1.0)
        op = StepOperator(mesh, cfg)
        rhs = np.random.default_rng(0).standard_normal(op.n_unknowns)
        vel, pres = op.solve(rhs)
        x = spla.spsolve(op.matrix.tocsc(), rhs)
        n = op.n_int
        ref_vel = np.zeros_like(vel)
        for d in range(3):
            ref_vel[op.interior_nodes, d] = x[d * n:(d + 1) * n]
        ref_pres = x[3 * n:] - x[3 * n:].mean()
        assert (np.abs(vel - ref_vel).max()
                <= 1e-10 * np.abs(ref_vel).max())
        assert (np.abs(pres - ref_pres).max()
                <= 1e-10 * np.abs(ref_pres).max())

    @pytest.mark.parametrize("curved", [False, True],
                             ids=["straight", "curved"])
    def test_fill_below_colamd(self, curved, monkeypatch):
        # at n = 8 nested dissection beats COLAMD on both domains; at n = 4
        # it does not on the curved one, so no smaller mesh is used here
        mesh = desk_mesh(8, curved)
        op = StepOperator(mesh, sf.SolverConfig(nu=1e-3, tau=0.0125,
                                                t_end=1.0))
        fills = []
        splu = spla.splu

        def recorded(a, **kw):
            lu = splu(a, **kw)
            fills.append(lu.L.nnz + lu.U.nnz)
            return lu

        monkeypatch.setattr(spla, "splu", recorded)
        op.solve(np.ones(op.n_unknowns))
        colamd = splu(op.matrix.tocsc())
        assert len(fills) == 1
        assert fills[0] < colamd.L.nnz + colamd.U.nnz


class TestTimeStep:
    def test_invariants_after_steps(self, small_mesh, cfg, operator):
        state = sf.sample_initial_state(
            small_mesh, sf.ProfileKind.STRAIGHT_FRAME, sf.straight_domain())
        for _ in range(3):
            state = sf.time_step(operator, state)
            state.validate(small_mesh)
        assert state.step_index == 3
        assert abs(state.time - 3 * cfg.tau) < 1e-15

    def test_first_step_removes_energy(self, small_mesh, cfg, operator):
        from swirlfem.diagnostics import kinetic_energy
        state = sf.sample_initial_state(
            small_mesh, sf.ProfileKind.STRAIGHT_FRAME, sf.straight_domain())
        e0 = kinetic_energy(state, small_mesh)
        s1 = sf.time_step(operator, state)
        assert kinetic_energy(s1, small_mesh) < e0

    def test_determinism(self, small_mesh, cfg):
        def run():
            op = StepOperator(small_mesh, cfg)
            state = sf.sample_initial_state(
                small_mesh, sf.ProfileKind.STRAIGHT_FRAME,
                sf.straight_domain())
            for _ in range(2):
                state = sf.time_step(op, state)
            return state

        a, b = run(), run()
        assert np.array_equal(a.velocity, b.velocity)
        assert np.array_equal(a.pressure, b.pressure)

    def test_krylov_matches_direct(self, small_mesh):
        base = sf.SolverConfig(nu=1e-3, tau=0.0125, t_end=1.0)
        forced = sf.SolverConfig(nu=1e-3, tau=0.0125, t_end=1.0,
                                 direct_threshold=1)
        state = sf.sample_initial_state(
            small_mesh, sf.ProfileKind.STRAIGHT_FRAME, sf.straight_domain())
        s_direct = sf.time_step(StepOperator(small_mesh, base), state)
        s_krylov = sf.time_step(StepOperator(small_mesh, forced), state)
        assert np.abs(s_direct.velocity - s_krylov.velocity).max() < 1e-7
        assert np.abs(s_direct.pressure - s_krylov.pressure).max() < 1e-6


class TestDivergenceControl:
    def test_divergence_shrinks_under_refinement(self, straight_spec):
        # same initial flow, simultaneous (tau, h) refinement, fixed T
        def div_after(n, tau):
            mesh = sf.build_straight_mesh(straight_spec, n_r=n, n_z=n)
            cfg = sf.SolverConfig(nu=1e-3, tau=tau, t_end=0.1)
            state = sf.sample_initial_state(
                mesh, sf.ProfileKind.STRAIGHT_FRAME, straight_spec)
            state = sf.run_simulation(StepOperator(mesh, cfg), state)
            return fem.divergence_l2(mesh, state.velocity)

        coarse = div_after(4, 0.025)
        fine = div_after(8, 0.0125)
        assert np.isfinite(coarse) and np.isfinite(fine)
        assert fine < coarse


class TestManufacturedStep:
    def test_one_step_stays_near_exact_state(self, straight_spec):
        mms = manufactured_solution(straight_spec, nu=0.05)
        mesh = sf.build_straight_mesh(straight_spec, n_r=6, n_z=6)
        tau = 0.0125
        cfg = sf.SolverConfig(nu=0.05, tau=tau, t_end=tau,
                              forcing=mms.forcing)
        op = StepOperator(mesh, cfg)
        s1 = sf.time_step(op, mms.state(mesh, 0.0))
        err = fem.mesh_l2_norm(mesh, s1.velocity
                               - mms.velocity(mesh.nodes, s1.time))
        # measured ratio err / (tau + h^2) is ~0.17 at this resolution and
        # shrinks under refinement; 0.5 gives headroom without hiding breakage
        assert err <= 0.5 * (tau + mesh.h ** 2)


class TestRunSimulation:
    def test_sink_cadence_and_final_state(self, straight_spec):
        mesh = sf.build_straight_mesh(straight_spec, n_r=2, n_z=2)
        cfg = sf.SolverConfig(nu=1e-4, tau=1.25e-2, t_end=3.0)
        op = StepOperator(mesh, cfg)
        seen = []
        state = sf.sample_initial_state(
            mesh, sf.ProfileKind.STRAIGHT_FRAME, straight_spec)
        final = sf.run_simulation(op, state,
                                  sink=lambda s: seen.append(s.step_index))
        assert final.step_index == 240
        assert seen == list(range(241))  # step 0, then after every step

    def test_resume_from_intermediate_state(self, straight_spec):
        mesh = sf.build_straight_mesh(straight_spec, n_r=3, n_z=3)
        cfg = sf.SolverConfig(nu=1e-3, tau=0.025, t_end=0.2)
        op = StepOperator(mesh, cfg)
        init = sf.sample_initial_state(
            mesh, sf.ProfileKind.STRAIGHT_FRAME, straight_spec)
        full = sf.run_simulation(op, init)

        half = init
        for _ in range(4):
            half = sf.time_step(op, half)
        resumed = sf.run_simulation(op, half)
        assert resumed.step_index == full.step_index
        assert np.array_equal(resumed.velocity, full.velocity)
        assert np.array_equal(resumed.pressure, full.pressure)

    def test_max_steps_caps_new_steps(self, straight_spec):
        mesh = sf.build_straight_mesh(straight_spec, n_r=2, n_z=2)
        cfg = sf.SolverConfig(nu=1e-3, tau=0.025, t_end=0.2)
        op = StepOperator(mesh, cfg)
        init = sf.sample_initial_state(
            mesh, sf.ProfileKind.STRAIGHT_FRAME, straight_spec)
        full = sf.run_simulation(op, init)

        seen = []
        part = sf.run_simulation(op, init, max_steps=3,
                                 sink=lambda s: seen.append(s.step_index))
        assert part.step_index == 3
        assert seen == [0, 1, 2, 3]

        # the cap never runs past n_steps
        rest = sf.run_simulation(op, part, max_steps=100)
        assert rest.step_index == full.step_index == 8
        assert np.array_equal(rest.velocity, full.velocity)
        assert np.array_equal(rest.pressure, full.pressure)

        seen.clear()
        none = sf.run_simulation(op, init, max_steps=0,
                                 sink=lambda s: seen.append(s.step_index))
        assert none is init and seen == [0]
        with pytest.raises(ValueError, match="max_steps"):
            sf.run_simulation(op, init, max_steps=-1)

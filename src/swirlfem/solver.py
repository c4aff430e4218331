"""Pressure-stabilized Lagrange-Galerkin time stepping on P1/P1 tets.

Each step solves one linear system for (v^k, p^k): the material derivative is
approximated along characteristics, (v^k(x) - v^{k-1}(x - v^{k-1}(x) tau)) / tau,
so the matrix carries only mass, viscous, pressure-coupling and stabilization
blocks and is constant over the run; the upstream composition enters the
right-hand side through point location and P1 interpolation at quadrature
points.  Equal-order velocity/pressure is made stable by the grad-grad
pressure term scaled with delta_s0 * h^2.

Time stepping is strictly sequential; states are immutable snapshots safe to
hand to concurrent diagnostics.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem
from .geometry import Mesh, nested_dissection
from .pointlocate import TetLocator


# Largest |mean pressure| a stepped state may carry (the pressure is gauged
# to zero mean after every solve).
GAUGE_TOL = 1e-10

# GMRES restart length, and the number of restart cycles one GMRES call may
# run before the solve is given up.  Verify's finest level (159,358
# unknowns) converges in 12 inner iterations per call, so the bound of 360
# leaves 30x headroom.
GMRES_RESTART = 120
GMRES_MAX_CYCLES = 3


class ConvergenceError(RuntimeError):
    """Linear solve failed to reach the requested residual."""


@dataclass(eq=False)
class FieldState:
    """Nodal velocity and pressure at one time level t = step_index * tau."""

    step_index: int
    time: float
    velocity: np.ndarray   # (n_nodes, 3)
    pressure: np.ndarray   # (n_nodes,)

    def validate(self, mesh: Mesh):
        if self.velocity.shape != (mesh.n_nodes, 3):
            raise ValueError("velocity array does not match mesh node count")
        if self.pressure.shape != (mesh.n_nodes,):
            raise ValueError("pressure array does not match mesh node count")
        if self.step_index >= 1:
            vb = np.abs(self.velocity[mesh.boundary_nodes]).max(initial=0.0)
            if vb != 0.0:
                raise ValueError(f"boundary velocity not zero (max {vb:.3e})")
            pm = abs(float(self.pressure.mean()))
            if pm > GAUGE_TOL:
                raise ValueError(f"pressure mean {pm:.3e} exceeds gauge tol")


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters; nu = 1/Re with the unit-radius scaling."""

    nu: float
    tau: float
    t_end: float
    delta_s0: float = 1.0
    linear_tol: float = 1e-8
    forcing: object = None            # f(points, t) -> (n, 3); verification only
    direct_threshold: int = 25_000    # coupled sparse LU (nested-dissection
                                      # order) up to here; block-preconditioned
                                      # GMRES above, where the coupled LU's
                                      # fill and memory grow too fast

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.delta_s0 <= 0:
            raise ValueError(f"delta_s0 must be positive, got {self.delta_s0}")

    @property
    def n_steps(self) -> int:
        # floor(t_end / tau) with a relative guard so an exactly representable
        # ratio like 3 / 1.25e-2 lands on 240, not 239
        return int(math.floor(self.t_end / self.tau * (1.0 + 1e-12) + 1e-12))


class _OrderedLU:
    """Sparse LU of a[perm][:, perm], factorized in that order (no column
    ordering of its own) on first use; solve() takes and returns vectors in
    the unpermuted numbering."""

    def __init__(self, a: sp.spmatrix, perm: np.ndarray):
        self.perm = perm
        self._a = a[perm][:, perm].tocsc()
        self._lu = None

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self._lu is None:
            # looked up on the module at call time, so a wrapper installed on
            # spla.splu sees every factorization
            self._lu = spla.splu(self._a, permc_spec="NATURAL")
            self._a = None
        x = np.empty_like(b)
        x[self.perm] = self._lu.solve(b[self.perm])
        return x


class StepOperator:
    """Assembled constant system plus per-step right-hand side machinery.

    Building the operator orders the unknowns by nested dissection of the
    mesh and permutes the matrices to be factorized, but factorizes nothing;
    each factorization happens on first solve and is reused for every
    subsequent step.
    """

    def __init__(self, mesh: Mesh, cfg: SolverConfig):
        self.mesh = mesh
        self.cfg = cfg
        self.locator = TetLocator(mesh)

        interior = ~mesh.boundary_mask()
        self.interior_nodes = np.nonzero(interior)[0]
        self.n_int = len(self.interior_nodes)
        self.n_nodes = mesh.n_nodes

        mass = fem.assemble_mass(mesh)
        stiff = fem.assemble_stiffness(mesh)
        gx, gy, gz = fem.assemble_divergence(mesh)

        ii = self.interior_nodes
        s_vel = (mass / cfg.tau + cfg.nu * stiff)[ii][:, ii].tocsr()
        g_blocks = [g[ii] for g in (gx, gy, gz)]
        stab = cfg.delta_s0 * mesh.h ** 2 * stiff

        # The pressure is defined up to a constant (the stabilized continuity
        # rows annihilate constants, interior momentum rows likewise).  Pin
        # one pressure dof to keep the factorization sparse; the returned
        # pressure is re-gauged to zero mean afterwards, so the pin leaves no
        # trace in the results.
        pin = 0
        keep = np.ones(mesh.n_nodes)
        keep[pin] = 0.0
        z_row = sp.diags(keep)
        div_blocks = [(z_row @ g.T).tocsr() for g in g_blocks]
        stab = (z_row @ stab).tolil()
        stab[pin, pin] = 1.0
        stab = stab.tocsr()

        rows = [
            [s_vel, None, None, -g_blocks[0]],
            [None, s_vel, None, -g_blocks[1]],
            [None, None, s_vel, -g_blocks[2]],
            [div_blocks[0], div_blocks[1], div_blocks[2], stab],
        ]
        self.matrix = sp.bmat(rows, format="csr")
        self.n_unknowns = self.matrix.shape[0]

        # Unknowns in nested-dissection node order: per node its three
        # velocity components (interior nodes only), then its pressure.
        order = nested_dissection(mesh)
        n = self.n_int
        k = np.full(mesh.n_nodes, -1)
        k[ii] = np.arange(n)
        k = k[order]  # interior index along the order, -1 at wall nodes
        dofs = np.stack([k, k + n, k + 2 * n, 3 * n + order], axis=1)
        has = np.ones(dofs.shape, dtype=bool)
        has[k < 0, :3] = False
        self._lu = None
        if self.n_unknowns <= cfg.direct_threshold:
            self._lu = _OrderedLU(self.matrix, dofs[has])
        else:
            self._g_blocks = g_blocks
            self._s_lu = _OrderedLU(s_vel, k[k >= 0])
            self._t_lu = _OrderedLU(stab + cfg.tau * (z_row @ stiff).tocsr(),
                                    order)

        self._quad_pts = fem.quadrature_points(mesh).reshape(-1, 3)
        self._quad_seeds = np.repeat(np.arange(mesh.n_tets), 4)

    # -- right-hand side -------------------------------------------------

    def composed_velocity(self, state: FieldState) -> np.ndarray:
        """v^{k-1}(x - v^{k-1}(x) tau) at every quadrature point, (n_tets, 4, 3)."""
        vq = fem.field_at_quadrature(self.mesh, state.velocity)
        targets = self._quad_pts - self.cfg.tau * vq.reshape(-1, 3)
        pts, tets = self.locator.clamp_inside(self._quad_pts, targets,
                                              seeds=self._quad_seeds)
        vals = self.locator.interpolate_at(tets, pts, state.velocity)
        return vals.reshape(self.mesh.n_tets, 4, 3)

    def assemble_rhs(self, prev: FieldState) -> np.ndarray:
        composed = self.composed_velocity(prev)
        load = fem.scatter_quadrature_load(self.mesh, composed) / self.cfg.tau
        if self.cfg.forcing is not None:
            t_new = (prev.step_index + 1) * self.cfg.tau
            f = np.asarray(self.cfg.forcing(self._quad_pts, t_new))
            load += fem.scatter_quadrature_load(
                self.mesh, f.reshape(self.mesh.n_tets, 4, 3))
        rhs = np.zeros(self.n_unknowns)
        ii = self.interior_nodes
        n = self.n_int
        for d in range(3):
            rhs[d * n:(d + 1) * n] = load[ii, d]
        return rhs

    # -- linear solve -----------------------------------------------------

    def solve(self, rhs: np.ndarray):
        """Solve the step system; returns full-mesh (velocity, pressure).

        The relative residual is checked on the raw solution, then boundary
        velocities are set exactly to zero and the pressure is shifted to
        zero mean (pure gauge).
        """
        cfg = self.cfg
        if not np.isfinite(rhs).all():
            # GMRES would spin through all its iterations on a NaN rhs
            raise ConvergenceError("non-finite right-hand side")
        if self._lu is not None:
            x = self._lu.solve(rhs)
        else:
            x = self._solve_krylov(rhs)

        bnorm = float(np.linalg.norm(rhs))
        res = float(np.linalg.norm(self.matrix @ x - rhs))
        # a NaN residual would pass the comparison below
        if not (np.isfinite(res) and np.isfinite(x).all()):
            raise ConvergenceError(
                f"linear solve gave a non-finite solution (residual {res:.3e}, "
                f"|b| = {bnorm:.3e})")
        if res > cfg.linear_tol * max(bnorm, 1.0):
            raise ConvergenceError(
                f"linear solve residual {res:.3e} exceeds "
                f"{cfg.linear_tol:.1e} * max(|b|, 1) = "
                f"{cfg.linear_tol * max(bnorm, 1.0):.3e}"
            )

        n = self.n_int
        velocity = np.zeros((self.n_nodes, 3))
        for d in range(3):
            velocity[self.interior_nodes, d] = x[d * n:(d + 1) * n]
        pressure = x[3 * n:].copy()
        pressure -= pressure.mean()
        return velocity, pressure

    def _solve_krylov(self, rhs: np.ndarray) -> np.ndarray:
        """GMRES with a block upper-triangular preconditioner.

        The velocity block is one scalar SPD matrix shared by all three
        components; the pressure Schur complement is approximated by the
        pressure Laplacian scaled with (delta_s0 h^2 + tau) - both cheap to
        factorize even when the coupled LU is not.
        """
        n = self.n_int
        g = self._g_blocks

        def apply(r):
            out = np.empty_like(r)
            p = self._t_lu.solve(r[3 * n:])
            for d in range(3):
                out[d * n:(d + 1) * n] = self._s_lu.solve(
                    r[d * n:(d + 1) * n] + g[d] @ p)
            out[3 * n:] = p
            return out

        prec = spla.LinearOperator(self.matrix.shape, apply)
        # scipy counts maxiter in restart cycles; solve() checks the residual
        x, info = spla.gmres(self.matrix, rhs, rtol=0.02 * self.cfg.linear_tol,
                             atol=0.0, restart=GMRES_RESTART,
                             maxiter=GMRES_MAX_CYCLES, M=prec)
        if info != 0:
            raise ConvergenceError(
                f"GMRES did not converge within {GMRES_MAX_CYCLES} "
                f"restart cycles of {GMRES_RESTART} iterations")
        return x


def time_step(op: StepOperator, prev: FieldState) -> FieldState:
    """Advance one step k-1 -> k."""
    velocity, pressure = op.solve(op.assemble_rhs(prev))
    k = prev.step_index + 1
    return FieldState(step_index=k, time=k * op.cfg.tau,
                      velocity=velocity, pressure=pressure)


def run_simulation(op: StepOperator, initial: FieldState, sink=None,
                   max_steps: int | None = None) -> FieldState:
    """Advance from the given state to n_steps = floor(t_end / tau).

    sink(state) is invoked after every step, and on step 0 when starting
    from scratch.  The initial state may be a checkpoint with
    step_index > 0, in which case stepping resumes from there.  max_steps,
    when given, caps the number of new steps taken by this call (0 takes
    none, but still emits step 0).
    """
    if max_steps is not None and max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    state = initial
    last = op.cfg.n_steps
    if max_steps is not None:
        last = min(last, state.step_index + max_steps)
    if sink is not None and state.step_index == 0:
        sink(state)
    for _ in range(state.step_index + 1, last + 1):
        # looked up as a module global on every step, so a wrapper installed
        # on solver.time_step sees each one
        state = time_step(op, state)
        if sink is not None:
            sink(state)
    return state

"""Manufactured-solution convergence verification.

A smooth polynomial velocity field (axisymmetric stream function plus swirl,
all components vanishing on the cylinder boundary, modulated by cos(omega t))
is substituted into the momentum equation with sympy to obtain the matching
body force.  Running the scheme with that force against the interpolated
exact solution measures the observed orders.  The step is the first-order
Lagrange-Galerkin scheme, whose error estimate is O(tau + h) in H1 and
O(tau + h^2) in L2 (Notsu & Tabata, ESAIM: M2AN 50 (2016) 361-380): the space
part of the L2 error is second order, the tau part first order.  With tau
halved together with h the velocity error is therefore first order in the H1
mesh seminorm, and the observed L2 order lies between 1 and 2 and tends to 1
as the mesh is refined.
"""

import time
from dataclasses import dataclass

import numpy as np
import sympy as sp

from . import fem
from .geometry import DomainSpec, build_straight_mesh, straight_domain
from .solver import FieldState, SolverConfig, StepOperator, run_simulation

# Amplitudes of the manufactured field's parts (see manufactured_solution)
# and the angular frequency of its cos(omega t) time factor.
AMP_DIPOLE = 8.0
AMP_SWIRL = 15.0
AMP_STREAM = 6.0
AMP_PRESSURE = 0.3
OMEGA = 1.0


@dataclass
class ManufacturedSolution:
    velocity: object      # (points (n,3), t) -> (n,3)
    pressure: object      # (points (n,3), t) -> (n,)
    forcing: object       # (points (n,3), t) -> (n,3)

    def state(self, mesh, t: float, step_index: int = 0) -> FieldState:
        return FieldState(step_index=step_index, time=t,
                          velocity=self.velocity(mesh.nodes, t),
                          pressure=self.pressure(mesh.nodes, t))


def manufactured_solution(spec: DomainSpec | None = None,
                          nu: float = 0.05) -> ManufacturedSolution:
    """Divergence-free polynomial field on the straight cylinder with the
    exact body force for the momentum equation.

    Three parts, each vanishing on the whole boundary: a horizontal dipole
    (curl of a z-directed potential), a swirl, and a vertical circulation
    from an axisymmetric stream function.  The first two are low-degree so
    coarse meshes already sit in the asymptotic range; the vertical part is
    quartic in r and kept at moderate amplitude.
    """
    if spec is None:
        spec = straight_domain()
    a_len, rmax = spec.a, spec.r_max

    x, y, z, t = sp.symbols("x y z t")
    r2 = x * x + y * y
    s = sp.cos(OMEGA * t)
    axial = (z + a_len) * (4 * a_len - z)
    g = axial ** 2
    gp = sp.diff(g, z)
    ring = (r2 - rmax ** 2)

    # horizontal dipole: v = curl(0, 0, phi), phi = C ring^2 axial
    phi = AMP_DIPOLE * ring ** 2 * axial
    vx = sp.diff(phi, y) * s
    vy = -sp.diff(phi, x) * s
    vz = sp.Integer(0) * x
    # swirl: v_theta = B r (rmax^2 - r^2) axial
    swirl = AMP_SWIRL * (rmax ** 2 - r2) * axial * s
    vx += -y * swirl
    vy += x * swirl
    # vertical circulation: v_r = -A r ring^2 g', v_z = A (2 ring^2 + 4 r^2 ring) g
    vx += -AMP_STREAM * x * ring ** 2 * gp * s
    vy += -AMP_STREAM * y * ring ** 2 * gp * s
    vz += AMP_STREAM * (2 * ring ** 2 + 4 * r2 * ring) * g * s

    # kept moderate: the equal-order stabilization approximates pressure at
    # low order and a strong p* drags the observed velocity L2 rate down
    p_spatial = AMP_PRESSURE * (x * y + y * z + z * z)

    # the time factor separates: v = s(t) V(x), p = s(t) P(x), so
    # f = s'(t) V + s(t)^2 (V . grad) V + s(t) (-nu lap V + grad P)
    # and the three spatial fields can be evaluated once per point set
    big_v = sp.Matrix([sp.cancel(c / s) for c in (vx, vy, vz)])
    conv = big_v.jacobian([x, y, z]) * big_v
    lap = sp.Matrix([sp.diff(c, x, 2) + sp.diff(c, y, 2) + sp.diff(c, z, 2)
                     for c in big_v])
    grad_p = sp.Matrix([sp.diff(p_spatial, var) for var in (x, y, z)])
    lin = -nu * lap + grad_p

    v_fn = sp.lambdify((x, y, z), list(big_v), "numpy", cse=True)
    conv_fn = sp.lambdify((x, y, z), list(conv), "numpy", cse=True)
    lin_fn = sp.lambdify((x, y, z), list(lin), "numpy", cse=True)
    p_fn = sp.lambdify((x, y, z), p_spatial, "numpy", cse=True)

    def stack(fn, pts):
        out = fn(pts[:, 0], pts[:, 1], pts[:, 2])
        return np.stack([np.broadcast_to(c, pts.shape[0]) for c in out],
                        axis=1)

    # spatial fields of the last point array seen: the step operator passes
    # the same quadrature array on every step, which it never writes to
    last = {"pts": None, "fields": None}

    def fields_at(points):
        pts = np.atleast_2d(points)
        if last["pts"] is not pts:
            last["pts"] = pts
            last["fields"] = (stack(v_fn, pts), stack(conv_fn, pts),
                              stack(lin_fn, pts))
        return last["fields"]

    def velocity(points, tt):
        big, _, _ = fields_at(points)
        return float(np.cos(OMEGA * tt)) * big

    def pressure(points, tt):
        pts = np.atleast_2d(points)
        return float(np.cos(OMEGA * tt)) * np.broadcast_to(
            p_fn(pts[:, 0], pts[:, 1], pts[:, 2]), pts.shape[0]).astype(float)

    def forcing(points, tt):
        big, cv, ln = fields_at(points)
        s_t = float(np.cos(OMEGA * tt))
        sp_t = float(-OMEGA * np.sin(OMEGA * tt))
        return sp_t * big + (s_t * s_t) * cv + s_t * ln

    return ManufacturedSolution(velocity=velocity, pressure=pressure,
                                forcing=forcing)


@dataclass
class ConvergenceLevel:
    n_r: int
    n_z: int
    h: float
    tau: float
    err_l2: float
    err_h1: float
    seconds: float


@dataclass
class ConvergenceReport:
    nu: float
    t_end: float
    levels: list
    orders_l2: list
    orders_h1: list

    def format(self) -> str:
        lines = [
            "manufactured-solution convergence study",
            f"nu = {self.nu}, T = {self.t_end}, tau halved with h",
            f"{'n_r':>5} {'h':>10} {'tau':>10} {'err_L2':>12} "
            f"{'err_H1':>12} {'sec':>7}",
        ]
        for lv in self.levels:
            lines.append(
                f"{lv.n_r:5d} {lv.h:10.4e} {lv.tau:10.4e} "
                f"{lv.err_l2:12.5e} {lv.err_h1:12.5e} {lv.seconds:7.1f}"
            )
        lines.append(f"observed L2 orders: "
                     + ", ".join(f"{o:.3f}" for o in self.orders_l2))
        lines.append(f"observed H1 orders: "
                     + ", ".join(f"{o:.3f}" for o in self.orders_h1))
        return "\n".join(lines) + "\n"


def convergence_study(levels=((6, 6), (12, 12), (24, 24)), tau0: float = 0.025,
                      t_end: float = 0.15, nu: float = 0.05,
                      spec: DomainSpec | None = None) -> ConvergenceReport:
    """Run the scheme with manufactured forcing over refinement levels and
    report errors against the nodal interpolant of the exact solution.

    Level i uses tau0 / 2**i, so tau is halved together with h.  The L2
    error behaves like A tau + B h^2 (Notsu & Tabata 2016): its space part
    is second order and its tau part first order, so the observed L2 orders
    fall between 1 and 2 and tend to 1 under refinement.
    """
    if spec is None:
        spec = straight_domain()
    mms = manufactured_solution(spec, nu=nu)

    out = []
    for i, (n_r, n_z) in enumerate(levels):
        tau = tau0 / 2 ** i
        t0 = time.time()
        mesh = build_straight_mesh(spec, n_r=n_r, n_z=n_z)
        cfg = SolverConfig(nu=nu, tau=tau, t_end=t_end, forcing=mms.forcing)
        final = run_simulation(StepOperator(mesh, cfg),
                               mms.state(mesh, 0.0))
        exact = mms.velocity(mesh.nodes, final.time)
        err = final.velocity - exact
        out.append(ConvergenceLevel(
            n_r=n_r, n_z=n_z, h=mesh.h, tau=tau,
            err_l2=fem.mesh_l2_norm(mesh, err),
            err_h1=fem.mesh_h1_seminorm(mesh, err),
            seconds=time.time() - t0,
        ))

    def orders(errs):
        return [float(np.log2(errs[i] / errs[i + 1]))
                for i in range(len(errs) - 1)]

    return ConvergenceReport(
        nu=nu, t_end=t_end, levels=out,
        orders_l2=orders([lv.err_l2 for lv in out]),
        orders_h1=orders([lv.err_h1 for lv in out]),
    )

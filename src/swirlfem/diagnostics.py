"""Flow observables: velocity extrema, central curve from pressure minima,
regional energy/angular-momentum budgets, Q-criterion and connected vortex
structures.

Everything here is a pure function of (mesh, state, curve) and can run
concurrently with the next solver step.  Ties (argmin/argmax/nearest) always
resolve to the lowest index or smallest parameter so output is deterministic.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components as _cc

from . import fem
from .geometry import DomainSpec, Mesh, distance_to_geometric_axis
from .solver import FieldState

REGION_NAMES = ("inner", "middle", "outer", "none")
DEFAULT_REGION_THRESHOLDS = (0.15, 0.4, 0.7)
DEFAULT_Q_THRESHOLDS = (50.0, 250.0, 750.0)

# Projection onto the curve (see nearest_points_on_curve).  Leading
# stationarity coefficients below _DROP_TOL times the largest one are dropped
# before the eigenvalue solve: this balances the truncation (about _DROP_TOL)
# against the eigenvalue round-off of a badly scaled companion matrix (about
# eps / _DROP_TOL).  Newton steps then polish the real roots, at most
# _NEWTON_MAX_STEPS.  Distances within _TIE_ULPS rounding units of the
# coordinates' size tie.
_DROP_TOL = 1e-8
_NEWTON_MAX_STEPS = 40
_EPS = np.finfo(float).eps
_TIE_ULPS = 8.0


# ---------------------------------------------------------------------------
# central curve


@dataclass
class CentralCurve:
    """Cubic space curve C(xi), one cubic per coordinate (12 coefficients)."""

    coeffs: np.ndarray          # (3, 4), ascending powers
    xi_range: tuple             # (xi_min, xi_max)
    residual: float = 0.0       # J = 1/2 sum |C(xi_l) - P_l|^2 of the fit

    def evaluate(self, xi):
        s = np.asarray(xi, dtype=float)
        c = self.coeffs
        out = np.empty(s.shape + (3,))
        for d in range(3):
            out[..., d] = ((c[d, 3] * s + c[d, 2]) * s + c[d, 1]) * s + c[d, 0]
        return out

    @classmethod
    def straight_axis(cls, xi_range) -> "CentralCurve":
        coeffs = np.zeros((3, 4))
        coeffs[2, 1] = 1.0  # C(xi) = (0, 0, xi)
        return cls(coeffs=coeffs, xi_range=tuple(xi_range))


def fit_central_curve(xi, points, xi_range=None) -> CentralCurve:
    """Least-squares cubic through the per-plane minimum-pressure points.

    Three independent 1-D problems solved by normal equations on the
    parameter mapped to [-1, 1]; coefficients are mapped back to the raw
    parameter afterwards.
    """
    xi = np.asarray(xi, dtype=float)
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if np.unique(xi).size < 4:
        raise ValueError(
            f"cubic fit needs at least 4 distinct parameter values, "
            f"got {np.unique(xi).size}"
        )
    lo, hi = float(xi.min()), float(xi.max())
    alpha = 2.0 / (hi - lo)
    beta = -(hi + lo) / (hi - lo)
    s = alpha * xi + beta

    A = np.vander(s, 4, increasing=True)
    ata = A.T @ A
    coeffs = np.empty((3, 4))
    shift = np.polynomial.Polynomial([beta, alpha])
    for d in range(3):
        c_scaled = np.linalg.solve(ata, A.T @ pts[:, d])
        composed = np.polynomial.Polynomial(c_scaled)(shift)
        co = np.zeros(4)
        co[:len(composed.coef)] = composed.coef
        coeffs[d] = co

    rng = tuple(xi_range) if xi_range is not None else (lo, hi)
    curve = CentralCurve(coeffs=coeffs, xi_range=rng)
    mis = curve.evaluate(xi) - pts
    curve.residual = 0.5 * float((mis * mis).sum())
    return curve


def _unit_interval_coeffs(curve: CentralCurve):
    """Curve coefficients in s, where xi = mid + half s maps s in [-1, 1]
    onto xi_range.  Returns ((3, 4) ascending, mid, half)."""
    lo, hi = curve.xi_range
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    b = np.zeros((3, 4))
    shift = np.polynomial.Polynomial([mid, half])
    for d in range(3):
        co = np.polynomial.Polynomial(curve.coeffs[d])(shift).coef
        b[d, :len(co)] = co
    return b, mid, half


def _stationarity_coeffs(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(Q, 6) ascending coefficients of g(s) = (C(s) - P) . C'(s), with
    C(s) = sum_k b_k s^k and a = b_0 - P for each of the Q queries.

    g = a.b_1 + (2 a.b_2 + b_1.b_1) s + (3 a.b_3 + 3 b_1.b_2) s^2
        + (4 b_1.b_3 + 2 b_2.b_2) s^3 + 5 b_2.b_3 s^4 + 3 b_3.b_3 s^5,
    so only the first three coefficients depend on P.
    """
    b1, b2, b3 = b[:, 1], b[:, 2], b[:, 3]
    q = np.empty((len(a), 6))
    q[:, 0] = a @ b1
    q[:, 1] = 2.0 * (a @ b2) + b1 @ b1
    q[:, 2] = 3.0 * (a @ b3) + 3.0 * (b1 @ b2)
    q[:, 3] = 4.0 * (b1 @ b3) + 2.0 * (b2 @ b2)
    q[:, 4] = 5.0 * (b2 @ b3)
    q[:, 5] = 3.0 * (b3 @ b3)
    return q


def _stationary_roots(q: np.ndarray) -> np.ndarray:
    """Complex roots of each row's polynomial, (Q, 5) padded with NaN.

    Leading coefficients below _DROP_TOL times the row's largest one are
    dropped first: over s in [-1, 1] their terms are round-off.  A straight
    curve then gives degree 1, a quadratic one degree 3.  Rows of equal
    degree share one batched companion-matrix eigenvalue call.
    """
    n = len(q)
    scale = np.abs(q).max(axis=1, initial=0.0)
    alive = np.abs(q) > _DROP_TOL * scale[:, None]
    degree = np.where(alive.any(axis=1),
                      5 - np.argmax(alive[:, ::-1], axis=1), 0)
    roots = np.full((n, 5), np.nan, dtype=complex)
    for deg in range(1, 6):
        rows = np.nonzero(degree == deg)[0]
        if len(rows) == 0:
            continue
        comp = np.zeros((len(rows), deg, deg))
        comp[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
        comp[:, :, -1] = -q[rows, :deg] / q[rows, deg, None]
        roots[rows, :deg] = np.linalg.eigvals(comp)
    return roots


def _newton_polish(b: np.ndarray, a: np.ndarray,
                   s: np.ndarray) -> np.ndarray:
    """Newton steps on g(s) = (C(s) - P) . C'(s) for every finite entry of
    s (Q, K); an entry stops at the first step that does not shrink |g|.

    g is evaluated from C - P and C', not from its expanded coefficients:
    near a cusp of the parametrization both factors are small and their
    product keeps its relative accuracy, while the expanded sum would drown
    in the round-off of its O(1) terms.
    """
    b1, b2, b3 = b[:, 1], b[:, 2], b[:, 3]

    def value_and_slope(x, rows):
        x = x[:, None]
        r = a[rows] + x * (b1 + x * (b2 + x * b3))        # C - P
        t = b1 + x * (2.0 * b2 + 3.0 * x * b3)            # C'
        u = 2.0 * b2 + 6.0 * x * b3                       # C''
        return (r * t).sum(axis=1), (t * t + r * u).sum(axis=1)

    out = s.ravel().copy()
    idx = np.flatnonzero(np.isfinite(out))
    rows = idx // s.shape[1]
    x = out[idx]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g, dg = value_and_slope(x, rows)
        for _ in range(_NEWTON_MAX_STEPS):
            trial = x - g / dg
            g_t, dg_t = value_and_slope(trial, rows)
            better = np.abs(g_t) < np.abs(g)   # False for NaN
            if not better.any():
                break
            idx, rows = idx[better], rows[better]
            x, g, dg = trial[better], g_t[better], dg_t[better]
            out[idx] = x
    return out.reshape(s.shape)


def nearest_points_on_curve(curve: CentralCurve, points: np.ndarray):
    """Closest curve point for each query, in closed form.

    The stationarity condition (C(xi) - P) . C'(xi) = 0 is a polynomial of
    degree <= 5 in xi whose roots come from batched companion-matrix
    eigenvalues; the real ones are polished by Newton steps.  The real part
    of every root, clipped to xi_range, and both endpoints are the
    candidates, and the nearest one wins.  (A minimum is a root of odd
    multiplicity, so it keeps a real eigenvalue under round-off; complex
    roots only add harmless candidates.)  Candidates whose distances agree
    to within the round-off of evaluating them tie, and a tie goes to the
    smaller parameter.  Within about eps^(1/3) of a cusp of the
    parametrization (C' = 0) the roots cluster, and the distance is then
    accurate to about |C''| eps^(2/3) instead of round-off.

    Returns (curve points (Q, 3), parameters (Q,)).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lo, hi = curve.xi_range
    b, mid, half = _unit_interval_coeffs(curve)
    a = b[:, 0] - pts
    roots = _stationary_roots(_stationarity_coeffs(b, a))
    real = roots.imag == 0.0
    s = np.where(real, _newton_polish(b, a, np.where(real, roots.real, np.nan)),
                 roots.real)
    cand = np.concatenate([np.full((len(pts), 1), lo),
                           np.clip(mid + half * s, lo, hi),
                           np.full((len(pts), 1), hi)], axis=1)
    cand = np.where(np.isnan(cand), lo, cand)  # pad absent roots

    c_pts = curve.evaluate(cand)                       # (Q, K, 3)
    dist = np.sqrt(((c_pts - pts[:, None, :]) ** 2).sum(axis=2))
    size = np.abs(c_pts).sum(axis=2).max(axis=1) + np.abs(pts).sum(axis=1)
    tied = dist <= dist.min(axis=1)[:, None] + _TIE_ULPS * _EPS * size[:, None]
    pick = np.argmin(np.where(tied, cand, np.inf), axis=1)
    rows = np.arange(len(pts))
    return c_pts[rows, pick], cand[rows, pick]


@dataclass
class PlaneMinimum:
    plane: int
    xi: float
    node: int
    point: np.ndarray
    pressure: float


def min_pressure_per_plane(state: FieldState, mesh: Mesh):
    """Minimum-pressure node of every nonempty plane bin.

    Returns (minima, skipped_planes); ties resolve to the lowest node id.
    """
    if mesh.plane_bin is None:
        raise ValueError("mesh has no plane bins; call cross_section_planes")
    minima, skipped = [], []
    p = state.pressure
    bins = mesh.plane_bin
    for l, z in enumerate(mesh.plane_z):
        ids = np.nonzero(bins == l)[0]
        if len(ids) == 0:
            skipped.append(l)
            continue
        k = ids[np.argmin(p[ids])]
        minima.append(PlaneMinimum(plane=l, xi=float(z), node=int(k),
                                   point=mesh.nodes[k].copy(),
                                   pressure=float(p[k])))
    return minima, skipped


def fit_curve_from_state(state: FieldState, mesh: Mesh, spec: DomainSpec):
    """Pressure minima -> cubic central curve, parameterized over the full
    plane range; also reports how many plane bins were empty."""
    minima, skipped = min_pressure_per_plane(state, mesh)
    xi = np.array([m.xi for m in minima])
    pts = np.array([m.point for m in minima])
    curve = fit_central_curve(xi, pts, xi_range=(spec.z_min, spec.z_max))
    return curve, len(skipped)


def central_curve_speed(samples, window) -> float:
    """Average drift speed of the mid-height curve point over a time window.

    Accumulates the xy-plane displacement magnitude of C(xi_mid) between
    consecutive samples and divides by the window length.
    """
    t0, t1 = window
    sel = [(t, c) for t, c in samples if t0 - 1e-9 <= t <= t1 + 1e-9]
    if len(sel) < 2:
        raise ValueError(f"need at least 2 curve samples in window {window}")
    lo, hi = sel[0][1].xi_range
    xi_mid = 0.5 * (lo + hi)
    ref = np.array([c.evaluate(xi_mid) for _, c in sel])
    steps = np.diff(ref[:, :2], axis=0)
    path = float(np.hypot(steps[:, 0], steps[:, 1]).sum())
    return path / (t1 - t0)


# ---------------------------------------------------------------------------
# regions, energy, angular momentum


@dataclass
class RegionDecomposition:
    """Per-element shells around the central curve by radial distance."""

    thresholds: tuple            # (inner, middle, outer) cutoffs
    labels: np.ndarray           # (n_tets,) index into REGION_NAMES
    distance: np.ndarray         # (n_tets,) |r_e|
    offsets: np.ndarray          # (n_tets, 3) r_e = centroid - nearest C(xi)


def curve_offsets(mesh: Mesh, curve: CentralCurve) -> np.ndarray:
    """r_e: each element centroid minus its nearest point on the curve."""
    c_pts, _ = nearest_points_on_curve(curve, mesh.tet_centroids())
    return mesh.tet_centroids() - c_pts


def region_decomposition(mesh: Mesh, curve: CentralCurve,
                         thresholds=DEFAULT_REGION_THRESHOLDS) -> RegionDecomposition:
    rel = curve_offsets(mesh, curve)
    dist = np.sqrt((rel * rel).sum(axis=1))
    t1, t2, t3 = thresholds
    labels = np.full(mesh.n_tets, 3, dtype=np.int8)
    labels[dist <= t3] = 2
    labels[dist <= t2] = 1
    labels[dist <= t1] = 0
    return RegionDecomposition(thresholds=tuple(thresholds),
                               labels=labels, distance=dist, offsets=rel)


def element_velocity(state: FieldState, mesh: Mesh) -> np.ndarray:
    """Arithmetic mean of the 4 nodal velocities (midpoint quadrature)."""
    return state.velocity[mesh.tets].mean(axis=1)


def kinetic_energy(state: FieldState, mesh: Mesh,
                   regions: RegionDecomposition | None = None):
    """E = 1/2 sum |v_e|^2 V_e; optionally split by region label."""
    v_e = element_velocity(state, mesh)
    vol = mesh.tet_volumes()
    per_elem = 0.5 * (v_e * v_e).sum(axis=1) * vol
    total = float(per_elem.sum())
    if regions is None:
        return total
    split = {name: float(per_elem[regions.labels == i].sum())
             for i, name in enumerate(REGION_NAMES)}
    return total, split


def angular_momentum(state: FieldState, mesh: Mesh, curve: CentralCurve,
                     regions: RegionDecomposition | None = None):
    """L = sum (r_e x v_e) V_e with r_e measured from the nearest point on
    the central curve; per-region vectors optionally returned.

    With regions (built from the same curve) r_e is taken from its offsets,
    so the centroids are projected only once per record.
    """
    v_e = element_velocity(state, mesh)
    r_e = regions.offsets if regions is not None \
        else curve_offsets(mesh, curve)
    contrib = np.cross(r_e, v_e) * mesh.tet_volumes()[:, None]
    total = contrib.sum(axis=0)
    if regions is None:
        return total
    split = {name: contrib[regions.labels == i].sum(axis=0)
             for i, name in enumerate(REGION_NAMES)}
    return total, split


def max_velocity(state: FieldState, mesh: Mesh, spec: DomainSpec):
    """(max |v|, argmax node position, distance to the geometric axis)."""
    speed = np.linalg.norm(state.velocity, axis=1)
    i = int(np.argmax(speed))  # first hit = lowest node id on ties
    loc = mesh.nodes[i].copy()
    return float(speed[i]), loc, float(distance_to_geometric_axis(loc, spec))


# ---------------------------------------------------------------------------
# Q-criterion and connected structures


def q_criterion(state: FieldState, mesh: Mesh) -> np.ndarray:
    """Per-element Q = 1/2 (|W|^2 - |S|^2) from the element-constant
    velocity gradient."""
    g = fem.gradient_per_element(mesh, state.velocity)
    w = 0.5 * (g - np.transpose(g, (0, 2, 1)))
    s = 0.5 * (g + np.transpose(g, (0, 2, 1)))
    return 0.5 * ((w * w).sum(axis=(1, 2)) - (s * s).sum(axis=(1, 2)))


@dataclass
class StructureComponent:
    elements: np.ndarray
    volume: float
    max_q: float
    centroid: np.ndarray


@dataclass
class VortexStructureSet:
    threshold: float
    components: list = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.components)


def connected_vortex_structures(mesh: Mesh, q_elem: np.ndarray,
                                threshold: float) -> VortexStructureSet:
    """Face-connected components of {elements with Q >= threshold}, sorted by
    descending volume (ties by smallest member id)."""
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    sel = np.nonzero(q_elem >= threshold)[0]
    out = VortexStructureSet(threshold=float(threshold))
    if len(sel) == 0:
        return out

    compact = np.full(mesh.n_tets, -1, dtype=np.int64)
    compact[sel] = np.arange(len(sel))
    nbr = mesh.neighbors()[sel]
    src, dst = [], []
    for f in range(4):
        n = nbr[:, f]
        ok = (n >= 0) & (compact[np.maximum(n, 0)] >= 0)
        src.append(np.arange(len(sel))[ok])
        dst.append(compact[n[ok]])
    rows = np.concatenate(src)
    cols = np.concatenate(dst)
    graph = sp.coo_matrix((np.ones(len(rows)), (rows, cols)),
                          shape=(len(sel), len(sel)))
    n_comp, labels = _cc(graph, directed=False)

    vol = mesh.tet_volumes()
    cen = mesh.tet_centroids()
    comps = []
    for c in range(n_comp):
        elems = sel[labels == c]
        v = vol[elems]
        comps.append(StructureComponent(
            elements=elems,
            volume=float(v.sum()),
            max_q=float(q_elem[elems].max()),
            centroid=(cen[elems] * v[:, None]).sum(axis=0) / v.sum(),
        ))
    comps.sort(key=lambda s: (-s.volume, int(s.elements.min())))
    out.components = comps
    return out


# ---------------------------------------------------------------------------
# one full diagnostics sample


@dataclass
class DiagnosticsRecord:
    """Every scalar/vector observable of one time sample."""

    t: float
    v_max: float
    d_v_max: float
    e_total: float
    e_regions: dict
    l_total: np.ndarray
    l_regions: dict
    curve: CentralCurve
    planes_skipped: int
    structure_counts: dict


def compute_record(state: FieldState, mesh: Mesh, spec: DomainSpec,
                   q_thresholds=DEFAULT_Q_THRESHOLDS,
                   region_thresholds=DEFAULT_REGION_THRESHOLDS
                   ) -> DiagnosticsRecord:
    curve, skipped = fit_curve_from_state(state, mesh, spec)
    regions = region_decomposition(mesh, curve, region_thresholds)
    e_total, e_split = kinetic_energy(state, mesh, regions)
    l_total, l_split = angular_momentum(state, mesh, curve, regions)
    v_max, _, d_vmax = max_velocity(state, mesh, spec)
    q_elem = q_criterion(state, mesh)
    counts = {float(q): connected_vortex_structures(mesh, q_elem, q).count
              for q in q_thresholds}
    return DiagnosticsRecord(
        t=state.time, v_max=v_max, d_v_max=d_vmax,
        e_total=e_total, e_regions=e_split,
        l_total=l_total, l_regions=l_split,
        curve=curve, planes_skipped=skipped,
        structure_counts=counts,
    )

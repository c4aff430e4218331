"""Swirl initial velocity profiles.

The base profile is built from powers of psi(a, eps, sigma) = (a^2 + eps)^sigma
in cylindrical components around the z-axis.  On curved domains the profile
can either be evaluated on raw coordinates (straight frame) or pushed forward
through the bending map so the swirl follows the bent axis (curved frame);
both pairings with either domain shape are supported for the profile-influence
comparison runs.
"""

from dataclasses import dataclass, field as dc_field
from enum import Enum

import numpy as np

from .geometry import DomainKind, DomainSpec, Mesh, inverse_torus_map
from .solver import FieldState


class SignConvention(Enum):
    ZERO = "zero"   # sign(0) = 0: keeps the radial component odd in z
    PLUS = "plus"   # sign(0) = +1


class ProfileKind(Enum):
    STRAIGHT_FRAME = "straight_frame"
    CURVED_FRAME = "curved_frame"


@dataclass(frozen=True)
class ProfileParams:
    """Shape constants of the swirl profile; all default to 1."""

    eps: tuple = (1.0,) * 6
    beta: tuple = (1.0,) * 6
    sign_at_zero: SignConvention = SignConvention.ZERO

    def __post_init__(self):
        if len(self.eps) != 6 or len(self.beta) != 6:
            raise ValueError("eps and beta must each have 6 entries")
        if any(e <= 0 for e in self.eps):
            raise ValueError("all eps entries must be positive")


def psi(a, eps: float, sigma: float):
    """(a^2 + eps)^sigma; requires a^2 + eps > 0."""
    base = np.asarray(a, dtype=float) ** 2 + eps
    if np.any(base <= 0):
        raise ValueError(f"psi undefined: a^2 + eps = {base} not positive")
    return base ** sigma


def initial_velocity_straight(p, params: ProfileParams = ProfileParams()):
    """Swirl profile around the straight z-axis.

    At r = 0 the radial/azimuthal unit vectors are undefined and only the
    axial component is returned; the field stays bounded since every psi
    factor is finite.
    """
    pts = np.atleast_2d(np.asarray(p, dtype=float))
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    r = np.hypot(x, y)
    eps, beta = params.eps, params.beta

    u_z = psi(r, eps[0], -beta[0]) * psi(z, eps[1], -beta[1])
    rho = psi(r, eps[2], -beta[2]) * psi(z, eps[3], beta[3])
    u_theta = psi(r, eps[4], -beta[4]) * psi(z, eps[5], -beta[5])
    if params.sign_at_zero is SignConvention.ZERO:
        sgn = np.sign(z)
    else:
        sgn = np.where(z >= 0, 1.0, -1.0)
    u_r = sgn * rho * u_z

    # snap to the axis inside floating noise so round-tripped axis points
    # stay on the on-axis branch (the in-plane components jump there)
    on_axis = r < 1e-12
    r_safe = np.where(on_axis, 1.0, r)
    e_r = np.stack([x / r_safe, y / r_safe, np.zeros_like(x)], axis=1)
    e_t = np.stack([-y / r_safe, x / r_safe, np.zeros_like(x)], axis=1)
    v = u_r[:, None] * e_r + u_theta[:, None] * e_t
    v[on_axis] = 0.0
    v[:, 2] += u_z
    return v[0] if np.asarray(p).ndim == 1 else v


def curved_frame_rotation(points, R: float):
    """Rotation aligning the straight frame with the bent axis at each
    point: the normalized Jacobian of the bending map at the straight-frame
    preimage (columns orthogonal with norms 1, 1, (R-x)/R)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    theta = np.arctan2(pts[:, 2], R - pts[:, 0])
    c, s = np.cos(theta), np.sin(theta)
    zero = np.zeros_like(c)
    one = np.ones_like(c)
    rot = np.stack([
        np.stack([c, zero, s], axis=1),
        np.stack([zero, one, zero], axis=1),
        np.stack([-s, zero, c], axis=1),
    ], axis=1)
    return rot


def initial_velocity_curved(p_C, spec: DomainSpec,
                            params: ProfileParams = ProfileParams()):
    """Swirl profile following the bent axis of a curved domain.

    Recovers the straight-frame preimage analytically, evaluates the straight
    profile there, and rotates it with the normalized Jacobian of the map
    (norm-preserving).
    """
    if spec.kind is not DomainKind.CURVED:
        raise ValueError("initial_velocity_curved requires a curved domain spec")
    return _curved_profile(p_C, spec.R, params)


def _curved_profile(points, R: float, params: ProfileParams):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if np.any(R - pts[:, 0] <= 0):
        raise ValueError("point outside the image of the bending map (x >= R)")
    p_S = inverse_torus_map(pts, R)
    v_S = initial_velocity_straight(p_S, params)
    rot = curved_frame_rotation(pts, R)
    v = np.einsum("qij,qj->qi", rot, np.atleast_2d(v_S))
    return v[0] if np.asarray(points).ndim == 1 else v


def sample_initial_state(mesh: Mesh, kind: ProfileKind, spec: DomainSpec,
                         params: ProfileParams = ProfileParams(),
                         frame_radius: float | None = None):
    """Nodal sample of the chosen profile as a time-zero field state.

    The straight frame evaluates the raw formula on node coordinates whatever
    the domain; the curved frame applies the push-forward (frame_radius
    defaults to the domain's torus radius and must be given explicitly to put
    a curved profile on a straight domain).  Boundary values are kept: the
    scheme enforces no-slip from the first step on, not at t = 0.  Pressure
    starts at 0.
    """
    if kind is ProfileKind.STRAIGHT_FRAME:
        v = initial_velocity_straight(mesh.nodes, params)
    else:
        R = frame_radius if frame_radius is not None else spec.R
        if R is None:
            raise ValueError(
                "curved-frame profile on a straight domain needs frame_radius"
            )
        v = _curved_profile(mesh.nodes, R, params)
    return FieldState(
        step_index=0,
        time=0.0,
        velocity=np.ascontiguousarray(v),
        pressure=np.zeros(mesh.n_nodes),
    )

"""Domains, tetrahedral meshes and geometric queries.

Two domain shapes are supported: a straight cylinder of radius r_max with
-a <= z <= 4a, and a curved (toroidal-segment) cylinder obtained by bending
the straight one around a circle of radius R > r_max.  Meshes are structured:
a layered disk triangulation extruded into prisms, each prism split into
three tetrahedra with face-consistent diagonals.

All queries (axis point, distance, plane binning) are pure functions; a Mesh
is safe for concurrent read-only use once built.
"""

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
import scipy.sparse as sp

# Inward offset used when nudging points off the boundary.
GEOM_EPS = 1e-10

# Parts of at most this many nodes are not split further by
# nested_dissection.
ND_LEAF = 32


class DomainKind(Enum):
    STRAIGHT = "straight"
    CURVED = "curved"


@dataclass(frozen=True)
class DomainSpec:
    """Geometry parameters for a straight or curved cylindrical domain."""

    kind: DomainKind
    r_max: float = 1.0
    a: float = 0.125
    R: float | None = None

    def __post_init__(self):
        if self.r_max <= 0:
            raise ValueError(f"r_max must be positive, got {self.r_max}")
        if self.a <= 0:
            raise ValueError(f"a must be positive, got {self.a}")
        if self.kind is DomainKind.CURVED:
            if self.R is None:
                raise ValueError("curved domain requires a torus radius R")
            if self.R <= self.r_max:
                raise ValueError(
                    f"torus radius R={self.R} must exceed r_max={self.r_max}"
                )
        elif self.R is not None:
            raise ValueError("straight domain must not set a torus radius R")

    @property
    def delta(self) -> float:
        """Toroidal curvature r_max / R (curved domains only)."""
        if self.kind is not DomainKind.CURVED:
            raise ValueError("delta is defined only for curved domains")
        return self.r_max / self.R

    @property
    def z_min(self) -> float:
        return -self.a

    @property
    def z_max(self) -> float:
        return 4.0 * self.a


def straight_domain(r_max: float = 1.0, a: float = 0.125) -> DomainSpec:
    return DomainSpec(DomainKind.STRAIGHT, r_max=r_max, a=a)


def curved_domain(R: float, r_max: float = 1.0, a: float = 0.125) -> DomainSpec:
    return DomainSpec(DomainKind.CURVED, r_max=r_max, a=a, R=R)


@dataclass(eq=False)
class Mesh:
    """Conforming tetrahedral mesh; every boundary face is wall.

    tets are stored with positive signed volume.  plane_z and plane_bin are
    bound by cross_section_planes(), which returns a new mesh.  The
    per-element geometry (volumes, centroids, basis gradients) and the
    adjacency are cached here, built on first use.
    """

    nodes: np.ndarray            # (n_nodes, 3) float64
    tets: np.ndarray             # (n_tets, 4) int
    boundary_faces: np.ndarray   # (n_bfaces, 3) int
    boundary_nodes: np.ndarray   # sorted unique node ids
    h: float                     # mesh size: maximum edge length
    plane_z: np.ndarray | None = None     # (n_planes + 1,) plane levels
    plane_bin: np.ndarray | None = None   # (n_nodes,) int

    _volumes: np.ndarray | None = field(default=None, repr=False)
    _centroids: np.ndarray | None = field(default=None, repr=False)
    _neighbors: np.ndarray | None = field(default=None, repr=False)
    _boundary_mask: np.ndarray | None = field(default=None, repr=False)
    _grads: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_tets(self) -> int:
        return self.tets.shape[0]

    def tet_volumes(self) -> np.ndarray:
        if self._volumes is None:
            self._volumes = signed_tet_volumes(self.nodes, self.tets)
        return self._volumes

    def basis_gradients(self) -> np.ndarray:
        """(n_tets, 4, 3) P1 basis gradients; rows 1..3 are the inverted edge
        matrix [p1-p0, p2-p0, p3-p0], which also gives barycentrics 1..3."""
        if self._grads is None:
            p = self.nodes[self.tets]
            edges = np.stack([p[:, 1] - p[:, 0],
                              p[:, 2] - p[:, 0],
                              p[:, 3] - p[:, 0]], axis=2)
            tinv = np.linalg.inv(edges)
            grads = np.empty((self.n_tets, 4, 3))
            grads[:, 1:, :] = tinv
            grads[:, 0, :] = -tinv.sum(axis=1)
            self._grads = grads
        return self._grads

    def total_volume(self) -> float:
        return float(self.tet_volumes().sum())

    def tet_centroids(self) -> np.ndarray:
        if self._centroids is None:
            self._centroids = self.nodes[self.tets].mean(axis=1)
        return self._centroids

    def boundary_mask(self) -> np.ndarray:
        """Boolean per-node mask, True on wall nodes."""
        if self._boundary_mask is None:
            mask = np.zeros(self.n_nodes, dtype=bool)
            mask[self.boundary_nodes] = True
            self._boundary_mask = mask
        return self._boundary_mask

    def neighbors(self) -> np.ndarray:
        """(n_tets, 4) tet index across the face opposite each local vertex,
        -1 on boundary faces."""
        if self._neighbors is None:
            self._neighbors = _face_adjacency(self.tets)[0]
        return self._neighbors

    def with_nodes(self, nodes: np.ndarray) -> "Mesh":
        """Same connectivity on new coordinates; h recomputed, caches reset
        (only the neighbor table survives: the volumes, centroids and basis
        gradients all depend on the coordinates)."""
        return Mesh(
            nodes=np.ascontiguousarray(nodes, dtype=float),
            tets=self.tets,
            boundary_faces=self.boundary_faces,
            boundary_nodes=self.boundary_nodes,
            h=max_edge_length(nodes, self.tets),
            _neighbors=self._neighbors,  # connectivity unchanged
        )


def signed_tet_volumes(nodes: np.ndarray, tets: np.ndarray) -> np.ndarray:
    p = nodes[tets]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    d3 = p[:, 3] - p[:, 0]
    return np.einsum("ij,ij->i", np.cross(d1, d2), d3) / 6.0


def max_edge_length(nodes: np.ndarray, tets: np.ndarray) -> float:
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    h = 0.0
    for i, j in pairs:
        d = nodes[tets[:, i]] - nodes[tets[:, j]]
        h = max(h, float(np.sqrt((d * d).sum(axis=1)).max()))
    return h


def nested_dissection(mesh: Mesh) -> np.ndarray:
    """Node order that keeps the fill of a sparse LU low (nested dissection,
    George, SIAM J. Numer. Anal. 10 (1973)).

    The node set is bisected at the median of its longest coordinate extent
    (stable argsort).  The separator is the nodes of the right half that
    share a tet edge with the left half, so no edge joins the left half to
    the rest of the right half.  A part is ordered as its left half, its
    right half minus the separator, then the separator, each half ordered
    the same way down to parts of ND_LEAF nodes.
    """
    n = mesh.n_nodes
    i, j = np.triu_indices(4, k=1)
    a, b = mesh.tets[:, i].ravel(), mesh.tets[:, j].ravel()
    adj = sp.csr_matrix((np.ones(2 * len(a)),
                         (np.concatenate([a, b]), np.concatenate([b, a]))),
                        shape=(n, n))
    in_left = np.zeros(n)
    out = []

    def dissect(part):
        if len(part) <= ND_LEAF:
            out.append(part)
            return
        pts = mesh.nodes[part]
        axis = np.argmax(pts.max(axis=0) - pts.min(axis=0))
        part = part[np.argsort(pts[:, axis], kind="stable")]
        left, right = np.split(part, [len(part) // 2])
        in_left[left] = 1.0
        touches = adj[right] @ in_left > 0
        in_left[left] = 0.0
        dissect(left)
        dissect(right[~touches])
        out.append(right[touches])

    dissect(np.arange(n))
    return np.concatenate(out)


def disk_triangulation(n_r: int, r_max: float):
    """Structured triangulation of the disk r <= r_max with n_r rings.

    Ring j carries 6j nodes, so triangles stay near-equilateral; the outer
    boundary is the regular 6*n_r-gon inscribed in the circle.  Triangles
    are counterclockwise.
    """
    pts = [(0.0, 0.0)]
    ring_start = [0]
    for j in range(1, n_r + 1):
        ring_start.append(len(pts))
        r = r_max * j / n_r
        k = np.arange(6 * j)
        theta = 2.0 * np.pi * k / (6 * j)
        pts.extend(zip(r * np.cos(theta), r * np.sin(theta)))
    points = np.asarray(pts, dtype=float)

    tris = []
    # hub: 6 triangles around the center
    first = ring_start[1]
    for k in range(6):
        tris.append((0, first + k, first + (k + 1) % 6))
    # annuli
    for j in range(1, n_r):
        inner, outer = ring_start[j], ring_start[j + 1]
        n_in, n_out = 6 * j, 6 * (j + 1)
        for s in range(6):
            I = [inner + (s * j + t) % n_in for t in range(j + 1)]
            O = [outer + (s * (j + 1) + t) % n_out for t in range(j + 2)]
            for t in range(j):
                tris.append((O[t], O[t + 1], I[t]))
                tris.append((O[t + 1], I[t + 1], I[t]))
            tris.append((O[j], O[j + 1], I[j]))
    return points, np.asarray(tris, dtype=np.int64)


def _split_prisms(bottom: np.ndarray, layer_stride: int) -> np.ndarray:
    """Split prisms (bottom triangle ids; top = bottom + layer_stride) into
    3 tets each, choosing quad-face diagonals through the smallest global id
    on the face so adjacent prisms conform.  Counterclockwise bottom
    triangles (as disk_triangulation makes them) give positive volumes.
    """
    tri = np.asarray(bottom, dtype=np.int64)
    # rotate each triangle so its smallest id comes first
    shift = np.argmin(tri, axis=1)
    idx = (np.arange(3)[None, :] + shift[:, None]) % 3
    v = np.take_along_axis(tri, idx, axis=1)
    v0, v1, v2 = v[:, 0], v[:, 1], v[:, 2]
    v3, v4, v5 = v0 + layer_stride, v1 + layer_stride, v2 + layer_stride

    diag15 = v1 < v2  # diagonal of the far quad face through min(v1, v2)
    tets = np.empty((len(tri), 3, 4), dtype=np.int64)
    tets[diag15, 0] = np.stack([v0, v1, v2, v5], axis=1)[diag15]
    tets[diag15, 1] = np.stack([v0, v1, v5, v4], axis=1)[diag15]
    tets[diag15, 2] = np.stack([v0, v4, v5, v3], axis=1)[diag15]
    tets[~diag15, 0] = np.stack([v0, v1, v2, v4], axis=1)[~diag15]
    tets[~diag15, 1] = np.stack([v0, v4, v2, v5], axis=1)[~diag15]
    tets[~diag15, 2] = np.stack([v0, v4, v5, v3], axis=1)[~diag15]
    return tets.reshape(-1, 4)


def _face_adjacency(tets: np.ndarray):
    """(neighbors, boundary_faces) from one sort of the face table; the
    boundary faces come out as sorted vertex triples in lexicographic order.

    Row 4 e + i of the face table is the face of tet e opposite its local
    vertex i, which is also the flat index of neighbors[e, i]; the owner and
    local id are recovered from it instead of being stored.
    """
    opp = [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)]
    faces = np.empty((4 * len(tets), 3), dtype=np.int64)
    for i, cols in enumerate(opp):
        faces[i::4] = tets[:, cols]
    faces.sort(axis=1)
    order = np.lexsort(faces.T[::-1])
    f = faces[order]
    del faces
    same = (f[1:] == f[:-1]).all(axis=1)
    i = np.nonzero(same)[0]
    a, b = order[i], order[i + 1]
    nbr = np.full(4 * len(tets), -1, dtype=np.int64)
    nbr[a] = b // 4
    nbr[b] = a // 4
    # faces appear once or twice; single occurrences are the boundary
    keep = np.ones(len(f), dtype=bool)
    keep[:-1] &= ~same
    keep[1:] &= ~same
    return nbr.reshape(-1, 4), f[keep]


def build_straight_mesh(spec: DomainSpec, n_r: int, n_z: int) -> Mesh:
    """Mesh the straight cylinder {r <= r_max, -a <= z <= 4a}.

    n_z prism layers of the n_r-ring disk triangulation, each prism split
    into 3 tets with conforming diagonals.
    """
    if spec.kind is not DomainKind.STRAIGHT:
        raise ValueError("build_straight_mesh requires a straight domain spec")
    if n_r < 2 or n_z < 2:
        raise ValueError(f"n_r and n_z must both be >= 2, got {n_r}, {n_z}")

    disk, tris = disk_triangulation(n_r, spec.r_max)
    n_disk = len(disk)
    z = np.linspace(spec.z_min, spec.z_max, n_z + 1)
    nodes = np.empty((n_disk * (n_z + 1), 3), dtype=float)
    for l in range(n_z + 1):
        nodes[l * n_disk:(l + 1) * n_disk, :2] = disk
        nodes[l * n_disk:(l + 1) * n_disk, 2] = z[l]

    prisms = np.concatenate(
        [tris + l * n_disk for l in range(n_z)], axis=0
    )
    tets = _split_prisms(prisms, n_disk)

    nbr, bfaces = _face_adjacency(tets)
    return Mesh(
        nodes=nodes,
        tets=tets,
        boundary_faces=bfaces,
        boundary_nodes=np.unique(bfaces),
        h=max_edge_length(nodes, tets),
        _neighbors=nbr,
    )


def torus_map(points: np.ndarray, R: float) -> np.ndarray:
    """Bend straight-frame coordinates around the circle of radius R:
    (x, y, z) -> (R - (R - x) cos(z/R), y, (R - x) sin(z/R))."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    theta = p[:, 2] / R
    rad = R - p[:, 0]
    out = np.stack(
        [R - rad * np.cos(theta), p[:, 1], rad * np.sin(theta)], axis=1
    )
    return out[0] if np.asarray(points).ndim == 1 else out


def inverse_torus_map(points: np.ndarray, R: float) -> np.ndarray:
    """Analytic inverse of torus_map (exact for r_max < R)."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    theta = np.arctan2(p[:, 2], R - p[:, 0])
    rad = np.hypot(R - p[:, 0], p[:, 2])
    out = np.stack([R - rad, p[:, 1], R * theta], axis=1)
    return out[0] if np.asarray(points).ndim == 1 else out


def map_to_torus(mesh: Mesh, spec: DomainSpec) -> Mesh:
    """Map a straight-domain mesh onto the curved domain.

    Connectivity is unchanged; fails if bending inverts any tet (mesh too
    coarse for the curvature).
    """
    if spec.kind is not DomainKind.CURVED:
        raise ValueError("map_to_torus requires a curved domain spec")
    mapped = mesh.with_nodes(torus_map(mesh.nodes, spec.R))
    vol = mapped.tet_volumes()
    if vol.min() <= 0.0:
        bad = int(np.argmin(vol))
        raise ValueError(
            f"torus mapping produced non-positive tet volume (tet {bad}, "
            f"volume {vol[bad]:.3e}); mesh too coarse for curvature "
            f"delta={spec.delta:.3f}"
        )
    return mapped


def geometric_axis_point(spec: DomainSpec, z: float) -> np.ndarray:
    """Point of the (time-independent) geometric axis at axial coordinate z."""
    if not (spec.z_min - GEOM_EPS <= z <= spec.z_max + GEOM_EPS):
        raise ValueError(
            f"z={z} outside axial range [{spec.z_min}, {spec.z_max}]"
        )
    if spec.kind is DomainKind.STRAIGHT:
        return np.array([0.0, 0.0, z])
    return torus_map(np.array([0.0, 0.0, z]), spec.R)


def distance_to_geometric_axis(p: np.ndarray, spec: DomainSpec):
    """Distance from point(s) to the geometric axis.

    For curved domains this is the distance to the full circle containing
    the axis image; on the small arc spanned by the domain the two notions
    coincide for interior points.
    """
    q = np.atleast_2d(np.asarray(p, dtype=float))
    if spec.kind is DomainKind.STRAIGHT:
        d = np.hypot(q[:, 0], q[:, 1])
    else:
        R = spec.R
        rho = np.hypot(q[:, 0] - R, q[:, 2])
        d = np.hypot(rho - R, q[:, 1])
    return float(d[0]) if np.asarray(p).ndim == 1 else d


def axial_coordinate(points: np.ndarray, spec: DomainSpec) -> np.ndarray:
    """Straight-frame axial coordinate of points; inverts the torus map
    via atan2 for curved domains."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    if spec.kind is DomainKind.STRAIGHT:
        z = p[:, 2].copy()
    else:
        z = spec.R * np.arctan2(p[:, 2], spec.R - p[:, 0])
    return float(z[0]) if np.asarray(points).ndim == 1 else z


def cross_section_planes(spec: DomainSpec, n_planes: int, mesh: Mesh) -> Mesh:
    """The mesh with planes l = 0..n_planes at z_l = -a + l * (5a / n_planes)
    bound to it: plane_z holds the levels, and plane_bin every node's nearest
    plane by its axial coordinate (ties go to the lower index).  The argument
    is left as it was.
    """
    if n_planes < 1:
        raise ValueError(f"n_planes must be >= 1, got {n_planes}")
    dz = 5.0 * spec.a / n_planes
    z = axial_coordinate(mesh.nodes, spec)
    # nearest plane, ties to the lower index
    l = np.ceil((z - spec.z_min) / dz - 0.5).astype(np.int64)
    return replace(mesh, plane_z=spec.z_min + np.arange(n_planes + 1) * dz,
                   plane_bin=np.clip(l, 0, n_planes))

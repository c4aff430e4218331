"""Point location in tetrahedral meshes and P1 interpolation.

Queries walk from a seed tet toward the target (step across the face with
the most negative barycentric coordinate).  Walks that hit the boundary or
cycle fall back to an exhaustive scan of every tet, so a NotFound outcome
really means the point is outside the mesh.
"""

import numpy as np

from .geometry import GEOM_EPS, Mesh

# Barycentric slack accepting points on faces/edges as inside.
BARY_TOL = 1e-10
# Face crossings a walk may take before the point goes to the fallback.
MAX_WALK = 256
# Bisection steps locating the boundary crossing of a clamped segment.
BISECTIONS = 40


class PointLocationError(RuntimeError):
    """Raised when a point cannot be located in any tet (clamping bug)."""


class TetLocator:
    """Reusable locator for one mesh; read-only after construction."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self._v0 = mesh.nodes[mesh.tets[:, 0]]
        self._tinv = mesh.basis_gradients()[:, 1:]
        self._neighbors = mesh.neighbors()

    def barycentric(self, tet_ids: np.ndarray, points: np.ndarray) -> np.ndarray:
        """(Q, 4) barycentric coordinates of points w.r.t. the given tets."""
        rel = points - self._v0[tet_ids]
        lam = np.einsum("qij,qj->qi", self._tinv[tet_ids], rel)
        lam0 = 1.0 - lam.sum(axis=1)
        return np.concatenate([lam0[:, None], lam], axis=1)

    def locate_many(self, points: np.ndarray, seeds: np.ndarray,
                    fallback: bool = True):
        """Locate each point by a walk from its seed tet; returns
        (tet_ids, found_mask).

        tet_ids are -1 where the point is outside the mesh.  A failed walk
        goes to the exhaustive scan, where the lowest containing tet wins.
        With fallback=False a walk that hits the boundary counts as outside
        (cheap containment test for points expected near their seed).
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        n = len(pts)
        cur = np.asarray(seeds, dtype=np.int64).copy()
        result = np.full(n, -1, dtype=np.int64)
        active = np.arange(n)

        for _ in range(MAX_WALK):
            if len(active) == 0:
                break
            lam = self.barycentric(cur[active], pts[active])
            worst = np.argmin(lam, axis=1)
            lmin = lam[np.arange(len(active)), worst]
            inside = lmin >= -BARY_TOL
            result[active[inside]] = cur[active[inside]]
            moving = ~inside
            nxt = self._neighbors[cur[active[moving]], worst[moving]]
            hit_wall = nxt < 0
            sub = active[moving]
            cur[sub[~hit_wall]] = nxt[~hit_wall]
            active = sub[~hit_wall]

        if fallback:
            for i in np.nonzero(result < 0)[0]:
                result[i] = self._locate_exhaustive(pts[i])
        return result, result >= 0

    def _locate_exhaustive(self, p: np.ndarray) -> int:
        chunk = 65536
        for start in range(0, self.mesh.n_tets, chunk):
            ids = np.arange(start, min(start + chunk, self.mesh.n_tets))
            lam = self.barycentric(ids, np.repeat(p[None], len(ids), axis=0))
            ok = np.nonzero(lam.min(axis=1) >= -BARY_TOL)[0]
            if len(ok):
                return int(ids[ok[0]])  # lowest containing tet wins
        return -1

    def interpolate_at(self, tet_ids: np.ndarray, points: np.ndarray,
                       field: np.ndarray) -> np.ndarray:
        """P1 interpolation of nodal values at points with known tets."""
        lam = self.barycentric(tet_ids, points)
        vals = field[self.mesh.tets[tet_ids]]
        if vals.ndim == 3:
            return np.einsum("qi,qid->qd", lam, vals)
        return np.einsum("qi,qi->q", lam, vals)

    def clamp_inside(self, origins: np.ndarray, targets: np.ndarray,
                     seeds: np.ndarray):
        """Pull targets that left the mesh back along the segment from their
        (inside) origin to just inside the last boundary crossing; seeds are
        the tets the walks start from (the origins' own tets).

        Returns (points, tet_ids); total, every output lies in some tet.
        The bisection uses the walk-only containment test (a boundary hit
        counts as outside, which only ever clamps slightly deeper).
        """
        pts = np.array(np.atleast_2d(targets), dtype=float)
        orig = np.atleast_2d(origins)
        ids, ok = self.locate_many(pts, seeds=seeds, fallback=False)
        bad = np.nonzero(~ok)[0]
        if len(bad):
            lo = np.zeros(len(bad))
            hi = np.ones(len(bad))
            d = pts[bad] - orig[bad]
            bad_seeds = np.asarray(seeds)[bad]
            for _ in range(BISECTIONS):
                mid = 0.5 * (lo + hi)
                trial = orig[bad] + mid[:, None] * d
                _, inside = self.locate_many(trial, seeds=bad_seeds,
                                             fallback=False)
                lo = np.where(inside, mid, lo)
                hi = np.where(inside, hi, mid)
            length = np.linalg.norm(d, axis=1)
            back = np.where(length > 0, GEOM_EPS / np.maximum(length, 1e-300), 0.0)
            t = np.maximum(lo - back, 0.0)
            pts[bad] = orig[bad] + t[:, None] * d
            ids_bad, ok_bad = self.locate_many(pts[bad], seeds=bad_seeds)
            still = np.nonzero(~ok_bad)[0]
            if len(still):
                # pathological: collapse fully onto the (inside) origin
                pts[bad[still]] = orig[bad[still]]
                ids_fix, ok_fix = self.locate_many(pts[bad[still]],
                                                   bad_seeds[still])
                if not ok_fix.all():
                    raise PointLocationError(
                        "clamped point could not be located; origin outside mesh?"
                    )
                ids_bad[still] = ids_fix
            ids[bad] = ids_bad
        return pts, ids


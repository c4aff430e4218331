import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import swirlfem as sf
from swirlfem.pointlocate import BARY_TOL, PointLocationError, TetLocator


@pytest.fixture(scope="module")
def locator(medium_mesh):
    return TetLocator(medium_mesh)


def barycentric_oracle(mesh, tet_ids, points):
    """(Q, 4) barycentric coordinates by a direct solve per point."""
    p = mesh.nodes[mesh.tets[tet_ids]]
    t = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0], p[:, 3] - p[:, 0]],
                 axis=2)
    lam = np.linalg.solve(t, (points - p[:, 0])[..., None])[..., 0]
    return np.concatenate([1.0 - lam.sum(axis=1)[:, None], lam], axis=1)


def brute_force_containing_tets(mesh, p, tol=1e-10):
    """Oracle: barycentric test against every tet, no walking."""
    ids = np.arange(mesh.n_tets)
    lam = barycentric_oracle(mesh, ids, np.broadcast_to(p, (len(ids), 3)))
    return np.nonzero(lam.min(axis=1) >= -tol)[0]


class TestLocate:
    def test_nodes_resolve_to_containing_tets(self, medium_mesh, locator):
        nodes = np.array([0, 17, medium_mesh.n_nodes // 3,
                          medium_mesh.n_nodes - 1])
        ids, ok = locator.locate_many(medium_mesh.nodes[nodes])
        assert ok.all()
        for node, tet in zip(nodes, ids):
            assert node in medium_mesh.tets[tet]

    def test_walk_matches_brute_force(self, medium_mesh, locator):
        rng = np.random.default_rng(11)
        pts = rng.uniform([-0.6, -0.6, -0.1], [0.6, 0.6, 0.45], (60, 3))
        ids, ok = locator.locate_many(pts)
        for p, found, hit in zip(pts, ids, ok):
            oracle = brute_force_containing_tets(medium_mesh, p)
            if len(oracle) == 0:
                assert found == -1 and not hit
            else:
                assert found in oracle and hit

    def test_outside_points_rejected(self, locator):
        pts = np.array([[1.5, 0.0, 0.0], [0.0, 0.0, -0.5], [0.0, 0.0, 0.9]])
        ids, ok = locator.locate_many(pts)
        assert (ids == -1).all() and not ok.any()

    def test_face_point_resolves_to_a_containing_tet(self, medium_mesh,
                                                     locator):
        nbr = medium_mesh.neighbors()
        e = int(np.argmax(nbr.min(axis=1)))  # any tet with 4 neighbors
        face_local = 0
        other = nbr[e, face_local]
        verts = [v for i, v in enumerate(medium_mesh.tets[e]) if i != face_local]
        p = medium_mesh.nodes[verts].mean(axis=0)
        ids, ok = locator.locate_many(p[None])
        oracle = brute_force_containing_tets(medium_mesh, p)
        assert ok[0] and ids[0] in oracle
        assert {e, other} <= set(oracle)


def interpolate_points(locator, points, field):
    """P1 values at points through the batched calls the solver uses."""
    ids, ok = locator.locate_many(points)
    assert ok.all()
    return locator.interpolate_at(ids, points, field)


class TestInterpolate:
    def test_nodal_values_exact(self, medium_mesh, locator):
        field = np.sin(medium_mesh.nodes @ np.array([1.0, 2.0, 3.0]))
        nodes = np.array([0, 5, 100, medium_mesh.n_nodes - 1])
        vals = interpolate_points(locator, medium_mesh.nodes[nodes], field)
        assert np.abs(vals - field[nodes]).max() < 1e-12

    def test_linear_reproduction_at_centroids(self, medium_mesh, locator):
        c = np.array([0.7, -1.3, 2.1])
        field = medium_mesh.nodes @ c
        cen = medium_mesh.tet_centroids()[::7]
        ids, ok = locator.locate_many(cen)
        assert ok.all()
        vals = locator.interpolate_at(ids, cen, field)
        assert np.abs(vals - cen @ c).max() < 1e-12

    def test_face_continuity(self, medium_mesh, locator):
        field = np.cos(medium_mesh.nodes @ np.array([2.0, -1.0, 4.0]))
        nbr = medium_mesh.neighbors()
        e = int(np.argmax(nbr.min(axis=1)))
        other = nbr[e, 2]
        verts = [v for i, v in enumerate(medium_mesh.tets[e]) if i != 2]
        p = (0.2 * medium_mesh.nodes[verts[0]]
             + 0.3 * medium_mesh.nodes[verts[1]]
             + 0.5 * medium_mesh.nodes[verts[2]])
        v1 = locator.interpolate_at(np.array([e]), p[None], field)[0]
        v2 = locator.interpolate_at(np.array([other]), p[None], field)[0]
        assert abs(v1 - v2) < 1e-12

    def test_vector_fields(self, medium_mesh, locator):
        field = medium_mesh.nodes * np.array([1.0, -2.0, 0.5])
        p = np.array([[0.1, 0.2, 0.15]])
        val = interpolate_points(locator, p, field)
        assert val.shape == (1, 3)
        assert np.allclose(val, p * [1.0, -2.0, 0.5], atol=1e-12)

    def test_outside_raises(self, locator):
        # a foot can only be clamped back toward an origin inside the mesh
        p = np.array([[3.0, 0.0, 0.0]])
        with pytest.raises(PointLocationError):
            locator.clamp_inside(p, p)


class TestClamp:
    def test_inside_targets_untouched(self, medium_mesh, locator):
        origins = medium_mesh.tet_centroids()[:50]
        targets = origins + 1e-3
        pts, ids = locator.clamp_inside(origins, targets)
        assert np.array_equal(pts, targets)
        assert (ids >= 0).all()

    def test_outside_targets_pulled_inside(self, medium_mesh, locator):
        rng = np.random.default_rng(2)
        origins = medium_mesh.tet_centroids()[
            rng.integers(0, medium_mesh.n_tets, 80)]
        targets = origins + rng.uniform(-1.5, 1.5, origins.shape)
        pts, ids = locator.clamp_inside(origins, targets)
        _, ok = locator.locate_many(pts)
        assert ok.all()
        assert (ids >= 0).all()
        # clamped points stay on the origin->target segment
        d_t = targets - origins
        d_p = pts - origins
        cross = np.linalg.norm(np.cross(d_t, d_p), axis=1)
        assert cross.max() < 1e-9


@pytest.fixture(scope="module", params=["medium_mesh", "curved_mesh"])
def any_locator(request):
    return TetLocator(request.getfixturevalue(request.param))


_unit = st.floats(-0.15, 1.15)
_frac = st.floats(0.0, 1.0, exclude_max=True)
_weight = st.floats(0.01, 1.0)


def interior_origins(mesh, feet):
    """Seed tets and points strictly inside them from drawn (fraction of
    n_tets, four barycentric weights, ...) tuples."""
    seeds = np.array([int(f * mesh.n_tets) for f, *_ in feet])
    w = np.array([wt for _, wt, _ in feet])
    w /= w.sum(axis=1, keepdims=True)
    return seeds, np.einsum("qv,qvd->qd", w, mesh.nodes[mesh.tets[seeds]])


class TestLocateProperties:
    """The walk against a brute-force barycentric oracle, on a straight
    and a curved mesh.  The oracle tolerance is doubled where the walk must
    be inside it and halved where it must be outside, so rounding on a face
    cannot flip a verdict."""

    @settings(max_examples=60, deadline=None)
    @given(unit=st.lists(st.tuples(_unit, _unit, _unit), min_size=1,
                         max_size=6),
           seed_frac=st.none() | _frac)
    def test_found_tet_contains_point(self, any_locator, unit, seed_frac):
        mesh = any_locator.mesh
        lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
        pts = lo + np.asarray(unit) * (hi - lo)
        seeds = None if seed_frac is None else \
            np.full(len(pts), int(seed_frac * mesh.n_tets))
        ids, ok = any_locator.locate_many(pts, seeds=seeds)
        assert np.array_equal(ok, ids >= 0)
        for p, t in zip(pts, ids):
            if t >= 0:
                assert t in brute_force_containing_tets(mesh, p, 2 * BARY_TOL)
            else:
                assert len(brute_force_containing_tets(
                    mesh, p, 0.5 * BARY_TOL)) == 0

    @settings(max_examples=60, deadline=None)
    @given(feet=st.lists(st.tuples(_frac, st.tuples(*[_weight] * 4),
                                   st.tuples(*[st.floats(-1.5, 1.5)] * 3)),
                         min_size=1, max_size=6))
    def test_clamped_foot_in_tet_and_on_segment(self, any_locator, feet):
        mesh = any_locator.mesh
        seeds, origins = interior_origins(mesh, feet)
        targets = origins + np.array([disp for _, _, disp in feet])
        pts, ids = any_locator.clamp_inside(origins, targets, seeds)
        assert (ids >= 0).all()
        lam = barycentric_oracle(mesh, ids, pts)
        assert lam.min() >= -2 * BARY_TOL
        # on the segment: pts = origin + s d with 0 <= s <= 1
        d = targets - origins
        dd = np.einsum("qd,qd->q", d, d)
        s = np.einsum("qd,qd->q", pts - origins, d) / np.where(dd > 0, dd, 1)
        assert s.min() >= -1e-12 and s.max() <= 1.0 + 1e-12
        assert np.abs(pts - (origins + s[:, None] * d)).max() < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(feet=st.lists(st.tuples(_frac, st.tuples(*[_weight] * 4),
                                   st.tuples(*[_unit] * 3)),
                         min_size=1, max_size=6))
    def test_inside_target_unchanged(self, any_locator, feet):
        mesh = any_locator.mesh
        lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
        seeds, origins = interior_origins(mesh, feet)
        targets = lo + np.array([u for _, _, u in feet]) * (hi - lo)
        pts, _ = any_locator.clamp_inside(origins, targets, seeds)
        for p, q in zip(pts, targets):
            if len(brute_force_containing_tets(mesh, q, 0.5 * BARY_TOL)):
                assert np.array_equal(p, q)

import gc
import math
import weakref

import numpy as np
import pytest

import swirlfem as sf
from swirlfem import geometry as geo


def polygon_disk_area(n_r, r_max=1.0):
    # the outer ring is the regular 6*n_r-gon inscribed in the circle
    k = 6 * n_r
    return 0.5 * k * r_max ** 2 * math.sin(2.0 * math.pi / k)


class TestDomainSpec:
    def test_delta(self):
        spec = sf.curved_domain(R=1.1)
        assert abs(spec.delta - 1.0 / 1.1) < 1e-12
        assert abs(spec.delta - 0.909) < 1e-3  # reference curvature values
        assert abs(sf.curved_domain(R=2.0).delta - 0.5) < 1e-12
        assert abs(sf.curved_domain(R=1.5).delta - 0.667) < 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            sf.curved_domain(R=0.9)   # R must exceed r_max
        with pytest.raises(ValueError):
            geo.DomainSpec(geo.DomainKind.CURVED, R=None)
        with pytest.raises(ValueError):
            geo.DomainSpec(geo.DomainKind.STRAIGHT, r_max=-1.0)
        with pytest.raises(ValueError):
            geo.DomainSpec(geo.DomainKind.STRAIGHT, a=0.0)
        with pytest.raises(ValueError):
            sf.straight_domain().delta


class TestStraightMesh:
    def test_volume_coarse(self, straight_spec):
        mesh = sf.build_straight_mesh(straight_spec, n_r=2, n_z=2)
        expected = polygon_disk_area(2) * 0.625
        assert abs(mesh.total_volume() - expected) < 1e-13
        assert mesh.total_volume() < math.pi * 0.625

    def test_volume_converges_to_cylinder(self, straight_spec):
        gaps = []
        for n_r in (2, 4, 8):
            mesh = sf.build_straight_mesh(straight_spec, n_r=n_r, n_z=2)
            gaps.append(math.pi * 0.625 - mesh.total_volume())
        assert gaps[0] > gaps[1] > gaps[2] > 0

    def test_tet_volumes_match_prisms_exactly(self, straight_spec):
        mesh = sf.build_straight_mesh(straight_spec, n_r=3, n_z=4)
        # each prism layer contributes area * dz, split without loss
        expected = polygon_disk_area(3) * 0.625
        assert abs(mesh.total_volume() - expected) < 1e-13

    def test_positive_volumes_and_watertight(self, straight_spec):
        mesh = sf.build_straight_mesh(straight_spec, n_r=16, n_z=10)
        assert mesh.tet_volumes().min() > 0

        # oracle: count face incidence directly; interior faces appear in
        # exactly 2 tets, boundary faces in exactly 1
        from collections import Counter
        count = Counter()
        for tet in mesh.tets:
            for face in ((tet[1], tet[2], tet[3]), (tet[0], tet[2], tet[3]),
                         (tet[0], tet[1], tet[3]), (tet[0], tet[1], tet[2])):
                count[tuple(sorted(face))] += 1
        assert set(count.values()) <= {1, 2}
        boundary = {f for f, c in count.items() if c == 1}
        assert boundary == {tuple(sorted(f)) for f in mesh.boundary_faces}

        # watertight: every boundary edge belongs to exactly 2 boundary faces
        edge_count = Counter()
        for f in mesh.boundary_faces:
            s = sorted(f)
            for e in ((s[0], s[1]), (s[0], s[2]), (s[1], s[2])):
                edge_count[e] += 1
        assert set(edge_count.values()) == {2}

    def test_boundary_nodes_match_faces(self, small_mesh):
        assert set(small_mesh.boundary_nodes) == set(
            np.unique(small_mesh.boundary_faces))

    def test_open_faces_are_the_boundary_faces(self, small_mesh):
        # the face opposite local vertex i of a tet with neighbor -1
        opp = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
        e, i = np.nonzero(small_mesh.neighbors() < 0)
        open_faces = np.sort(
            small_mesh.tets[e[:, None], opp[i]], axis=1)
        assert {tuple(f) for f in open_faces} \
            == {tuple(f) for f in small_mesh.boundary_faces}
        assert len(open_faces) == len(small_mesh.boundary_faces)

    def test_node_bounds(self, straight_spec):
        mesh = sf.build_straight_mesh(straight_spec, n_r=5, n_z=7)
        r = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])
        assert r.max() <= 1.0 + 1e-10
        assert mesh.nodes[:, 2].min() >= -0.125 - 1e-12
        assert mesh.nodes[:, 2].max() <= 0.5 + 1e-12

    def test_h_is_max_edge(self, small_mesh):
        edges = []
        for tet in small_mesh.tets:
            for i in range(4):
                for j in range(i + 1, 4):
                    edges.append(np.linalg.norm(
                        small_mesh.nodes[tet[i]] - small_mesh.nodes[tet[j]]))
        assert abs(small_mesh.h - max(edges)) < 1e-14

    def test_rejects_bad_inputs(self, straight_spec, curved_spec):
        with pytest.raises(ValueError):
            sf.build_straight_mesh(straight_spec, n_r=1, n_z=4)
        with pytest.raises(ValueError):
            sf.build_straight_mesh(straight_spec, n_r=4, n_z=1)
        with pytest.raises(ValueError):
            sf.build_straight_mesh(curved_spec, n_r=4, n_z=4)


class TestMeshCaches:
    def test_basis_gradients_cached_and_invert_the_edges(self, straight_spec):
        mesh = sf.build_straight_mesh(straight_spec, n_r=2, n_z=3)
        grads = mesh.basis_gradients()
        assert mesh.basis_gradients() is grads
        assert grads.shape == (mesh.n_tets, 4, 3)
        assert np.abs(grads.sum(axis=1)).max() < 1e-12
        p = mesh.nodes[mesh.tets]
        edges = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0],
                          p[:, 3] - p[:, 0]], axis=2)
        eye = np.broadcast_to(np.eye(3), edges.shape)
        assert np.allclose(grads[:, 1:] @ edges, eye, atol=1e-12)
        # grad phi_i . (p_j - p_0) = delta_ij - delta_i0
        assert np.allclose(np.einsum("ek,ekj->ej", grads[:, 0], edges), -1.0,
                           atol=1e-12)

    def test_with_nodes_rebuilds_coordinate_caches(self, straight_spec):
        mesh = sf.build_straight_mesh(straight_spec, n_r=2, n_z=3)
        grads, vol = mesh.basis_gradients(), mesh.tet_volumes()
        scaled = mesh.with_nodes(2.0 * mesh.nodes)
        assert scaled.basis_gradients() is not grads
        assert np.allclose(scaled.basis_gradients(), 0.5 * grads)
        assert scaled.tet_volumes() is not vol
        assert np.allclose(scaled.tet_volumes(), 8.0 * vol)
        assert scaled.neighbors() is mesh.neighbors()

    def test_dropped_mesh_is_garbage_collected(self, straight_spec):
        mesh = sf.build_straight_mesh(straight_spec, n_r=2, n_z=3)
        mesh.basis_gradients()
        mesh.tet_volumes()
        mesh.neighbors()
        ref = weakref.ref(mesh)
        del mesh
        gc.collect()
        assert ref() is None


class TestTorusMap:
    def test_identity_at_z0(self):
        p = np.array([0.3, -0.2, 0.0])
        assert np.allclose(geo.torus_map(p, 1.5), p, atol=1e-15)

    def test_axis_maps_to_circle(self):
        R = 1.5
        for z in (-0.1, 0.0, 0.25, 0.5):
            img = geo.torus_map(np.array([0.0, 0.0, z]), R)
            expected = np.array([R - R * math.cos(z / R), 0.0,
                                 R * math.sin(z / R)])
            assert np.allclose(img, expected, atol=1e-15)
            # on the circle of radius R centered at (R, 0, 0), plane y=0
            assert abs(math.hypot(img[0] - R, img[2]) - R) < 1e-12

    def test_inverse_roundtrip(self, curved_mesh, medium_mesh):
        back = geo.inverse_torus_map(curved_mesh.nodes, 1.5)
        assert np.abs(back - medium_mesh.nodes).max() < 1e-12

    def test_connectivity_preserved(self, curved_mesh, medium_mesh):
        assert curved_mesh.tets is medium_mesh.tets or \
            np.array_equal(curved_mesh.tets, medium_mesh.tets)
        assert np.array_equal(curved_mesh.boundary_faces,
                              medium_mesh.boundary_faces)

    def test_volume_gap_shrinks_under_refinement(self, straight_spec):
        # analytic toroidal-segment volume equals the straight volume of the
        # full cylinder (disk centroid on the bending axis)
        spec = sf.curved_domain(R=1.5)
        exact = math.pi * 1.0 ** 2 * 0.625
        gaps = []
        for n in (4, 8, 16):
            mesh = sf.map_to_torus(
                sf.build_straight_mesh(straight_spec, n_r=n, n_z=n), spec)
            gaps.append(abs(exact - mesh.total_volume()))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_requires_curved_spec(self, medium_mesh, straight_spec):
        with pytest.raises(ValueError):
            sf.map_to_torus(medium_mesh, straight_spec)

    def test_rejects_inverted_elements(self):
        # a sliver along the inner bend whose fourth vertex sits closer to
        # the torus axis than the sagitta of its mapped edge arc flips over
        spec = sf.curved_domain(R=1.05, r_max=1.0, a=0.125)
        nodes = np.array([
            [0.9, 0.0, 0.0],
            [0.9, 0.0, 0.5],
            [0.9, 0.05, 0.25],
            [0.9005, 0.0, 0.25],
        ])
        tets = np.array([[0, 1, 2, 3]])
        if geo.signed_tet_volumes(nodes, tets)[0] < 0:
            tets = np.array([[0, 1, 3, 2]])
        assert geo.signed_tet_volumes(nodes, tets)[0] > 0
        mesh = geo.Mesh(nodes=nodes, tets=tets,
                        boundary_faces=np.zeros((0, 3), dtype=int),
                        boundary_nodes=np.array([], dtype=int),
                        h=1.0)
        with pytest.raises(ValueError, match="non-positive"):
            sf.map_to_torus(mesh, spec)


class TestAxisQueries:
    def test_axis_point_straight(self, straight_spec):
        assert np.allclose(sf.geometric_axis_point(straight_spec, 0.3),
                           [0.0, 0.0, 0.3])

    def test_axis_point_curved(self):
        spec = sf.curved_domain(R=2.0)
        assert np.allclose(sf.geometric_axis_point(spec, 0.0), [0, 0, 0],
                           atol=1e-15)
        spec = sf.curved_domain(R=1.5)
        p = sf.geometric_axis_point(spec, 0.5)
        # independently evaluated: (1.5 (1 - cos(1/3)), 0, 1.5 sin(1/3))
        assert np.allclose(
            p, [1.5 * (1 - math.cos(1.0 / 3)), 0.0, 1.5 * math.sin(1.0 / 3)],
            atol=1e-14)

    def test_axis_point_range(self, straight_spec):
        with pytest.raises(ValueError):
            sf.geometric_axis_point(straight_spec, 0.7)
        with pytest.raises(ValueError):
            sf.geometric_axis_point(straight_spec, -0.2)

    def test_distance_straight(self, straight_spec):
        assert abs(sf.distance_to_geometric_axis(
            np.array([0.3, 0.4, 0.17]), straight_spec) - 0.5) < 1e-14

    def test_distance_curved_examples(self):
        spec = sf.curved_domain(R=2.0)
        assert abs(sf.distance_to_geometric_axis(
            np.array([0.0, 0.1, 0.0]), spec) - 0.1) < 1e-14
        # points on the axis image are at distance zero
        spec = sf.curved_domain(R=1.5)
        for z in np.linspace(-0.125, 0.5, 9):
            p = sf.geometric_axis_point(spec, z)
            assert sf.distance_to_geometric_axis(p, spec) < 1e-12

    def test_distance_vectorized(self, curved_spec):
        pts = np.random.default_rng(3).uniform(-0.5, 0.5, size=(40, 3))
        batch = sf.distance_to_geometric_axis(pts, curved_spec)
        single = [sf.distance_to_geometric_axis(p, curved_spec) for p in pts]
        assert np.allclose(batch, single, atol=1e-14)


class TestPlanes:
    def test_plane_positions(self, straight_spec, small_mesh):
        z = sf.cross_section_planes(straight_spec, 100, small_mesh).plane_z
        assert len(z) == 101
        assert abs(z[0] + 0.125) < 1e-15
        assert abs(z[100] - 0.5) < 1e-12
        assert abs((z[1] - z[0]) - 0.00625) < 1e-15

    def test_input_mesh_left_unbound(self, straight_spec, small_mesh):
        bound = sf.cross_section_planes(straight_spec, 10, small_mesh)
        assert bound is not small_mesh
        assert small_mesh.plane_z is None and small_mesh.plane_bin is None
        assert bound.nodes is small_mesh.nodes
        assert bound.tets is small_mesh.tets
        assert bound.plane_bin.shape == (small_mesh.n_nodes,)

    def test_node_at_top_gets_last_bin(self, straight_spec):
        mesh = sf.build_straight_mesh(straight_spec, n_r=3, n_z=5)
        mesh = sf.cross_section_planes(straight_spec, 100, mesh)
        top = np.nonzero(np.abs(mesh.nodes[:, 2] - 0.5) < 1e-12)[0]
        assert np.all(mesh.plane_bin[top] == 100)

    def test_midway_tie_goes_to_lower_plane(self, straight_spec):
        # n_z=4 puts a node layer exactly midway between planes 0 and 1 of a
        # 2-plane split (all coordinates exact binary fractions)
        mesh = sf.build_straight_mesh(straight_spec, n_r=2, n_z=4)
        mesh = sf.cross_section_planes(straight_spec, 2, mesh)
        mid = np.nonzero(np.abs(mesh.nodes[:, 2] - 0.03125) < 1e-15)[0]
        assert len(mid) > 0
        assert np.all(mesh.plane_bin[mid] == 0)

    def test_bins_partition_nodes(self, curved_spec, curved_mesh):
        mesh = sf.cross_section_planes(curved_spec, 40, curved_mesh)
        assert mesh.plane_bin.shape == (curved_mesh.n_nodes,)
        assert mesh.plane_bin.min() >= 0
        assert mesh.plane_bin.max() <= 40
        assert len(mesh.plane_z) == 41

    def test_curved_binning_inverts_map(self, curved_spec, curved_mesh,
                                        medium_mesh):
        curved = sf.cross_section_planes(curved_spec, 30, curved_mesh)
        straight = sf.cross_section_planes(sf.straight_domain(), 30,
                                           medium_mesh)
        assert np.array_equal(curved.plane_bin, straight.plane_bin)
        assert np.array_equal(curved.plane_z, straight.plane_z)

    def test_axial_coordinate_roundtrip(self, curved_spec, curved_mesh,
                                        medium_mesh):
        z = geo.axial_coordinate(curved_mesh.nodes, curved_spec)
        assert np.abs(z - medium_mesh.nodes[:, 2]).max() < 1e-12

    def test_rejects_bad_count(self, straight_spec, small_mesh):
        with pytest.raises(ValueError):
            sf.cross_section_planes(straight_spec, 0, small_mesh)


def tet_edges(mesh):
    i, j = np.triu_indices(4, k=1)
    return mesh.tets[:, i].ravel(), mesh.tets[:, j].ravel()


class TestNestedDissection:
    @pytest.mark.parametrize("name", ["small_mesh", "medium_mesh",
                                      "curved_mesh"])
    def test_permutation_of_all_nodes(self, name, request):
        mesh = request.getfixturevalue(name)
        order = geo.nested_dissection(mesh)
        assert np.array_equal(np.sort(order), np.arange(mesh.n_nodes))

    @pytest.mark.parametrize("name", ["medium_mesh", "curved_mesh"])
    def test_top_level_separator(self, name, request):
        mesh = request.getfixturevalue(name)
        order = geo.nested_dissection(mesh)
        n = mesh.n_nodes
        assert n > geo.ND_LEAF
        left = np.zeros(n, dtype=bool)
        left[order[:n // 2]] = True

        # the left part is the lower half along the longest extent
        axis = np.argmax(np.ptp(mesh.nodes, axis=0))
        x = mesh.nodes[:, axis]
        assert x[left].max() <= x[~left].min()

        # the separator is every right node sharing an edge with the left,
        # and it comes last
        a, b = tet_edges(mesh)
        cut = left[a] != left[b]
        sep = np.unique(np.where(left[a], b, a)[cut])
        assert len(sep) > 0
        assert np.array_equal(np.sort(order[n - len(sep):]), sep)

        # without it, no tet edge joins the two parts
        rest = np.zeros(n, dtype=bool)
        rest[order[n // 2:n - len(sep)]] = True
        assert not ((left[a] & rest[b]) | (rest[a] & left[b])).any()

    def test_deterministic(self, curved_mesh):
        assert np.array_equal(geo.nested_dissection(curved_mesh),
                              geo.nested_dissection(curved_mesh))

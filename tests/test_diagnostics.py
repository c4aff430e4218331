import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import swirlfem as sf
from swirlfem import diagnostics as dg
from swirlfem import vtkio

from conftest import zero_state


def rotation_state(mesh, omega=1.0, step_index=0):
    state = zero_state(mesh, step_index=step_index)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    state.velocity[:, 0] = -omega * y
    state.velocity[:, 1] = omega * x
    return state


def axis_curve(spec):
    return dg.CentralCurve.straight_axis((spec.z_min, spec.z_max))


class TestQCriterion:
    def test_rigid_rotation(self, medium_mesh):
        q_elem = dg.q_criterion(rotation_state(medium_mesh), medium_mesh)
        assert np.abs(q_elem - 1.0).max() < 1e-10

    def test_rigid_rotation_scales_with_omega_squared(self, small_mesh):
        q_elem = dg.q_criterion(rotation_state(small_mesh, omega=2.5),
                                   small_mesh)
        assert np.abs(q_elem - 6.25).max() < 1e-9

    def test_pure_shear(self, medium_mesh):
        state = zero_state(medium_mesh)
        state.velocity[:, 0] = medium_mesh.nodes[:, 1]
        q_elem = dg.q_criterion(state, medium_mesh)
        assert np.abs(q_elem).max() < 1e-10

    def test_uniform_translation(self, medium_mesh):
        state = zero_state(medium_mesh)
        state.velocity[:] = [0.4, -0.2, 1.0]
        q_elem = dg.q_criterion(state, medium_mesh)
        assert np.abs(q_elem).max() < 1e-12

    def test_galilean_invariance(self, medium_mesh):
        state = sf.sample_initial_state(
            medium_mesh, sf.ProfileKind.STRAIGHT_FRAME, sf.straight_domain())
        q1 = dg.q_criterion(state, medium_mesh)
        state.velocity += np.array([3.0, -1.0, 0.5])
        q2 = dg.q_criterion(state, medium_mesh)
        assert np.abs(q1 - q2).max() < 1e-12

    def test_linear_superposition_against_hand_gradient(self, small_mesh):
        a = np.array([[0.0, -1.0, 0.3],
                      [1.0, 0.0, 0.0],
                      [0.2, 0.0, 0.0]])
        state = zero_state(small_mesh)
        state.velocity[:] = small_mesh.nodes @ a.T
        w = 0.5 * (a - a.T)
        s = 0.5 * (a + a.T)
        expected = 0.5 * ((w * w).sum() - (s * s).sum())
        q_elem = dg.q_criterion(state, small_mesh)
        assert np.abs(q_elem - expected).max() < 1e-10


class TestEnergyAndMomentum:
    def test_unit_speed_gives_half_volume(self, medium_mesh):
        state = zero_state(medium_mesh)
        state.velocity[:, 2] = 1.0
        assert abs(dg.kinetic_energy(state, medium_mesh)
                   - 0.5 * medium_mesh.total_volume()) < 1e-12

    def test_zero_field(self, medium_mesh, straight_spec):
        state = zero_state(medium_mesh)
        regions = dg.region_decomposition(medium_mesh,
                                          axis_curve(straight_spec))
        total, split = dg.kinetic_energy(state, medium_mesh, regions)
        assert total == 0.0
        assert all(v == 0.0 for v in split.values())
        l_total = dg.angular_momentum(state, medium_mesh,
                                      axis_curve(straight_spec))
        assert np.all(l_total == 0.0)

    def test_rigid_rotation_closed_forms(self, straight_spec):
        # E = 1/4 omega^2 pi H r^4, L_z = omega pi H r^4 / 2 on the cylinder
        H, omega = 0.625, 1.0
        e_exact = 0.25 * omega ** 2 * np.pi * H
        l_exact = omega * np.pi * H / 2.0
        errs_e, errs_l = [], []
        for n_r in (8, 16):
            mesh = sf.build_straight_mesh(straight_spec, n_r=n_r, n_z=8)
            state = rotation_state(mesh, omega)
            e = dg.kinetic_energy(state, mesh)
            l = dg.angular_momentum(state, mesh, axis_curve(straight_spec))
            assert abs(l[0]) < 1e-12 and abs(l[1]) < 1e-12
            errs_e.append(abs(e - e_exact) / e_exact)
            errs_l.append(abs(l[2] - l_exact) / l_exact)
        assert errs_e[0] < 0.05 and errs_l[0] < 0.05
        assert errs_e[1] < errs_e[0] and errs_l[1] < errs_l[0]

    def test_partition_reconstructs_totals(self, medium_mesh, straight_spec):
        state = sf.sample_initial_state(
            medium_mesh, sf.ProfileKind.STRAIGHT_FRAME, straight_spec)
        curve = axis_curve(straight_spec)
        regions = dg.region_decomposition(medium_mesh, curve)
        e_total, e_split = dg.kinetic_energy(state, medium_mesh, regions)
        assert abs(sum(e_split.values()) - e_total) < 1e-12 * max(e_total, 1)
        l_total, l_split = dg.angular_momentum(state, medium_mesh, curve,
                                               regions)
        assert np.abs(sum(l_split.values()) - l_total).max() < 1e-12

    def test_region_volume_ordering(self, medium_mesh, straight_spec):
        regions = dg.region_decomposition(medium_mesh,
                                          axis_curve(straight_spec))
        vol = medium_mesh.tet_volumes()
        v = [vol[regions.labels == i].sum() for i in range(3)]
        assert v[0] < v[1] < v[2]

    def test_region_labels_rigid_motion_invariant(self, medium_mesh,
                                                  straight_spec):
        curve = axis_curve(straight_spec)
        before = dg.region_decomposition(medium_mesh, curve).labels

        # translate mesh and curve together
        shift = np.array([0.3, -0.2, 0.1])
        moved = medium_mesh.with_nodes(medium_mesh.nodes + shift)
        coeffs = curve.coeffs.copy()
        coeffs[:, 0] += shift
        curve_moved = dg.CentralCurve(coeffs=coeffs, xi_range=curve.xi_range)
        after = dg.region_decomposition(moved, curve_moved).labels
        assert np.array_equal(before, after)


class TestMaxVelocity:
    def test_uniform_field_picks_lowest_node(self, small_mesh, straight_spec):
        state = zero_state(small_mesh)
        state.velocity[:, 0] = 2.0
        v_max, loc, _ = dg.max_velocity(state, small_mesh, straight_spec)
        assert v_max == 2.0
        assert np.array_equal(loc, small_mesh.nodes[0])

    def test_initial_swirl_peaks_near_axis(self, small_mesh, straight_spec):
        # the profile magnitude climbs toward sqrt(3) approaching the origin,
        # so the nodal argmax sits on the innermost ring next to z=0 (the
        # exact origin node evaluates to (0,0,1) by the axis convention)
        state = sf.sample_initial_state(
            small_mesh, sf.ProfileKind.STRAIGHT_FRAME, straight_spec)
        v_max, loc, d = dg.max_velocity(state, small_mesh, straight_spec)
        assert d <= 1.0 / 4 + 1e-12      # first ring of the n_r=4 mesh
        assert v_max > 1.0


class TestCentralCurve:
    def test_exact_cubic_recovery(self):
        coeffs = np.array([[0.1, -0.3, 0.8, 1.5],
                           [-0.2, 0.4, 0.0, -0.7],
                           [0.0, 1.0, -0.5, 0.25]])
        xi = np.linspace(-0.125, 0.5, 23)
        exact = dg.CentralCurve(coeffs=coeffs, xi_range=(-0.125, 0.5))
        fitted = dg.fit_central_curve(xi, exact.evaluate(xi))
        assert fitted.residual <= 1e-18
        assert np.abs(fitted.coeffs - coeffs).max() < 1e-9

    def test_constant_points(self):
        xi = np.linspace(-0.125, 0.5, 11)
        q = np.array([0.3, -0.1, 0.2])
        fitted = dg.fit_central_curve(xi, np.tile(q, (11, 1)))
        assert np.abs(fitted.coeffs[:, 0] - q).max() < 1e-12
        assert np.abs(fitted.coeffs[:, 1:]).max() < 1e-12

    def test_rejects_rank_deficient_input(self):
        xi = np.array([0.0, 0.0, 1.0, 1.0, 2.0])
        pts = np.zeros((5, 3))
        with pytest.raises(ValueError):
            dg.fit_central_curve(xi, pts)

    def test_noisy_fit_matches_extended_precision_oracle(self):
        import mpmath as mp

        rng = np.random.default_rng(42)
        xi = np.linspace(-0.125, 0.5, 40)
        truth = dg.CentralCurve(
            coeffs=np.array([[0.05, 0.3, -1.2, 2.0],
                             [0.0, -0.9, 0.4, 1.1],
                             [-0.3, 1.0, 0.0, -0.5]]),
            xi_range=(-0.125, 0.5))
        pts = truth.evaluate(xi) + 0.01 * rng.standard_normal((40, 3))
        fitted = dg.fit_central_curve(xi, pts)

        # oracle: brute-force normal equations in 50-digit arithmetic
        mp.mp.dps = 50
        j_oracle = mp.mpf(0)
        for d in range(3):
            A = mp.matrix([[mp.mpf(x) ** k for k in range(4)] for x in xi])
            b = mp.matrix([mp.mpf(v) for v in pts[:, d]])
            ata = A.T * A
            atb = A.T * b
            c = mp.lu_solve(ata, atb)
            r = A * c - b
            j_oracle += sum(r[i] ** 2 for i in range(len(xi))) / 2
        assert abs(fitted.residual - float(j_oracle)) <= 1e-10

    def test_fit_beats_best_constant_curve(self):
        rng = np.random.default_rng(3)
        xi = np.linspace(-0.125, 0.5, 25)
        pts = rng.standard_normal((25, 3))
        fitted = dg.fit_central_curve(xi, pts)
        const_residual = 0.5 * ((pts - pts.mean(axis=0)) ** 2).sum()
        assert fitted.residual <= const_residual + 1e-12


class TestNearestPoint:
    def test_point_on_curve(self):
        curve = dg.CentralCurve(
            coeffs=np.array([[0.0, 1.0, 0.2, 0.0],
                             [0.1, 0.0, -0.3, 0.0],
                             [0.0, 1.0, 0.0, 0.0]]),
            xi_range=(-0.5, 0.5))
        x = curve.evaluate(0.17)
        p, _ = dg.nearest_points_on_curve(curve, x[None])
        assert np.linalg.norm(p[0] - x) < 1e-8

    def test_orthogonal_projection_on_axis(self, straight_spec):
        curve = axis_curve(straight_spec)
        p, _ = dg.nearest_points_on_curve(curve, [[0.3, 0.4, 0.2]])
        assert np.allclose(p[0], [0.0, 0.0, 0.2], atol=1e-8)

    def test_endpoint_clamping(self, straight_spec):
        curve = axis_curve(straight_spec)
        p, _ = dg.nearest_points_on_curve(curve, [[0.0, 0.1, 0.9]])
        assert np.allclose(p[0], [0.0, 0.0, 0.5], atol=1e-10)

    def test_never_worse_than_dense_samples(self):
        rng = np.random.default_rng(9)
        curve = dg.CentralCurve(coeffs=rng.standard_normal((3, 4)),
                                xi_range=(-0.125, 0.5))
        pts = rng.uniform(-1, 1, size=(50, 3))
        found, _ = dg.nearest_points_on_curve(curve, pts)
        d_found = np.linalg.norm(found - pts, axis=1)
        samples = curve.evaluate(np.linspace(-0.125, 0.5, 257))
        d_dense = np.linalg.norm(pts[:, None, :] - samples[None], axis=2).min(axis=1)
        assert np.all(d_found <= d_dense + 1e-12)

    def test_tie_goes_to_smaller_parameter(self):
        # C(xi) = (0, 0, xi^2): both xi = +-0.5 hit (0, 0, 0.25)
        curve = dg.CentralCurve(
            coeffs=np.array([[0.0, 0.0, 0.0, 0.0],
                             [0.0, 0.0, 0.0, 0.0],
                             [0.0, 0.0, 1.0, 0.0]]),
            xi_range=(-1.0, 1.0))
        _, xi = dg.nearest_points_on_curve(curve,
                                           np.array([[0.0, 0.0, 0.25]]))
        assert abs(xi[0] + 0.5) < 1e-6


def dense_distance(curve, pts, n_samples=257):
    """Distance from each point to the nearest of n_samples curve samples."""
    lo, hi = curve.xi_range
    samples = curve.evaluate(np.linspace(lo, hi, n_samples))
    return np.linalg.norm(pts[:, None, :] - samples[None], axis=2).min(axis=1)


_coeff = st.floats(-2.0, 2.0, allow_subnormal=False)


@st.composite
def cubic_curves(draw):
    """Random cubics; a random subset of the powers 1..3 is zeroed, so the
    straight axis, a pure quadratic and a constant curve all occur."""
    coeffs = draw(arrays(float, (3, 4), elements=_coeff))
    powers = draw(st.sets(st.integers(1, 3)))
    for k in range(1, 4):
        if k not in powers:
            coeffs[:, k] = 0.0
    lo = draw(st.floats(-1.0, 1.0))
    width = draw(st.floats(0.01, 2.0))
    return dg.CentralCurve(coeffs=coeffs, xi_range=(lo, lo + width))


class TestNearestPointProperties:
    @settings(max_examples=300, deadline=None)
    @given(curve=cubic_curves(),
           pts=arrays(float, st.tuples(st.integers(1, 12), st.just(3)),
                      elements=st.floats(-2.0, 2.0)))
    @example(curve=dg.CentralCurve.straight_axis((-0.125, 0.5)),
             pts=np.array([[0.3, 0.4, 0.2], [0.0, 0.1, 0.9]]))
    def test_never_worse_than_dense_samples(self, curve, pts):
        found, xi = dg.nearest_points_on_curve(curve, pts)
        lo, hi = curve.xi_range
        assert np.all((xi >= lo) & (xi <= hi))
        assert np.array_equal(found, curve.evaluate(xi))
        d_found = np.linalg.norm(found - pts, axis=1)
        assert np.all(d_found <= dense_distance(curve, pts) + 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(curve=cubic_curves(),
           xi=arrays(float, st.integers(1, 12), elements=st.floats(0.0, 1.0)),
           offset=arrays(float, 3, elements=st.floats(-1e-6, 1e-6)))
    def test_points_next_to_the_curve(self, curve, xi, offset):
        lo, hi = curve.xi_range
        xi = lo + (hi - lo) * xi
        pts = curve.evaluate(xi) + offset
        found, _ = dg.nearest_points_on_curve(curve, pts)
        d_found = np.linalg.norm(found - pts, axis=1)
        assert np.all(d_found <= dense_distance(curve, pts) + 1e-12)
        # away from cusps (C' = 0), where the roots cluster, the curve point
        # a query was made from bounds its distance to round-off
        c, x = curve.coeffs, xi[:, None]
        velocity = c[:, 1] + x * (2.0 * c[:, 2] + 3.0 * x * c[:, 3])
        regular = np.linalg.norm(velocity, axis=1) >= 1e-2
        assert np.all(d_found[regular] <= np.linalg.norm(offset) + 1e-12)


class TestPlaneMinima:
    def test_pressure_z_picks_layer_centers(self, straight_spec):
        mesh = sf.build_straight_mesh(straight_spec, n_r=3, n_z=5)
        mesh = sf.cross_section_planes(straight_spec, 5, mesh)
        state = zero_state(mesh)
        state.pressure[:] = mesh.nodes[:, 2]
        minima, skipped = dg.min_pressure_per_plane(state, mesh)
        assert skipped == []
        assert len(minima) == 6
        # constant within a layer: the tie rule picks the lowest node id,
        # which is the layer's center node by construction
        n_disk = mesh.n_nodes // 6
        assert [m.node for m in minima] == [l * n_disk for l in range(6)]

    def test_radial_pressure_minimum_on_axis(self, straight_spec):
        mesh = sf.build_straight_mesh(straight_spec, n_r=4, n_z=5)
        mesh = sf.cross_section_planes(straight_spec, 5, mesh)
        state = zero_state(mesh)
        state.pressure[:] = (mesh.nodes ** 2).sum(axis=1)
        minima, _ = dg.min_pressure_per_plane(state, mesh)
        for m in minima:
            assert np.hypot(m.point[0], m.point[1]) < 1e-12

    def test_global_minimum_is_returned_for_its_plane(self, straight_spec):
        mesh = sf.build_straight_mesh(straight_spec, n_r=3, n_z=5)
        mesh = sf.cross_section_planes(straight_spec, 5, mesh)
        state = zero_state(mesh)
        state.pressure[:] = 1.0
        k = mesh.n_nodes // 2
        state.pressure[k] = -5.0
        minima, _ = dg.min_pressure_per_plane(state, mesh)
        plane = mesh.plane_bin[k]
        hit = [m for m in minima if m.plane == plane]
        assert hit[0].node == k

    def test_empty_bins_are_skipped(self, straight_spec):
        mesh = sf.build_straight_mesh(straight_spec, n_r=2, n_z=2)
        mesh = sf.cross_section_planes(straight_spec, 100, mesh)
        state = zero_state(mesh)
        minima, skipped = dg.min_pressure_per_plane(state, mesh)
        assert len(minima) + len(skipped) == 101
        assert len(minima) == 3          # one bin per node layer

    def test_requires_bins(self, straight_spec):
        mesh = sf.build_straight_mesh(straight_spec, n_r=2, n_z=2)
        with pytest.raises(ValueError):
            dg.min_pressure_per_plane(zero_state(mesh), mesh)


class TestCurveSpeed:
    @staticmethod
    def series(positions, times):
        out = []
        for t, (px, py) in zip(times, positions):
            coeffs = np.zeros((3, 4))
            coeffs[0, 0] = px
            coeffs[1, 0] = py
            coeffs[2, 1] = 1.0
            out.append((t, dg.CentralCurve(coeffs=coeffs,
                                           xi_range=(-0.125, 0.5))))
        return out

    def test_stationary_series(self):
        s = self.series([(0.1, 0.2)] * 5, np.linspace(0, 1, 5))
        assert dg.central_curve_speed(s, (0.0, 1.0)) == 0.0

    def test_linear_drift(self):
        times = np.linspace(0.0, 2.0, 9)
        speed = 0.37
        pos = [(-speed * t * 0.6, speed * t * 0.8) for t in times]
        s = self.series(pos, times)
        assert abs(dg.central_curve_speed(s, (0.0, 2.0)) - speed) < 1e-12

    def test_window_selection_and_errors(self):
        times = np.linspace(0.0, 1.0, 11)
        pos = [(t, 0.0) for t in times]
        s = self.series(pos, times)
        assert abs(dg.central_curve_speed(s, (0.5, 1.0)) - 1.0) < 1e-12
        with pytest.raises(ValueError):
            dg.central_curve_speed(s[:1], (0.0, 1.0))


class TestStructures:
    @staticmethod
    def face_adjacency_oracle(mesh):
        faces = {}
        adj = [[] for _ in range(mesh.n_tets)]
        for e, tet in enumerate(mesh.tets):
            for skip in range(4):
                key = tuple(sorted(v for i, v in enumerate(tet) if i != skip))
                if key in faces:
                    other = faces[key]
                    adj[e].append(other)
                    adj[other].append(e)
                else:
                    faces[key] = e
        return adj

    @classmethod
    def flood_fill_oracle(cls, mesh, selected):
        adj = cls.face_adjacency_oracle(mesh)
        selected = set(int(v) for v in selected)
        seen, comps = set(), []
        for start in sorted(selected):
            if start in seen:
                continue
            comp, queue = set(), [start]
            seen.add(start)
            while queue:
                e = queue.pop()
                comp.add(e)
                for n in adj[e]:
                    if n in selected and n not in seen:
                        seen.add(n)
                        queue.append(n)
            comps.append(frozenset(comp))
        return set(comps)

    def test_empty_and_single(self, medium_mesh):
        q = np.zeros(medium_mesh.n_tets)
        assert dg.connected_vortex_structures(medium_mesh, q, 50.0).count == 0
        q[137] = 100.0
        out = dg.connected_vortex_structures(medium_mesh, q, 50.0)
        assert out.count == 1
        assert list(out.components[0].elements) == [137]

    def test_two_gaussian_blobs_match_flood_fill(self, medium_mesh):
        cen = medium_mesh.tet_centroids()
        blob = lambda c, w: np.exp(-((cen - c) ** 2).sum(axis=1) / w ** 2)
        q = 300.0 * blob(np.array([0.5, 0.0, 0.1]), 0.15) \
            + 300.0 * blob(np.array([-0.5, 0.0, 0.25]), 0.15)
        out = dg.connected_vortex_structures(medium_mesh, q, 50.0)
        assert out.count == 2
        oracle = self.flood_fill_oracle(medium_mesh, np.nonzero(q >= 50.0)[0])
        found = {frozenset(int(e) for e in c.elements)
                 for c in out.components}
        assert found == oracle
        assert out.components[0].volume >= out.components[1].volume
        for comp in out.components:
            assert comp.max_q >= 50.0
            assert np.isfinite(comp.centroid).all()

    def test_partition_invariant_under_relabeling(self, medium_mesh,
                                                  straight_spec):
        import swirlfem.geometry as geo

        cen = medium_mesh.tet_centroids()
        q = 300.0 * np.exp(-((cen - [0.2, 0.1, 0.2]) ** 2).sum(axis=1) / 0.3 ** 2)
        rng = np.random.default_rng(8)
        perm = rng.permutation(medium_mesh.n_tets)
        permuted = geo.Mesh(
            nodes=medium_mesh.nodes,
            tets=medium_mesh.tets[perm],
            boundary_faces=medium_mesh.boundary_faces,
            boundary_nodes=medium_mesh.boundary_nodes,
            h=medium_mesh.h,
        )
        out = dg.connected_vortex_structures(medium_mesh, q, 40.0)
        out_p = dg.connected_vortex_structures(permuted, q[perm], 40.0)
        assert out.count == out_p.count
        sets = {frozenset(int(e) for e in c.elements)
                for c in out.components}
        sets_p = {frozenset(int(perm[e]) for e in c.elements)
                  for c in out_p.components}
        assert sets == sets_p

    def test_rejects_nonpositive_threshold(self, medium_mesh):
        with pytest.raises(ValueError):
            dg.connected_vortex_structures(
                medium_mesh, np.zeros(medium_mesh.n_tets), 0.0)


class TestComputeRecord:
    def test_full_record(self, straight_spec):
        mesh = sf.build_straight_mesh(straight_spec, n_r=4, n_z=5)
        mesh = sf.cross_section_planes(straight_spec, 20, mesh)
        state = sf.sample_initial_state(
            mesh, sf.ProfileKind.STRAIGHT_FRAME, straight_spec)
        rec = dg.compute_record(state, mesh, straight_spec)
        assert rec.t == 0.0
        assert rec.e_total > 0
        assert abs(sum(rec.e_regions.values()) - rec.e_total) < 1e-12
        assert set(rec.structure_counts) == {50.0, 250.0, 750.0}

        # delta_E, delta_L (CSV columns 16, 17) of a repeated state are 0
        q = (50.0, 250.0, 750.0)
        row = vtkio.record_to_row(rec, q)
        assert row[16:18] == [0.0, 0.0]
        rec2 = dg.compute_record(state, mesh, straight_spec)
        assert vtkio.record_to_row(rec2, q, prev_row=row)[16:18] == [0.0, 0.0]

    @pytest.fixture(scope="class")
    def binned_mesh(self, straight_spec, curved_spec):
        mesh = sf.map_to_torus(
            sf.build_straight_mesh(straight_spec, n_r=4, n_z=5), curved_spec)
        mesh = sf.cross_section_planes(curved_spec, 20, mesh)
        return mesh

    def test_record_projects_centroids_once(self, binned_mesh, curved_spec,
                                            monkeypatch):
        state = sf.sample_initial_state(
            binned_mesh, sf.ProfileKind.CURVED_FRAME, curved_spec)
        calls = []
        project = dg.nearest_points_on_curve

        def counted(*args, **kwargs):
            calls.append(len(args[1]))
            return project(*args, **kwargs)

        monkeypatch.setattr(dg, "nearest_points_on_curve", counted)
        dg.compute_record(state, binned_mesh, curved_spec)
        assert calls == [binned_mesh.n_tets]

    def test_momentum_from_regions_matches_standalone(self, binned_mesh,
                                                      curved_spec):
        state = sf.sample_initial_state(
            binned_mesh, sf.ProfileKind.CURVED_FRAME, curved_spec)
        curve, _ = dg.fit_curve_from_state(state, binned_mesh, curved_spec)
        regions = dg.region_decomposition(binned_mesh, curve)
        alone = dg.angular_momentum(state, binned_mesh, curve)
        total, split = dg.angular_momentum(state, binned_mesh, curve, regions)
        assert np.abs(total - alone).max() <= 1e-14
        assert np.abs(sum(split.values()) - total).max() <= 1e-12

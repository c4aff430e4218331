import numpy as np
import pytest

import swirlfem as sf
from swirlfem import fem


@pytest.fixture(scope="module")
def tiny_mesh(straight_spec):
    return sf.build_straight_mesh(straight_spec, n_r=2, n_z=3)


def lumped_mass(mesh):
    """int(phi_i) = sum of V_e / 4 over the tets at node i, by a plain loop."""
    out = np.zeros(mesh.n_nodes)
    for vol, tet in zip(mesh.tet_volumes(), mesh.tets):
        out[tet] += vol / 4.0
    return out


class TestMassMatrix:
    def test_total_mass_is_volume(self, tiny_mesh):
        m = fem.assemble_mass(tiny_mesh)
        ones = np.ones(tiny_mesh.n_nodes)
        assert abs(ones @ (m @ ones) - tiny_mesh.total_volume()) < 1e-13

    def test_row_sums_equal_lumped(self, tiny_mesh):
        m = fem.assemble_mass(tiny_mesh)
        lumped = lumped_mass(tiny_mesh)
        assert np.abs(np.asarray(m.sum(axis=1)).ravel() - lumped).max() < 1e-14

    def test_against_dense_oracle(self, tiny_mesh):
        # independent assembly: integrate phi_i phi_j by the exact formula
        # V (1 + delta_ij) / 20 with a plain python loop
        n = tiny_mesh.n_nodes
        dense = np.zeros((n, n))
        vols = tiny_mesh.tet_volumes()
        for e, tet in enumerate(tiny_mesh.tets):
            for a in range(4):
                for b in range(4):
                    dense[tet[a], tet[b]] += vols[e] * (1 + (a == b)) / 20.0
        assert np.abs(fem.assemble_mass(tiny_mesh).toarray() - dense).max() < 1e-14


class TestStiffness:
    def test_annihilates_constants(self, tiny_mesh):
        k = fem.assemble_stiffness(tiny_mesh)
        ones = np.ones(tiny_mesh.n_nodes)
        assert np.abs(k @ ones).max() < 1e-12

    def test_energy_of_linear_field(self, tiny_mesh):
        c = np.array([0.3, -1.1, 0.7])
        u = tiny_mesh.nodes @ c
        k = fem.assemble_stiffness(tiny_mesh)
        expected = (c @ c) * tiny_mesh.total_volume()
        assert abs(u @ (k @ u) - expected) < 1e-12
        assert abs(fem.mesh_h1_seminorm(tiny_mesh, u) - np.sqrt(expected)) < 1e-12


class TestDivergenceBlocks:
    def test_linear_velocity_divergence(self, tiny_mesh):
        gx, gy, gz = fem.assemble_divergence(tiny_mesh)
        vel = tiny_mesh.nodes * np.array([2.0, -1.0, 3.0])  # div = 4
        div_weak = gx.T @ vel[:, 0] + gy.T @ vel[:, 1] + gz.T @ vel[:, 2]
        # against int(div * phi_i) = 4 * int(phi_i), the mass row sums
        row_sums = np.asarray(fem.assemble_mass(tiny_mesh).sum(axis=1)).ravel()
        assert np.abs(div_weak - 4.0 * row_sums).max() < 1e-13

    def test_element_divergence_norm(self, tiny_mesh):
        vel = tiny_mesh.nodes * np.array([2.0, -1.0, 3.0])
        expected = 4.0 * np.sqrt(tiny_mesh.total_volume())
        assert abs(fem.divergence_l2(tiny_mesh, vel) - expected) < 1e-12


class TestQuadrature:
    def test_rule_integrates_quadratics(self):
        # on the reference simplex via one unit tet of the mesh: check that
        # sum_q w phi_i(x_q) equals int(phi_i)/V = 1/4 exactly
        col = fem.TET4_BARY.sum(axis=0) * fem.TET4_WEIGHT
        assert np.abs(col - 0.25).max() < 1e-15
        # and the rule is exact for products phi_i phi_j: (1+delta)/20
        prod = fem.TET4_WEIGHT * fem.TET4_BARY.T @ fem.TET4_BARY
        assert np.abs(prod - (np.ones((4, 4)) + np.eye(4)) / 20.0).max() < 1e-15

    def test_scatter_matches_mass_for_p1_fields(self, tiny_mesh):
        nodal = tiny_mesh.nodes @ np.array([1.0, 2.0, -0.5]) + 0.3
        at_quad = fem.field_at_quadrature(tiny_mesh, nodal)
        load = fem.scatter_quadrature_load(tiny_mesh, at_quad)
        m = fem.assemble_mass(tiny_mesh)
        assert np.abs(load - m @ nodal).max() < 1e-13

    def test_vector_scatter(self, tiny_mesh):
        nodal = tiny_mesh.nodes.copy()
        at_quad = fem.field_at_quadrature(tiny_mesh, nodal)
        load = fem.scatter_quadrature_load(tiny_mesh, at_quad)
        m = fem.assemble_mass(tiny_mesh)
        for d in range(3):
            assert np.abs(load[:, d] - m @ nodal[:, d]).max() < 1e-13


class TestGradients:
    def test_linear_scalar_gradient(self, tiny_mesh):
        c = np.array([0.5, 1.5, -2.0])
        g = fem.gradient_per_element(tiny_mesh, tiny_mesh.nodes @ c)
        assert np.abs(g - c).max() < 1e-12

    def test_linear_vector_gradient(self, tiny_mesh):
        a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        vel = tiny_mesh.nodes @ a.T
        g = fem.gradient_per_element(tiny_mesh, vel)
        assert np.abs(g - a).max() < 1e-12

    def test_l2_norm_of_constant(self, tiny_mesh):
        ones = np.ones(tiny_mesh.n_nodes)
        assert abs(fem.mesh_l2_norm(tiny_mesh, ones)
                   - np.sqrt(tiny_mesh.total_volume())) < 1e-12

"""P1 element machinery on the mesh's cached geometry: block assembly,
quadrature, mesh norms.

Mass, stiffness and divergence-coupling integrals of P1 products are exact;
only the semi-Lagrangian right-hand side (solver module) needs a quadrature
rule, provided here as the 4-point degree-2 tet rule.
"""

import numpy as np
import scipy.sparse as sp

from .geometry import Mesh

# 4-point symmetric tet quadrature, exact for quadratics; rows are the
# barycentric coordinates of the points, weights are 1/4 each.
_QA = 0.5854101966249685
_QB = 0.1381966011250105
TET4_BARY = np.array([
    [_QA, _QB, _QB, _QB],
    [_QB, _QA, _QB, _QB],
    [_QB, _QB, _QA, _QB],
    [_QB, _QB, _QB, _QA],
])
TET4_WEIGHT = 0.25


def _assemble(mesh: Mesh, local: np.ndarray) -> sp.csr_matrix:
    """Scatter (n_tets, 4, 4) local matrices into a CSR matrix."""
    n = mesh.n_nodes
    rows = np.repeat(mesh.tets, 4, axis=1).ravel()
    cols = np.tile(mesh.tets, (1, 4)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n))
    return mat.tocsr()


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """Consistent P1 mass matrix: int(phi_i phi_j) = V (1 + delta_ij) / 20."""
    base = (np.ones((4, 4)) + np.eye(4)) / 20.0
    local = mesh.tet_volumes()[:, None, None] * base[None]
    return _assemble(mesh, local)


def assemble_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """P1 stiffness matrix: int(grad phi_i . grad phi_j)."""
    grads = mesh.basis_gradients()
    local = np.einsum("e,eik,ejk->eij", mesh.tet_volumes(), grads, grads)
    return _assemble(mesh, local)


def assemble_divergence(mesh: Mesh):
    """Coupling blocks (G_d)_ij = int(phi_j d(phi_i)/dx_d) for d = x, y, z.

    G_d p gives the pressure term of the momentum rows; G_d^T v_d accumulates
    the discrete divergence rows.
    """
    vol, grads = mesh.tet_volumes(), mesh.basis_gradients()
    blocks = []
    for d in range(3):
        # d(phi_i)/dx_d is element-constant and int(phi_j) = V/4
        local = (vol[:, None] / 4.0 * grads[:, :, d])[:, :, None]
        local = np.broadcast_to(local, (mesh.n_tets, 4, 4))
        blocks.append(_assemble(mesh, np.ascontiguousarray(local)))
    return tuple(blocks)


def quadrature_points(mesh: Mesh) -> np.ndarray:
    """(n_tets, 4, 3) physical positions of the 4-point rule."""
    return np.einsum("qv,evd->eqd", TET4_BARY, mesh.nodes[mesh.tets])


def field_at_quadrature(mesh: Mesh, nodal: np.ndarray) -> np.ndarray:
    """Interpolate a nodal field to the quadrature points of each element."""
    vals = nodal[mesh.tets]
    if vals.ndim == 3:
        return np.einsum("qv,evd->eqd", TET4_BARY, vals)
    return np.einsum("qv,ev->eq", TET4_BARY, vals)


def scatter_quadrature_load(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """Assemble int(phi_i f) from f sampled at the 4-point rule.

    values has shape (n_tets, 4) or (n_tets, 4, ncomp); returns (n_nodes,)
    or (n_nodes, ncomp).
    """
    vol = mesh.tet_volumes()
    if values.ndim == 3:
        local = TET4_WEIGHT * np.einsum(
            "e,qv,eqd->evd", vol, TET4_BARY, values)
        out = np.empty((mesh.n_nodes, values.shape[2]))
        for d in range(values.shape[2]):
            out[:, d] = np.bincount(mesh.tets.ravel(),
                                    weights=local[:, :, d].ravel(),
                                    minlength=mesh.n_nodes)
        return out
    local = TET4_WEIGHT * np.einsum("e,qv,eq->ev", vol, TET4_BARY, values)
    return np.bincount(mesh.tets.ravel(), weights=local.ravel(),
                       minlength=mesh.n_nodes)


def gradient_per_element(mesh: Mesh, nodal: np.ndarray) -> np.ndarray:
    """Element-constant gradient of a nodal field.

    Returns (n_tets, 3) for scalar input, (n_tets, ncomp, 3) for vector
    input (rows = components, columns = derivative directions).
    """
    grads = mesh.basis_gradients()
    vals = nodal[mesh.tets]
    if vals.ndim == 3:
        return np.einsum("evc,evd->ecd", vals, grads)
    return np.einsum("ev,evd->ed", vals, grads)


def mesh_l2_norm(mesh: Mesh, nodal: np.ndarray) -> float:
    """L2 norm of a P1 field (component-wise via the consistent mass)."""
    m = assemble_mass(mesh)
    x = np.atleast_2d(nodal.T).T  # (n, c)
    total = 0.0
    for d in range(x.shape[1]):
        total += float(x[:, d] @ (m @ x[:, d]))
    return float(np.sqrt(max(total, 0.0)))


def mesh_h1_seminorm(mesh: Mesh, nodal: np.ndarray) -> float:
    """H1 seminorm: sqrt(sum_e V_e |grad u|^2) with element gradients."""
    g = gradient_per_element(mesh, nodal)
    sq = (g * g).sum(axis=tuple(range(1, g.ndim)))
    return float(np.sqrt((mesh.tet_volumes() * sq).sum()))


def divergence_l2(mesh: Mesh, velocity: np.ndarray) -> float:
    """L2 norm of the element-wise divergence of a P1 velocity field."""
    g = gradient_per_element(mesh, velocity)
    div = g[:, 0, 0] + g[:, 1, 1] + g[:, 2, 2]
    return float(np.sqrt((mesh.tet_volumes() * div * div).sum()))

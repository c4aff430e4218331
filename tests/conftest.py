import numpy as np
import pytest

import swirlfem as sf


@pytest.fixture(scope="session")
def straight_spec():
    return sf.straight_domain()


@pytest.fixture(scope="session")
def curved_spec():
    return sf.curved_domain(R=1.5)


@pytest.fixture(scope="session")
def small_mesh(straight_spec):
    """Straight mesh with a node at the origin (n_z divisible by 5)."""
    return sf.build_straight_mesh(straight_spec, n_r=4, n_z=5)


@pytest.fixture(scope="session")
def medium_mesh(straight_spec):
    return sf.build_straight_mesh(straight_spec, n_r=6, n_z=6)


@pytest.fixture(scope="session")
def curved_mesh(straight_spec, curved_spec):
    straight = sf.build_straight_mesh(straight_spec, n_r=6, n_z=6)
    return sf.map_to_torus(straight, curved_spec)


def zero_state(mesh, step_index=0):
    return sf.FieldState(step_index=step_index, time=0.0,
                         velocity=np.zeros((mesh.n_nodes, 3)),
                         pressure=np.zeros(mesh.n_nodes))


def nearest_centroid_seeds(mesh, points):
    """Walk seeds for points with no tet of their own: the tet whose
    centroid is nearest, by brute force over every tet."""
    cen = mesh.tet_centroids()
    pts = np.atleast_2d(points)
    d2 = ((pts[:, None, :] - cen[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)

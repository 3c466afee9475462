"""Shared test meshes, and the RT0 basis as an oracle."""

import numpy as np
import pytest

from egns.mesh import Mesh2D, build_rect_uniform
from egns.reconstruction import rt_scale


@pytest.fixture
def shuffled_mesh():
    """Factory for a perturbed, renumbered nx x ny unit-square mesh.

    As in tests/test_mesh.py: interior vertices move by up to 0.03, which
    keeps every triangle counterclockwise while nx, ny <= 5, and vertices
    are numbered at random; here each triangle also starts its vertex
    cycle at a random corner.
    """

    def make(seed=8, nx=5, ny=4):
        rng = np.random.default_rng(seed)
        base = build_rect_uniform(nx, ny)
        interior = np.ones(base.num_vertices, dtype=bool)
        interior[base.edges[base.boundary_edge_indices]] = False
        verts = base.vertices.copy()
        verts[interior] += rng.uniform(-0.03, 0.03, (int(interior.sum()), 2))
        perm = rng.permutation(base.num_vertices)
        tris = np.argsort(perm)[base.triangles]
        shift = rng.integers(0, 3, base.num_triangles)
        tris = np.take_along_axis(tris, (np.arange(3) + shift[:, None]) % 3, axis=1)
        return Mesh2D.from_arrays(verts[perm], tris)

    return make


@pytest.fixture
def rt_basis():
    """The RT0 basis evaluated on per-element point sets, (NT, nq, 2) ->
    (NT, nq, 3, 2): on element T, s_k (x - p_k) for local edge k, p_k the
    vertex opposite it.  The library integrates against it in closed form;
    the tests check those forms against its quadrature.
    """

    def basis(mesh, points):
        P = mesh.vertices[mesh.triangles]
        return rt_scale(mesh)[:, None, :, None] * (points[:, :, None, :] - P[:, None, :, :])

    return basis

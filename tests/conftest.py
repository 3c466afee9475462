"""Shared test meshes, the RT0 basis, a classical load and a force's L2
norm as oracles, and a forced continuation failure."""

import numpy as np
import pytest

import egns.solver
from egns.eg_space import dof_count, vertex_values
from egns.mesh import Mesh2D, build_rect_uniform
from egns.quadrature import LOAD_RULE, NORM_RULE
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


@pytest.fixture
def classical_load():
    """The load of the classical twin that is not pressure robust, in
    assemble_load's signature: the body force tested against the P1 hat
    functions of the continuous part, degree-5 rule, edge entries zero.
    egns tests the force against the RT0 reconstruction instead, so that
    gradient forces leave the velocity alone.
    """

    def load(mesh, f):
        points, weights = LOAD_RULE
        X = points @ mesh.vertices[mesh.triangles]
        fv = np.asarray(f(X.reshape(-1, 2)), dtype=float).reshape(X.shape)
        # the hat of local vertex k at a rule point is its barycentric coordinate k
        moments = mesh.areas[:, None, None] * np.einsum("q,qk,tqd->tkd", weights,
                                                        points, fv)
        vec = np.zeros(dof_count(mesh))
        for d in range(2):
            vertex_values(mesh, vec)[:, d] = np.bincount(
                mesh.triangles.ravel(), moments[..., d].ravel(), minlength=mesh.num_vertices)
        return vec

    return load


@pytest.fixture
def force_l2_norm():
    """The L2 norm of a force f, (N, 2) -> (N, 2), on a mesh by the
    degree-8 rule: the right side of the energy stability bound."""

    def norm(mesh, f):
        points, weights = NORM_RULE
        X = points @ mesh.vertices[mesh.triangles]
        fv = np.asarray(f(X.reshape(-1, 2))).reshape(X.shape)
        return float(np.sqrt(mesh.areas @ np.einsum("q,tqd->t", weights, fv**2)))

    return norm


@pytest.fixture
def fail_first_solve_at(monkeypatch):
    """Force a continuation stage to fail: given a target, the first
    solve at it gets one Newton iteration, which cannot converge.  Returns
    the (nu, initial) calls of newton_solve, collected from then on."""

    def install(target):
        calls = []
        real = egns.solver.newton_solve

        def spy(problem, config=None, initial=None):
            if problem.nu == target and all(nu != target for nu, _ in calls):
                config = egns.solver.NewtonConfig(max_iter=1)
            calls.append((problem.nu, initial))
            return real(problem, config, initial)

        monkeypatch.setattr(egns.solver, "newton_solve", spy)
        return calls

    return install

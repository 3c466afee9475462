"""Enriched velocity space: interpolation, broken operators, stabilization."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from egns.mesh import Mesh2D, MeshError, build_rect_uniform
from egns.quadrature import gauss_1d, quadrature_rule
from egns.eg_space import (
    DofMap,
    dof_count,
    edge_values,
    element_divergence,
    element_ops,
    energy_norm,
    energy_operators,
    interpolate,
    vertex_values,
)


def _zero_field(mesh):
    return np.zeros(dof_count(mesh))


# Per-element and per-edge oracles over the batched element operators.


def edge_normal_average(endpoint_values, n_e):
    """Average normal component of a linear trace given its endpoint values."""
    return float(0.5 * (endpoint_values[0] + endpoint_values[1]) @ n_e)


def normal_trace_average(mesh, x):
    """Per-edge average of the continuous part's normal component, (NE,)."""
    va = vertex_values(mesh, x)[mesh.edges[:, 0]]
    vb = vertex_values(mesh, x)[mesh.edges[:, 1]]
    return np.einsum("ed,ed->e", 0.5 * (va + vb), mesh.edge_normal)


def modified_gradient_local(mesh, t, local_dofs):
    """Broken gradient on element t for a local dof vector, as a 2x2 tensor."""
    return (energy_operators(mesh)[0][t] @ np.asarray(local_dofs)).reshape(2, 2)


def modified_divergence_local(mesh, t, scalars):
    """Broken divergence on element t from its three local edge scalars."""
    return float((element_ops(mesh)["div"][t] * np.asarray(scalars)).sum() / mesh.areas[t])


def stabilization_local(mesh, t):
    """Symmetric positive semidefinite 9x9 penalty kernel on element t.

    Quadratic form: (1/h_T) sum over the element's edges of edge length
    times the squared gap between the average continuous normal trace and
    the edge scalar.  Viscosity is applied at assembly.
    """
    _, QB, stab_w = energy_operators(mesh)
    return np.einsum("k,ki,kj->ij", stab_w[t], QB[t], QB[t])


def _quintic_vortex(xy):
    # smooth divergence-free test field, zero on the unit-square boundary
    x, y = xy[..., 0], xy[..., 1]
    u = 10 * x**2 * (x - 1) ** 2 * y * (y - 1) * (2 * y - 1)
    v = -10 * x * (x - 1) * (2 * x - 1) * y**2 * (y - 1) ** 2
    return np.stack([u, v], axis=-1)


def _linear_field(xy):
    x, y = xy[..., 0], xy[..., 1]
    return np.stack([1.0 + 2.0 * x - y, -0.5 + 3.0 * x + 4.0 * y], axis=-1)


_LINEAR_GRAD = np.array([[2.0, -1.0], [3.0, 4.0]])


class TestEdgeNormalAverage:
    def test_constant_field_aligned_normal(self):
        val = edge_normal_average(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1.0, 0.0]))
        assert val == 1.0

    def test_affine_endpoints(self):
        ends = np.array([[0.0, 1.0], [2.0, 3.0]])
        n = np.array([0.6, 0.8])
        assert edge_normal_average(ends, n) == pytest.approx(2.2, abs=1e-15)

    def test_tangential_field_gives_zero(self):
        # field (x^2, 0) sampled at the endpoints of the edge x=0
        ends = np.array([[0.0, 0.0], [0.0, 0.0]])
        assert edge_normal_average(ends, np.array([1.0, 0.0])) == 0.0


class TestInterpolate:
    def test_nodal_values_exact(self):
        mesh = build_rect_uniform(4, 4)
        field = interpolate(mesh, _quintic_vortex)
        assert np.array_equal(vertex_values(mesh, field), _quintic_vortex(mesh.vertices))

    def test_edge_moments_match_high_order_oracle(self):
        mesh = build_rect_uniform(16, 16)
        field = interpolate(mesh, _quintic_vortex)
        t10, w10 = gauss_1d(10)
        a = mesh.vertices[mesh.edges[:, 0]]
        b = mesh.vertices[mesh.edges[:, 1]]
        pts = a[:, None, :] * (1 - t10)[None, :, None] + b[:, None, :] * t10[None, :, None]
        vals = _quintic_vortex(pts.reshape(-1, 2)).reshape(len(a), 10, 2)
        oracle = np.einsum("q,eqd,ed->e", w10, vals, mesh.edge_normal)
        assert np.abs(edge_values(mesh, field) - oracle).max() < 1e-12

    def test_boundary_edge_values_vanish_for_vortex(self):
        # the field is zero on the boundary, so its normal fluxes are too
        mesh = build_rect_uniform(8, 8)
        field = interpolate(mesh, _quintic_vortex)
        assert np.abs(edge_values(mesh, field)[mesh.boundary_edge_indices]).max() < 1e-14


class TestModifiedGradient:
    def test_exact_on_interpolated_linears(self):
        mesh = build_rect_uniform(3, 3, (0.0, 0.0, 2.0, 1.0))
        field = interpolate(mesh, _linear_field)
        dofs = field[element_ops(mesh)["l2g"]]
        for t in range(mesh.num_triangles):
            G = modified_gradient_local(mesh, t, dofs[t])
            assert np.abs(G - _LINEAR_GRAD).max() < 1e-12

    def test_against_basis_tensor_oracle(self):
        mesh = build_rect_uniform(3, 3)
        rng = np.random.default_rng(42)
        tq, wq = gauss_1d(4)
        for trial in range(20):
            t = int(rng.integers(mesh.num_triangles))
            dofs = rng.standard_normal(9)
            got = modified_gradient_local(mesh, t, dofs)
            want = self._oracle(mesh, t, dofs, tq, wq)
            assert np.abs(got - want).max() < 1e-13 * max(1.0, np.abs(want).max())

    @staticmethod
    def _oracle(mesh, t, dofs, tq, wq):
        # define the gradient by testing against the four basis tensors,
        # edge integrals by 4-point Gauss
        tri = mesh.triangles[t]
        area = mesh.areas[t]
        G = np.zeros(4)
        for comp in range(4):
            E = np.zeros(4)
            E[comp] = 1.0
            E = E.reshape(2, 2)
            rhs = 0.0
            for k in range(3):
                e = mesh.triangle_edges[t, k]
                sig = mesh.triangle_edge_sign[t, k]
                la, lb = (k + 1) % 3, (k + 2) % 3
                pa, pb = mesh.vertices[tri[la]], mesh.vertices[tri[lb]]
                L = mesh.edge_lengths[e]
                nout = sig * mesh.edge_normal[e]
                En = E @ nout
                nxEn = nout[0] * En[1] - nout[1] * En[0]
                nEn = nout @ En
                vb = dofs[6 + k]
                va = np.array([dofs[la], dofs[3 + la]])
                vbnd = np.array([dofs[lb], dofs[3 + lb]])
                acc = 0.0
                for q in range(len(tq)):
                    v0 = (1 - tq[q]) * va + tq[q] * vbnd
                    nxv0 = nout[0] * v0[1] - nout[1] * v0[0]
                    acc += wq[q] * (vb * sig * nEn + nxv0 * nxEn)
                rhs += L * acc
            G[comp] = rhs / area
        return G.reshape(2, 2)


class TestModifiedDivergence:
    def test_reference_triangle_value(self):
        mesh = Mesh2D.from_arrays(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            np.array([[0, 1, 2]]),
        )
        # all three edges are boundary edges, so every sign is +1; choosing
        # every edge value 1 makes the length-weighted flux sum the perimeter
        vals = np.ones(3)
        got = modified_divergence_local(mesh, 0, vals)
        assert got == pytest.approx(2 * (2 + math.sqrt(2)), rel=1e-14)

    def test_matches_elementwise_vector_version(self):
        mesh = build_rect_uniform(4, 3)
        rng = np.random.default_rng(3)
        field = _zero_field(mesh)
        edge_values(mesh, field)[:] = rng.standard_normal(mesh.num_edges)
        div = element_divergence(mesh, field)
        for t in (0, 5, 11):
            vals = edge_values(mesh, field)[mesh.triangle_edges[t]]
            assert div[t] == pytest.approx(
                modified_divergence_local(mesh, t, vals), rel=1e-14
            )

    def test_zero_for_interpolated_divergence_free_field(self):
        mesh = build_rect_uniform(8, 8)
        field = interpolate(mesh, _quintic_vortex)
        assert np.abs(element_divergence(mesh, field)).max() < 1e-11


class TestStabilization:
    def test_positive_semidefinite(self):
        mesh = build_rect_uniform(2, 2)
        for t in range(mesh.num_triangles):
            S = stabilization_local(mesh, t)
            assert np.allclose(S, S.T)
            w = np.linalg.eigvalsh(S)
            assert w.min() > -1e-12 * max(1.0, w.max())

    def test_single_edge_enrichment_value(self):
        mesh = build_rect_uniform(2, 2)
        t = 0
        S = stabilization_local(mesh, t)
        for k in range(3):
            e = mesh.triangle_edges[t, k]
            v = np.zeros(9)
            v[6 + k] = 1.0
            got = v @ S @ v
            want = mesh.edge_lengths[e] / mesh.h_T[t]
            assert got == pytest.approx(want, rel=1e-14)

    def test_matches_finite_difference_hessian(self):
        mesh = build_rect_uniform(3, 2)
        t = 4

        def qform(v):
            # independent scalar evaluation of the per-element penalty term
            total = 0.0
            tri = mesh.triangles[t]
            for k in range(3):
                e = mesh.triangle_edges[t, k]
                la, lb = (k + 1) % 3, (k + 2) % 3
                n_e = mesh.edge_normal[e]
                qa = np.array([v[la], v[3 + la]])
                qb_ = np.array([v[lb], v[3 + lb]])
                avg = 0.5 * (qa + qb_) @ n_e
                jump = avg - v[6 + k]
                total += mesh.edge_lengths[e] / mesh.h_T[t] * jump**2
            return total

        S = stabilization_local(mesh, t)
        H = np.zeros((9, 9))
        basis = np.eye(9)
        for i in range(9):
            for j in range(9):
                H[i, j] = 0.5 * (
                    qform(basis[i] + basis[j]) - qform(basis[i]) - qform(basis[j])
                )
        assert np.abs(S - H).max() < 1e-10

    def test_kernel_contains_interpolated_linears(self):
        mesh = build_rect_uniform(3, 3)
        field = interpolate(mesh, _linear_field)
        dofs = field[element_ops(mesh)["l2g"]]
        for t in range(0, mesh.num_triangles, 5):
            S = stabilization_local(mesh, t)
            assert dofs[t] @ S @ dofs[t] < 1e-13


class TestEnergyNorm:
    def test_zero_field(self):
        mesh = build_rect_uniform(2, 2)
        assert energy_norm(mesh, _zero_field(mesh)) == 0.0

    def test_homogeneous_of_degree_one(self):
        mesh = build_rect_uniform(3, 3)
        rng = np.random.default_rng(7)
        field = rng.standard_normal(2 * mesh.num_vertices + mesh.num_edges)
        doubled = 2 * field
        assert energy_norm(mesh, doubled) == pytest.approx(
            2 * energy_norm(mesh, field), rel=1e-13
        )

    def test_linear_field_value(self):
        # interpolated linear field: stabilization vanishes and the broken
        # gradient equals the constant true gradient on every element
        mesh = build_rect_uniform(4, 4, (0.0, 0.0, 2.0, 2.0))
        field = interpolate(mesh, _linear_field)
        want = math.sqrt(4.0 * (_LINEAR_GRAD**2).sum())
        assert energy_norm(mesh, field) == pytest.approx(want, rel=1e-12)


class TestQuasiCommutativity:
    def test_cubic_field(self):
        # elementwise: modified divergence of the interpolant equals the
        # element average of the true divergence
        def w(xy):
            x, y = xy[..., 0], xy[..., 1]
            return np.stack(
                [x**3 - 2 * x * y**2 + 1.0, x**2 * y + y**3 - x], axis=-1
            )

        def div_w(xy):
            x, y = xy[..., 0], xy[..., 1]
            return (3 * x**2 - 2 * y**2) + (x**2 + 3 * y**2)

        mesh = build_rect_uniform(8, 8)
        field = interpolate(mesh, w)
        got = element_divergence(mesh, field)
        rule = quadrature_rule(5)
        pts = rule.physical_points(mesh)
        want = np.einsum("q,tq->t", rule.weights, div_w(pts))
        assert np.abs(got - want).max() < 1e-12


def _free_dof_map(mesh):
    n = dof_count(mesh)
    return DofMap(constrained=np.zeros(n, dtype=bool), values=np.zeros(n))


class TestDofMap:
    def test_layout_and_total(self):
        mesh = build_rect_uniform(2, 2)
        nv = mesh.num_vertices
        assert dof_count(mesh) == 2 * nv + mesh.num_edges
        vec = _zero_field(mesh)
        vertex_values(mesh, vec)[3] = (1.0, 2.0)
        edge_values(mesh, vec)[5] = 3.0
        assert np.array_equal(np.flatnonzero(vec), [3, nv + 3, 2 * nv + 5])
        assert np.array_equal(vec[[3, nv + 3, 2 * nv + 5]], [1.0, 2.0, 3.0])

    def test_vertex_values_views_the_p1_blocks(self):
        mesh = build_rect_uniform(3, 2)
        nv = mesh.num_vertices
        rng = np.random.default_rng(11)
        vec = rng.standard_normal(2 * nv + mesh.num_edges)
        view = vertex_values(mesh, vec)
        assert view.shape == (nv, 2)
        assert np.shares_memory(view, vec)
        assert np.array_equal(view, np.column_stack([vec[:nv], vec[nv : 2 * nv]]))

    @pytest.mark.parametrize("dtype", [float, bool])
    def test_writes_through_the_views_change_the_dof_vector(self, dtype):
        # dirichlet_dof_map sets its values and its constrained flags so
        mesh = build_rect_uniform(3, 2)
        nv, vec = mesh.num_vertices, np.zeros(dof_count(mesh), dtype=dtype)
        vertex_values(mesh, vec)[[1, 4]] = 1
        edge_values(mesh, vec)[[0, 6]] = 1
        assert edge_values(mesh, vec).shape == (mesh.num_edges,)
        assert np.flatnonzero(vec).tolist() == [1, 4, nv + 1, nv + 4, 2 * nv, 2 * nv + 6]

    def test_free_indices_with_constraints(self):
        mesh = build_rect_uniform(2, 2)
        dm = _free_dof_map(mesh)
        dm.constrained[0] = True
        dm.values[0] = 2.5
        assert 0 not in dm.free_indices()
        assert dm.free_indices().size == dof_count(mesh) - 1


@pytest.mark.parametrize("spellings, owners", [
    # every other module reaches the blocks through dof_count, vertex_values
    # and edge_values; mesh.py's "nv + " counts .m2d records
    (("2 * nv", "2 * mesh.num_vertices", "nv + "), ("eg_space.py", "mesh.py")),
    # every per-mesh cache goes through mesh.per_mesh
    (("._cache",), ("mesh.py",)),
    # sigma |e| comes from element_ops(mesh)["div"]
    (("triangle_edge_sign",), ("mesh.py", "eg_space.py")),
    # D, QB and the penalty weights: built per call, read by energy_norm
    # and by _viscous_unit once per mesh
    (("energy_operators(",), ("eg_space.py", "assembly.py")),
    # triangle rules integrate data: the body force and the exact fields;
    # the discrete fields' integrals are closed forms
    (("quadrature_rule(", ".physical_points("),
     ("quadrature.py", "assembly.py:assemble_load", "verification.py:error_norms")),
    # the RT0 basis is integrated against by element moments, never evaluated
    (("rt_basis(",), ()),
    # the environment sets one thing: the worker cap of egns converge
    (("os.environ", "getenv("), ("cli.py:worker_count",)),
    # threads only serve egns converge's levels
    (("ThreadPoolExecutor(",), ("cli.py:cmd_converge",)),
    # a problem owns its viscosity: only the continuation moves it
    (("with_nu(",), ("assembly.py", "solver.py:nu_continuation")),
], ids=["dof-layout", "per-mesh-cache", "edge-sign", "energy-blocks", "data-quadrature",
        "rt-moments", "environment", "one-pool", "viscosity"])
def test_each_rule_has_one_owner(spellings, owners):
    # an owner is a module, or "module:name" for one top-level definition in it
    src = Path(__file__).resolve().parents[1] / "src" / "egns"
    hits = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        where = {n: f"{path.name}:{node.name}" for node in ast.parse(text).body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 for n in range(node.lineno, node.end_lineno + 1)}
        hits += [f"{path.name}:{n}" for n, line in enumerate(text.splitlines(), 1)
                 if any(spelling in line for spelling in spellings)
                 and path.name not in owners and where.get(n) not in owners]
    assert hits == []


def test_element_ops_keeps_no_viscous_block():
    # the Newton loop never reads D (NT, 4, 9), QB (NT, 3, 9) or the
    # weights: the cache keeps what it reads
    mesh = build_rect_uniform(4, 3)
    nt = mesh.num_triangles
    ops = element_ops(mesh)
    assert sorted(ops) == ["curl", "div", "gradl", "l2g"]
    assert all(v.shape not in ((nt, 4, 9), (nt, 3, 9)) for v in ops.values())
    D, QB, stab_w = energy_operators(mesh)
    assert (D.shape, QB.shape, stab_w.shape) == ((nt, 4, 9), (nt, 3, 9), (nt, 3))
    assert energy_operators(mesh)[0] is not D  # uncached


class TestDegenerateElements:
    def test_sliver_triggers_singular_element_error(self):
        # a sliver would make the broken operators singular: the mesh refuses it
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-16]])
        tris = np.array([[0, 1, 2]])
        with pytest.raises(MeshError, match="triangle 0 has area 5.000e-17, below 1.000e-14"):
            Mesh2D.from_arrays(verts, tris)


class TestNormalTraceAverage:
    def test_matches_scalar_version(self):
        mesh = build_rect_uniform(3, 3)
        rng = np.random.default_rng(5)
        field = _zero_field(mesh)
        vertex_values(mesh, field)[:] = rng.standard_normal((mesh.num_vertices, 2))
        avg = normal_trace_average(mesh, field)
        for e in (0, 7, mesh.num_edges - 1):
            ends = vertex_values(mesh, field)[mesh.edges[e]]
            assert avg[e] == pytest.approx(
                edge_normal_average(ends, mesh.edge_normal[e]), rel=1e-14
            )

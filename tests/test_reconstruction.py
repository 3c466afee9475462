"""Divergence-conforming reconstruction of enriched velocity fields."""

import math

import numpy as np
import pytest

from egns.mesh import Mesh2D, build_rect_uniform
from egns.eg_space import element_divergence, interpolate
from egns.reconstruction import reconstruct, rt_at_centroids


def _rt_evaluate(mesh, edge_values, t, point):
    """Oracle: pointwise evaluation on element t, one basis function at a time.

    Points outside the element (barycentric coordinates below -1e-12) are
    rejected.
    """
    point = np.asarray(point, dtype=float)
    tri = mesh.triangles[t]
    p = mesh.vertices[tri]
    area2 = 2.0 * mesh.areas[t]
    lam = np.empty(3)
    for k in range(3):
        a = p[(k + 1) % 3]
        b = p[(k + 2) % 3]
        cross = (b[0] - a[0]) * (point[1] - a[1]) - (b[1] - a[1]) * (point[0] - a[0])
        lam[k] = cross / area2
    if lam.min() < -1e-12:
        raise ValueError(
            f"point {point.tolist()} lies outside triangle {t} "
            f"(barycentric minimum {lam.min():.3e})"
        )
    out = np.zeros(2)
    for k in range(3):
        e = mesh.triangle_edges[t, k]
        L = mesh.edge_lengths[e]
        sig = mesh.triangle_edge_sign[t, k]
        out += edge_values[e] * sig * (L / (2.0 * mesh.areas[t])) * (point - p[k])
    return out


def _edges(mesh, x):
    """The edge block of the dof vector x, a view."""
    return x[2 * mesh.num_vertices :]


def _rt_divergence_all(mesh, field):
    """Oracle: divergence of the reconstruction per element, (NT,)."""
    coeff = _edges(mesh, field)[mesh.triangle_edges]
    L = mesh.edge_lengths[mesh.triangle_edges]
    return (L * mesh.triangle_edge_sign * coeff).sum(axis=1) / mesh.areas


def _evaluate_at(mesh, field, t, point):
    """The reconstruction on element t at one point."""
    points = np.broadcast_to(np.asarray(point, dtype=float), (mesh.num_triangles, 1, 2))
    return reconstruct(mesh, field, points)[t, 0]


def _reference_mesh():
    return Mesh2D.from_arrays(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0, 1, 2]]),
    )


def _hypotenuse_field(mesh):
    # the edge joining (1,0) and (0,1) sits opposite vertex (0,0)
    field = np.zeros(2 * mesh.num_vertices + mesh.num_edges)
    for e in range(3):
        if set(mesh.edges[e]) == {1, 2}:
            _edges(mesh, field)[e] = 1.0
    return field


def _random_field(mesh, seed):
    rng = np.random.default_rng(seed)
    vertex = rng.standard_normal((mesh.num_vertices, 2))
    return np.concatenate([vertex[:, 0], vertex[:, 1], rng.standard_normal(mesh.num_edges)])


class TestReconstruct:
    def test_coefficients_copy_edge_values(self, rt_basis):
        # the basis coefficients are the edge values, and the field is
        # left untouched
        mesh = build_rect_uniform(3, 3)
        field = _random_field(mesh, 1)
        before = field.copy()
        points = mesh.vertices[mesh.triangles].mean(axis=1)[:, None, :] + 0.01
        got = reconstruct(mesh, field, points)
        coeff = _edges(mesh, field)[mesh.triangle_edges]
        want = np.einsum("tqkd,tk->tqd", rt_basis(mesh, points), coeff)
        assert np.abs(got - want).max() < 1e-13
        assert np.array_equal(field, before)

    def test_divergence_preserved_exactly(self):
        mesh = build_rect_uniform(4, 3)
        field = _random_field(mesh, 2)
        assert np.array_equal(_rt_divergence_all(mesh, field), element_divergence(mesh, field))


class TestEvaluate:
    def test_hypotenuse_basis_on_reference_triangle(self):
        mesh = _reference_mesh()
        got = _evaluate_at(mesh, _hypotenuse_field(mesh), 0, [1.0 / 3, 1.0 / 3])
        want = math.sqrt(2.0) * np.array([1.0 / 3, 1.0 / 3])
        assert np.allclose(got, want, atol=1e-14)

    def test_normal_component_matches_edge_value_from_both_sides(self):
        mesh = build_rect_uniform(3, 3)
        field = _random_field(mesh, 3)
        for e in range(mesh.num_edges):
            t0, t1 = mesh.edge_to_triangles[e]
            mid = mesh.vertices[mesh.edges[e]].mean(axis=0)
            for t in (t0, t1):
                if t < 0:
                    continue
                val = _evaluate_at(mesh, field, int(t), mid)
                assert val @ mesh.edge_normal[e] == pytest.approx(
                    _edges(mesh, field)[e], rel=1e-12, abs=1e-13
                )

    def test_interpolated_field_reproduces_edge_moments(self):
        # reconstruction of the interpolant carries the analytic edge fluxes
        def w(xy):
            x, y = xy[..., 0], xy[..., 1]
            return np.stack([x**2 + y, x - y**2], axis=-1)

        mesh = build_rect_uniform(4, 4)
        field = interpolate(mesh, w)
        for e in (0, 9, 20, mesh.num_edges - 1):
            t = int(mesh.edge_to_triangles[e, 0])
            mid = mesh.vertices[mesh.edges[e]].mean(axis=0)
            val = _evaluate_at(mesh, field, t, mid)
            assert val @ mesh.edge_normal[e] == pytest.approx(
                _edges(mesh, field)[e], rel=1e-13
            )

    def test_outside_point_rejected(self):
        mesh = _reference_mesh()
        with pytest.raises(ValueError, match="outside"):
            _rt_evaluate(mesh, np.ones(3), 0, np.array([0.8, 0.8]))

    def test_point_on_edge_accepted(self):
        mesh = _reference_mesh()
        _rt_evaluate(mesh, np.ones(3), 0, np.array([0.5, 0.5]))
        _rt_evaluate(mesh, np.ones(3), 0, np.array([0.0, 0.0]))


class TestDivergence:
    def test_hypotenuse_value_on_reference_triangle(self):
        mesh = _reference_mesh()
        got = element_divergence(mesh, _hypotenuse_field(mesh))
        assert got[0] == pytest.approx(2 * math.sqrt(2), rel=1e-14)

    def test_matches_finite_differences(self):
        mesh = build_rect_uniform(2, 2)
        field = _random_field(mesh, 4)
        t = 3
        centroid = mesh.vertices[mesh.triangles[t]].mean(axis=0)
        h = 1e-6
        dx = (
            _evaluate_at(mesh, field, t, centroid + [h, 0])
            - _evaluate_at(mesh, field, t, centroid - [h, 0])
        ) / (2 * h)
        dy = (
            _evaluate_at(mesh, field, t, centroid + [0, h])
            - _evaluate_at(mesh, field, t, centroid - [0, h])
        ) / (2 * h)
        assert dx[0] + dy[1] == pytest.approx(element_divergence(mesh, field)[t], abs=1e-7)


def test_centroid_values_match_pointwise_evaluation():
    mesh = build_rect_uniform(3, 2)
    field = _random_field(mesh, 5)
    vals = rt_at_centroids(mesh, field)
    for t in (0, 4, mesh.num_triangles - 1):
        centroid = mesh.vertices[mesh.triangles[t]].mean(axis=0)
        want = _rt_evaluate(mesh, _edges(mesh, field), t, centroid)
        assert np.allclose(vals[t], want, atol=1e-14)

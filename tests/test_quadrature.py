"""Exactness checks for the triangle and edge quadrature tables."""

import math

import numpy as np
import pytest

from egns.quadrature import EDGE_RULE, LOAD_RULE, NORM_RULE

# the triangle rules by the degree they are exact to
TRIANGLE_RULES = {5: LOAD_RULE, 8: NORM_RULE}


def _reference_integral(m, n):
    # integral of x^m y^n over the triangle (0,0),(1,0),(0,1)
    return math.factorial(m) * math.factorial(n) / math.factorial(m + n + 2)


def _rule_integral(rule, m, n):
    # barycentric (l1,l2,l3) maps to (x,y) = (l2, l3); reference area is 1/2
    points, weights = rule
    x = points[:, 1]
    y = points[:, 2]
    return 0.5 * np.sum(weights * x**m * y**n)


@pytest.mark.parametrize("degree", [5, 8])
def test_rules_integrate_monomials_exactly(degree):
    rule = TRIANGLE_RULES[degree]
    for m in range(degree + 1):
        for n in range(degree + 1 - m):
            got = _rule_integral(rule, m, n)
            assert got == pytest.approx(_reference_integral(m, n), abs=1e-14)


@pytest.mark.parametrize("degree", [5, 8])
def test_weights_positive_and_sum_to_one(degree):
    points, weights = TRIANGLE_RULES[degree]
    assert np.all(weights > 0)
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(points.sum(axis=1), 1.0, atol=1e-14)
    assert np.all(points >= -1e-14)


def test_degree_eight_rule_integrates_x4y4():
    points, weights = NORM_RULE
    assert points.shape == (16, 3) and weights.shape == (16,)
    got = _rule_integral(NORM_RULE, 4, 4)
    assert got == pytest.approx(_reference_integral(4, 4), abs=1e-15)


def test_physical_points_shape():
    # the map every caller applies: points @ mesh.vertices[mesh.triangles]
    from egns.mesh import build_rect_uniform

    mesh = build_rect_uniform(2, 2)
    points, _ = LOAD_RULE
    pts = points @ mesh.vertices[mesh.triangles]
    assert pts.shape == (mesh.num_triangles, points.shape[0], 2)
    # all points strictly inside their triangles: barycentrics positive
    assert np.isfinite(pts).all()


def test_gauss_1d_exactness():
    t, w = EDGE_RULE
    assert t.shape == w.shape == (4,)
    for degree in range(8):
        assert np.dot(w, t**degree) == pytest.approx(1.0 / (degree + 1), abs=1e-15)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)


def test_rules_are_read_only():
    for rule in (LOAD_RULE, NORM_RULE, EDGE_RULE):
        for array in rule:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


@pytest.mark.parametrize("degree", [5, 8])
def test_physical_points_match_barycentric_sum(shuffled_mesh, degree):
    mesh = shuffled_mesh()
    points, weights = TRIANGLE_RULES[degree]
    got = points @ mesh.vertices[mesh.triangles]
    assert got.shape == (mesh.num_triangles, weights.size, 2)
    for t, tri in enumerate(mesh.triangles):
        for q, lam in enumerate(points):
            ref = sum(lam[k] * mesh.vertices[tri[k]] for k in range(3))
            assert np.abs(got[t, q] - ref).max() <= 1e-15

"""Exactness checks for the triangle and edge quadrature tables."""

import math

import numpy as np
import pytest

from egns.quadrature import gauss_1d, quadrature_rule, refined_rule


def _reference_integral(m, n):
    # integral of x^m y^n over the triangle (0,0),(1,0),(0,1)
    return math.factorial(m) * math.factorial(n) / math.factorial(m + n + 2)


def _rule_integral(rule, m, n):
    # barycentric (l1,l2,l3) maps to (x,y) = (l2, l3); reference area is 1/2
    x = rule.points[:, 1]
    y = rule.points[:, 2]
    return 0.5 * np.sum(rule.weights * x**m * y**n)


@pytest.mark.parametrize("degree", [5, 8])
def test_rules_integrate_monomials_exactly(degree):
    rule = quadrature_rule(degree)
    for m in range(degree + 1):
        for n in range(degree + 1 - m):
            got = _rule_integral(rule, m, n)
            assert got == pytest.approx(_reference_integral(m, n), abs=1e-14)


@pytest.mark.parametrize("degree", [5, 8])
def test_weights_positive_and_sum_to_one(degree):
    rule = quadrature_rule(degree)
    assert np.all(rule.weights > 0)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)
    assert np.all(rule.points >= -1e-14)


def test_degree_eight_rule_integrates_x4y4():
    got = _rule_integral(quadrature_rule(8), 4, 4)
    assert got == pytest.approx(_reference_integral(4, 4), abs=1e-15)


def test_unsupported_degree_lists_supported_range():
    # degree 2 among them: the discrete fields' integrals are closed forms
    for degree in (0, 2, 3, 11):
        with pytest.raises(ValueError, match=f"degree {degree}; tabulated: 5, 8"):
            quadrature_rule(degree)


def test_refined_rule_keeps_exactness_degree():
    rule = refined_rule(quadrature_rule(8))
    assert rule.points.shape == (4 * quadrature_rule(8).points.shape[0], 3)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-13)
    for m in range(9):
        for n in range(9 - m):
            got = _rule_integral(rule, m, n)
            assert got == pytest.approx(_reference_integral(m, n), abs=1e-14)


def test_refined_rule_shrinks_degree_ten_error():
    base = quadrature_rule(8)
    ref = refined_rule(base)
    exact = _reference_integral(5, 5)
    err_base = abs(_rule_integral(base, 5, 5) - exact)
    err_ref = abs(_rule_integral(ref, 5, 5) - exact)
    assert err_ref < err_base / 100


def test_physical_points_shape():
    from egns.mesh import build_rect_uniform

    mesh = build_rect_uniform(2, 2)
    rule = quadrature_rule(5)
    pts = rule.physical_points(mesh)
    assert pts.shape == (mesh.num_triangles, rule.points.shape[0], 2)
    # all points strictly inside their triangles: barycentrics positive
    assert np.isfinite(pts).all()


def test_gauss_1d_exactness():
    t, w = gauss_1d(2)
    assert np.dot(w, t**3) == pytest.approx(0.25, abs=1e-15)
    t, w = gauss_1d(4)
    assert np.dot(w, t**7) == pytest.approx(0.125, abs=1e-15)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)


def test_gauss_1d_rejects_zero_points():
    with pytest.raises(ValueError):
        gauss_1d(0)


@pytest.mark.parametrize("degree", [5, 8])
def test_physical_points_match_barycentric_sum(shuffled_mesh, degree):
    mesh = shuffled_mesh()
    for rule in (quadrature_rule(degree), refined_rule(quadrature_rule(degree))):
        got = rule.physical_points(mesh)
        assert got.shape == (mesh.num_triangles, rule.weights.size, 2)
        for t, tri in enumerate(mesh.triangles):
            for q, lam in enumerate(rule.points):
                ref = sum(lam[k] * mesh.vertices[tri[k]] for k in range(3))
                assert np.abs(got[t, q] - ref).max() <= 1e-15

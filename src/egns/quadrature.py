"""Symmetric Gauss quadrature on triangles and Gauss-Legendre rules on edges.

Triangle rules are stored in barycentric coordinates with weights summing to
one; integrals scale by the physical element area at use.  Two classical
symmetric rules with positive weights are tabulated, both for data: degree 5
for the load's body force, degree 8 for the exact fields of the error norms.
Integrands of the discrete fields alone are integrated in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureRule", "quadrature_rule", "refined_rule", "gauss_1d", "EDGE_RULE"]


@dataclass(frozen=True)
class QuadratureRule:
    """Points in barycentric coordinates, weights summing to one."""

    points: np.ndarray  # (n, 3)
    weights: np.ndarray  # (n,)

    def physical_points(self, mesh):
        """Map rule points into every triangle: returns (NT, n, 2)."""
        return self.points @ mesh.vertices[mesh.triangles]


def _orbit1():
    return np.array([[1.0, 1.0, 1.0]]) / 3.0


def _orbit3(a):
    b = 1.0 - 2.0 * a
    return np.array([[b, a, a], [a, b, a], [a, a, b]])


def _orbit6(a, b):
    c = 1.0 - a - b
    return np.array(
        [[a, b, c], [a, c, b], [b, a, c], [b, c, a], [c, a, b], [c, b, a]]
    )


def _rule(chunks):
    pts = np.vstack([p for p, _ in chunks])
    wts = np.concatenate([np.full(p.shape[0], w) for p, w in chunks])
    wts = wts / wts.sum()  # remove table roundoff at the 1e-16 level
    pts.flags.writeable = False
    wts.flags.writeable = False
    return QuadratureRule(points=pts, weights=wts)


_RULES = {
    # the load against the RT0 reconstruction
    5: _rule(
        [
            (_orbit1(), 0.225),
            (_orbit3(0.470142064105115), 0.132394152788506),
            (_orbit3(0.101286507323456), 0.125939180544827),
        ]
    ),
    # the error norms, refined
    8: _rule(
        [
            (_orbit1(), 0.1443156076777840),
            (_orbit3(0.4592925882927182), 0.0950916342672856),
            (_orbit3(0.1705693077517527), 0.1032173705347250),
            (_orbit3(0.0505472283170320), 0.0324584976232003),
            (_orbit6(0.0083947774099438, 0.2631128296346699), 0.0272303141744305),
        ]
    ),
}


def quadrature_rule(degree):
    """The tabulated symmetric rule exact up to degree: 5 or 8."""
    try:
        return _RULES[degree]
    except KeyError:
        raise ValueError(
            f"no quadrature rule of degree {degree}; tabulated: "
            f"{', '.join(map(str, _RULES))}"
        ) from None


# Barycentric corners of the 4 congruent sub-triangles of a parent triangle.
_SUBTRIANGLES = np.array(
    [
        [[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5]],
        [[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 0.5]],
        [[0.5, 0.0, 0.5], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]],
        [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]],
    ]
)


def refined_rule(rule):
    """Composite rule: the given rule applied on 4 congruent sub-triangles.

    Same exactness degree, roughly 2**(degree+1) times smaller error on
    smooth integrands beyond it.
    """
    pts = np.concatenate(
        [rule.points @ sub for sub in _SUBTRIANGLES], axis=0
    )
    wts = np.tile(rule.weights / 4.0, 4)
    pts.flags.writeable = False
    wts.flags.writeable = False
    return QuadratureRule(points=pts, weights=wts)


def gauss_1d(n):
    """n-point Gauss-Legendre rule on [0, 1]; weights sum to one."""
    if n < 1:
        raise ValueError(f"need at least one point, got {n}")
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


# the edge rule of boundary data and interpolation: exact to degree 7
EDGE_RULE = gauss_1d(4)
EDGE_RULE[0].flags.writeable = EDGE_RULE[1].flags.writeable = False

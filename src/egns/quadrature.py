"""Symmetric Gauss quadrature on triangles and Gauss-Legendre rules on edges.

Triangle rules are stored in barycentric coordinates with weights summing to
one; integrals scale by the physical element area at use.  The tabulated
families are the classical symmetric rules with positive weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureRule", "quadrature_rule", "refined_rule", "gauss_1d", "EDGE_RULE"]


@dataclass(frozen=True)
class QuadratureRule:
    """Points in barycentric coordinates, weights summing to one."""

    degree: int
    points: np.ndarray  # (n, 3)
    weights: np.ndarray  # (n,)

    @property
    def num_points(self):
        return self.points.shape[0]

    def physical_points(self, mesh):
        """Map rule points into every triangle: returns (NT, n, 2)."""
        corners = mesh.vertices[mesh.triangles]  # (NT, 3, 2)
        return np.einsum("qk,tkd->tqd", self.points, corners)


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


def _rule(degree, chunks):
    pts = np.vstack([p for p, _ in chunks])
    wts = np.concatenate([np.full(p.shape[0], w) for p, w in chunks])
    wts = wts / wts.sum()  # remove table roundoff at the 1e-16 level
    pts.flags.writeable = False
    wts.flags.writeable = False
    return QuadratureRule(degree=degree, points=pts, weights=wts)


def _build_rules():
    rules = {}
    rules[1] = _rule(1, [(_orbit1(), 1.0)])
    rules[2] = _rule(2, [(_orbit3(1.0 / 6.0), 1.0 / 3.0)])
    rules[3] = _rule(
        3,
        [(_orbit6(0.659027622374092, 0.231933368553031), 1.0 / 6.0)],
    )
    rules[4] = _rule(
        4,
        [
            (_orbit3(0.445948490915965), 0.223381589678011),
            (_orbit3(0.091576213509771), 0.109951743655322),
        ],
    )
    rules[5] = _rule(
        5,
        [
            (_orbit1(), 0.225),
            (_orbit3(0.470142064105115), 0.132394152788506),
            (_orbit3(0.101286507323456), 0.125939180544827),
        ],
    )
    rules[6] = _rule(
        6,
        [
            (_orbit3(0.249286745170910), 0.116786275726379),
            (_orbit3(0.063089014491502), 0.050844906370207),
            (_orbit6(0.053145049844816, 0.310352451033785), 0.082851075618374),
        ],
    )
    rules[8] = _rule(
        8,
        [
            (_orbit1(), 0.1443156076777840),
            (_orbit3(0.4592925882927182), 0.0950916342672856),
            (_orbit3(0.1705693077517527), 0.1032173705347250),
            (_orbit3(0.0505472283170320), 0.0324584976232003),
            (_orbit6(0.0083947774099438, 0.2631128296346699), 0.0272303141744305),
        ],
    )
    rules[10] = _rule(
        10,
        [
            (_orbit1(), 0.090817990382754),
            (_orbit3(0.485577633383657), 0.036725957756467),
            (_orbit3(0.109481575485037), 0.045321059435528),
            (_orbit6(0.141707219414880, 0.307939838764121), 0.072757916845420),
            (_orbit6(0.025003534762686, 0.246672560639903), 0.028327242531057),
            (_orbit6(0.009540815400299, 0.066803251012200), 0.009421666963733),
        ],
    )
    return rules


_RULES = _build_rules()
_SUPPORTED = tuple(range(1, 11))


def quadrature_rule(degree):
    """Smallest tabulated symmetric rule exact for polynomials up to degree."""
    if degree not in _SUPPORTED:
        raise ValueError(
            f"unsupported quadrature degree {degree}; supported: "
            f"{_SUPPORTED[0]}..{_SUPPORTED[-1]}"
        )
    for d in sorted(_RULES):
        if d >= degree:
            return _RULES[d]
    raise AssertionError("rule table is incomplete")


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
    return QuadratureRule(degree=rule.degree, points=pts, weights=wts)


def gauss_1d(n):
    """n-point Gauss-Legendre rule on [0, 1]; weights sum to one."""
    if n < 1:
        raise ValueError(f"need at least one point, got {n}")
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


# the edge rule of boundary data and interpolation: exact to degree 7
EDGE_RULE = gauss_1d(4)
EDGE_RULE[0].flags.writeable = EDGE_RULE[1].flags.writeable = False

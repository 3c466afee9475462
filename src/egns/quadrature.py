"""The three quadrature rules of the data: load, error norms and edge traces.

Each rule is a read-only ``(points, weights)`` pair built once, with weights
summing to one; integrals scale by the physical element area or edge length
at use.  Triangle points are barycentric, mapped into every triangle by
``points @ mesh.vertices[mesh.triangles]``.  Integrands of the discrete
fields alone are integrated in closed form.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LOAD_RULE", "NORM_RULE", "EDGE_RULE"]


def _orbit3(a):
    b = 1.0 - 2.0 * a
    return np.array([[b, a, a], [a, b, a], [a, a, b]])


def _orbit6(a, b):
    c = 1.0 - a - b
    return np.array(
        [[a, b, c], [a, c, b], [b, a, c], [b, c, a], [c, a, b], [c, b, a]]
    )


def _symmetric(chunks):
    """Points and weights of a symmetric rule from (orbit, weight) chunks."""
    pts = np.vstack([p for p, _ in chunks])
    wts = np.concatenate([np.full(p.shape[0], w) for p, w in chunks])
    return pts, wts / wts.sum()  # remove table roundoff at the 1e-16 level


def _frozen(points, weights):
    points.flags.writeable = weights.flags.writeable = False
    return points, weights


_CENTROID = np.array([[1.0, 1.0, 1.0]]) / 3.0

# the load against the RT0 reconstruction: exact to degree 5
LOAD_RULE = _frozen(*_symmetric([
    (_CENTROID, 0.225),
    (_orbit3(0.470142064105115), 0.132394152788506),
    (_orbit3(0.101286507323456), 0.125939180544827),
]))

# the exact fields of the error norms: exact to degree 8 (Dunavant 1985), its error
# below every digit convergence.csv prints from n = 8 up (the degree-5 rule's is not)
NORM_RULE = _frozen(*_symmetric([
    (_CENTROID, 0.1443156076777840),
    (_orbit3(0.4592925882927182), 0.0950916342672856),
    (_orbit3(0.1705693077517527), 0.1032173705347250),
    (_orbit3(0.0505472283170320), 0.0324584976232003),
    (_orbit6(0.0083947774099438, 0.2631128296346699), 0.0272303141744305),
]))

# boundary data and interpolation, 4-point Gauss-Legendre on [0, 1]: exact
# to degree 7
_x, _w = np.polynomial.legendre.leggauss(4)
EDGE_RULE = _frozen(0.5 * (_x + 1.0), 0.5 * _w)

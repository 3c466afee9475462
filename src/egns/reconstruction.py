"""Lowest-order divergence-conforming reconstruction of enriched velocities.

The reconstruction maps an enriched velocity into the lowest-order
Raviart-Thomas space by matching edge-average normal fluxes.  With the basis
normalized so each basis function has unit normal component along its own
edge (relative to the assigned edge normal), the coefficients are exactly
the edge scalars of the enriched velocity.  The reconstruction preserves the
broken divergence elementwise and is normal-continuous across edges, which
is what decouples the discrete velocity from the pressure's gradient part.

On element T the basis function of local edge k is s_k (x - p_k), with p_k
the vertex opposite the edge and s_k = sigma_k |e_k| / (2 |T|).
"""

from __future__ import annotations

import numpy as np

from .eg_space import edge_values, element_ops

__all__ = ["rt_scale", "reconstruct", "rt_at_centroids"]


def rt_scale(mesh):
    """Basis scales s_k = sigma_k |e_k| / (2 |T|), (NT, 3)."""
    return element_ops(mesh)["div"] / (2.0 * mesh.areas[:, None])


def reconstruct(mesh, u, points):
    """Reconstructed velocity of the dof vector u on per-element point sets,
    (NT, nq, 2) -> (NT, nq, 2).

    No containment check; callers supply points of each element.
    """
    fac = edge_values(mesh, u)[mesh.triangle_edges] * rt_scale(mesh)  # (NT, 3)
    P = mesh.vertices[mesh.triangles]
    # sum_k fac_k (x - p_k) = (sum_k fac_k) x - sum_k fac_k p_k
    s = fac.sum(axis=1)
    shift = np.einsum("tk,tkd->td", fac, P)
    return s[:, None, None] * points - shift[:, None, :]


def rt_at_centroids(mesh, u):
    """Reconstructed velocity of the dof vector u at element centroids, (NT, 2)."""
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    return reconstruct(mesh, u, centroids[:, None, :])[:, 0, :]

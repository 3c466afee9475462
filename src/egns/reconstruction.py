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

__all__ = ["rt_basis", "reconstruct", "rt_at_centroids"]


def _scale(mesh):
    """Basis scales s_k = sigma_k |e_k| / (2 |T|), (NT, 3)."""
    L = mesh.edge_lengths[mesh.triangle_edges]
    return L * mesh.triangle_edge_sign / (2.0 * mesh.areas[:, None])


def rt_basis(mesh, points):
    """Basis values on per-element point sets, points (NT, nq, 2) -> (NT, nq, 3, 2)."""
    P = mesh.vertices[mesh.triangles]  # vertex k is opposite local edge k
    return _scale(mesh)[:, None, :, None] * (points[:, :, None, :] - P[:, None, :, :])


def reconstruct(mesh, u, points):
    """Reconstructed velocity of the dof vector u on per-element point sets,
    (NT, nq, 2) -> (NT, nq, 2).

    No containment check; callers supply points of each element.
    """
    fac = u[2 * mesh.num_vertices + mesh.triangle_edges] * _scale(mesh)  # (NT, 3)
    P = mesh.vertices[mesh.triangles]
    # sum_k fac_k (x - p_k) = (sum_k fac_k) x - sum_k fac_k p_k
    s = fac.sum(axis=1)
    shift = np.einsum("tk,tkd->td", fac, P)
    return s[:, None, None] * points - shift[:, None, :]


def rt_at_centroids(mesh, u):
    """Reconstructed velocity of the dof vector u at element centroids, (NT, 2)."""
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    return reconstruct(mesh, u, centroids[:, None, :])[:, 0, :]

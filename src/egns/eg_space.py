"""Enriched piecewise-linear velocity space and its broken operators.

A velocity field has a continuous piecewise-linear vector part (one 2-vector
per mesh vertex) plus one scalar per edge that corrects the average normal
flux across that edge.  Everywhere in egns a velocity is its dof vector
[v0x | v0y | edge] of dof_count(mesh) entries, whose blocks vertex_values
and edge_values view.  Pressures are piecewise constant per triangle.

The broken gradient is the constant tensor per element defined by testing
against all constant tensors: its boundary functional replaces the normal
component of the continuous trace with the edge scalar while keeping the
tangential component of the continuous part.  The broken divergence is its
trace, which reduces to a length-weighted signed sum of the edge scalars.

Local degrees of freedom on a triangle are ordered as
[v0x at 3 vertices, v0y at 3 vertices, edge scalar at 3 edges], edges listed
so that local edge k sits opposite local vertex k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import per_mesh
from .quadrature import EDGE_RULE

__all__ = [
    "DofMap",
    "dof_count",
    "vertex_values",
    "edge_values",
    "interpolate",
    "edge_trace",
    "element_divergence",
    "energy_operators",
    "energy_norm",
]


@dataclass
class DofMap:
    """Global layout [v0x block | v0y block | edge block] with constraints.

    constrained marks eliminated entries; values holds their data (zero on
    free entries).
    """

    constrained: np.ndarray
    values: np.ndarray

    def free_indices(self):
        return np.flatnonzero(~self.constrained)


def dof_count(mesh):
    """The length of a dof vector: two per vertex, one per edge."""
    return 2 * mesh.num_vertices + mesh.num_edges


def vertex_values(mesh, x):
    """The continuous part of the dof vector x as (NV, 2) nodal vectors, a view."""
    return x[: 2 * mesh.num_vertices].reshape(2, -1).T


def edge_values(mesh, x):
    """The edge scalars of the dof vector x, (NE,), a view."""
    return x[2 * mesh.num_vertices :]


def edge_trace(mesh, u, edges):
    """Edge averages of u's component along the assigned normals of the
    given edges, by the EDGE_RULE."""
    tq, wq = EDGE_RULE
    a = mesh.vertices[mesh.edges[edges, 0]]
    b = mesh.vertices[mesh.edges[edges, 1]]
    pts = a[:, None, :] * (1.0 - tq)[None, :, None] + b[:, None, :] * tq[None, :, None]
    vals = np.asarray(u(pts.reshape(-1, 2)), dtype=float).reshape(
        len(edges), tq.size, 2
    )
    return np.einsum("q,eqd,ed->e", wq, vals, mesh.edge_normal[edges])


def interpolate(mesh, u):
    """Interpolate an analytic vector field into a dof vector: nodal values
    plus edge averages of the normal component.  u maps (..., 2) points to
    (..., 2) values; the edge averages are exact for traces up to degree 7.
    """
    nodal = np.asarray(u(mesh.vertices), dtype=float)
    return np.concatenate(
        [nodal[:, 0], nodal[:, 1], edge_trace(mesh, u, np.arange(mesh.num_edges))])


def _edge_frames(mesh):
    """Per element: edge lengths L, the divergence coefficients sigma_k
    |e_k|, the assigned and the outward normals and the ccw tangents."""
    TE = mesh.triangle_edges
    L = mesh.edge_lengths[TE]
    n_e = mesh.edge_normal[TE]  # assigned normals, (NT, 3, 2)
    sig = mesh.triangle_edge_sign.astype(np.float64)
    nout = sig[..., None] * n_e  # outward normals
    that = np.stack([-nout[..., 1], nout[..., 0]], axis=-1)  # ccw tangents
    return L, L * sig, n_e, nout, that


@per_mesh
def element_ops(mesh):
    """Per-element operator tensors the Newton loop reads, cached on the mesh.

    Returns a dict with, per element: curl coefficients of the continuous
    part, the divergence coefficients div = sigma_k |e_k| of the local
    edges, the barycentric gradients and the local-to-global index map.
    The viscous blocks come from energy_operators, uncached: they are read
    once per mesh.
    """
    tri = mesh.triangles
    L, div, _, nout, _ = _edge_frames(mesh)

    # gradients of the barycentric basis: grad l_k = -L_k n_out_k / (2A)
    gradl = -L[..., None] * nout / (2.0 * mesh.areas[:, None, None])

    # scalar curl of the continuous part: sum_j (dx l_j) v0y_j - (dy l_j) v0x_j
    curl = np.zeros((mesh.num_triangles, 6))
    curl[:, 0:3] = -gradl[:, :, 1]
    curl[:, 3:6] = gradl[:, :, 0]

    nv = mesh.num_vertices
    l2g = np.concatenate([tri, nv + tri, 2 * nv + mesh.triangle_edges], axis=1)
    return {"curl": curl, "l2g": l2g, "div": div, "gradl": gradl}


def energy_operators(mesh):
    """The blocks of the energy norm per element, built on each call.

    Returns (D, QB, stab_w): the 4x9 broken-gradient matrix D (rows are the
    row-major entries of the gradient tensor), the 3x9 penalty rows QB
    (average normal trace minus edge scalar, one row per local edge) and
    the penalty weights |e_k| / h_T.  The viscous matrix is assembled from
    them once per mesh, and energy_norm reads them on its own.
    """
    nt, A = mesh.num_triangles, mesh.areas
    L, div, n_e, nout, that = _edge_frames(mesh)

    # broken gradient: G = (1/A) sum_k L_k [ sigma_k vb_k (n x n)
    #                                        + (t . v0(mid_k)) (t x n) ]
    nn = np.einsum("tki,tkj->tkij", nout, nout).reshape(nt, 3, 4)
    tn = np.einsum("tki,tkj->tkij", that, nout).reshape(nt, 3, 4)
    D = np.zeros((nt, 4, 9))
    for k in range(3):
        D[:, :, 6 + k] = (div[:, k] / A)[:, None] * nn[:, k, :]
        w = 0.5 * L[:, k] / A
        for j in ((k + 1) % 3, (k + 2) % 3):
            D[:, :, j] += (w * that[:, k, 0])[:, None] * tn[:, k, :]
            D[:, :, 3 + j] += (w * that[:, k, 1])[:, None] * tn[:, k, :]

    # penalty rows: average of the continuous normal trace minus edge scalar
    QB = np.zeros((nt, 3, 9))
    for k in range(3):
        for j in ((k + 1) % 3, (k + 2) % 3):
            QB[:, k, j] = 0.5 * n_e[:, k, 0]
            QB[:, k, 3 + j] = 0.5 * n_e[:, k, 1]
        QB[:, k, 6 + k] = -1.0
    return D, QB, L / mesh.h_T[:, None]


def element_divergence(mesh, x):
    """Broken divergence per element of the dof vector x, (NT,)."""
    vb = edge_values(mesh, x)[mesh.triangle_edges]
    return (element_ops(mesh)["div"] * vb).sum(axis=1) / mesh.areas


def energy_norm(mesh, x):
    """Mesh-dependent energy norm: broken-gradient part plus penalty part.

    Its square times viscosity equals the assembled diffusion form's value
    on the diagonal.
    """
    D, QB, stab_w = energy_operators(mesh)
    dofs = x[element_ops(mesh)["l2g"]]
    G = np.einsum("tij,tj->ti", D, dofs)
    grad_part = (mesh.areas * (G**2).sum(axis=1)).sum()
    gaps = np.einsum("tkj,tj->tk", QB, dofs)
    stab_part = (stab_w * gaps**2).sum()
    return float(np.sqrt(grad_part + stab_part))

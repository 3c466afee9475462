"""Divergence-free basis of the velocity space and the dual spanning tree.

The divergence block couples element pressures only to the edge scalars,
so a field of free edge fluxes with zero broken divergence is the
discrete curl of a continuous piecewise-linear stream function psi: the
average normal flux across edge (a, b) is s_e (psi_b - psi_a) / |e|,
where s_e = tau . (b - a) / |e| and tau is the assigned normal turned by
+90 degrees.  A Newton system is then solved over (v0x, v0y, psi) per
free vertex, the null-space method of Benzi, Golub and Liesen (Acta
Numerica 2005), which is pressure robust by construction.  The free
vertices come in a minimum-degree order of the mesh's vertex graph, the
compressed graph of Z^T A Z (Ashcraft, SIAM J. Sci. Comput. 1995).

psi has one value per vertex off the Dirichlet edges.  The homogeneous
flux vanishes on a Dirichlet edge, so psi is constant along each
connected chain of Dirichlet edges: the first chain holds psi = 0 and
every further one (walls split by outflow segments, the boundary of a
hole) adds one shared unknown.

Z is element-local: on triangle T it keeps v0x, v0y and maps the psi at
T's vertices to T's edge fluxes by a 3x3 block G_T.  So Z^T A Z has a
pattern fixed per mesh and constraint set, with explicit zeros: that of
C^T C, C the incidence of the elements and the columns they hold.  A
Newton state sums its element blocks Z_T^T A_T Z_T onto it.

A breadth-first spanning tree of the dual graph over the free edges
replaces a second factorization.  It is rooted at a virtual outside node
when some boundary edge is free, and at element 0 otherwise; each
element hangs from its least neighbour one level up, by its least edge.
Restricted to the tree edges the divergence block is triangular in
breadth-first order: one sweep from the leaves gives a flux with
prescribed divergence, one sweep from the root gives the pressures from
the momentum residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components, shortest_path

from .eg_space import dof_count, edge_values, element_ops, vertex_values
from .mesh import per_mesh

__all__ = ["NullSpace", "null_space"]


@dataclass(frozen=True, eq=False)
class NullSpace:
    """Divergence-free basis Z and the dual spanning tree of one problem.

    Z maps columns 3k to 3k + 2 to v0x, v0y and psi of free vertex k of the
    vertex order, later columns to the psi of further Dirichlet chains;
    its rows on constrained entries are empty.  The tree lists the non-root
    elements by (depth, index), depth by depth from depth_start, each
    with the position of its parent in that order (-1 below the root),
    the dof of the edge to its parent and the divergence
    coefficient sigma |e| of the element on that edge.  closed marks a
    boundary without free edges: the tree is then rooted at element 0
    and pressure fixes the free constant by zero area-weighted mean.
    G holds the blocks G_T, indptr and indices the CSC pattern of Z^T A Z,
    viscous Z^T V Z on it, and slots[T, k, j] the place of the entry in
    the psi row of T's vertex k and T's local column j ([v0x | v0y | psi]
    at its vertices, as its dofs), past the data if Z drops either.
    """

    Z: sp.csr_matrix
    element: np.ndarray
    up: np.ndarray
    edge_dof: np.ndarray
    coef: np.ndarray
    depth_start: np.ndarray
    closed: bool
    areas: np.ndarray
    G: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray
    viscous: np.ndarray

    def reduce(self, blocks):
        """Z^T A Z's data for A given by (NT, 3, 9) edge-row blocks."""
        G, n = self.G, self.indices.size
        psi_rows = np.swapaxes(G, 1, 2).copy() @ np.concatenate(  # contiguous: faster
            [blocks[..., :6], blocks[..., 6:] @ G], axis=2)
        return np.bincount(self.slots.ravel(), psi_rows.ravel(), minlength=n + 1)[:n]

    def particular(self, rhs_p):
        """A velocity u with B u = rhs_p, nonzero on the tree edges only.

        The flux out of an element through its parent edge is the sum of
        rhs_p over its subtree.  Below a root element, that element's own
        equation holds only if rhs_p sums to zero.
        """
        q = rhs_p[self.element]
        s = self.depth_start
        for d in range(len(s) - 2, 0, -1):
            lo, hi = s[d], s[d + 1]
            q[s[d - 1] : lo] += np.bincount(
                self.up[lo:hi] - s[d - 1], weights=q[lo:hi], minlength=lo - s[d - 1]
            )
        u = np.zeros(self.Z.shape[0])
        u[self.edge_dof] = q / self.coef
        return u

    def pressure(self, residual):
        """Element pressures p with B^T p = residual on the tree edges.

        On a closed boundary, p has zero area-weighted mean.
        """
        p_tree = residual[self.edge_dof] / self.coef
        s = self.depth_start
        for d in range(1, len(s) - 1):
            lo, hi = s[d], s[d + 1]
            p_tree[lo:hi] += p_tree[self.up[lo:hi]]
        # every element is in the tree except a root element
        p = np.zeros(self.element.size + self.closed)
        p[self.element] = p_tree
        if self.closed:
            p -= (self.areas @ p) / self.areas.sum()
        return p


@per_mesh
def _vertex_order(mesh):
    """Minimum-degree order of the mesh's vertex graph, cached per mesh:
    SuperLU's symmetric-mode order of a matrix with that pattern, read off
    an incomplete LU that drops nearly all fill."""
    nv, (a, b) = mesh.num_vertices, mesh.edges.T
    G = sp.coo_matrix((-np.ones(2 * a.size), (np.r_[a, b], np.r_[b, a])), (nv, nv))
    return np.argsort(spla.spilu(
        (G + nv * sp.eye(nv)).tocsc(), drop_tol=1.0, fill_factor=1,
        permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options={"SymmetricMode": True}).perm_c)


def null_space(mesh, con, V):
    """Build the basis and the dual tree for a mesh and the constrained
    mask con of its Dirichlet dof map, which constrains at least one
    edge, and Z^T V Z on the pattern for the viscous matrix V."""
    nv, nt = mesh.num_vertices, mesh.num_triangles
    dof = np.arange(dof_count(mesh))
    on_wall, wall_edge = vertex_values(mesh, con)[:, 0], edge_values(mesh, con)
    order = _vertex_order(mesh)
    free_v = order[~on_wall[order]]
    nfv = free_v.size

    # free_v[k] owns columns 3k to 3k + 2; chains follow; -1 marks psi = 0
    col = np.full(nv, -1, dtype=np.int32)  # as SciPy's indices: lookups take it as is
    col[free_v] = 3 * np.arange(nfv) + 2
    ncol = 3 * nfv
    a, b = mesh.edges[wall_edge].T
    graph = sp.coo_matrix((np.ones(a.size), (a, b)), shape=(nv, nv))
    label = connected_components(graph, directed=False)[1]
    chain = np.unique(label[on_wall], return_inverse=True)[1]
    col[on_wall] = np.where(chain > 0, ncol - 1 + chain, -1)
    ncol += int(chain.max())

    a, b = mesh.edges.T
    d = mesh.vertices[b] - mesh.vertices[a]
    n = mesh.edge_normal
    w = np.where(n[:, 0] * d[:, 1] - n[:, 1] * d[:, 0] > 0, 1.0, -1.0)
    w /= mesh.edge_lengths
    # an edge between two vertices of one chain carries no homogeneous flux
    w[wall_edge | (col[a] == col[b])] = 0.0
    fe = np.flatnonzero(~wall_edge)
    edge_rows = edge_values(mesh, dof)[fe]
    rows = np.concatenate([*vertex_values(mesh, dof)[free_v].T, edge_rows, edge_rows])
    cols = np.concatenate([col[free_v] - 2, col[free_v] - 1, col[b[fe]], col[a[fe]]])
    data = np.concatenate([np.ones(2 * nfv), w[fe], -w[fe]])
    keep = (cols >= 0) & (data != 0)
    Z = sp.coo_matrix(
        (data[keep], (rows[keep], cols[keep])), shape=(dof.size, ncol)
    ).tocsr()
    tri, te = mesh.triangles, mesh.triangle_edges
    G = w[te][..., None] * ((tri[:, None, :] == b[te][..., None]).astype(float)
                            - (tri[:, None, :] == a[te][..., None]))
    P = (Z.T.tocsr() @ (V @ Z)).tocoo()  # Z^T V Z, formed before the pattern: less memory
    # T's columns [v0x | v0y | psi] at its vertices, -1 where Z drops one;
    # two columns pair in Z^T A Z when some element holds both
    unknown = np.concatenate([np.where(on_wall, -1, col - 2)[tri],
                              np.where(on_wall, -1, col - 1)[tri], col[tri]], axis=1)
    has = unknown >= 0
    C = sp.csr_matrix((np.ones(has.sum()), unknown[has], np.r_[0, np.cumsum(has.sum(axis=1))]),
                      (nt, ncol))
    S = (C.T @ C).tocsc()
    S.sort_indices()
    # S with each entry's position as its value is a lookup: it places the
    # psi-row slots (row of T's vertex k, T's column j; past the data
    # where Z drops either) and Z^T V Z
    S.data = np.arange(S.nnz, dtype=np.int32)
    row, column = np.broadcast_arrays(unknown[:, 6:, None], unknown[:, None, :])
    found = (row >= 0) & (column >= 0)
    slots = np.full(row.shape, S.nnz, dtype=np.int32)
    viscous = np.zeros(S.nnz)
    if S.nnz:  # scipy answers an empty lookup with a matrix
        slots[found] = np.asarray(S[row[found], column[found]]).ravel()
        viscous[np.asarray(S[P.row, P.col]).ravel()] = P.data
    indptr, indices = S.indptr, S.indices  # int32, as SciPy's
    indptr.flags.writeable = indices.flags.writeable = False  # every K shares them

    # dual graph over the free edges; node nt is the virtual outside node
    t0, t1 = mesh.edge_to_triangles[fe].T
    closed = bool((t1 >= 0).all())
    t1 = np.where(t1 < 0, nt, t1)
    root = 0 if closed else nt
    dual = sp.coo_matrix((np.ones(fe.size), (t0, t1)), shape=(nt + 1, nt + 1))
    depth = shortest_path(dual, directed=False, unweighted=True, indices=root)
    # each element keeps the least (parent, edge) one level up, in order
    # of (depth, element); a lone element with no free edge is the whole tree
    src, dst, via = np.r_[t0, t1], np.r_[t1, t0], np.r_[fe, fe]
    k = np.flatnonzero(depth[dst] - depth[src] == 1)
    k = k[np.lexsort((via[k], src[k], dst[k], depth[dst[k]]))]
    k = k[np.sort(np.unique(dst[k], return_index=True)[1])]
    element, parent, edge = dst[k], src[k], via[k]
    level = np.bincount(depth[element].astype(int), minlength=2)  # 0 holds the root alone
    pos = np.full(nt + 1, -1, dtype=np.int64)
    pos[element] = np.arange(element.size)
    kk = np.argmax(mesh.triangle_edges[element] == edge[:, None], axis=1)
    return NullSpace(
        Z=Z,
        element=element,
        up=pos[parent],
        edge_dof=edge_values(mesh, dof)[edge],
        coef=element_ops(mesh)["div"][element, kk],
        depth_start=np.r_[0, np.cumsum(level[1:])],
        closed=closed,
        areas=mesh.areas,
        G=G,
        indptr=indptr,
        indices=indices,
        slots=slots,
        viscous=viscous,
    )

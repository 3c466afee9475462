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
pattern fixed per mesh and constraint set, with explicit zeros: a 3x3
block (a chain's psi: one row or column) per pair of equal or adjacent
vertices.  A Newton state sums its element blocks Z_T^T A_T Z_T onto it.

A breadth-first spanning tree of the dual graph over the free edges
replaces a second factorization.  It is rooted at a virtual outside node
when some boundary edge is free, and at element 0 otherwise.  Restricted
to the tree edges the divergence block is triangular in breadth-first
order: one sweep from the leaves gives a flux with prescribed
divergence, one sweep from the root gives the pressures from the
momentum residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

__all__ = ["NullSpace", "null_space"]


@dataclass(frozen=True, eq=False)
class NullSpace:
    """Divergence-free basis Z and the dual spanning tree of one problem.

    Z maps columns 3k to 3k + 2 to v0x, v0y and psi of free vertex k of the
    vertex order, later columns to the psi of further Dirichlet chains;
    its rows on constrained entries are empty.  The tree lists the non-root
    elements in breadth-first order, depth by depth from depth_start,
    each with the position of its parent in that order (-1 below the
    root), the dof of the edge to its parent and the divergence
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


def _vertex_order(mesh):
    """Minimum-degree order of the mesh's vertex graph, cached per mesh:
    SuperLU's symmetric-mode order of a matrix with that pattern, read off
    an incomplete LU that drops nearly all fill."""
    cache = mesh._cache
    if "vertex_order" not in cache:
        nv, (a, b) = mesh.num_vertices, mesh.edges.T
        G = sp.coo_matrix((-np.ones(2 * a.size), (np.r_[a, b], np.r_[b, a])), (nv, nv))
        cache["vertex_order"] = np.argsort(spla.spilu(
            (G + nv * sp.eye(nv)).tocsc(), drop_tol=1.0, fill_factor=1,
            permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True}).perm_c)
    return cache["vertex_order"]


def _pattern(mesh, first, triples, ncol):
    """The CSC pattern of Z^T A Z and each element's psi-row slots.

    A vertex's node is its columns, named by the first (-1: none): a free
    vertex's triple (below triples) or its chain's psi column.  A column
    holds one row block per node equal or joined by an edge to its own,
    in order; one sort of the vertex graph numbers these node pairs.
    """
    nv, tri, te = mesh.num_vertices, mesh.triangles, mesh.triangle_edges
    a, b = mesh.edges.T
    to, fro = np.r_[first, first[a], first[b]], np.r_[first, first[b], first[a]]
    # a pair without a node sorts last, in no column
    key = np.where((to >= 0) & (fro >= 0), to * (ncol + 1) + fro, ncol * (ncol + 1))
    pair_key, pair = np.unique(key, return_inverse=True)
    pair_col, pair_row = np.divmod(pair_key, ncol + 1)
    height = np.where(pair_row < triples, 3, 1)
    end = np.r_[0, np.cumsum(height)]
    offset = end[:-1] - end[np.searchsorted(pair_col, pair_col)]  # within its column
    node = np.arange(ncol) - np.r_[np.arange(triples) % 3, np.zeros(ncol - triples, int)]
    lo, hi = (end[np.searchsorted(pair_col, node, side=s)] for s in ("left", "right"))
    indptr = np.r_[0, np.cumsum(hi - lo)]
    rows = np.repeat(pair_row - end[:-1], height) + np.arange(end[-1])
    indices = rows[np.repeat(lo - indptr[:-1], hi - lo) + np.arange(indptr[-1])]
    # pair[T, i, j]: row vertex i, column vertex j, by the edge opposite the third
    opp = te[:, [[0, 2, 1], [2, 1, 0], [1, 0, 2]]]
    pair = np.where(np.eye(3, dtype=bool), pair[tri][:, None, :],
                    pair[np.where(a[opp] == tri[:, None, :], nv, nv + a.size) + opp])
    # the column of each local unknown, ncol where Z drops it: its slots
    # clip to the end of the data
    f, nnz = first[tri], indices.size
    triple = (f >= 0) & (f < triples)
    unknown = np.concatenate([np.where(triple, f, ncol), np.where(triple, f + 1, ncol),
                              np.where(triple, f + 2, np.where(f < 0, ncol, f))], axis=1)
    psi_row = np.where(f < 0, nnz, 2 * triple)  # in its node's block
    # [T, row vertex, column component, column vertex]
    slots = (offset[pair][:, :, None, :] + indptr[unknown].reshape(-1, 1, 3, 3)
             + psi_row[:, :, None, None])
    indptr, indices = indptr.astype(np.int32), indices.astype(np.int32)  # as SciPy's
    indptr.flags.writeable = indices.flags.writeable = False  # every K shares them
    return indptr, indices, np.minimum(slots, nnz).astype(np.int32).reshape(-1, 3, 9)


def null_space(mesh, dof_map, V):
    """Build the basis and the dual tree for a mesh and its Dirichlet dof
    map, which constrains at least one edge, and Z^T V Z on the pattern
    for the viscous matrix V."""
    nv, nt = mesh.num_vertices, mesh.num_triangles
    con = dof_map.constrained
    on_wall, wall_edge = con[:nv], con[2 * nv :]
    order = _vertex_order(mesh)
    free_v = order[~on_wall[order]]
    nfv = free_v.size

    # free_v[k] owns columns 3k to 3k + 2; chains follow; -1 marks psi = 0
    col = np.full(nv, -1, dtype=np.int64)
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
    rows = np.concatenate([free_v, nv + free_v, 2 * nv + fe, 2 * nv + fe])
    cols = np.concatenate([col[free_v] - 2, col[free_v] - 1, col[b[fe]], col[a[fe]]])
    data = np.concatenate([np.ones(2 * nfv), w[fe], -w[fe]])
    keep = (cols >= 0) & (data != 0)
    Z = sp.coo_matrix(
        (data[keep], (rows[keep], cols[keep])), shape=(dof_map.total, ncol)
    ).tocsr()
    tri, te = mesh.triangles, mesh.triangle_edges
    G = w[te][..., None] * ((tri[:, None, :] == b[te][..., None]).astype(float)
                            - (tri[:, None, :] == a[te][..., None]))
    first = np.where(~on_wall, col - 2, col)  # a vertex's first column
    indptr, indices, slots = _pattern(mesh, first, 3 * nfv, ncol)
    # Z^T V Z from the sparse product, once, placed on the pattern
    P = (Z.T.tocsr() @ (V @ Z)).tocoo()
    where = sp.csc_matrix((np.arange(indices.size), indices, indptr), P.shape)
    viscous = np.zeros(indices.size)
    if P.nnz:  # scipy answers an empty lookup with a matrix
        viscous[np.asarray(where[P.row, P.col]).ravel()] = P.data

    # dual graph over the free edges; node nt is the virtual outside node
    t0, t1 = mesh.edge_to_triangles[fe].T
    closed = bool((t1 >= 0).all())
    t1 = np.where(t1 < 0, nt, t1)
    src = np.concatenate([t0, t1])
    order = np.argsort(src, kind="stable")
    dst = np.concatenate([t1, t0])[order]
    via = np.concatenate([fe, fe])[order]
    ptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=nt + 1))])

    root = 0 if closed else nt
    seen = np.zeros(nt + 1, dtype=bool)
    seen[root] = True
    frontier = np.array([root])
    levels = []
    while True:
        cnt = ptr[frontier + 1] - ptr[frontier]
        shift = ptr[frontier] - np.cumsum(cnt) + cnt
        k = np.arange(cnt.sum()) + np.repeat(shift, cnt)
        nbr, parent, edge = dst[k], np.repeat(frontier, cnt), via[k]
        new = ~seen[nbr]
        # each new element keeps the first edge reaching it
        child, first = np.unique(nbr[new], return_index=True)
        if child.size == 0:
            break
        seen[child] = True
        levels.append((child, parent[new][first], edge[new][first]))
        frontier = child

    # a lone element with no free edge is the whole tree
    levels = levels or [(np.empty(0, np.int64),) * 3]
    element, parent, edge = (np.concatenate(x) for x in zip(*levels))
    pos = np.full(nt + 1, -1, dtype=np.int64)
    pos[element] = np.arange(element.size)
    kk = np.argmax(mesh.triangle_edges[element] == edge[:, None], axis=1)
    return NullSpace(
        Z=Z,
        element=element,
        up=pos[parent],
        edge_dof=2 * nv + edge,
        coef=mesh.edge_lengths[edge] * mesh.triangle_edge_sign[element, kk],
        depth_start=np.cumsum([0] + [lv[0].size for lv in levels]),
        closed=closed,
        areas=mesh.areas,
        G=G,
        indptr=indptr,
        indices=indices,
        slots=slots,
        viscous=viscous,
    )

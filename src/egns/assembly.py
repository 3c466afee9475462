"""Forms and Newton systems of the linearized incompressible flow problem.

The velocity block combines the viscous broken-gradient form, the flux
penalty, the Newton linearization of the rotational convection term, and
(for mixed boundary conditions) the linearized quadratic boundary form.
The divergence block couples element pressures to the edge scalars only.
Loads are tested against the flux-preserving reconstruction, so body
forces enter exclusively through edge degrees of freedom.

Every form is elementwise: a batch of element blocks, summed by _sparse
onto the local dofs l2g for the viscous and divergence matrices, and a
vector a batch of element values summed by _scatter.  The convection
Jacobian stays a 3x9 block on each element's edge rows, the outflow
Jacobian a 1x4 block per edge.

Newton works in correction form: a Newton system is the reduced matrix
Z^T A Z and the residual at a velocity dof vector x that holds the
Dirichlet values on its constrained entries, and the solver finds a
correction that is zero there.  Z^T A Z lives on a pattern fixed per
mesh and constraint set (see egns.nullspace): its viscous part is formed
once and each state adds element blocks, so no global Jacobian is
assembled.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .eg_space import (DofMap, dof_count, edge_trace, edge_values, element_curl,
                       element_ops, energy_operators, vertex_values)
from .mesh import per_mesh
from .nullspace import null_space
from .quadrature import LOAD_RULE
from .reconstruction import rt_scale

logger = logging.getLogger(__name__)

__all__ = [
    "SteadyProblem",
    "assemble_divergence",
    "assemble_convection_newton",
    "assemble_load",
    "assemble_neumann",
    "dirichlet_dof_map",
    "apply_dirichlet",
]


def _sparse(rows, cols, blocks, shape):
    """CSR matrix with blocks[i] summed onto the global rows[i] x cols[i],
    owning exactly its nnz entries."""
    nr, nc = rows.shape[1], cols.shape[1]
    # SciPy's index type, chosen before the COO-sized index arrays are made
    index = np.int32 if max(shape) <= np.iinfo(np.int32).max else np.int64
    rows, cols = rows.astype(index), cols.astype(index)
    M = sp.coo_matrix(
        (blocks.ravel(),
         (np.repeat(rows, nc, axis=1).ravel(), np.tile(cols, (1, nr)).ravel())),
        shape=shape).tocsr()
    # summing duplicates in place may leave views on the COO-sized buffers
    M.data, M.indices = M.data.copy(), M.indices.copy()
    return M


def _scatter(index, values, n):
    """values summed onto the entries index of a length-n vector, in order."""
    return np.bincount(index.ravel(), values.ravel(), minlength=n)


@per_mesh
def _viscous_unit(mesh):
    """The viscous matrix at nu = 1, from energy_operators' blocks."""
    D, QB, stab_w = energy_operators(mesh)
    K = (D.transpose(0, 2, 1) * mesh.areas[:, None, None]) @ D
    K += (QB.transpose(0, 2, 1) * stab_w[:, None, :]) @ QB
    del D, QB, stab_w  # freed before _sparse makes its COO-sized arrays
    l2g = element_ops(mesh)["l2g"]
    return _sparse(l2g, l2g, K, (dof_count(mesh),) * 2)


@per_mesh
def assemble_divergence(mesh):
    """Divergence block: row T has sigma_e |e| on the three edge dofs of T."""
    ops = element_ops(mesh)
    return _sparse(np.arange(mesh.num_triangles)[:, None], ops["l2g"][:, 6:],
                   ops["div"][:, None], (mesh.num_triangles, dof_count(mesh)))


@per_mesh
def _convection_geometry(mesh):
    # element tensors M[t,k,l] = int_T cross2(phi_k, phi_l), phi_k = s_k (x - p_k).
    # cross(x - p_k, x - p_l) is linear in x, so its mean is its value at the
    # centroid c, taken centred: expanded to cross(c, p_k - p_l) + cross(p_k,
    # p_l) it loses digits to cancellation
    P = mesh.vertices[mesh.triangles]
    d = P.mean(axis=1)[:, None, :] - P  # c - p_k
    cross = d[:, :, None, 0] * d[:, None, :, 1] - d[:, :, None, 1] * d[:, None, :, 0]
    s = rt_scale(mesh)
    return mesh.areas[:, None, None] * s[:, :, None] * s[:, None, :] * cross


def assemble_convection_newton(mesh, x):
    """Jacobian C of the rotational convection term at the dof vector x.

    C carries the two first-order terms: rows only on edge dofs, columns
    on edge dofs through the reconstruction and on vertex dofs through the
    elementwise curl.  C applied to x itself is twice the term's value.
    Returns C as one 3x9 block [mtu (x) curl | omega M^T] per element, on
    its edge rows.
    """
    omega, mtu, _ = _convection_value(mesh, x)
    return np.concatenate(
        [mtu[:, :, None] * element_ops(mesh)["curl"][:, None, :],
         omega[:, None, None] * np.swapaxes(_convection_geometry(mesh), 1, 2)],
        axis=2)


def _convection_value(mesh, x):
    """The elementwise curl omega and M^T u_b at x, and the value terms r."""
    edges = element_ops(mesh)["l2g"][:, 6:]
    omega = element_curl(mesh, x)
    mtu = np.einsum("tkl,tk->tl", _convection_geometry(mesh), x[edges])
    r = _scatter(edges, omega[:, None] * mtu, dof_count(mesh))
    return omega, mtu, r


def assemble_load(mesh, f):
    """Body force tested against the reconstructed basis, degree-5 rule.

    The basis function of local edge k is s_k (x - p_k) (see
    egns.reconstruction), so its entry is s_k (int f.x - p_k . int f):
    two element moments of f at the rule's points, and no basis values.
    Vertex entries are identically zero: the reconstruction sees only the
    edge scalars, which is what makes gradient forces drop out on the
    discretely divergence-free subspace.
    """
    points, w = LOAD_RULE
    X = points @ mesh.vertices[mesh.triangles]
    fv = np.asarray(f(X.reshape(-1, 2)), dtype=float).reshape(X.shape)
    fx = mesh.areas * np.einsum("q,tqd,tqd->t", w, fv, X)
    f1 = mesh.areas[:, None] * np.einsum("q,tqd->td", w, fv)
    P = mesh.vertices[mesh.triangles]  # vertex k is opposite local edge k
    vals = rt_scale(mesh) * (fx[:, None] - np.einsum("tkd,td->tk", P, f1))
    return _scatter(element_ops(mesh)["l2g"][:, 6:], vals, dof_count(mesh))


def assemble_neumann(mesh, tags, x):
    """Traction-free outflow Jacobian on the boundary edges tagged in `tags`.

    The matrix linearizes the quadratic boundary form (half the squared
    continuous trace against the test edge scalar) at the dof vector x.
    Returns one 1x4 block per tagged edge, in the edge row of its element
    on its ends' v0x and v0y (see _outflow_edges).
    """
    return _neumann_value(mesh, tags, x)[0]


@per_mesh
def _outflow_edges(mesh, tags):
    """The boundary edges tagged in tags and, per edge, its triangle, local
    edge row and local columns [a, b, 3 + a, 3 + b]; cached per mesh and
    tags, so tags is hashable: callers pass tuple(tags)."""
    be = mesh.boundary_edge_indices
    sel = be[np.isin(mesh.boundary_tags[be], tags)]
    t = mesh.edge_to_triangles[sel, :1]
    k = np.argmax(mesh.triangle_edges[t[:, 0]] == sel[:, None], axis=1)
    ab = np.argmax(mesh.triangles[t] == mesh.edges[sel][:, :, None], axis=2)
    return sel, t, k[:, None], np.concatenate([ab, 3 + ab], axis=1)


def _neumann_value(mesh, tags, x):
    """The outflow Jacobian's 1x4 block per tagged edge, on the v0x and
    then the v0y of its ends (a, b), at x, and the value terms."""
    sel = _outflow_edges(mesh, tuple(tags))[0]
    Ua, Ub = vertex_values(mesh, x)[mesh.edges[sel].T]
    # value of the quadratic form: half the edge integral of |trace|^2
    quad = ((Ua * Ua).sum(1) + (Ua * Ub).sum(1) + (Ub * Ub).sum(1)) / 3.0
    vec = np.zeros(dof_count(mesh))
    edge_values(mesh, vec)[sel] = 0.5 * mesh.edge_lengths[sel] * quad
    # exact edge integrals of (linear trace) x (hat function)
    hats = np.stack([Ua / 3 + Ub / 6, Ua / 6 + Ub / 3], axis=2).reshape(-1, 4)
    return mesh.edge_lengths[sel][:, None] * hats, vec


@per_mesh
def _null_space(mesh, constrained):
    """The null space of the constrained mask given as its bytes."""
    return null_space(mesh, np.frombuffer(constrained, dtype=bool), _viscous_unit(mesh))


def dirichlet_dof_map(mesh, bcs):
    """Constrained dof map for ordered Dirichlet segments.

    bcs is a sequence of (tags, u_D) pairs, tags a tuple of ints.  Later
    segments win at shared vertices (corner overrides are logged), so a
    driven lid takes precedence over side walls.  Tags that select no
    boundary edge, and data that is NaN or infinite at a vertex or an edge
    quadrature point or whose square's norm overflows, are rejected naming
    the tags.  The returned map is read-only: every system shares it.
    """
    n = dof_count(mesh)
    dm = DofMap(constrained=np.zeros(n, dtype=bool), values=np.zeros(n))
    con_v, val_v = vertex_values(mesh, dm.constrained), vertex_values(mesh, dm.values)
    con_e, val_e = edge_values(mesh, dm.constrained), edge_values(mesh, dm.values)
    be = mesh.boundary_edge_indices
    for tags, u_d in bcs:
        sel = be[np.isin(mesh.boundary_tags[be], tags)]
        if sel.size == 0:
            raise ValueError(f"Dirichlet tags {tags} select no boundary edge")
        verts = np.unique(mesh.edges[sel])
        vals = np.asarray(u_d(mesh.vertices[verts]), dtype=float)
        flux = edge_trace(mesh, u_d, sel)
        if not (np.isfinite(vals).all() and np.isfinite(flux).all()):
            raise ValueError(
                f"Dirichlet data on tags {tags} is NaN or infinite at a "
                "boundary vertex or edge quadrature point"
            )
        with np.errstate(over="ignore"):  # named just below
            square = np.linalg.norm(np.concatenate([vals.ravel(), flux]) ** 2)
        if not square < np.inf:
            raise ValueError(
                f"Dirichlet data on tags {tags} is beyond float64 range: the norm "
                "of its square, as the convection residual takes it, overflows"
            )

        revisit = con_v[verts, 0]
        if revisit.any():
            changed = revisit & np.any(val_v[verts] != vals, axis=1)
            if changed.any():
                logger.info("%d shared boundary vertices overridden by a later "
                            "Dirichlet segment (tags %s)", int(changed.sum()), tags)
        con_v[verts] = True
        val_v[verts] = vals
        con_e[sel] = True
        val_e[sel] = flux
    dm.constrained.flags.writeable = dm.values.flags.writeable = False
    return dm


def apply_dirichlet(dof_map, A, B, rhs_u, rhs_p):
    """Fold a dof map's constrained values into the right-hand sides.

    Returns new (rhs_u, rhs_p); the inputs and the map stay as they are.
    Nothing in egns calls it: Newton works in correction form, so no
    system has an absolute right-hand side.  It stays because the
    benchmark's span table (bench/child.py TARGETS) names it.
    """
    vvec = np.where(dof_map.constrained, dof_map.values, 0.0)
    return rhs_u - A @ vvec, rhs_p - B @ vvec


@dataclass
class SteadyProblem:
    """A steady flow problem: a flow case on a mesh at a viscosity.

    case is a verification.FlowCase, or any object with its dirichlet,
    neumann_tags, body_force and force_per_nu.  The load is L0 + nu L1, L0
    from body_force and L1 from force_per_nu.  L0, L1, the Dirichlet dof
    map and the divergence-free basis are computed once per problem
    instance and reused; with_nu returns a new instance that shares all
    four, since none depends on nu.  Problems on one mesh with the same
    constrained dofs share one basis.
    """

    mesh: object
    nu: float
    case: object

    def __post_init__(self):
        if not 0 < self.nu < np.inf:  # also NaN
            raise ValueError(f"viscosity must be positive and finite, got {self.nu}")

    def with_nu(self, nu):
        new = dataclasses.replace(self, nu=nu)
        new._loads, new.dof_map, new.null_space = self._loads, self.dof_map, self.null_space
        return new

    @cached_property
    def _loads(self):  # L0 and L1, None for a force not given
        with np.errstate(over="ignore", invalid="ignore"):  # load_vector names it
            return [None if f is None else assemble_load(self.mesh, f)
                    for f in (self.case.body_force, self.case.force_per_nu)]

    @cached_property
    def load_vector(self):
        L0, L1 = self._loads
        load = np.zeros(dof_count(self.mesh)) if L0 is None else L0
        with np.errstate(over="ignore", invalid="ignore"):  # named just below
            if L1 is not None:
                load = load + self.nu * L1
            norm = np.linalg.norm(load)
        bad = ~np.isfinite(load)
        if bad.any():
            raise ValueError(
                f"body force is not finite: {int(bad.sum())} load "
                f"entries are NaN or infinite"
            )
        if not norm < np.inf:
            raise ValueError("body force is beyond float64 range: its load's norm overflows")
        return load

    @cached_property
    def dof_map(self):
        """The Dirichlet dof map.

        A problem without a Dirichlet segment raises ValueError: its
        linearization at rest is singular.  When Dirichlet data covers the
        whole boundary, the net prescribed boundary flux must vanish up to
        roundoff, or no velocity has zero divergence; a violation raises
        ValueError.
        """
        mesh = self.mesh
        if not self.case.dirichlet:
            raise ValueError("no Dirichlet segment: at rest the viscous form "
                             "alone leaves constant velocities free")
        dm = dirichlet_dof_map(mesh, self.case.dirichlet)
        be = mesh.boundary_edge_indices
        if edge_values(mesh, dm.constrained)[be].all():
            flux = float(mesh.edge_lengths[be] @ edge_values(mesh, dm.values)[be])
            perimeter = float(mesh.edge_lengths[be].sum())
            if abs(flux) > 1e-10 * perimeter:
                raise ValueError(
                    f"Dirichlet data is incompatible: net boundary flux "
                    f"{flux:.3e} exceeds 1e-10 x perimeter {perimeter:.3e}"
                )
        return dm

    @cached_property
    def null_space(self):
        """The divergence-free basis, the dual spanning tree and Z^T V Z."""
        return _null_space(self.mesh, self.dof_map.constrained.tobytes())

    @cached_property
    def _at_v(self):  # load - nu V v, the values at v and -B v: fixed data
        v = self.dof_map.values
        return (self.load_vector - self.nu * (_viscous_unit(self.mesh) @ v),
                self._values(v), -(assemble_divergence(self.mesh) @ v))

    def _values(self, y):  # r + vec_N: the convection and outflow values
        return (_convection_value(self.mesh, y)[2]
                + _neumann_value(self.mesh, self.case.neumann_tags, y)[1])

    def _momentum_mass(self, x):
        # nu V x + (r + vec_N)(x) - load, B x and those values; rest (None): x = v, no values
        values, x = (0.0, self.dof_map.values) if x is None else (self._values(x), x)
        ru = self.nu * (_viscous_unit(self.mesh) @ x) + values - self.load_vector
        return ru, assemble_divergence(self.mesh) @ x, values

    def residual(self, x, pressure=None):
        """Nonlinear residuals at (x, pressure), no matrix assembled.

        Returns (pressure, ru, rp, rhs_u, rhs_p, at_x): the momentum
        residual nu V x + (r + vec_N)(x) - load - B^T pressure on all rows,
        with r and vec_N the convection and outflow values, and the mass
        residual B x.  rhs_u and rhs_p scale them: the data of the Newton
        equations at x for the whole velocity, with the Dirichlet values v
        moved to the right.  r and vec_N are quadratic, C and D their
        derivatives, so
            rhs_u = load - nu V v + (r + vec_N)(x - v) - (r + vec_N)(v),
        where v = 0 reuses the values at x.  at_x is what newton_system(x,
        at_x) takes: the momentum residual before the pressure, and rp.
        pressure None zeroes the momentum residual on the null space's tree
        edges.  At x None, rest, x is v and the value terms vanish.
        """
        ru, rp, values = self._momentum_mass(x)
        rhs_u, values_v, rhs_p = self._at_v
        if x is not None:
            v = self.dof_map.values
            rhs_u = rhs_u + (self._values(x - v) if v.any() else values) - values_v
        if pressure is None:
            pressure = self.null_space.pressure(ru)
        B = assemble_divergence(self.mesh)
        return pressure, ru - B.T @ pressure, rp, rhs_u, rhs_p, (ru, rp)

    def newton_system(self, x, at_x=None):
        """K = Z^T A Z, A and the residual (ru, rp) at the full dof vector x.

        A = nu V + C(x), plus D(x) with an outflow, is the function y -> A y
        from V and the edge-row blocks of C and D; K is nu Z^T V Z plus
        their reduced blocks, on the null space's pattern.  ru and rp are
        those of residual(x, 0), so ru holds no pressure term; at_x, the
        last item of residual(x), gives them without evaluating them
        again.  At None, zero velocity, C and D vanish and are skipped.
        """
        ns, V = self.null_space, _viscous_unit(self.mesh)
        l2g = element_ops(self.mesh)["l2g"]
        data, blocks = self.nu * ns.viscous, None
        if x is not None:
            blocks = assemble_convection_newton(self.mesh, x)
            if self.case.neumann_tags:
                _, t, k, cols = _outflow_edges(self.mesh, tuple(self.case.neumann_tags))
                blocks[t, k, cols] += assemble_neumann(self.mesh, self.case.neumann_tags, x)
            data = data + ns.reduce(blocks)

        def jacobian(y):
            Ay = self.nu * (V @ y)
            if blocks is not None:
                edge_rows = np.einsum("tkj,tj->tk", blocks, y[l2g])
                Ay += _scatter(l2g[:, 6:], edge_rows, y.size)
            return Ay

        K = sp.csc_matrix((data, ns.indices, ns.indptr), shape=(ns.Z.shape[1],) * 2)
        return (K, jacobian, *(at_x or self._momentum_mass(x)[:2]))

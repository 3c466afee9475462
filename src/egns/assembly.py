"""Global sparse assembly for the linearized incompressible flow systems.

The velocity block combines the viscous broken-gradient form, the flux
penalty, the Newton linearization of the rotational convection term, and
(for mixed boundary conditions) the linearized quadratic boundary form.
The divergence block couples element pressures to the edge scalars only.
Loads are tested against the flux-preserving reconstruction, so body
forces enter exclusively through edge degrees of freedom.

Every form is elementwise: a matrix is a batch of element blocks summed
by _sparse onto the local dofs l2g, and a vector a batch of element
values summed by _scatter.

Newton works in correction form: a Newton system is the Jacobian and
the residual at a velocity dof vector x that holds the Dirichlet values
on its constrained entries, and the solver finds a correction that is
zero there.  The constrained set and its values depend only on the
problem, so each problem builds its dof map once and shares it with
every Newton system.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .eg_space import DofMap, edge_trace, element_ops
from .nullspace import null_space
from .quadrature import quadrature_rule
from .reconstruction import rt_basis

logger = logging.getLogger(__name__)

__all__ = [
    "SteadyProblem",
    "assemble_viscous",
    "assemble_divergence",
    "assemble_convection_newton",
    "assemble_load",
    "assemble_neumann",
    "dirichlet_dof_map",
    "apply_dirichlet",
]


def _total_dofs(mesh):
    return 2 * mesh.num_vertices + mesh.num_edges


def _sparse(rows, cols, blocks, shape):
    """CSR matrix with blocks[i] summed onto the global rows[i] x cols[i]."""
    nr, nc = rows.shape[1], cols.shape[1]
    return sp.coo_matrix(
        (blocks.ravel(),
         (np.repeat(rows, nc, axis=1).ravel(), np.tile(cols, (1, nr)).ravel())),
        shape=shape).tocsr()


def _scatter(index, values, n):
    """values summed onto the entries index of a length-n vector, in order."""
    return np.bincount(index.ravel(), values.ravel(), minlength=n)


def assemble_viscous(mesh, nu):
    """Viscosity times (broken-gradient stiffness + flux penalty), CSR.

    The unit-viscosity matrix is cached on the mesh; both constituent
    forms scale linearly with nu.
    """
    if not nu > 0:  # also NaN
        raise ValueError(f"viscosity must be positive, got {nu}")
    return nu * _viscous_unit(mesh)


def _viscous_unit(mesh):
    cache = mesh._cache
    if "viscous_unit" not in cache:
        ops = element_ops(mesh)
        D, QB = ops["D"], ops["QB"]
        K = (D.transpose(0, 2, 1) * mesh.areas[:, None, None]) @ D
        K += (QB.transpose(0, 2, 1) * ops["stab_w"][:, None, :]) @ QB
        n = _total_dofs(mesh)
        cache["viscous_unit"] = _sparse(ops["l2g"], ops["l2g"], K, (n, n))
    return cache["viscous_unit"]


def assemble_divergence(mesh):
    """Divergence block: row T has sigma_e |e| on the three edge dofs of T."""
    cache = mesh._cache
    if "divergence" not in cache:
        ops = element_ops(mesh)
        nt = mesh.num_triangles
        cache["divergence"] = _sparse(
            np.arange(nt)[:, None], ops["l2g"][:, 6:], (ops["L"] * ops["sig"])[:, None],
            (nt, _total_dofs(mesh)))
    return cache["divergence"]


def _convection_geometry(mesh):
    # element tensors M[t,k,l] = |T| sum_q w_q cross2(phi_k, phi_l).  The
    # integrand is linear: phi_k is a multiple of x - p_k, and
    # cross(x - p_k, x - p_l) = cross(x, p_k - p_l) + cross(p_k, p_l).  The
    # degree-2 rule is kept because a lower one would round differently
    cache = mesh._cache
    if "convection_m" not in cache:
        rule = quadrature_rule(2)
        phi = rt_basis(mesh, rule.physical_points(mesh))
        cross = (
            phi[..., :, None, 0] * phi[..., None, :, 1]
            - phi[..., :, None, 1] * phi[..., None, :, 0]
        )
        cache["convection_m"] = mesh.areas[:, None, None] * np.einsum(
            "q,tqkl->tkl", rule.weights, cross
        )
    return cache["convection_m"]


def assemble_convection_newton(mesh, x):
    """Jacobian C of the rotational convection term at the dof vector x.

    C carries the two first-order terms: rows only on edge dofs, columns
    on edge dofs through the reconstruction and on vertex dofs through the
    elementwise curl.  C applied to x itself is twice the term's value.
    """
    ops = element_ops(mesh)
    omega, mtu, _ = _convection_value(mesh, x)
    # the 3x9 block [mtu (x) curl | omega M^T] on the edge rows
    block = np.concatenate(
        [mtu[:, :, None] * ops["curl"][:, None, :],
         omega[:, None, None] * np.swapaxes(_convection_geometry(mesh), 1, 2)],
        axis=2)
    n = _total_dofs(mesh)
    return _sparse(ops["l2g"][:, 6:], ops["l2g"], block, (n, n))


def _convection_value(mesh, x):
    """The elementwise curl omega and M^T u_b at x, and the value terms r."""
    ops = element_ops(mesh)
    dofs = x[ops["l2g"]]
    omega = np.einsum("tj,tj->t", ops["curl"], dofs[:, :6])
    mtu = np.einsum("tkl,tk->tl", _convection_geometry(mesh), dofs[:, 6:])
    r = _scatter(ops["l2g"][:, 6:], omega[:, None] * mtu, _total_dofs(mesh))
    return omega, mtu, r


def assemble_load(mesh, f):
    """Body force tested against the reconstructed basis, degree-5 rule.

    Vertex entries are identically zero: the reconstruction sees only the
    edge scalars, which is what makes gradient forces drop out on the
    discretely divergence-free subspace.
    """
    rule = quadrature_rule(5)
    X = rule.physical_points(mesh)
    phi = rt_basis(mesh, X)
    fv = np.asarray(f(X.reshape(-1, 2)), dtype=float).reshape(X.shape)
    vals = mesh.areas[:, None] * (rule.weights @ (phi @ fv[..., None])[..., 0])
    return _scatter(element_ops(mesh)["l2g"][:, 6:], vals, _total_dofs(mesh))


def assemble_neumann(mesh, tags, x):
    """Traction-free outflow Jacobian on the boundary edges tagged in `tags`.

    The matrix linearizes the quadratic boundary form (half the squared
    continuous trace against the test edge scalar) at the dof vector x.
    """
    nv = mesh.num_vertices
    n = _total_dofs(mesh)
    sel, Ua, Ub, _ = _neumann_value(mesh, tags, x)
    ab = mesh.edges[sel]
    # exact edge integrals of (linear trace) x (hat function), one 1x4
    # block per edge on [a, b, nv + a, nv + b]
    hats = np.stack([Ua / 3 + Ub / 6, Ua / 6 + Ub / 3], axis=2).reshape(-1, 1, 4)
    block = mesh.edge_lengths[sel][:, None, None] * hats
    return _sparse((2 * nv + sel)[:, None], np.concatenate([ab, nv + ab], axis=1),
                   block, (n, n))


def _neumann_value(mesh, tags, x):
    """The tagged edges, the velocity at both their ends and the value terms."""
    nv = mesh.num_vertices
    be = mesh.boundary_edge_indices
    sel = be[np.isin(mesh.boundary_tags[be], tags)]
    a, b = mesh.edges[sel].T
    Ua = np.column_stack([x[a], x[nv + a]])
    Ub = np.column_stack([x[b], x[nv + b]])
    # value of the quadratic form: half the edge integral of |trace|^2
    quad = ((Ua * Ua).sum(1) + (Ua * Ub).sum(1) + (Ub * Ub).sum(1)) / 3.0
    vec = _scatter(2 * nv + sel, 0.5 * mesh.edge_lengths[sel] * quad, _total_dofs(mesh))
    return sel, Ua, Ub, vec


def dirichlet_dof_map(mesh, bcs):
    """Constrained dof map for ordered Dirichlet segments.

    bcs is a sequence of (tags, u_D) pairs, tags a tuple of ints.  Later
    segments win at shared vertices (corner overrides are logged), so a
    driven lid takes precedence over side walls.  Tags that select no
    boundary edge, and data that is NaN or infinite at a vertex or an edge
    quadrature point, are rejected naming the tags.  The returned map is
    read-only: every system shares it.
    """
    n = _total_dofs(mesh)
    dm = DofMap(constrained=np.zeros(n, dtype=bool), values=np.zeros(n))
    nv = mesh.num_vertices
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

        revisit = dm.constrained[verts]
        if revisit.any():
            old = np.column_stack([dm.values[verts], dm.values[nv + verts]])
            changed = revisit & np.any(old != vals, axis=1)
            if changed.any():
                logger.info("%d shared boundary vertices overridden by a later "
                            "Dirichlet segment (tags %s)", int(changed.sum()), tags)
        dm.constrained[verts] = True
        dm.constrained[nv + verts] = True
        dm.values[verts] = vals[:, 0]
        dm.values[nv + verts] = vals[:, 1]
        dm.constrained[2 * nv + sel] = True
        dm.values[2 * nv + sel] = flux
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
    """A steady flow problem: geometry, viscosity, forcing, boundary data.

    dirichlet is an ordered list of (tags, u_D) segments; neumann_tags
    name the traction-free outflow sides.  The load vector, the Dirichlet
    dof map and the divergence-free basis are computed once per problem
    instance and reused across Newton iterations; with_nu returns a new
    instance that shares all three, since none depends on nu.
    """

    mesh: object
    nu: float
    body_force: object = None
    dirichlet: list = field(default_factory=list)
    neumann_tags: tuple = ()

    def with_nu(self, nu):
        new = dataclasses.replace(self, nu=nu)
        new.load_vector, new.dof_map = self.load_vector, self.dof_map
        new.null_space = self.null_space
        return new

    @cached_property
    def load_vector(self):
        if self.body_force is None:
            return np.zeros(_total_dofs(self.mesh))
        load = assemble_load(self.mesh, self.body_force)
        bad = ~np.isfinite(load)
        if bad.any():
            raise ValueError(
                f"body force is not finite: {int(bad.sum())} load "
                f"entries are NaN or infinite"
            )
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
        if not self.dirichlet:
            raise ValueError("no Dirichlet segment: at rest the viscous form "
                             "alone leaves constant velocities free")
        dm = dirichlet_dof_map(mesh, self.dirichlet)
        be = mesh.boundary_edge_indices
        edge_dofs = 2 * mesh.num_vertices + be
        if dm.constrained[edge_dofs].all():
            flux = float(mesh.edge_lengths[be] @ dm.values[edge_dofs])
            perimeter = float(mesh.edge_lengths[be].sum())
            if abs(flux) > 1e-10 * perimeter:
                raise ValueError(
                    f"Dirichlet data is incompatible: net boundary flux "
                    f"{flux:.3e} exceeds 1e-10 x perimeter {perimeter:.3e}"
                )
        return dm

    @cached_property
    def null_space(self):
        """The divergence-free basis and the dual spanning tree."""
        return null_space(self.mesh, self.dof_map)

    def _values(self, y):  # r + vec_N: the convection and outflow values
        return (_convection_value(self.mesh, y)[2]
                + _neumann_value(self.mesh, self.neumann_tags, y)[3])

    def _momentum_mass(self, x):
        # nu V x + (r + vec_N)(x) - load and B x; rest (None): x = v, no values
        values, x = (0.0, self.dof_map.values) if x is None else (self._values(x), x)
        ru = self.nu * (_viscous_unit(self.mesh) @ x) + values - self.load_vector
        return ru, assemble_divergence(self.mesh) @ x

    def residual(self, x, pressure=None):
        """Nonlinear residuals at (x, pressure), no matrix assembled.

        Returns (pressure, ru, rp, rhs_u, rhs_p): the momentum residual
        nu V x + (r + vec_N)(x) - load - B^T pressure on all rows, with r
        and vec_N the convection and outflow values, and the mass residual
        B x.  rhs_u and rhs_p scale them: the data of the Newton equations
        at x for the whole velocity, with the Dirichlet values v moved to
        the right.  r and vec_N are quadratic, C and D their derivatives, so
            rhs_u = load - nu V v + (r + vec_N)(x - v) - (r + vec_N)(v).
        pressure None zeroes the momentum residual on the null space's tree
        edges.  At x None, rest, x is v and the value terms vanish.
        """
        v, B = self.dof_map.values, assemble_divergence(self.mesh)
        ru, rp = self._momentum_mass(x)
        rhs_u = self.load_vector - self.nu * (_viscous_unit(self.mesh) @ v)
        if x is not None:
            rhs_u = rhs_u + self._values(x - v) - self._values(v)
        if pressure is None:
            pressure = self.null_space.pressure(ru)
        return pressure, ru - B.T @ pressure, rp, rhs_u, -(B @ v)

    def newton_system(self, x):
        """The Jacobian A at the full dof vector x and the residual (ru, rp).

        A is nu V + C(x), plus D(x) with an outflow; ru and rp are those of
        residual(x, 0), so ru holds no pressure term.  At None, zero
        velocity, the convection and outflow forms vanish and are skipped.
        """
        mesh = self.mesh
        A = assemble_viscous(mesh, self.nu)
        if x is not None:
            A = A + assemble_convection_newton(mesh, x)
            if self.neumann_tags:
                A = A + assemble_neumann(mesh, self.neumann_tags, x)
        return (A, *self._momentum_mass(x))

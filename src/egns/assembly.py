"""Global sparse assembly for the linearized incompressible flow systems.

The velocity block combines the viscous broken-gradient form, the flux
penalty, the Newton linearization of the rotational convection term, and
(for mixed boundary conditions) the linearized quadratic boundary form.
The divergence block couples element pressures to the edge scalars only.
Loads are tested against the flux-preserving reconstruction, so body
forces enter exclusively through edge degrees of freedom.

Dirichlet data is removed by symmetric elimination: constrained entries
keep their rows in the stored matrices, and the solver works on the free
index set with the known values folded into both right-hand sides.  The
constrained set and its values depend only on the problem, so each
problem builds its dof map once and shares it with every Newton system.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .eg_space import DofMap, edge_trace, element_ops
from .nullspace import NullSpace, null_space
from .quadrature import quadrature_rule
from .reconstruction import rt_basis

logger = logging.getLogger(__name__)

__all__ = [
    "SaddleSystem",
    "SteadyProblem",
    "assemble_viscous",
    "assemble_divergence",
    "assemble_convection_newton",
    "assemble_load",
    "assemble_neumann",
    "dirichlet_dof_map",
    "apply_dirichlet",
]


@dataclass
class SaddleSystem:
    """One linearized saddle-point system.

    A acts on velocity dofs, B maps velocities to element pressures.
    null_space is the problem's divergence-free basis, which also fixes
    the pressure gauge.  Treated as immutable once built.
    """

    A: sp.csr_matrix
    B: sp.csr_matrix
    rhs_u: np.ndarray
    rhs_p: np.ndarray
    dof_map: DofMap
    null_space: NullSpace


def _total_dofs(mesh):
    return 2 * mesh.num_vertices + mesh.num_edges


def assemble_viscous(mesh, nu):
    """Viscosity times (broken-gradient stiffness + flux penalty), CSR.

    The unit-viscosity matrix is cached on the mesh; both constituent
    forms scale linearly with nu.
    """
    if nu <= 0:
        raise ValueError(f"viscosity must be positive, got {nu}")
    return nu * _viscous_unit(mesh)


def _viscous_unit(mesh):
    cache = mesh._cache
    if "viscous_unit" not in cache:
        ops = element_ops(mesh)
        D, QB = ops["D"], ops["QB"]
        K = (D.transpose(0, 2, 1) * mesh.areas[:, None, None]) @ D
        K += (QB.transpose(0, 2, 1) * ops["stab_w"][:, None, :]) @ QB
        l2g = ops["l2g"]
        rows = np.repeat(l2g, 9, axis=1).ravel()
        cols = np.tile(l2g, (1, 9)).ravel()
        n = _total_dofs(mesh)
        cache["viscous_unit"] = sp.coo_matrix(
            (K.ravel(), (rows, cols)), shape=(n, n)
        ).tocsr()
    return cache["viscous_unit"]


def assemble_divergence(mesh):
    """Divergence block: row T has sigma_e |e| on the three edge dofs of T."""
    cache = mesh._cache
    if "divergence" not in cache:
        ops = element_ops(mesh)
        nt = mesh.num_triangles
        rows = np.repeat(np.arange(nt), 3)
        cols = (2 * mesh.num_vertices + mesh.triangle_edges).ravel()
        data = (ops["L"] * ops["sig"]).ravel()
        cache["divergence"] = sp.coo_matrix(
            (data, (rows, cols)), shape=(nt, _total_dofs(mesh))
        ).tocsr()
    return cache["divergence"]


def _convection_geometry(mesh):
    # element tensors M[t,k,l] = |T| sum_q w_q cross2(phi_k, phi_l),
    # degree-2 quadrature is exact for the quadratic integrand
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
    """Newton data for the rotational convection term at the dof vector x.

    Returns (C, r): C carries the two first-order terms (rows only on edge
    dofs; columns on edge dofs through the reconstruction and on vertex
    dofs through the elementwise curl), r carries the value terms so that
    C applied to x itself equals 2 r.
    """
    ops = element_ops(mesh)
    M = _convection_geometry(mesh)
    omega, mtu, r = _convection_value(mesh, x)
    edge_g, vert_g = ops["l2g"][:, 6:], ops["l2g"][:, :6]
    n = _total_dofs(mesh)

    data1 = (omega[:, None, None] * np.swapaxes(M, 1, 2)).ravel()
    rows1 = np.repeat(edge_g, 3, axis=1).ravel()
    cols1 = np.tile(edge_g, (1, 3)).ravel()

    data2 = (mtu[:, :, None] * ops["curl"][:, None, :]).ravel()
    rows2 = np.repeat(edge_g, 6, axis=1).ravel()
    cols2 = np.tile(vert_g, (1, 3)).ravel()

    C = sp.coo_matrix(
        (
            np.concatenate([data1, data2]),
            (np.concatenate([rows1, rows2]), np.concatenate([cols1, cols2])),
        ),
        shape=(n, n),
    ).tocsr()
    return C, r


def _convection_value(mesh, x):
    """The elementwise curl omega and M^T u_b at x, and the value terms r."""
    ops = element_ops(mesh)
    dofs = x[ops["l2g"]]
    omega = np.einsum("tj,tj->t", ops["curl"], dofs[:, :6])
    mtu = np.einsum("tkl,tk->tl", _convection_geometry(mesh), dofs[:, 6:])
    r = np.zeros(_total_dofs(mesh))
    np.add.at(r, ops["l2g"][:, 6:].ravel(), (omega[:, None] * mtu).ravel())
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
    vec = np.zeros(_total_dofs(mesh))
    np.add.at(vec, (2 * mesh.num_vertices + mesh.triangle_edges).ravel(), vals.ravel())
    return vec


def assemble_neumann(mesh, tags, x):
    """Traction-free outflow terms on the boundary edges tagged in `tags`.

    Returns (matrix, vector).  The matrix linearizes the quadratic
    boundary form (half the squared continuous trace against the test
    edge scalar) at the dof vector x; the vector carries that form's
    value at x.
    """
    nv = mesh.num_vertices
    n = _total_dofs(mesh)
    sel, Ua, Ub, vec = _neumann_value(mesh, tags, x)
    a, b = mesh.edges[sel].T
    L = mesh.edge_lengths[sel]

    # exact edge integrals of (linear trace) x (hat function)
    data = np.concatenate(
        [
            L * (Ua[:, 0] / 3 + Ub[:, 0] / 6),
            L * (Ua[:, 0] / 6 + Ub[:, 0] / 3),
            L * (Ua[:, 1] / 3 + Ub[:, 1] / 6),
            L * (Ua[:, 1] / 6 + Ub[:, 1] / 3),
        ]
    )
    rows = np.tile(2 * nv + sel, 4)
    cols = np.concatenate([a, b, nv + a, nv + b])
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr(), vec


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
    vec = np.zeros(_total_dofs(mesh))
    np.add.at(vec, 2 * nv + sel, 0.5 * mesh.edge_lengths[sel] * quad)
    return sel, Ua, Ub, vec


def dirichlet_dof_map(mesh, bcs):
    """Constrained dof map for ordered Dirichlet segments.

    bcs is a sequence of (tags, u_D) pairs, tags a tuple of ints.  Later
    segments win at shared vertices (corner overrides are logged), so a
    driven lid takes precedence over side walls.  Data that is NaN or
    infinite at a vertex or an edge quadrature point is rejected, naming
    its tags.  The returned map is read-only: every system shares it.
    """
    dm = DofMap.unconstrained(mesh)
    nv = mesh.num_vertices
    be = mesh.boundary_edge_indices
    for tags, u_d in bcs:
        sel = be[np.isin(mesh.boundary_tags[be], tags)]
        if sel.size == 0:
            continue
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
                logger.info(
                    "%d shared boundary vertices overridden by a later "
                    "Dirichlet segment (tags %s)",
                    int(changed.sum()),
                    tags,
                )
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
    Constrained rows stay in A and B; the solver restricts to the free
    index set.
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

        When Dirichlet data covers the whole boundary, the net prescribed
        boundary flux must vanish up to roundoff, or no velocity has zero
        divergence; a violation raises ValueError.
        """
        mesh = self.mesh
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

    def residual(self, x, pressure=None):
        """Residuals of newton_system(x) at (x, pressure), no matrix assembled.

        Returns (pressure, ru, rp, rhs_u, rhs_p): the momentum residual
        A x - B^T pressure - rhs_u on all rows, the mass residual and the
        system's right-hand sides.  C(x) x = 2 r(x) and D(x) x = 2 vec_N(x)
        for the value terms r and vec_N, so with the Dirichlet values v
            A x - rhs_u = nu V x + (r + vec_N)(x) - load,
            rhs_u = load - nu V v + (r + vec_N)(x - v) - (r + vec_N)(v).
        pressure None zeroes the momentum residual on the null space's tree
        edges.  At x None, rest, the value terms vanish.
        """
        mesh, v, rest = self.mesh, self.dof_map.values, x is None

        def values(y):  # r + vec_N
            return 0.0 if rest else (_convection_value(mesh, y)[2]
                                     + _neumann_value(mesh, self.neumann_tags, y)[3])

        x = v if rest else x
        V, B = _viscous_unit(mesh), assemble_divergence(mesh)
        ru = self.nu * (V @ x) + values(x) - self.load_vector
        rhs_u = self.load_vector - self.nu * (V @ v) + values(x - v) - values(v)
        if pressure is None:
            pressure = self.null_space.pressure(ru)
        return pressure, ru - B.T @ pressure, B @ x, rhs_u, -(B @ v)

    def newton_system(self, x):
        """Assemble the saddle system linearized at the full dof vector x.

        At None, zero velocity, the convection and outflow forms vanish
        and are skipped.
        """
        mesh = self.mesh
        A = assemble_viscous(mesh, self.nu)
        B = assemble_divergence(mesh)
        rhs_u = self.load_vector.copy()

        if x is not None:
            C, r = assemble_convection_newton(mesh, x)
            A = A + C
            rhs_u += r
            if self.neumann_tags:
                D, vec = assemble_neumann(mesh, self.neumann_tags, x)
                A = A + D
                rhs_u += vec

        A = A.tocsr()
        dm = self.dof_map
        rhs_u, rhs_p = apply_dirichlet(dm, A, B, rhs_u, np.zeros(mesh.num_triangles))
        return SaddleSystem(
            A=A,
            B=B,
            rhs_u=rhs_u,
            rhs_p=rhs_p,
            dof_map=dm,
            null_space=self.null_space,
        )

"""Triangle meshes with assigned edge normals and signed edge incidences.

A mesh stores counterclockwise triangles, a deduplicated edge list, one fixed
unit normal per edge, and per-triangle signs relating the assigned normal to
the outward normal.  Interior edge (i, j) with i < j carries the normal
obtained by rotating the unit vector from vertex i to vertex j by 90 degrees
counterclockwise; boundary edges are re-oriented so the normal points out of
the domain and the single incident triangle sees sign +1.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import wraps

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

logger = logging.getLogger(__name__)

# Interior marker for per-edge tags.
TAG_INTERIOR = -1

# Side tags used by the structured rectangle generator.
TAG_BOTTOM = 1
TAG_RIGHT = 2
TAG_TOP = 3
TAG_LEFT = 4

# Tags used by the flow-channel generators and imported flow meshes.
TAG_INLET = 1
TAG_OUTLET = 2
TAG_WALL = 3


class MeshError(Exception):
    """Raised for malformed mesh input or broken mesh topology."""


def _cross2(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _freeze(arr):
    arr.flags.writeable = False
    return arr


def per_mesh(build):
    """build(mesh, *key), computed once per mesh and hashable key: kept in
    mesh._cache under (build, *key), so it lives as long as the mesh."""
    @wraps(build)
    def cached(mesh, *key):
        slot = (build, *key)
        if slot not in mesh._cache:
            mesh._cache[slot] = build(mesh, *key)
        return mesh._cache[slot]
    return cached


@dataclass(eq=False)
class Mesh2D:
    """Immutable triangle mesh with precomputed edge topology.

    Attributes
    ----------
    vertices : (NV, 2) float array
    triangles : (NT, 3) int array, counterclockwise vertex triples
    edges : (NE, 2) int array, endpoint pairs with smaller index first
    edge_normal : (NE, 2) float array, assigned unit normal per edge
    edge_lengths : (NE,) float array
    edge_to_triangles : (NE, 2) int array, -1 marks an absent neighbor
    triangle_edges : (NT, 3) int array, local edge k opposite local vertex k
    triangle_edge_sign : (NT, 3) int array, +1 where the assigned normal
        equals the outward normal of the triangle, -1 otherwise
    boundary_tags : (NE,) int array, TAG_INTERIOR for interior edges
    areas : (NT,) float array
    h_T : (NT,) float array, longest edge per triangle
    h : float, mesh size max(h_T)
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    edge_normal: np.ndarray
    edge_lengths: np.ndarray
    edge_to_triangles: np.ndarray
    triangle_edges: np.ndarray
    triangle_edge_sign: np.ndarray
    boundary_tags: np.ndarray
    areas: np.ndarray
    h_T: np.ndarray
    h: float
    _cache: dict = field(default_factory=dict, repr=False)  # see per_mesh

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    @property
    def num_edges(self):
        return self.edges.shape[0]

    @property
    def boundary_edge_indices(self):
        return np.flatnonzero(self.edge_to_triangles[:, 1] < 0)

    @classmethod
    def from_arrays(cls, vertices, triangles, tag_lookup=None, tri_lines=None):
        """Build full topology from raw vertex and triangle arrays.

        Every defect raises MeshError: bad shapes or indices, NaN or
        infinite coordinates, repeated or unused vertices, clockwise or
        degenerate triangles, triangles of area below 1e-14 h^2 (slivers
        the broken operators cannot invert), non-manifold or zero-length
        edges, and parts that share no edge.  tag_lookup maps the boundary
        edges' endpoint pairs (B, 2), smaller index first, to their int
        tags; None tags them 0.  tri_lines holds a source line per
        triangle for error messages.  Triangle indices may be floats with
        integral values.
        """
        vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        given = np.asarray(triangles)
        with np.errstate(invalid="ignore"):  # NaN or infinite: named below
            triangles = np.ascontiguousarray(given, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshError("vertex array must have shape (NV, 2)")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise MeshError("triangle array must have shape (NT, 3)")
        bad = ~np.isfinite(vertices).all(axis=1)
        if bad.any():
            raise MeshError(f"vertex {int(np.flatnonzero(bad)[0])} has a NaN or "
                            "infinite coordinate")
        nv, nt = vertices.shape[0], triangles.shape[0]
        if nt == 0:
            raise MeshError("mesh has no triangles")

        def _loc(t):
            if tri_lines is not None:
                return f"line {tri_lines[t]}: "
            return ""

        # a fraction, NaN or infinity is no index either
        outside = (triangles < 0) | (triangles >= nv) | (triangles != given)
        if outside.any():
            t, k = (int(i[0]) for i in np.nonzero(outside))
            raise MeshError(
                f"{_loc(t)}triangle {t} references vertex {given[t, k]} "
                f"outside 0..{nv - 1}"
            )

        dup = (
            (triangles[:, 0] == triangles[:, 1])
            | (triangles[:, 1] == triangles[:, 2])
            | (triangles[:, 0] == triangles[:, 2])
        )
        if dup.any():
            t = int(np.flatnonzero(dup)[0])
            raise MeshError(f"{_loc(t)}triangle {t} repeats a vertex index")

        p = vertices[triangles]
        signed = 0.5 * _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        bad = signed <= 0.0
        if bad.any():
            t = int(np.flatnonzero(bad)[0])
            raise MeshError(
                f"{_loc(t)}triangle {t} is degenerate or not counterclockwise "
                f"(signed area {signed[t]:.3e})"
            )
        areas = np.abs(signed)
        side = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]], axis=1)
        h_T = np.sqrt((side**2).sum(axis=2)).max(axis=1)
        floor = 1e-14 * h_T.max() * h_T.max()
        bad = areas < floor
        if bad.any():
            t = int(np.flatnonzero(bad)[0])
            raise MeshError(f"{_loc(t)}triangle {t} has area {areas[t]:.3e}, below {floor:.3e}")

        unused = np.bincount(triangles.ravel(), minlength=nv) == 0
        if unused.any():
            raise MeshError(
                f"vertex {int(np.flatnonzero(unused)[0])} is used by no triangle"
            )

        # Deduplicate edges.  Local edge k of a triangle joins local vertices
        # (k+1)%3 and (k+2)%3, i.e. it is opposite local vertex k.
        ea = triangles[:, [1, 2, 0]].ravel()
        eb = triangles[:, [2, 0, 1]].ravel()
        keys = np.minimum(ea, eb) * np.int64(nv) + np.maximum(ea, eb)
        uniq, tri_edge_flat = np.unique(keys, return_inverse=True)
        ne = uniq.shape[0]
        edges = np.column_stack([uniq // nv, uniq % nv])
        triangle_edges = tri_edge_flat.reshape(nt, 3)

        counts = np.bincount(tri_edge_flat, minlength=ne)
        if counts.max() > 2:
            e = int(np.argmax(counts))
            owners = np.flatnonzero((triangle_edges == e).any(axis=1))
            t = int(owners[2])
            raise MeshError(
                f"{_loc(t)}edge ({edges[e, 0]}, {edges[e, 1]}) is shared by "
                f"{counts[e]} triangles: mesh is not manifold"
            )

        # the triangles of each edge, in triangle order, fill its two slots
        edge_to_triangles = np.full((ne, 2), -1, dtype=np.int64)
        order = np.argsort(tri_edge_flat, kind="stable")
        sorted_edges = tri_edge_flat[order]
        slot = np.arange(3 * nt) - (np.cumsum(counts) - counts)[sorted_edges]
        edge_to_triangles[sorted_edges, slot] = order // 3

        is_boundary = edge_to_triangles[:, 1] < 0
        t0, t1 = edge_to_triangles[~is_boundary].T
        graph = coo_matrix((np.ones(t0.size), (t0, t1)), shape=(nt, nt))
        ncomp, label = connected_components(graph, directed=False)
        if ncomp > 1:
            t = int(np.flatnonzero(label != label[0])[0])
            raise MeshError(
                f"{_loc(t)}mesh has {ncomp} parts that share no edge: triangle "
                f"{t} is not connected to triangle 0"
            )

        dvec = vertices[edges[:, 1]] - vertices[edges[:, 0]]
        edge_lengths = np.hypot(dvec[:, 0], dvec[:, 1])
        tvec = dvec / edge_lengths[:, None]
        edge_normal = np.column_stack([-tvec[:, 1], tvec[:, 0]])

        # The assigned normal turns low -> high counterclockwise; the outward
        # normal turns the triangle's own edge direction ea -> eb clockwise.
        # They agree exactly when the triangle walks the edge high -> low.
        sign = np.where(ea > eb, 1, -1).reshape(nt, 3)

        # Re-orient boundary edges so the assigned normal points outward.
        be = np.flatnonzero(is_boundary)
        bt = edge_to_triangles[be, 0]
        bk = np.argmax(triangle_edges[bt] == be[:, None], axis=1)
        flip = sign[bt, bk] == -1
        edge_normal[be[flip]] = -edge_normal[be[flip]]
        sign[bt[flip], bk[flip]] = 1

        boundary_tags = np.full(ne, TAG_INTERIOR, dtype=np.int64)
        boundary_tags[be] = 0 if tag_lookup is None else tag_lookup(edges[be])

        return cls(
            vertices=_freeze(vertices),
            triangles=_freeze(triangles),
            edges=_freeze(edges),
            edge_normal=_freeze(edge_normal),
            edge_lengths=_freeze(edge_lengths),
            edge_to_triangles=_freeze(edge_to_triangles),
            triangle_edges=_freeze(triangle_edges),
            triangle_edge_sign=_freeze(sign),
            boundary_tags=_freeze(boundary_tags),
            areas=_freeze(areas),
            h_T=_freeze(h_T),
            h=float(h_T.max()),
        )


def _grid(xs, ys, keep, tags):
    """The mesh of the kept cells of the vertex grid xs by ys, keep a mask
    over the cells row by row.  Each cell is split along its lower-left to
    upper-right diagonal, and vertices that no kept cell uses are dropped.
    tags maps the boundary edges' midpoints (B, 2) to their tags."""
    j, i = np.divmod(np.flatnonzero(keep), xs.size - 1)
    ll = j * xs.size + i
    ul = ll + xs.size
    cells = np.stack([ll, ll + 1, ul + 1, ll, ul + 1, ul], axis=1).reshape(-1, 3)
    used, triangles = np.unique(cells, return_inverse=True)
    X, Y = np.meshgrid(xs, ys)
    vertices = np.column_stack([X.ravel(), Y.ravel()])[used]
    return Mesh2D.from_arrays(vertices, triangles.reshape(-1, 3),
                              tag_lookup=lambda pairs: tags(vertices[pairs].mean(axis=1)))


def _grid_cells(nx, ny, what):
    """nx * ny, the cells of a grid, refused with a MeshError naming what
    beyond the 2^31 - 1 that int32 indices address."""
    cells = nx * ny
    if not cells <= np.iinfo(np.int32).max:  # also inf
        raise MeshError(f"{what} has more than 2^31 - 1 cells, "
                        "beyond what int32 indices address")
    return cells


def build_rect_uniform(nx, ny, bounds=(0.0, 0.0, 1.0, 1.0)):
    """Uniform triangulation of a rectangle, nx by ny cells.

    Every cell is split along its lower-left to upper-right diagonal.
    Boundary edges carry the side tags TAG_BOTTOM/RIGHT/TOP/LEFT.
    """
    if not (isinstance(nx, (int, np.integer)) and isinstance(ny, (int, np.integer))):
        raise MeshError("cell counts must be integers")
    if nx < 1 or ny < 1:
        raise MeshError(f"cell counts must be positive, got ({nx}, {ny})")
    cells = _grid_cells(int(nx), int(ny), f"a {nx} by {ny} grid")
    x0, y0, x1, y1 = map(float, bounds)
    if not (x1 > x0 and y1 > y0):
        raise MeshError(f"empty rectangle {bounds}")
    tol = 1e-9 * max(x1 - x0, y1 - y0)

    def tags(mids):
        mx, my = mids[:, 0], mids[:, 1]
        # the first matching side wins
        sides = [
            np.abs(my - y0) < tol,
            np.abs(mx - x1) < tol,
            np.abs(my - y1) < tol,
            np.abs(mx - x0) < tol,
        ]
        if not np.logical_or.reduce(sides).all():
            raise MeshError("boundary edge midpoint off every side")
        return np.select(sides, [TAG_BOTTOM, TAG_RIGHT, TAG_TOP, TAG_LEFT])

    return _grid(np.linspace(x0, x1, nx + 1), np.linspace(y0, y1, ny + 1),
                 np.ones(cells, dtype=bool), tags)


def build_step_domain(h_target):
    """Backward-facing step channel (-4, 20) x (0, 2) minus [-4, 0] x [0, 1].

    The spacing snaps to the nearest values that keep the step corner (0, 1)
    on the grid.  Boundary tags: TAG_INLET at x = -4, TAG_OUTLET at x = 20,
    TAG_WALL elsewhere.
    """
    if not h_target > 0:
        raise MeshError(f"target spacing must be positive, got {h_target}")
    what = f"the grid of target spacing {h_target}"
    # the grid is 6 kx by 2 ky cells; first unrounded, as 4 / h may be inf
    _grid_cells(24.0 / h_target, 2.0 / h_target, what)
    kx = max(1, round(4.0 / h_target))
    ky = max(1, round(1.0 / h_target))
    dx = 4.0 / kx
    dy = 1.0 / ky
    nx = 6 * kx
    ny = 2 * ky

    # cells row by row, except those whose center lies under the step
    j, i = np.divmod(np.arange(_grid_cells(nx, ny, what), dtype=np.int64), nx)
    keep = ~((-4.0 + (i + 0.5) * dx < 0.0) & ((j + 0.5) * dy < 1.0))
    tol = 1e-9 * 24.0

    def tags(mids):
        out = np.full(mids.shape[0], TAG_WALL, dtype=np.int64)
        out[np.abs(mids[:, 0] + 4.0) < tol] = TAG_INLET
        out[np.abs(mids[:, 0] - 20.0) < tol] = TAG_OUTLET
        return out

    mesh = _grid(np.linspace(-4.0, 20.0, nx + 1), np.linspace(0.0, 2.0, ny + 1), keep, tags)
    if abs(dx - h_target) > 1e-12 or abs(dy - h_target) > 1e-12:
        logger.info(
            "step mesh spacing snapped to dx=%g dy=%g (target %g)", dx, dy, h_target
        )
    return mesh


def _tokens(path):
    """Yield (line_number, token_list) for content lines of an .m2d file."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            yield lineno, line.split()


# record kind -> (fields, parser, its layout, a field that does not parse,
# a record that fails its check, formatted with its fields and index)
_RECORDS = {
    "vertex": (2, float, "vertex needs exactly 'x y'", "bad vertex coordinates",
               "vertex {index} has a NaN or infinite coordinate"),
    "triangle": (3, int, "triangle needs exactly 'i j k'", "bad triangle indices", None),
    "boundary": (3, int, "boundary record needs 'a b tag'", "bad boundary record",
                 "bad boundary edge ({0}, {1})"),
}


def _records(path, rows, kind, check=None):
    """(records, lines) of the (line, tokens) rows of one kind, one array
    row per record; the first row that is malformed or fails check names
    its line."""
    width, parse, layout, unparsed, failed = _RECORDS[kind]
    out = np.empty((len(rows), width), dtype=parse)
    for i, (lineno, tok) in enumerate(rows):
        if len(tok) != width:
            raise MeshError(f"{path}: line {lineno}: {layout}")
        try:
            out[i] = [parse(s) for s in tok]
        except (ValueError, OverflowError):
            raise MeshError(f"{path}: line {lineno}: {unparsed}") from None
        if check is not None and not check(out[i]):
            why = failed.format(*out[i].tolist(), index=i)
            raise MeshError(f"{path}: line {lineno}: {why}")
    return out, np.array([lineno for lineno, _ in rows], dtype=np.int64)


def import_mesh(path):
    """Read a mesh interchange file and rebuild the topology from scratch.

    Format: a header line "NV NT NB", then NV lines "x y", NT lines "i j k"
    (0-based counterclockwise triangles), then NB lines "a b tag" labeling
    boundary edges.  '#' starts a comment; blank lines are ignored.
    """
    try:
        rows = list(_tokens(path))
    except UnicodeDecodeError as exc:
        raise MeshError(f"{path}: not UTF-8 text: {exc}") from None
    if not rows:
        raise MeshError(f"{path}: empty mesh file")

    lineno, tok = rows[0]
    if len(tok) != 3:
        raise MeshError(f"{path}: line {lineno}: header must be 'NV NT NB'")
    try:
        nv, nt, nb = (int(s) for s in tok)
    except ValueError:
        raise MeshError(f"{path}: line {lineno}: header must be 'NV NT NB'") from None
    if nv < 3 or nt < 1 or nb < 0:
        raise MeshError(f"{path}: line {lineno}: implausible counts {nv} {nt} {nb}")
    if len(rows) - 1 != nv + nt + nb:
        raise MeshError(
            f"{path}: expected {nv + nt + nb} records after the header, "
            f"found {len(rows) - 1}"
        )

    vertices = _records(path, rows[1 : 1 + nv], "vertex", lambda v: np.isfinite(v).all())[0]
    triangles, tri_lines = _records(path, rows[1 + nv : 1 + nv + nt], "triangle")
    records, rec_lines = _records(path, rows[1 + nv + nt :], "boundary",
                                  lambda r: 0 <= r[0] < nv and 0 <= r[1] < nv and r[0] != r[1])
    records[:, :2].sort(axis=1)  # as (smaller index, larger index, tag) rows

    keys = records[:, 0] * nv + records[:, 1]
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]

    def tag_lookup(pairs):
        """Tag each boundary edge from its one record."""
        want = pairs[:, 0] * nv + pairs[:, 1]
        again = np.zeros(nb, dtype=bool)
        again[order[1:]] = sorted_keys[1:] == sorted_keys[:-1]
        stray = ~np.isin(keys, want)
        if (again | stray).any():
            r = int(np.flatnonzero(again | stray)[0])
            why = "is listed twice" if again[r] else "is not a boundary edge"
            raise MeshError(
                f"line {rec_lines[r]}: edge ({records[r, 0]}, {records[r, 1]}) {why}"
            )
        missing = ~np.isin(want, keys)
        if missing.any():
            a, b = pairs[np.flatnonzero(missing)[0]]
            raise MeshError(f"boundary edge ({a}, {b}) has no tag record")
        return records[order[np.searchsorted(sorted_keys, want)], 2]

    try:
        return Mesh2D.from_arrays(
            vertices, triangles, tag_lookup=tag_lookup, tri_lines=tri_lines
        )
    except MeshError as err:
        raise MeshError(f"{path}: {err}") from None


def export_mesh(mesh, path):
    """Write the interchange format; output is deterministic for a given mesh."""
    bidx = mesh.boundary_edge_indices
    lines = ["# m2d"]
    lines.append(f"{mesh.num_vertices} {mesh.num_triangles} {len(bidx)}")
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    for i, j, k in mesh.triangles:
        lines.append(f"{int(i)} {int(j)} {int(k)}")
    for e in bidx:
        a, b = mesh.edges[e]
        lines.append(f"{int(a)} {int(b)} {int(mesh.boundary_tags[e])}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

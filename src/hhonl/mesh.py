"""Polytopal meshes on the unit square: generators, file ingestion, geometry.

A mesh is stored as vertex coordinates plus counterclockwise cell vertex
loops.  Faces (straight edges) are always derived from the cell loops,
never read from a file, so generated and ingested meshes go through the
same conformity validation.
"""

from __future__ import annotations

import json
import logging
import time
from pathlib import Path

import numpy as np

__all__ = [
    "MeshError",
    "MeshFormatError",
    "MeshInvalidError",
    "PolytopalMesh",
    "polygon_area",
    "polygon_centroid",
    "polygon_diameter",
    "generate_cartesian",
    "generate_triangular",
    "generate_hexagonal",
    "generate_kershaw",
    "read_mesh",
    "write_mesh",
    "mesh_size",
    "quasi_uniformity",
    "mesh_regularity",
]

log = logging.getLogger(__name__)


class MeshError(Exception):
    """Base class for mesh construction and validation failures."""


class MeshFormatError(MeshError):
    """A mesh file could not be parsed in its declared format."""


class MeshInvalidError(MeshError):
    """A constructed mesh violates a structural invariant."""


def polygon_area(vertices):
    """Signed shoelace area of a polygon (nv, 2), or of each polygon of a stack (m, nv, 2)."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[..., 0], v[..., 1]
    xn, yn = np.roll(x, -1, axis=-1), np.roll(y, -1, axis=-1)
    return 0.5 * np.sum(x * yn - xn * y, axis=-1)


def polygon_centroid(vertices):
    """Area centroid of a simple polygon (signed-area weighted, orientation safe).

    Takes one polygon (nv, 2) or a stack (m, nv, 2), returning (2,) or (m, 2).
    """
    v = np.asarray(vertices, dtype=float)
    x, y = v[..., 0], v[..., 1]
    xn, yn = np.roll(x, -1, axis=-1), np.roll(y, -1, axis=-1)
    cross = x * yn - xn * y
    six_area = 3.0 * np.sum(cross, axis=-1)
    return np.stack((np.sum((x + xn) * cross, axis=-1) / six_area,
                     np.sum((y + yn) * cross, axis=-1) / six_area), axis=-1)


def polygon_diameter(vertices):
    """Largest pairwise vertex distance of a polygon (nv, 2) or of each polygon of a stack."""
    v = np.asarray(vertices, dtype=float)
    diff = v[..., :, None, :] - v[..., None, :, :]
    return np.sqrt((diff**2).sum(axis=-1)).max(axis=(-2, -1))


def _segments_intersect(p, q, r, s):
    """Proper or touching intersection of open segments pq and rs."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(p, q, r)
    d2 = orient(p, q, s)
    d3 = orient(r, s, p)
    d4 = orient(r, s, q)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True
    return False


def _first(cell_lists):
    """Smallest cell id in a list of id arrays, or None when all are empty."""
    ids = np.concatenate([np.asarray(c, dtype=np.int64) for c in cell_lists])
    return int(ids.min()) if len(ids) else None


def _edges_cross(v):
    """Whether two non-adjacent edges of the closed polygon given by rows of ``v`` cross."""
    m = len(v)
    edges = [(v[i], v[(i + 1) % m]) for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if j == i + 1 or (i == 0 and j == m - 1):
                continue  # adjacent edges share a vertex
            if _segments_intersect(*edges[i], *edges[j]):
                return True
    return False


class PolytopalMesh:
    """Conforming polygonal mesh with derived faces and geometry.

    Parameters
    ----------
    vertices : array_like, shape (nv, 2)
        Vertex coordinates.
    cells : sequence of int sequences
        Vertex indices of each cell, traversed along the boundary.  Clockwise
        cells are silently reversed; the number of repairs is recorded in
        ``orientation_repairs``.

    Raises
    ------
    MeshInvalidError
        If a structural invariant fails (degenerate or self-intersecting
        cell, an edge shared by more than two cells, inconsistent edge
        orientation between neighbors, or cell areas that do not add up to
        the area enclosed by the boundary faces).
    """

    def __init__(self, vertices, cells):
        vertices = np.array(vertices, dtype=float)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshInvalidError("vertices must be an (nv, 2) array")
        self.vertices = vertices
        self.cells = [np.asarray(c, dtype=np.int64) for c in cells]
        if not self.cells:
            raise MeshInvalidError("mesh has no cells")
        for ci, cell in enumerate(self.cells):
            if cell.ndim != 1 or len(cell) < 3:
                raise MeshInvalidError(f"cell {ci} has fewer than 3 vertices")

        stacks = self._stacks()
        self._check_vertex_indices(stacks)
        area, self.cell_centroids, self.cell_diameters = self._cell_geometry(stacks)
        self.orientation_repairs = self._repair_orientation(area)
        self.cell_areas = np.abs(area)
        self._check_simplicity(stacks, area)
        self._build_faces()
        self._compute_face_geometry()
        self._check_partition()
        self._face_tree = None  # (order, depth, top) of interior_face_order
        self._cell_faces = None
        for arr in (self.vertices, self.faces, self.face_owner, self.face_neighbor,
                    self.cell_centroids, self.cell_areas, self.cell_diameters,
                    self.face_midpoints, self.face_lengths, self.face_normals):
            arr.setflags(write=False)

    # -- construction steps -------------------------------------------------

    def _stacks(self):
        """(cell ids, (m, nv) vertex indices) per vertex count, in input orientation."""
        sizes = np.fromiter(map(len, self.cells), dtype=np.int64, count=len(self.cells))
        stacks = []
        for nv in np.unique(sizes):
            ids = np.flatnonzero(sizes == nv)
            stacks.append((ids, np.stack([self.cells[ci] for ci in ids])))
        return stacks

    def _check_vertex_indices(self, stacks):
        missing, repeated = [], []
        for ids, idx in stacks:
            missing.append(ids[(idx.min(axis=1) < 0) | (idx.max(axis=1) >= len(self.vertices))])
            repeated.append(ids[(np.diff(np.sort(idx, axis=1), axis=1) == 0).any(axis=1)])
        if (ci := _first(missing)) is not None:
            raise MeshInvalidError(f"cell {ci} references a missing vertex")
        if (ci := _first(repeated)) is not None:
            raise MeshInvalidError(f"cell simplicity: cell {ci} repeats a vertex")

    def _cell_geometry(self, stacks):
        """Signed area, area centroid and diameter of every cell, one stack at a time."""
        nc = len(self.cells)
        area, centroid, diameter = np.empty(nc), np.empty((nc, 2)), np.empty(nc)
        # A degenerate cell divides by its zero area here; it is rejected next.
        with np.errstate(divide="ignore", invalid="ignore"):
            for ids, idx in stacks:
                v = self.vertices[idx]
                area[ids] = polygon_area(v)
                centroid[ids] = polygon_centroid(v)
                diameter[ids] = polygon_diameter(v)
        return area, centroid, diameter

    def _repair_orientation(self, area):
        span = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        scale = max(float(np.hypot(span[0], span[1])), 1.0)
        degenerate = np.flatnonzero(np.abs(area) <= 1e-14 * scale**2)
        if len(degenerate):
            raise MeshInvalidError(
                f"cell orientation/area: cell {degenerate[0]} is degenerate")
        clockwise = np.flatnonzero(area < 0)
        for ci in clockwise:
            self.cells[ci] = self.cells[ci][::-1].copy()
        return len(clockwise)

    def _check_simplicity(self, stacks, area):
        # Convex cells (all left turns, possibly with straight vertices) are
        # simple; only the others are searched for crossing edges.
        crossing = []
        for ids, idx in stacks:
            v = self.vertices[idx]
            d_in = v - np.roll(v, 1, axis=1)
            d_out = np.roll(v, -1, axis=1) - v
            turns = (d_in[..., 0] * d_out[..., 1] - d_in[..., 1] * d_out[..., 0]) \
                * np.sign(area[ids])[:, None]
            tol = -1e-12 * self.cell_diameters[ids, None] ** 2
            suspects = ids[~(turns >= tol).all(axis=1)]
            crossing.append([ci for ci in suspects if _edges_cross(self.vertices[self.cells[ci]])])
        if (ci := _first(crossing)) is not None:
            raise MeshInvalidError(f"cell simplicity: cell {ci} self-intersects")

    def _build_faces(self):
        """Faces numbered by first traversal; the first cell to traverse a face owns it.

        Edges are grouped by their sorted vertex pair; within a group the
        traversal order decides owner (first) and neighbor (second).  Also
        sets ``_by_face_count``: for each face count nf, ascending, the
        cell ids (m,) with nf faces, ascending, and their vertex ids and
        face ids (m, nf) in traversal order, read-only.
        """
        sizes = np.fromiter(map(len, self.cells), dtype=np.int64, count=len(self.cells))
        starts = np.cumsum(sizes) - sizes
        a = np.concatenate(self.cells)
        following = np.arange(1, len(a) + 1)
        following[starts + sizes - 1] = starts
        b = a[following]
        cell = np.repeat(np.arange(len(self.cells)), sizes)
        key = np.minimum(a, b) * len(self.vertices) + np.maximum(a, b)
        order = np.argsort(key, kind="stable")
        new = np.r_[True, key[order][1:] != key[order][:-1]]
        group = np.cumsum(new) - 1
        occurrence = np.arange(len(a)) - np.flatnonzero(new)[group]
        first = order[new]
        # The error found first along the traversal wins, as in a cell-by-cell walk.
        third = order[occurrence == 2]
        second = order[occurrence == 1]
        same_way = second[a[second] != b[first[group[occurrence == 1]]]]
        bad = [(edges.min(), message) for edges, message in (
            (third, "face incidence: edge {} belongs to more than two cells"),
            (same_way, "face conformity: edge {} traversed twice in the same direction"))
            if len(edges)]
        if bad:
            e, message = min(bad)
            raise MeshInvalidError(message.format((int(min(a[e], b[e])), int(max(a[e], b[e])))))
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        face = np.empty(len(a), dtype=np.int64)
        face[order] = rank[group]
        owner_edge = np.sort(first)
        self.faces = np.column_stack((a[owner_edge], b[owner_edge]))
        self.face_owner = cell[owner_edge]
        self.face_neighbor = np.full(len(first), -1, dtype=np.int64)
        self.face_neighbor[face[second]] = cell[second]
        self._by_face_count = []
        for nf in np.unique(sizes):
            ids = np.flatnonzero(sizes == nf)
            at = starts[ids, None] + np.arange(nf)
            stack = (ids, a[at], face[at])
            for arr in stack:
                arr.setflags(write=False)
            self._by_face_count.append(stack)

    def _compute_face_geometry(self):
        p0 = self.vertices[self.faces[:, 0]]
        p1 = self.vertices[self.faces[:, 1]]
        self.face_midpoints = 0.5 * (p0 + p1)
        tang = p1 - p0
        self.face_lengths = np.sqrt((tang**2).sum(axis=1))
        if np.any(self.face_lengths <= 0):
            raise MeshInvalidError("face conformity: zero-length face")
        # Outward normal of the owner cell: the owner traverses the face from
        # faces[:, 0] to faces[:, 1] counterclockwise, so (dy, -dx) points out.
        self.face_normals = np.column_stack(
            (tang[:, 1], -tang[:, 0])) / self.face_lengths[:, None]

    def _check_partition(self):
        # By the divergence theorem the area enclosed by the boundary faces
        # must match the sum of cell areas.  This is a consistency check on
        # the face orientation bookkeeping; a tiling that consistently covers
        # a smaller region than intended still passes, so callers who expect
        # a specific domain should also compare cell_areas.sum() against it.
        bmask = self.face_neighbor == -1
        boundary_area = float(np.sum(
            self.face_midpoints[bmask, 0] * self.face_normals[bmask, 0]
            * self.face_lengths[bmask]))
        total = float(self.cell_areas.sum())
        if abs(total - boundary_area) > 1e-12 * max(total, 1.0):
            raise MeshInvalidError(
                "area partition: cell areas sum to "
                f"{total:.15g} but the boundary encloses {boundary_area:.15g}")

    # -- accessors ----------------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_cells(self):
        return len(self.cells)

    @property
    def num_faces(self):
        return len(self.faces)

    @property
    def cell_faces(self):
        """Face ids of each cell in traversal order, one array per cell, built on first use."""
        if self._cell_faces is None:
            out = [None] * self.num_cells
            for ids, _, faces in self._by_face_count:
                for ci, row in zip(ids.tolist(), faces):
                    out[ci] = row
            self._cell_faces = out
        return self._cell_faces

    @property
    def boundary_faces(self):
        """Indices of faces with a single incident cell."""
        return np.flatnonzero(self.face_neighbor == -1)

    @property
    def interior_faces(self):
        return np.flatnonzero(self.face_neighbor != -1)

    @property
    def interior_face_order(self):
        """Nested-dissection order of the interior faces, built on first use.

        Entry ``i`` is a position in :attr:`interior_faces`; the order comes
        from a bisection tree of the cells (:func:`_cell_tree_order`) on
        their hop coordinates (:meth:`_hop_coordinates`).  It depends only
        on the mesh, so every linear solve on it reuses it.
        """
        return self._ordered()[0]

    @property
    def face_order_tree(self):
        """``(depth, top)`` of the cell tree behind :attr:`interior_face_order`.

        ``depth`` is its number of levels and ``top`` the number of faces
        in the root's separator, which the order puts last.
        """
        return self._ordered()[1:]

    def _ordered(self):
        if self._face_tree is None:
            start = time.perf_counter()
            interior = self.interior_faces
            order, depth, top = _cell_tree_order(
                self._hop_coordinates(), self.face_owner[interior], self.face_neighbor[interior])
            order.setflags(write=False)
            self._face_tree = order, depth, top
            log.debug("nested-dissection order of %d interior faces: cell tree depth %d, "
                      "top separator %d faces, built in %.3f s",
                      len(order), depth, top, time.perf_counter() - start)
        return self._face_tree

    def _hop_coordinates(self):
        """``(d_left - d_right, d_bottom - d_top)`` of every cell, as an (nc, 2) int array.

        ``d_s`` is the number of interior faces crossed from the nearest
        cell with a boundary face on side ``s``; a boundary face is on the
        side (-x, +x, -y or +y) its outward normal points along most.  The
        four distances come from one level-synchronous breadth-first sweep.
        A cell that no seed reaches keeps ``num_cells``.  On a logical grid
        the coordinates are the logical indices, however the cells slant.
        """
        nc = self.num_cells
        interior = self.interior_faces
        src = np.r_[self.face_owner[interior], self.face_neighbor[interior]]
        nbr = np.r_[self.face_neighbor[interior], self.face_owner[interior]]
        nbr = nbr[np.argsort(src, kind="stable")]  # each cell's neighbors, contiguous
        first = np.r_[0, np.cumsum(np.bincount(src, minlength=nc))]
        boundary = self.boundary_faces
        n = self.face_normals[boundary]
        side = np.argmax(np.column_stack((-n[:, 0], n[:, 0], -n[:, 1], n[:, 1])), axis=1)
        hops = np.full((4, nc), nc)
        hops[side, self.face_owner[boundary]] = 0
        flat = hops.reshape(-1)
        front = np.flatnonzero(flat == 0)  # positions in the (4, nc) array
        hop = 0
        while len(front):
            hop += 1
            s, c = np.divmod(front, nc)
            count = first[c + 1] - first[c]
            at = np.repeat(first[c] - np.cumsum(count) + count, count) + np.arange(count.sum())
            reached = np.repeat(s * nc, count) + nbr[at]
            front = np.unique(reached[flat[reached] == nc])
            flat[front] = hop
        return np.column_stack((hops[0] - hops[1], hops[2] - hops[3]))

    def cell_vertices(self, ci):
        """Coordinates of cell ``ci``'s corners, counterclockwise."""
        return self.vertices[self.cells[ci]]

    def outward_normal(self, ci, fi):
        """Unit normal of face ``fi`` pointing out of cell ``ci``."""
        if self.face_owner[fi] == ci:
            return self.face_normals[fi]
        if self.face_neighbor[fi] == ci:
            return -self.face_normals[fi]
        raise ValueError(f"face {fi} is not incident to cell {ci}")


def _cell_tree_order(coords, owner, neighbor):
    """Nested dissection (George, SIAM J. Numer. Anal. 1973) on a bisection tree of the cells.

    Each node splits its cells at the rank median of their ``coords``
    (nc, 2) along the longer side of their bounding box (ties kept in
    order), down to single cells.  Face ``i``, between ``owner[i]`` and
    ``neighbor[i]``, is in the separator of the deepest node holding both;
    faces come in post-order of their nodes, so both halves are eliminated
    before their separator.  Returns ``(order, depth, top)``: the face order, the number
    of levels and the size of the root's separator.
    """
    n = len(coords)
    perm = np.arange(n)  # cells in tree order; every node is a contiguous range
    sizes = np.array([n])
    below = np.empty(n, dtype=np.int64)  # end of the range of each cell's child node
    level = np.full(len(owner), -1)
    end = np.zeros(len(owner), dtype=np.int64)  # end of the range of each face's node
    depth = 0
    while sizes.max() > 1:
        starts = np.cumsum(sizes) - sizes
        node = np.repeat(np.arange(len(sizes)), sizes)
        pts = coords[perm]
        extent = np.maximum.reduceat(pts, starts) - np.minimum.reduceat(pts, starts)
        coord = np.where(extent[node, 1] > extent[node, 0], pts[:, 1], pts[:, 0])
        perm = perm[np.lexsort((coord, node))]
        half = sizes // 2
        right = np.arange(n) - starts[node] >= half[node]
        below[perm] = np.where(right, (starts + sizes)[node], (starts + half)[node])
        # Range ends name the nodes of a level; a right child ends with its parent.
        a, b = below[owner], below[neighbor]
        split = (level < 0) & (a != b)
        level[split] = depth
        end[split] = np.maximum(a, b)[split]
        sizes = np.column_stack((half, sizes - half)).ravel()
        sizes = sizes[sizes > 0]
        depth += 1
    # Post-order: by range end (a node ends with its last child), deeper first.
    order = np.lexsort((-level, end))
    return order, depth, int(np.count_nonzero(level == 0))


def mesh_size(mesh):
    """Largest cell diameter h = max_T h_T."""
    return float(mesh.cell_diameters.max())


def quasi_uniformity(mesh):
    """Ratio max h_T / min h_T (1 on uniform meshes)."""
    return float(mesh.cell_diameters.max() / mesh.cell_diameters.min())


def mesh_regularity(mesh):
    """Largest rho with rho^2 h_T <= h_F for every cell T and incident face F."""
    # Every (cell, face) incidence: each face with its owner, interior faces with their neighbor.
    inner = mesh.face_neighbor >= 0
    hF = np.concatenate((mesh.face_lengths, mesh.face_lengths[inner]))
    hT = mesh.cell_diameters[np.concatenate((mesh.face_owner, mesh.face_neighbor[inner]))]
    return float(np.sqrt((hF / hT).min()))


# -- generators -------------------------------------------------------------


def _grid_vertices(n):
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    return np.column_stack((X.ravel(), Y.ravel()))


def generate_cartesian(n):
    """Uniform n-by-n square mesh of the unit square."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    verts = _grid_vertices(n)
    cells = []
    for j in range(n):
        for i in range(n):
            v00 = j * (n + 1) + i
            cells.append([v00, v00 + 1, v00 + n + 2, v00 + n + 1])
    return PolytopalMesh(verts, cells)


def generate_triangular(n):
    """The n-by-n grid with each square split along its lower-left to upper-right diagonal."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    verts = _grid_vertices(n)
    cells = []
    for j in range(n):
        for i in range(n):
            v00 = j * (n + 1) + i
            v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
            cells.append([v00, v10, v11])
            cells.append([v00, v11, v01])
    return PolytopalMesh(verts, cells)


def generate_hexagonal(n):
    """Hexagonal-dominant mesh of the unit square with n brick rows.

    Rows of width-1/n bricks are offset by half a brick every other row;
    each interior brick junction is displaced vertically by 1/(4n), turning
    the bricks into convex hexagons (with quads and pentagons where rows
    meet the boundary).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    w = 1.0 / n
    delta = 0.25 * w

    def walls(r):
        off = 0.5 * (r % 2)
        xs = [(i + off) * w for i in range(-1, n + 1)]
        return [x for x in xs if 1e-12 < x < 1.0 - 1e-12]

    # Stations per horizontal interface: wall ends of the rows below and
    # above, displaced down/up respectively; boundary interfaces keep the
    # wall ends of their single adjacent row but stay flat.
    stations = []
    for j in range(n + 1):
        st = {0.0: 0.0, 1.0: 0.0}
        if j > 0:
            for x in walls(j - 1):
                st[x] = -delta if j < n else 0.0
        if j < n:
            for x in walls(j):
                st[x] = delta if j > 0 else 0.0
        stations.append(sorted(st.items()))

    vertex_index = {}
    vertices = []

    def vid(j, x, d):
        key = (j, round(x, 12))
        if key not in vertex_index:
            vertex_index[key] = len(vertices)
            vertices.append((x, j * w + d))
        return vertex_index[key]

    cells = []
    for r in range(n):
        cuts = [0.0] + walls(r) + [1.0]
        for xl, xr in zip(cuts, cuts[1:]):
            bottom = [(x, d) for x, d in stations[r] if xl - 1e-12 <= x <= xr + 1e-12]
            top = [(x, d) for x, d in stations[r + 1] if xl - 1e-12 <= x <= xr + 1e-12]
            poly = [vid(r, x, d) for x, d in bottom]
            poly += [vid(r + 1, x, d) for x, d in reversed(top)]
            cells.append(poly)
    return PolytopalMesh(np.asarray(vertices), cells)


# Distortion strength of the Kershaw profiles (1 would leave the grid undistorted).
_KERSHAW_EPS = 0.75


def _kershaw_right(y):
    y = np.asarray(y, dtype=float)
    return np.where(y <= 0.5, (2.0 - _KERSHAW_EPS) * y, 1.0 + _KERSHAW_EPS * (y - 1.0))


def _kershaw_left(y):
    return 1.0 - _kershaw_right(1.0 - np.asarray(y, dtype=float))


def generate_kershaw(n):
    """Kershaw distortion of an n-by-n grid (n divisible by 6).

    The vertical coordinate blends between a left and a right zigzag
    profile across six horizontal layers, producing the slanted layered
    cells of the FVCA5 benchmark (Herbin & Hubert, 2008).
    """
    if n < 1 or n % 6 != 0:
        raise ValueError("n must be a positive multiple of 6")
    xs = np.linspace(0.0, 1.0, n + 1)
    ys = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    layer = np.minimum((X * 6.0).astype(int), 5)
    lam = X * 6.0 - layer
    lft = _kershaw_left(Y)
    rgt = _kershaw_right(Y)
    Ynew = np.empty_like(Y)
    for L in range(6):
        m = layer == L
        if L == 0:
            Ynew[m] = lft[m]
        elif L in (1, 4):
            Ynew[m] = (1.0 - lam[m]) * lft[m] + lam[m] * rgt[m]
        elif L == 2:
            s = 0.5 * lam[m]
            Ynew[m] = (1.0 - s) * rgt[m] + s * lft[m]
        elif L == 3:
            s = 0.5 * (1.0 + lam[m])
            Ynew[m] = (1.0 - s) * rgt[m] + s * lft[m]
        else:
            Ynew[m] = rgt[m]
    verts = np.column_stack((X.ravel(), Ynew.ravel()))

    def gid(i, j):
        return i * (n + 1) + j

    cells = [[gid(i, j), gid(i + 1, j), gid(i + 1, j + 1), gid(i, j + 1)]
             for i in range(n) for j in range(n)]
    return PolytopalMesh(verts, cells)


# -- file formats -----------------------------------------------------------


def write_mesh(mesh, path):
    """Write ``mesh`` in the native JSON format (vertices and cell loops only)."""
    payload = {
        "vertices": [[float(x), float(y)] for x, y in mesh.vertices],
        "cells": [[int(i) for i in cell] for cell in mesh.cells],
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def _read_native_json(path):
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MeshFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    if not isinstance(payload, dict):
        raise MeshFormatError(f"{path}: top level must be an object")
    for key in ("vertices", "cells"):
        if key not in payload:
            raise MeshFormatError(f"{path}: missing '{key}' array")
    try:
        vertices = np.array(payload["vertices"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise MeshFormatError(f"{path}: 'vertices' is not a numeric (nv, 2) array") from exc
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshFormatError(f"{path}: 'vertices' is not a numeric (nv, 2) array")
    if not isinstance(payload["cells"], list):
        raise MeshFormatError(f"{path}: 'cells' is not a list of index lists")
    cells = []
    for ci, rec in enumerate(payload["cells"]):
        try:
            cells.append([int(i) for i in rec])
        except (TypeError, ValueError) as exc:
            raise MeshFormatError(f"{path}: cell record {ci} is not an index list") from exc
    return vertices, cells


class _TokenCursor:
    """Whitespace token stream over a text file, tracking line numbers."""

    def __init__(self, path):
        self.path = path
        self.tokens = []
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            for tok in line.split():
                self.tokens.append((tok, lineno))
        self.pos = 0

    def next_number(self, what):
        while self.pos < len(self.tokens):
            tok, lineno = self.tokens[self.pos]
            self.pos += 1
            try:
                return float(tok), lineno
            except ValueError:
                continue  # keyword or header line, skip
        raise MeshFormatError(f"{self.path}: unexpected end of file while reading {what}")

    def next_int(self, what):
        val, lineno = self.next_number(what)
        if val != int(val):
            raise MeshFormatError(f"{self.path}:{lineno}: expected an integer for {what}")
        return int(val), lineno


def _read_fvca_typ2(path):
    cur = _TokenCursor(path)
    nv, _ = cur.next_int("the vertex count")
    if nv <= 0:
        raise MeshFormatError(f"{path}: nonpositive vertex count")
    vertices = np.empty((nv, 2))
    for i in range(nv):
        vertices[i, 0], _ = cur.next_number(f"x of vertex {i + 1}")
        vertices[i, 1], _ = cur.next_number(f"y of vertex {i + 1}")
    ncell, _ = cur.next_int("the cell count")
    if ncell <= 0:
        raise MeshFormatError(f"{path}: nonpositive cell count")
    cells = []
    for ci in range(ncell):
        m, lineno = cur.next_int(f"the size of cell {ci + 1}")
        if m < 3:
            raise MeshFormatError(f"{path}:{lineno}: cell {ci + 1} has fewer than 3 vertices")
        idx = []
        for j in range(m):
            v, lineno = cur.next_int(f"vertex {j + 1} of cell {ci + 1}")
            if not 1 <= v <= nv:
                raise MeshFormatError(
                    f"{path}:{lineno}: cell {ci + 1} references vertex {v} of {nv}")
            idx.append(v - 1)  # 1-based on file
        cells.append(idx)
    return vertices, cells


_FORMATS = {"native-json": _read_native_json, "fvca-typ2": _read_fvca_typ2}


def read_mesh(path, format=None):
    """Read and validate a mesh file.

    ``format`` is ``"native-json"`` or ``"fvca-typ2"``; when omitted it is
    inferred from the file suffix (``.json`` or ``.typ2``).
    """
    path = Path(path)
    if format is None:
        format = {"json": "native-json", "typ2": "fvca-typ2"}.get(
            path.suffix.lstrip(".").lower())
        if format is None:
            raise MeshFormatError(
                f"{path}: cannot infer format from suffix; pass format=...")
    if format not in _FORMATS:
        raise MeshFormatError(f"unknown mesh format {format!r}")
    if not path.exists():
        raise MeshFormatError(f"{path}: no such file")
    vertices, cells = _FORMATS[format](path)
    return PolytopalMesh(vertices, cells)

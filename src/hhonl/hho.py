"""Hybrid high-order operator layer on a polytopal mesh.

Unknowns are polynomial blocks of degree k on cells and faces.  Per cell
the layer builds the gradient reconstruction G_T into P_k(T)^2, the
potential reconstruction R_T into P_{k+1}(T), and the stabilization S_T
penalizing the face/cell mismatch left after reconstruction.

Each congruence class has one orthonormal hierarchical cell basis of
degree k+1, and faces have orthonormal Legendre bases (see
:mod:`hhonl.basis`), so cell mass matrices are identities and face mass
matrices |F| I.

Cells are grouped by face count.  Each group has one cell rule of degree
2k+4, which yields the class bases and, kept for assembly, interpolation,
loads and errors, their degree-k values at its points; the energy norm
reads the face traces the operator build keeps.  Every loop over cells
runs over the groups in chunks of bounded size.
Cells with the same shape, size and face ownership share one congruence
class, and one row of their group's operator stacks, so uniform meshes
store a handful of operator sets.  Each group orders its cells by class
and cuts its chunks at the boundaries of its larger classes, so that a
chunk of one class takes that class's operators as 2-D operands and only
chunks pooling small classes gather a copy per cell.  Whatever consumes
a chunk does so through the per-cell contractions :func:`_apply`,
:func:`_apply_t`, :func:`_times` and :func:`_masses`, which take either
operand and pick the product from its shape: one flat matrix product for
all the cells of a class's 2-D matrix, a stacked product for a gathered
stack.  That choice is made there and nowhere else.

Quadrature points, and their offsets from the centroid, are stored as
contiguous component planes: (..., 2) views of (2, ...) buffers, so that a
pass over one coordinate runs along a plane, never along a trailing axis
of 2.  A field evaluated at the points may come in any memory order: its
values are read one component at a time.
"""

from __future__ import annotations

import logging
import numbers
import operator
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import (CellBasis, FaceBasis, _frame, graded_lex_exponents, legendre, monomials,
                    space_dimension)
from .quadrature import MAX_TRIANGLE_DEGREE, QuadratureError, cell_quadrature, face_quadrature

__all__ = [
    "HHOError",
    "OperatorBuildError",
    "HybridVector",
    "HHOSpace",
    "MAX_DEGREE",
]

log = logging.getLogger(__name__)

# Degrees k the space supports: cell rules of degree 2k+4 go up to MAX_TRIANGLE_DEGREE.
MAX_DEGREE = (MAX_TRIANGLE_DEGREE - 4) // 2

# Arrays gathered for one chunk of cells stay under about this many bytes.
_CHUNK_BYTES = 1 << 22

# The congruence key rounds centroid-relative corners, in units of the cell
# diameter, and diameters relative to the largest one to this resolution,
# so round-off in the vertex coordinates does not split a class.
_KEY_RESOLUTION = 1e-8


class HHOError(Exception):
    """Base class for operator-layer failures."""


class OperatorBuildError(HHOError):
    """A cell's local operators could not be built.

    Its quadrature rule failed, or one of its local systems is singular.
    """


@dataclass
class _Group:
    """Cells with one face count and the operator stacks of their congruence classes.

    Cell ``cells[i]`` uses row ``op[i]`` of every stack, one row per class.
    Cells are ordered by class, ascending ids within a class.  ``chunks``
    cuts them at the boundary of every class of at least ``step // 4``
    cells (:func:`_class_slices`); no chunk holds more than ``step``
    cells, which keeps every gathered array under ``_CHUNK_BYTES``.  A
    chunk's operands, its stacks at :func:`_chunk_rows`, are 2-D or
    gathered; only the contractions (:func:`_apply`...) tell them apart.
    """

    step: int
    chunks: list           # slices of the cells, one per chunk
    cells: np.ndarray      # (m,) cell ids, ordered by class
    face_ids: np.ndarray   # (m, nf) global face ids per slot
    gidx: np.ndarray       # (m, nloc) global dof indices
    op: np.ndarray         # (m,) stack row of each cell
    G: np.ndarray          # (c, 2 Nk, nloc)
    R: np.ndarray          # (c, Nk1, nloc)
    S: np.ndarray          # (c, nloc, nloc)
    P: np.ndarray          # (c, nf nF, Nk) face traces of the degree-k class basis, by slot
    A: np.ndarray          # (c, 2, 2) whitening of the class basis (orthonormal_frame)
    T: np.ndarray          # (c, Nk1, Nk1) its triangular orthonormalization
    offsets: np.ndarray    # (c, nq, 2) assembly quadrature points minus the centroid (planes)
    weights: np.ndarray    # (c, nq)
    # (c, nq, Nk) the degree-k class basis at those points, all that assembly,
    # loads, interpolation and errors read; the degree-(k+1) values are
    # monomials(offsets @ A^T, k+1) @ T (see HHOSpace.quadrature_batches).
    phi: np.ndarray

    def stack_bytes(self):
        """Bytes of the per-class stacks: operators, frames, quadrature and basis values."""
        return sum(a.nbytes for a in (self.G, self.R, self.S, self.P, self.A, self.T,
                                      self.offsets, self.weights, self.phi))


class _FacePattern(NamedTuple):
    """Rows, compressed-column pattern and slot map of the condensed face system.

    ``rows`` maps each global dof to its row of the face system, -1 for
    cell dofs and boundary face dofs.  Interior faces follow the mesh's
    nested-dissection order (``interior_face_order``), each face's k+1
    dofs in consecutive rows.  ``indptr`` and ``indices`` (rows sorted
    within each column, read-only) are those of the face system's CSC
    matrix.  ``slots`` holds one array per chunk of
    :meth:`HHOSpace._chunks`: the data slot of every entry of the chunk's
    local face-face matrices, flattened from (m, nf nF, nf nF); the entry
    (a, b) of a block a boundary face drops goes to the slot
    ``len(indices) + a``, past the pattern.
    """

    rows: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    slots: list


class HybridVector:
    """Hybrid coefficient vector: one degree-k block per cell and per face."""

    __slots__ = ("space", "cell_blocks", "face_blocks")

    def __init__(self, space, cell_blocks=None, face_blocks=None):
        self.space = space
        self.cell_blocks = (np.zeros((space.mesh.num_cells, space.Nk))
                            if cell_blocks is None else np.asarray(cell_blocks, float))
        self.face_blocks = (np.zeros((space.mesh.num_faces, space.k + 1))
                            if face_blocks is None else np.asarray(face_blocks, float))
        if self.cell_blocks.shape != (space.mesh.num_cells, space.Nk):
            raise ValueError("cell block array has the wrong shape")
        if self.face_blocks.shape != (space.mesh.num_faces, space.k + 1):
            raise ValueError("face block array has the wrong shape")

    def copy(self):
        return HybridVector(self.space, self.cell_blocks.copy(), self.face_blocks.copy())

    def with_zero_boundary(self):
        """Copy with all boundary face blocks zeroed."""
        out = self.copy()
        out.face_blocks[self.space.mesh.boundary_faces] = 0.0
        return out

    def to_flat(self):
        """Flatten to the global layout: all cell blocks, then all face blocks."""
        return np.concatenate((self.cell_blocks.ravel(), self.face_blocks.ravel()))

    def _binary(self, other, op):
        if not isinstance(other, HybridVector) or other.space is not self.space:
            raise ValueError("operands must share one space")
        return HybridVector(self.space, op(self.cell_blocks, other.cell_blocks),
                            op(self.face_blocks, other.face_blocks))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        return HybridVector(self.space, self.cell_blocks * scalar, self.face_blocks * scalar)

    __rmul__ = __mul__


def _derivative_matrices(degree):
    """Coefficient maps of d/dxi and d/deta in the graded monomial basis.

    (xi, eta) are a class basis's whitened coordinates A (x - x_T); see
    :meth:`HHOSpace._build_operators` for the derivatives in x and y.
    """
    exponents = graded_lex_exponents(degree)
    n = len(exponents)
    index = {(int(a), int(b)): i for i, (a, b) in enumerate(exponents)}
    Dx = np.zeros((n, n))
    Dy = np.zeros((n, n))
    for j, (a, b) in enumerate(exponents):
        if a > 0:
            Dx[index[(a - 1, b)], j] = a
        if b > 0:
            Dy[index[(a, b - 1)], j] = b
    return Dx, Dy


def _gauss(degree):
    """Face rule on [0, 1]: nodes and weights summing to 1, exact for ``degree``."""
    rule = face_quadrature(((0.0, 0.0), (1.0, 0.0)), degree)
    return rule.points[:, 0], rule.weights


def _slices(n, step):
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _class_slices(op, step):
    """Chunks of a class-ordered stack whose cells have the classes ``op``.

    A class of at least ``step // 4`` cells gets chunks of its own, so
    that they take its operators as 2-D operands; smaller classes are
    pooled in order into mixed chunks.  No chunk holds more than ``step``
    cells.
    """
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(op)) + 1, [len(op)]))
    out, lo = [], 0  # lo: the first cell of the pool not yet cut
    for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        if b - a >= step // 4:
            if lo < a:
                out.append(slice(lo, a))
            out += [slice(s, min(s + step, b)) for s in range(a, b, step)]
            lo = b
        elif b - lo > step:
            out.append(slice(lo, a))
            lo = a
    if lo < len(op):
        out.append(slice(lo, len(op)))
    return out


def _quadrature_points(centroids, offsets):
    """Points ``centroids[:, None] + offsets``, (m, nq, 2), stored as component planes.

    ``offsets`` is one class's (nq, 2) or a gathered (m, nq, 2).  Each
    coordinate is one long addition into its contiguous (m, nq) plane of a
    (2, m, nq) buffer, whose (m, nq, 2) transpose is returned:
    ``reshape(-1, 2)`` of it is a view whose columns are contiguous.  The
    points are bitwise those of the broadcast.
    """
    out = np.empty((2, len(centroids)) + offsets.shape[-2:-1])
    for d in range(2):
        np.add(centroids[:, d, None], offsets[..., d], out=out[d])
    return out.transpose(1, 2, 0)


def _chunk_rows(g, sl):
    """What indexes ``g``'s stacks for the cells ``g.cells[sl]``.

    The class itself when they share one (cells are ordered by class, so
    the first and last tell): the stacks then give 2-D operands.
    Otherwise each cell's row, which gathers a copy per cell.
    """
    op = g.op[sl]
    return op[0] if op[0] == op[-1] else op


def _step(floats_per_row):
    """Rows per chunk so that an array of ``floats_per_row`` per row stays under _CHUNK_BYTES."""
    return max(1, _CHUNK_BYTES // (8 * floats_per_row))


def _apply(op, x):
    """``op_i x_i`` for each cell i of a chunk: (..., m, a) from vectors ``x`` (..., m, n).

    ``op`` is a class's (a, n) matrix, which takes all vectors of all the
    leading planes of ``x`` in one flat product, or a gathered (m, a, n)
    stack, which takes them as (m, n, K), the planes moved last.
    """
    shape = x.shape[:-1] + op.shape[-2:-1]
    if op.ndim == 2:
        return (x.reshape(-1, op.shape[1]) @ op.T).reshape(shape)
    out = op @ np.moveaxis(x.reshape((-1,) + x.shape[-2:]), 0, -1)  # (m, a, K)
    return np.ascontiguousarray(np.moveaxis(out, -1, 0)).reshape(shape)


def _apply_t(op, x):
    """``op_i^T x_i`` for each cell i: (..., m, n) from vectors ``x`` (..., m, a)."""
    return _apply(np.swapaxes(op, -1, -2), x)


def _times(X, op):
    """``X_i op_i`` for each cell i: (m, b, n) from ``X`` (m, b, a), flat if ``op`` is 2-D.

    ``X`` may be the operand instead, ``op`` then per cell: ``_times(G^T, Y)`` is ``G_i^T Y_i``.
    """
    if op.ndim == 2:
        return (X.reshape(-1, op.shape[0]) @ op).reshape(X.shape[:-1] + op.shape[1:])
    return X @ op


def _masses(phi, v):
    """``phi_i^T diag(v_i) phi_i`` for each plane of ``v`` (..., m, nq): (..., m, N, N).

    A class's (nq, N) values give one product against its ``phi_qi phi_qj``;
    gathered (m, nq, N) ones are weighted one plane at a time.
    """
    nq, N = phi.shape[-2:]
    if phi.ndim == 2:
        P = (phi[:, :, None] * phi[:, None, :]).reshape(nq, N * N)
        return (v.reshape(-1, nq) @ P).reshape(v.shape[:-1] + (N, N))
    out = np.empty(v.shape[:-1] + (N, N))
    phiT = np.swapaxes(phi, 1, 2)
    for plane, weights in zip(out.reshape((-1,) + out.shape[-3:]), v.reshape((-1,) + v.shape[-2:])):
        np.matmul(phiT, weights[..., None] * phi, out=plane)
    return out


def _solve(A, B, cells, what):
    """Stacked ``np.linalg.solve``; a singular system raises OperatorBuildError naming its cell."""
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError:
        for i in range(len(A)):
            try:
                np.linalg.solve(A[i], B[i])
            except np.linalg.LinAlgError as exc:
                raise OperatorBuildError(f"cell {cells[i]}: singular {what}") from exc
        raise


def _is_whole(value):
    """Whether ``value`` is an integer or a whole float such as 2.0, not a boolean.

    ``int()`` would truncate 1.7 to 1 and read True as 1.
    """
    return not isinstance(value, bool) and (
        isinstance(value, numbers.Integral)
        or (isinstance(value, numbers.Real) and float(value).is_integer()))


def _congruence_index(rel, signs, size):
    """Class of each cell of a stack, and the position of each class's first cell.

    Cells share a class when their centroid-relative corners in units of
    the diameter, their face ownership signs and their diameters relative
    to the mesh's largest agree at ``_KEY_RESOLUTION``.  Classes are
    numbered in order of first appearance.
    """
    m = len(rel)
    key = np.hstack((np.rint(rel.reshape(m, -1) / _KEY_RESOLUTION), signs,
                     np.rint(size / _KEY_RESOLUTION)[:, None])).astype(np.int64)
    _, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse.reshape(-1)], first[order]


class HHOSpace:
    """Degree-k hybrid space over a mesh, with cached local operators.

    Parameters
    ----------
    mesh : PolytopalMesh
    k : int
        Polynomial degree of the cell and face unknowns, 0..MAX_DEGREE.

    ``quad_degree`` is 2k+4.  Each face-count group of cells has one cell
    rule of that degree, and faces use the Gauss rule of that degree.
    The rule orthonormalizes the class bases, whose products have degree
    2(k+1), and serves the operator build, assembly, interpolation, loads
    and errors.  Cell blocks hold coefficients in the first dim P_k
    functions of :meth:`cell_basis`, face blocks in :meth:`face_basis`.
    """

    def __init__(self, mesh, k):
        if not (_is_whole(k) and 0 <= k <= MAX_DEGREE):
            raise ValueError(f"k must be an integer in 0..{MAX_DEGREE} (cell rules of degree "
                             f"2k+4 go up to {MAX_TRIANGLE_DEGREE}), got {k!r}")
        self.mesh = mesh
        self.k = int(k)
        self.quad_degree = 2 * self.k + 4
        self.Nk = space_dimension(self.k)
        self.Nk1 = space_dimension(self.k + 1)
        self.nF = self.k + 1
        self.num_cell_dofs = mesh.num_cells * self.Nk
        self.num_face_dofs = mesh.num_faces * self.nF
        self.num_dofs = self.num_cell_dofs + self.num_face_dofs
        self._classes = None      # representative cell of each congruence class
        self._groups = None       # one _Group per face count
        self._where = None        # (num_cells, 2): each cell's group and position in it
        self._face_pattern = None

    # -- bases --------------------------------------------------------------

    def cell_basis(self, ci, degree=None):
        """Cell ``ci``'s class basis of ``degree`` <= k+1 (default k+1), truncated if lower."""
        g, i = self._locate(ci)
        degree = self.k + 1 if degree is None else degree
        if not 0 <= degree <= self.k + 1:
            raise ValueError(f"the class bases have degree {self.k + 1}, got {degree}")
        return CellBasis(self.mesh.cell_vertices(ci), degree, frame=(g.A[g.op[i]], g.T[g.op[i]]),
                         cell_index=ci, center=self.mesh.cell_centroids[ci])

    def face_basis(self, fi):
        """Degree-k Legendre basis on face ``fi`` in the owner cell's direction."""
        return FaceBasis(self.mesh.vertices[self.mesh.faces[fi]], self.k)

    # -- operator build --------------------------------------------------------

    def _ensure_classes(self):
        """Build the operators of every congruence class, one face-count group at a time."""
        if self._classes is not None:
            return
        start = time.perf_counter()
        mesh = self.mesh
        Nk, nF = self.Nk, self.nF
        hmax = mesh.cell_diameters.max()
        groups, reps = [], []
        for cells, vids, face_ids in mesh._by_face_count:
            nf = vids.shape[1]
            signs = np.where(mesh.face_owner[face_ids] == cells[:, None], 1, -1)
            h = mesh.cell_diameters[cells]
            verts = mesh.vertices[vids] - mesh.cell_centroids[cells, None]
            op, rows = _congruence_index(verts / h[:, None, None], signs, h / hmax)
            reps.append(cells[rows])
            stacks = self._build_stacks(verts[rows], h[rows], signs[rows], cells[rows])
            order = np.argsort(op, kind="stable")
            cells, face_ids, op = cells[order], face_ids[order], op[order]
            nloc = Nk + nf * nF
            fdofs = self.num_cell_dofs + face_ids[:, :, None] * nF + np.arange(nF)
            gidx = np.hstack((cells[:, None] * Nk + np.arange(Nk), fdofs.reshape(len(cells), -1)))
            # The widest per-cell array a chunk gathers: callback values at
            # the quadrature points, or a local matrix.  The Nk1 term is
            # wider than the stored basis values (Nk): it bounds the per-point
            # callback and mass work, and it keeps the chunks as they were
            # cut when the stored values had Nk1 columns.
            nq = stacks[-1].shape[1]
            step = _step(max(nq * max(self.Nk1, 4), nloc * nloc))
            groups.append(_Group(step, _class_slices(op, step), cells, face_ids, gidx, op,
                                 *stacks))
        where = np.empty((mesh.num_cells, 2), dtype=np.int64)
        for gi, g in enumerate(groups):
            where[g.cells, 0], where[g.cells, 1] = gi, np.arange(len(g.cells))
        self._where = where
        self._groups = groups
        self._classes = np.concatenate(reps)
        kinds = [np.ndim(_chunk_rows(g, sl)) for g in groups for sl in g.chunks]
        log.debug("operators of %d cells in %d face-count groups, %d distinct classes, "
                  "built in %.3f s; %d chunks, %d of one class; stacks %.1f MB",
                  mesh.num_cells, len(groups), len(self._classes), time.perf_counter() - start,
                  len(kinds), kinds.count(0), sum(g.stack_bytes() for g in groups) / 1e6)

    def _build_stacks(self, verts, h, signs, cells):
        """Operator stacks, class frames, quadrature and degree-k basis values of ``cells``.

        ``verts`` holds their centroid-relative corners (c, nf, 2), ``h``
        their diameters and ``signs`` +1 where the cell owns the face of a
        slot, -1 where its neighbor does.  One rule yields each cell's
        orthonormal basis of degree k+1 and is kept for assembly.  The
        frames (A, T), the basis values and the operators are built a slice
        of cells at a time, and only the first Nk columns of the values,
        the degree-k basis that assembly, loads, interpolation and errors
        read, are kept: the build never holds every class's degree-(k+1)
        table at once.
        """
        try:
            rule = cell_quadrature(verts, self.quad_degree)
        except QuadratureError as exc:
            raise OperatorBuildError(f"cell {cells[exc.index]}: {exc}") from exc
        c, nq = rule.weights.shape
        Nk, Nk1 = self.Nk, self.Nk1
        A, T, phi = np.empty((c, 2, 2)), np.empty((c, Nk1, Nk1)), np.empty((c, nq, Nk))
        stacks = None
        for sl in _slices(c, _step(2 * nq * Nk1)):
            A[sl], T[sl], values = _frame(rule.points[sl], rule.weights[sl], self.k + 1)
            phi[sl] = values[..., :Nk]
            del values  # the slice's degree-(k+1) table is not kept
            part = self._build_operators(verts[sl], h[sl], signs[sl], cells[sl], A[sl], T[sl])
            if stacks is None:
                stacks = [np.empty((c,) + a.shape[1:]) for a in part]
            for whole, a in zip(stacks, part):
                whole[sl] = a
        offsets = np.moveaxis(np.moveaxis(rule.points, -1, 0).copy(), 0, -1)  # as planes
        return stacks + [A, T, offsets, rule.weights, phi]

    def _build_operators(self, verts, h, signs, cells, A, T):
        """G, R, S and degree-k face traces P of a stack of cells, in their class bases."""
        k, Nk, Nk1, nF = self.k, self.Nk, self.Nk1, self.nF
        c, nf = verts.shape[:2]
        nloc = Nk + nf * nF

        # d/dx_d maps coefficients by T^-1 (sum_e A_ed D_e) T, where D_e
        # differentiates the monomials in the whitened coordinate e.
        DA = np.einsum("ced,eij->cdij", A, np.stack(_derivative_matrices(k + 1)))
        D = np.linalg.inv(T)[:, None] @ DA @ T[:, None]                     # (c, 2, Nk1, Nk1)
        K1 = (np.swapaxes(D, -1, -2) @ D).sum(axis=1)                      # stiffness
        lap = (D @ D).sum(axis=1)                                          # Laplacian

        # Face slots in the cell's counterclockwise order: the outward normal
        # of the edge a -> b is (dy, -dx); the face basis runs in the owner's
        # direction, from a to b where the cell owns the face.
        a = verts
        b = np.roll(verts, -1, axis=1)
        edge = b - a
        length = np.hypot(edge[..., 0], edge[..., 1])                      # (c, nf)
        normal = np.stack((edge[..., 1], -edge[..., 0]), axis=-1) / length[..., None]
        own = (signs > 0)[..., None]
        fstart = np.where(own, a, b)
        t, wt = _gauss(self.quad_degree)
        fpts = fstart[:, :, None] + t[:, None] * np.where(own, edge, -edge)[:, :, None]
        phiF = monomials(fpts @ np.swapaxes(A, 1, 2)[:, None], k + 1) @ T[:, None]
        wphiF = np.swapaxes(phiF * (wt * length[..., None])[..., None], -1, -2)
        TF1 = wphiF @ legendre(t, k)                                       # (c, nf, Nk1, nF)

        # Gradient reconstruction: (G v, tau)_T = (grad v_T, tau)_T
        # + sum_F (v_F - v_T, tau.n)_F, by parts -(v_T, div tau)_T + sum_F (v_F, tau.n)_F.
        G = np.empty((c, 2, Nk, nloc))
        G[..., :Nk] = -np.swapaxes(D[:, :, :Nk, :Nk], -1, -2)
        G[..., Nk:] = np.einsum("csd,csij->cdisj", normal,
                                TF1[:, :, :Nk]).reshape(c, 2, Nk, nf * nF)

        # Potential reconstruction: (grad R v, grad q)_T = -(v_T, lap q)_T
        # + sum_F (v_F, grad q.n)_F for q in P_{k+1}.  phi_0 is constant, so
        # its row is void and the mean constraint (R v, 1)_T = (v_T, 1)_T
        # reads R_0 = v_T,0; the other rows are solved.
        An = np.swapaxes(np.einsum("csd,cdij->csij", normal, D[..., 1:]), -1, -2)
        B = np.empty((c, Nk1 - 1, nloc))
        B[..., :Nk] = -np.swapaxes(lap[:, :Nk, 1:], 1, 2)
        B[..., Nk:] = np.swapaxes(An @ TF1, 1, 2).reshape(c, Nk1 - 1, nf * nF)
        R = np.zeros((c, Nk1, nloc))
        R[:, 0, 0] = 1.0
        R[:, 1:] = _solve(K1[:, 1:, 1:], B, cells, "potential reconstruction system")

        # Stabilization: face projections TF1^T / |F| of v_F - v_T - (R v - pi_T^k R v),
        # pi_T^k a truncation, squared against the face mass |F| I and scaled by 1/h_T.
        PT1 = np.swapaxes(TF1, -1, -2) / length[..., None, None]           # (c, nf, nF, Nk1)
        delta = -PT1[..., Nk:] @ R[:, None, Nk:]                           # (c, nf, nF, nloc)
        delta[..., :Nk] -= PT1[..., :Nk]
        slot = np.arange(nf)[:, None]
        delta[:, slot, np.arange(nF), Nk + slot * nF + np.arange(nF)] += 1.0
        S = (np.swapaxes(delta, -1, -2) @ (length[..., None, None] * delta)).sum(axis=1)
        S /= h[:, None, None]
        return (G.reshape(c, 2 * Nk, nloc), R, 0.5 * (S + np.swapaxes(S, 1, 2)),
                PT1[..., :Nk].reshape(c, nf * nF, Nk))

    def _check_cell(self, ci):
        """Raise IndexError unless ``ci`` is a cell id of the mesh."""
        if not 0 <= operator.index(ci) < self.mesh.num_cells:
            raise IndexError(f"cell {ci} is not in 0..{self.mesh.num_cells - 1}")

    def _locate(self, ci):
        """Group of cell ``ci`` and the cell's position in the group's ``cells``."""
        self._check_cell(ci)
        self._ensure_classes()
        gi, i = self._where[ci]
        return self._groups[gi], int(i)

    def _chunks(self):
        """(group, slice of its cells) pairs covering every cell once, the groups' ``chunks``."""
        self._ensure_classes()
        for g in self._groups:
            yield from ((g, sl) for sl in g.chunks)

    def _local_values(self, g, sl, v):
        """Local dof blocks of ``v`` for the cells ``g.cells[sl]``, (m, nloc)."""
        ids = g.cells[sl]
        return np.hstack((v.cell_blocks[ids],
                          v.face_blocks[g.face_ids[sl]].reshape(len(ids), -1)))

    # -- public operator access ---------------------------------------------

    def build_gradient_reconstruction(self, ci):
        """Matrix of G_T: local dof block to P_k(T)^2 coefficients (x block, then y)."""
        g, i = self._locate(ci)
        return g.G[g.op[i]]

    def build_potential_reconstruction(self, ci):
        """Matrix of R_T: local dof block to P_{k+1}(T) coefficients."""
        g, i = self._locate(ci)
        return g.R[g.op[i]]

    def build_stabilization(self, ci):
        """Stabilization bilinear form s_T on the local dof block."""
        g, i = self._locate(ci)
        return g.S[g.op[i]]

    def local_dof_indices(self, ci):
        """Global dof indices of cell ``ci``'s local block."""
        g, i = self._locate(ci)
        return g.gidx[i]

    # -- interpolation -------------------------------------------------------

    def interpolate(self, v):
        """Blockwise L^2 projection of the field ``v`` onto the hybrid space.

        ``v`` takes an (n, 2) array of points and returns n values.
        """
        mesh = self.mesh
        cell_blocks = self._cell_moments(lambda points, ids: v(points))
        t, wt = _gauss(self.quad_degree)
        p0 = mesh.vertices[mesh.faces[:, 0]]
        pts = np.empty((2, mesh.num_faces, len(t)))  # component planes, as the cell points
        for d, edge in enumerate((mesh.vertices[mesh.faces[:, 1]] - p0).T):
            np.add(p0[:, d, None], t * edge[:, None], out=pts[d])
        vals = np.asarray(v(pts.reshape(2, -1).T), dtype=float).reshape(mesh.num_faces, len(t))
        return HybridVector(self, cell_blocks, (vals * wt) @ legendre(t, self.k))

    def _cell_moments(self, values):
        """The moments phi^T (w values) against every cell's degree-k basis, (num_cells, Nk).

        ``values(points, ids)`` returns values at the (m nq, 2) points of a chunk's cells ``ids``.
        """
        out = np.empty((self.mesh.num_cells, self.Nk))
        for ids, points, w, phi in self._chunk_rules():
            vals = np.asarray(values(points, ids), dtype=float).reshape(len(ids), -1) * w
            out[ids] = _apply_t(phi, vals)
        return out

    def _chunk_rules(self):
        """Yield each chunk's (cell ids, points, weights, degree-k basis values).

        The points are (m nq, 2), with contiguous columns
        (:func:`_quadrature_points`).  A chunk of one class gets its class's
        weights (nq,) and values (nq, Nk), a mixed chunk a copy per cell,
        (m, nq) and (m, nq, Nk).
        """
        for g, sl in self._chunks():
            ids, at = g.cells[sl], _chunk_rows(g, sl)
            points = _quadrature_points(self.mesh.cell_centroids[ids], g.offsets[at])
            yield ids, points.reshape(-1, 2), g.weights[at], g.phi[at]

    # -- norms and reconstructions -------------------------------------------

    def gradient_norm(self, v):
        """Broken L^2 norm of the reconstructed gradient, (sum_T ||G_T v||^2)^(1/2)."""
        return float(np.sqrt(max(self._gradient_energy(v), 0.0)))

    def _gradient_energy(self, v):
        """sum_T ||G_T v||^2_T, the squared coefficients of G_T v in the orthonormal bases."""
        total = 0.0
        for g, sl in self._chunks():
            q = _apply(g.G[_chunk_rows(g, sl)], self._local_values(g, sl, v))
            total += float(np.sum(q**2))
        return total

    def _face_jumps(self, v):
        """sum_T sum_F h_F^(-1) ||v_F - v_T||^2_F, with h_F = |F|, from the stored face traces.

        On a straight face v_T lies in P_k(F), so its trace is exactly
        ``P v_T`` in the face basis, whose mass matrix |F| I cancels h_F.
        """
        total = 0.0
        for g, sl in self._chunks():
            trace = _apply(g.P[_chunk_rows(g, sl)], v.cell_blocks[g.cells[sl]])  # (m, nf nF)
            total += float(np.sum((v.face_blocks[g.face_ids[sl]].reshape(trace.shape) - trace)**2))
        return total

    def discrete_norm_1h(self, v):
        """Energy-type seminorm from the operator stacks: G_T v plus the scaled face jumps."""
        return float(np.sqrt(max(self._gradient_energy(v) + self._face_jumps(v), 0.0)))

    def reconstruct_gradient_global(self, v):
        """Coefficients of G_T v in every cell's degree-k basis, (num_cells, 2, Nk).

        Row ``[ci, 0]`` holds the x component, ``[ci, 1]`` the y component,
        each in the first Nk functions of ``cell_basis(ci)``.
        """
        coeffs = np.empty((self.mesh.num_cells, 2, self.Nk))
        for g, sl in self._chunks():
            q = _apply(g.G[_chunk_rows(g, sl)], self._local_values(g, sl, v))
            coeffs[g.cells[sl]] = q.reshape(-1, 2, self.Nk)
        return coeffs

    def reconstruct_potential_global(self, v):
        """Coefficients of R_T v in every cell's ``cell_basis(ci)``, (num_cells, Nk1)."""
        coeffs = np.empty((self.mesh.num_cells, self.Nk1))
        for g, sl in self._chunks():
            coeffs[g.cells[sl]] = _apply(g.R[_chunk_rows(g, sl)], self._local_values(g, sl, v))
        return coeffs

    # -- iteration helpers ----------------------------------------------------

    def quadrature_batches(self):
        """Yield (cell ids, points, weights, degree-(k+1) basis values) batches.

        Shapes are (m,), (m, nq, 2), (m, nq) and (m, nq, Nk1); the cells of
        one batch share a face count.  The points are stored as component
        planes (:func:`_quadrature_points`).  The space stores only the
        degree-k values, so each batch forms its degree-(k+1) values as
        ``monomials(offsets @ A^T, k+1) @ T``, the operations by which the
        build orthonormalized the class bases: bit for bit the values the
        build computed.
        """
        for g, sl in self._chunks():
            ids, op = g.cells[sl], g.op[sl]
            offsets = g.offsets[op]
            pts = _quadrature_points(self.mesh.cell_centroids[ids], offsets)
            phi = monomials(offsets @ np.swapaxes(g.A[op], 1, 2), self.k + 1) @ g.T[op]
            yield ids, pts, g.weights[op], phi

    def free_dofs(self):
        """All cell dofs plus interior face dofs, in global layout order."""
        interior = self.mesh.interior_faces
        fdofs = (self.num_cell_dofs + interior[:, None] * self.nF
                 + np.arange(self.nF)).ravel()
        return np.concatenate(
            (np.arange(self.num_cell_dofs), fdofs))

    def face_pattern(self):
        """The condensed face system's rows, CSC pattern and slot map, a :class:`_FacePattern`.

        Built once per space, since every system of a solve on the space
        couples the same faces: two interior faces couple when one cell has
        both.
        """
        if self._face_pattern is None:
            self._face_pattern = self._build_face_pattern()
        return self._face_pattern

    def _build_face_pattern(self):
        """The face system's rows and pattern, built at face-block level (see :meth:`face_pattern`).

        Each pair of a cell's interior faces is one block pair; the unique
        ones are numbered u in column-major order, ``ptr_J`` of them in the
        block columns before J and ``c_J`` in J.  Block column J owns the
        ``(k+1)^2 c_J`` slots from ``(k+1)^2 ptr_J`` on, and entry (a, b) of
        block pair u lies at ``(k+1) (u + k ptr_J + b c_J) + a``: rows are
        sorted within each column.  Index arrays are int32 while the system
        fits, so SuperLU takes them without a copy.
        """
        start = time.perf_counter()
        mesh, nF = self.mesh, self.nF
        faces = mesh.interior_faces[mesh.interior_face_order]
        nb = len(faces)
        block = np.full(mesh.num_faces, -1, dtype=np.int64)   # each face's place in the face order
        block[faces] = np.arange(nb)
        fdofs = self.num_cell_dofs + faces[:, None] * nF + np.arange(nF)
        rows = np.full(self.num_dofs, -1, dtype=np.int64)
        rows[fdofs.ravel()] = np.arange(fdofs.size)
        # Block pair (row I, column J) of each pair of a cell's faces as J nb + I, or -1.
        keys = []
        for g, sl in self._chunks():
            fb = block[g.face_ids[sl]]
            keys.append(np.where((fb[:, :, None] >= 0) & (fb[:, None, :] >= 0),
                                 fb[:, None, :] * nb + fb[:, :, None], -1))
        flat = np.concatenate([key.ravel() for key in keys])
        live = flat >= 0
        pairs, u = np.unique(flat[live], return_inverse=True)
        col, row = np.divmod(pairs, max(nb, 1))
        count = np.bincount(col, minlength=nb)
        ptr = np.concatenate(([0], np.cumsum(count)))
        nnz = nF * nF * len(pairs)
        itype = np.int32 if nnz + nF <= np.iinfo(np.int32).max else np.int64
        # Slot of entry (0, 0) of each block pair, and the step from b to b + 1.
        corner = nF * (np.arange(len(pairs)) + (nF - 1) * ptr[col])
        stride = nF * count[col]
        # The same for each pair of a cell's faces; the entries of a pair
        # with a boundary face go past the pattern, to slot nnz + a.
        base = np.full(flat.shape, nnz, dtype=itype)
        step = np.zeros(flat.shape, dtype=itype)
        base[live], step[live] = corner[u], stride[u]
        a, b = np.arange(nF, dtype=itype)[:, None, None], np.arange(nF, dtype=itype)
        slots, lo = [], 0
        for key in keys:
            m, nf = key.shape[:2]
            at = slice(lo, lo + key.size)
            lo += key.size
            slots.append((base[at].reshape(m, nf, 1, nf, 1) + a
                          + b * step[at].reshape(m, nf, 1, nf, 1)).ravel())
        # Each block pair's rows, once for every column b of its block column.
        indices = np.empty(nnz, dtype=itype)
        pair_rows = nF * row[:, None] + np.arange(nF)
        for j in range(nF):
            indices[(corner + j * stride)[:, None] + np.arange(nF)] = pair_rows
        indptr = np.append(nF * (nF * ptr[:-1, None] + count[:, None] * np.arange(nF)),
                           nnz).astype(itype)
        indices.flags.writeable = indptr.flags.writeable = False  # shared by every system
        log.debug("face-system pattern: %d block pairs, %d nonzeros, %.1f MB of slots, "
                  "built in %.3f s", len(pairs), nnz, sum(s.nbytes for s in slots) / 1e6,
                  time.perf_counter() - start)
        return _FacePattern(rows, indptr, indices, slots)

    def vector_from_flat(self, x):
        """Rebuild a HybridVector from the flat global layout."""
        x = np.asarray(x, dtype=float)
        cells = x[:self.num_cell_dofs].reshape(self.mesh.num_cells, self.Nk)
        faces = x[self.num_cell_dofs:].reshape(self.mesh.num_faces, self.nF)
        return HybridVector(self, cells, faces)

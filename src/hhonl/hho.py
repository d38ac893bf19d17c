"""Hybrid high-order operator layer on a polytopal mesh.

Unknowns are polynomial blocks of degree k on cells and faces.  Per cell
the layer builds the gradient reconstruction G_T into P_k(T)^2, the
potential reconstruction R_T into P_{k+1}(T), and the stabilization S_T
penalizing the face/cell mismatch left after reconstruction.

Cells are grouped by face count.  Each group has one cell rule of degree
2k+4 and one batched basis evaluation at its points, which serve the
operator build (stacked solves per stage), assembly, interpolation, norms
and errors.  Every loop over cells runs over the groups in chunks of
bounded size.
Congruence only deduplicates: cells with the same shape, size and face
ownership share one row of their group's operator stacks, so uniform
meshes store a handful of operator sets.
"""

from __future__ import annotations

import logging
import numbers
import operator
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import (CellBasis, FaceBasis, _powers, _unit_face_mass, graded_lex_exponents,
                    scaled_monomials, space_dimension)
from .quadrature import MAX_TRIANGLE_DEGREE, QuadratureError, cell_quadrature, face_quadrature

__all__ = [
    "HHOError",
    "OperatorBuildError",
    "HybridVector",
    "HHOSpace",
]

log = logging.getLogger(__name__)

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
    A chunk of ``step`` cells keeps every gathered array under
    ``_CHUNK_BYTES``.
    """

    step: int
    cells: np.ndarray      # (m,) ascending cell ids
    face_ids: np.ndarray   # (m, nf) global face ids per slot
    gidx: np.ndarray       # (m, nloc) global dof indices
    op: np.ndarray         # (m,) stack row of each cell
    Mk: np.ndarray         # (c, Nk, Nk) cell mass matrices
    G: np.ndarray          # (c, 2 Nk, nloc)
    R: np.ndarray          # (c, Nk1, nloc)
    S: np.ndarray          # (c, nloc, nloc)
    offsets: np.ndarray    # (c, nq, 2) assembly quadrature points minus the centroid
    weights: np.ndarray    # (c, nq)
    phi: np.ndarray        # (c, nq, Nk1) degree-(k+1) basis values at those points


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
    """Coefficient maps of d/dxi and d/deta in the graded scaled-monomial basis.

    Divide by the cell diameter for the derivatives in x and y.
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


def _sym(a):
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _gauss(degree):
    """Face rule on [0, 1]: nodes and weights summing to 1, exact for ``degree``."""
    rule = face_quadrature(((0.0, 0.0), (1.0, 0.0)), degree)
    return rule.points[:, 0], rule.weights


def _slices(n, step):
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _step(floats_per_row):
    """Rows per chunk so that an array of ``floats_per_row`` per row stays under _CHUNK_BYTES."""
    return max(1, _CHUNK_BYTES // (8 * floats_per_row))


def _solve(A, B, cells, what, error=OperatorBuildError):
    """Stacked ``np.linalg.solve``; a singular system raises ``error`` naming its cell."""
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError:
        for i in range(len(A)):
            try:
                np.linalg.solve(A[i], B[i])
            except np.linalg.LinAlgError as exc:
                raise error(f"cell {cells[i]}: singular {what}") from exc
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
        Polynomial degree of the cell and face unknowns.  The shipped
        studies use 0 to 3; the cell rules allow up to 8.

    ``quad_degree`` is 2k+4.  Each face-count group of cells has one cell
    rule of that degree, and faces use the Gauss rule of that degree.
    The rule serves the operator build, whose integrands have degree at
    most 2(k+1), as well as assembly, interpolation, norms and errors.
    """

    def __init__(self, mesh, k):
        top = (MAX_TRIANGLE_DEGREE - 4) // 2
        if not (_is_whole(k) and 0 <= k <= top):
            raise ValueError(f"k must be an integer in 0..{top} (cell rules of degree 2k+4 "
                             f"go up to {MAX_TRIANGLE_DEGREE}), got {k!r}")
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
        self._face_pattern = None

    # -- bases --------------------------------------------------------------

    def cell_basis(self, ci, degree=None):
        """Scaled monomial basis of ``degree`` (default k+1) on cell ``ci``."""
        self._check_cell(ci)
        degree = self.k + 1 if degree is None else degree
        return CellBasis(self.mesh.cell_vertices(ci), degree,
                         center=self.mesh.cell_centroids[ci],
                         diameter=self.mesh.cell_diameters[ci], cell_index=ci)

    def face_basis(self, fi):
        """Degree-k basis on face ``fi`` in the owner cell's direction."""
        return FaceBasis(self.mesh.vertices[self.mesh.faces[fi]], self.k)

    # -- operator build --------------------------------------------------------

    def _ensure_classes(self):
        """Build the operators of every congruence class, one face-count group at a time."""
        if self._classes is not None:
            return
        start = time.perf_counter()
        mesh = self.mesh
        Nk, nF = self.Nk, self.nF
        nfaces = np.fromiter(map(len, mesh.cell_faces), dtype=np.int64, count=mesh.num_cells)
        hmax = mesh.cell_diameters.max()
        groups, reps = [], []
        for nf in np.unique(nfaces):
            cells = np.flatnonzero(nfaces == nf)
            face_ids = np.stack([mesh.cell_faces[ci] for ci in cells])
            signs = np.where(mesh.face_owner[face_ids] == cells[:, None], 1, -1)
            h = mesh.cell_diameters[cells]
            verts = (mesh.vertices[np.stack([mesh.cells[ci] for ci in cells])]
                     - mesh.cell_centroids[cells, None])
            op, rows = _congruence_index(verts / h[:, None, None], signs, h / hmax)
            reps.append(cells[rows])
            stacks = self._build_stacks(verts[rows], h[rows], signs[rows], cells[rows])
            nloc = Nk + nf * nF
            fdofs = self.num_cell_dofs + face_ids[:, :, None] * nF + np.arange(nF)
            gidx = np.hstack((cells[:, None] * Nk + np.arange(Nk), fdofs.reshape(len(cells), -1)))
            # The widest per-cell array a chunk gathers: basis values or
            # callback values at the quadrature points, or a local matrix.
            nq = stacks[-1].shape[1]
            groups.append(_Group(_step(max(nq * max(self.Nk1, 4), nloc * nloc)),
                                 cells, face_ids, gidx, op, *stacks))
        self._groups = groups
        self._classes = np.concatenate(reps)
        log.debug("operators of %d cells in %d face-count groups, %d distinct classes, "
                  "built in %.3f s", mesh.num_cells, len(groups), len(self._classes),
                  time.perf_counter() - start)

    def _build_stacks(self, verts, h, signs, cells):
        """Operator stacks and quadrature of the cells ``cells``.

        ``verts`` holds their centroid-relative corners (c, nf, 2), ``h``
        their diameters and ``signs`` +1 where the cell owns the face of a
        slot, -1 where its neighbor does.  One rule serves the operator
        build, a chunk of cells at a time, and is kept for assembly.
        """
        try:
            rule = cell_quadrature(verts, self.quad_degree)
        except QuadratureError as exc:
            raise OperatorBuildError(f"cell {cells[exc.index]}: {exc}") from exc
        phi = scaled_monomials(rule.points / h[:, None, None], self.k + 1)   # (c, nq, Nk1)
        c, nq = rule.weights.shape
        stacks = None
        for sl in _slices(c, _step(2 * nq * self.Nk1)):
            part = self._build_operators(verts[sl], h[sl], signs[sl], cells[sl],
                                         rule.points[sl], rule.weights[sl], phi[sl])
            if stacks is None:
                stacks = [np.empty((c,) + a.shape[1:]) for a in part]
            for whole, a in zip(stacks, part):
                whole[sl] = a
        return stacks + [rule.points, rule.weights, phi]

    def _build_operators(self, verts, h, signs, cells, points, weights, phi):
        """Mk, G, R and S of a stack of cells from their cell rule (see _build_stacks)."""
        k, Nk, Nk1, nF = self.k, self.Nk, self.Nk1, self.nF
        c, nf = verts.shape[:2]
        nloc = Nk + nf * nF
        hh = h[:, None, None]

        M1 = _sym(np.swapaxes(phi * weights[..., None], 1, 2) @ phi)
        grad = scaled_monomials(points / hh, k + 1, gradient=True) / hh[..., None]
        grad = np.swapaxes(grad, 2, 3).reshape(c, -1, Nk1)                 # (c, 2q, Nk1)
        K1 = _sym(np.swapaxes(grad * np.repeat(weights, 2, axis=1)[..., None], 1, 2) @ grad)
        Mk = M1[:, :Nk, :Nk]

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
        phiF = scaled_monomials(fpts / hh[..., None], k + 1)               # (c, nf, qF, Nk1)
        wphiF = np.swapaxes(phiF * (wt * length[..., None])[..., None], -1, -2)
        TF1 = wphiF @ _powers(t - 0.5, k)                                  # (c, nf, Nk1, nF)
        TC1 = _sym(wphiF @ phiF)                                           # (c, nf, Nk1, Nk1)
        MF = length[..., None, None] * _unit_face_mass(nF)                 # (c, nf, nF, nF)

        Dx, Dy = _derivative_matrices(k + 1)
        D = np.stack((Dx, Dy)) / hh[:, None]                               # (c, 2, Nk1, Nk1)

        # Gradient reconstruction: (G v, tau)_T = (grad v_T, tau)_T
        #                                        + sum_F (v_F - v_T, tau.n)_F.
        B = np.empty((c, 2, Nk, nloc))
        B[..., :Nk] = (Mk[:, None] @ D[:, :, :Nk, :Nk]
                       - np.einsum("csd,csij->cdij", normal, TC1[:, :, :Nk, :Nk]))
        B[..., Nk:] = np.einsum("csd,csij->cdisj", normal,
                                TF1[:, :, :Nk]).reshape(c, 2, Nk, nf * nF)
        G = _solve(Mk[:, None], B, cells, "cell mass matrix").reshape(c, 2 * Nk, nloc)

        # Potential reconstruction: Neumann-type system in P_{k+1} closed by
        # the mean constraint (R v, 1)_T = (v_T, 1)_T via one multiplier row.
        An = np.swapaxes(np.einsum("csd,cdij->csij", normal, D), -1, -2)   # (c, nf, Nk1, Nk1)
        Baug = np.zeros((c, Nk1 + 1, nloc))
        Baug[:, :Nk1, :Nk] = K1[:, :, :Nk] - (An @ TC1).sum(axis=1)[:, :, :Nk]
        Baug[:, :Nk1, Nk:] = np.swapaxes(An @ TF1, 1, 2).reshape(c, Nk1, nf * nF)
        Baug[:, Nk1, :Nk] = M1[:, 0, :Nk]
        Kaug = np.zeros((c, Nk1 + 1, Nk1 + 1))
        Kaug[:, :Nk1, :Nk1] = K1
        Kaug[:, :Nk1, Nk1] = M1[:, :, 0]
        Kaug[:, Nk1, :Nk1] = M1[:, :, 0]
        R = _solve(Kaug, Baug, cells, "potential reconstruction system")[:, :Nk1]

        # Stabilization: face projections of v_F - v_T - (R v - pi_T^k R v),
        # squared against the face mass and scaled by 1/h_T.
        Pk = _solve(Mk, M1[:, :Nk, :], cells, "cell mass matrix")
        PT1 = np.linalg.solve(MF, np.swapaxes(TF1, -1, -2))               # (c, nf, nF, Nk1)
        delta = PT1[..., :Nk] @ (Pk @ R)[:, None] - PT1 @ R[:, None]       # (c, nf, nF, nloc)
        delta[..., :Nk] -= PT1[..., :Nk]
        slot = np.arange(nf)[:, None]
        delta[:, slot, np.arange(nF), Nk + slot * nF + np.arange(nF)] += 1.0
        S = _sym((np.swapaxes(delta, -1, -2) @ MF @ delta).sum(axis=1) / hh)
        return Mk, G, R, S

    def _check_cell(self, ci):
        """Raise IndexError unless ``ci`` is a cell id of the mesh."""
        if not 0 <= operator.index(ci) < self.mesh.num_cells:
            raise IndexError(f"cell {ci} is not in 0..{self.mesh.num_cells - 1}")

    def _locate(self, ci):
        """Group of cell ``ci`` and the cell's position in the group's ``cells``."""
        self._check_cell(ci)
        self._ensure_classes()
        for g in self._groups:
            i = np.searchsorted(g.cells, ci)
            if i < len(g.cells) and g.cells[i] == ci:
                return g, i

    def _chunks(self):
        """(group, slice of its cells) pairs covering every cell once."""
        self._ensure_classes()
        for g in self._groups:
            yield from ((g, sl) for sl in _slices(len(g.cells), g.step))

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
        cell_blocks = np.empty((mesh.num_cells, self.Nk))
        for g, sl in self._chunks():
            ids, op = g.cells[sl], g.op[sl]
            pts = mesh.cell_centroids[ids][:, None, :] + g.offsets[op]
            w = g.weights[op]
            vals = np.asarray(v(pts.reshape(-1, 2)), dtype=float).reshape(w.shape) * w
            rhs = g.phi[op, :, :self.Nk].transpose(0, 2, 1) @ vals[..., None]
            cell_blocks[ids] = np.linalg.solve(g.Mk[op], rhs)[..., 0]

        t, wt = _gauss(self.quad_degree)
        p0 = mesh.vertices[mesh.faces[:, 0]]
        p1 = mesh.vertices[mesh.faces[:, 1]]
        pts = p0[:, None, :] + t[None, :, None] * (p1 - p0)[:, None, :]
        vals = np.asarray(v(pts.reshape(-1, 2)), dtype=float).reshape(mesh.num_faces, len(t))
        rhs = (vals * wt) @ _powers(t - 0.5, self.k)
        face_blocks = np.linalg.solve(_unit_face_mass(self.nF), rhs.T).T
        return HybridVector(self, cell_blocks, face_blocks)

    # -- norms and reconstructions -------------------------------------------

    def gradient_norm(self, v):
        """Broken L^2 norm of the reconstructed gradient, (sum_T ||G_T v||^2)^(1/2)."""
        return float(np.sqrt(max(self._gradient_energy(v), 0.0)))

    def _gradient_energy(self, v):
        """sum_T ||G_T v||^2_T, with G_T v contracted against the cell mass matrix."""
        total = 0.0
        for g, sl in self._chunks():
            op = g.op[sl]
            q = (g.G[op] @ self._local_values(g, sl, v)[..., None]).reshape(-1, 2, self.Nk)
            total += float(np.sum(q * (q @ g.Mk[op])))
        return total

    def _face_jumps(self, v):
        """sum_T sum_F h_F^(-1) ||v_F - v_T||^2_F, by quadrature of ``quad_degree``.

        The Gauss weights on [0, 1] are the face's weights divided by h_F.
        """
        mesh = self.mesh
        t, wt = _gauss(self.quad_degree)
        psi = _powers(t - 0.5, self.k)
        total = 0.0
        for g, sl in self._chunks():
            ids, fids = g.cells[sl], g.face_ids[sl]
            ends = mesh.vertices[mesh.faces[fids]]                          # (m, nf, 2, 2)
            fpts = ends[:, :, :1] + t[:, None] * (ends[:, :, 1:] - ends[:, :, :1])
            x = (fpts - mesh.cell_centroids[ids, None, None]) \
                / mesh.cell_diameters[ids, None, None, None]
            vT = scaled_monomials(x, self.k) @ v.cell_blocks[ids][:, None, :, None]
            d = v.face_blocks[fids] @ psi.T - vT[..., 0]                     # (m, nf, qF)
            total += float(np.sum(d**2 @ wt))
        return total

    def discrete_norm_1h(self, v):
        """Energy-type seminorm: gradient reconstructions plus scaled face jumps."""
        return float(np.sqrt(max(self._gradient_energy(v) + self._face_jumps(v), 0.0)))

    def reconstruct_gradient_global(self, v):
        """Coefficients of G_T v in every cell's degree-k basis, (num_cells, 2, Nk).

        Row ``[ci, 0]`` holds the x component, ``[ci, 1]`` the y component.
        """
        coeffs = np.empty((self.mesh.num_cells, 2, self.Nk))
        for g, sl in self._chunks():
            q = g.G[g.op[sl]] @ self._local_values(g, sl, v)[..., None]
            coeffs[g.cells[sl]] = q.reshape(-1, 2, self.Nk)
        return coeffs

    def reconstruct_potential_global(self, v):
        """Coefficients of R_T v in every cell's degree-(k+1) basis, (num_cells, Nk1)."""
        coeffs = np.empty((self.mesh.num_cells, self.Nk1))
        for g, sl in self._chunks():
            r = g.R[g.op[sl]] @ self._local_values(g, sl, v)[..., None]
            coeffs[g.cells[sl]] = r[..., 0]
        return coeffs

    # -- iteration helpers ----------------------------------------------------

    def quadrature_batches(self):
        """Yield (cell ids, points, weights, degree-(k+1) basis values) batches.

        Shapes are (m,), (m, nq, 2), (m, nq) and (m, nq, Nk1); the cells of
        one batch share a face count.
        """
        for g, sl in self._chunks():
            ids, op = g.cells[sl], g.op[sl]
            pts = self.mesh.cell_centroids[ids][:, None, :] + g.offsets[op]
            yield ids, pts, g.weights[op], g.phi[op]

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

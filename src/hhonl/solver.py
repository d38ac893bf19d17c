"""Nonlinear problem plumbing: assembly, static condensation, Newton iteration.

The discrete nonlinear form and its fully discrete linearization are
evaluated as stacks of local residuals and Jacobians, in vectorized
chunks of cells with one face count whose local operators are gathered
from the space's operator stacks.  No global matrix holds cell unknowns:
they couple only within their own cell, so each chunk is condensed onto
its faces as soon as it is assembled (:func:`static_condense`), into the
interior-face system whose rows and pattern the space builds once, in
the mesh's nested-dissection order (``HHOSpace.face_pattern``).

That system is solved in float64 by flexible GMRES preconditioned by a
float32 SuperLU factor (:func:`_fgmres`; GMRES-based iterative
refinement, Carson & Higham, SIAM J. Sci. Comput. 40, 2018).  A Newton
solve holds its factor from one system to the next (:class:`_FaceFactor`),
a lagged factor as in Newton-Krylov solvers (Knoll & Keyes, J. Comput.
Phys. 193, 2004).  Each cell's unknowns are then recovered from its
eliminated block.  ``residual`` and ``jacobian`` scatter the same local
stacks into the full layout for verification.

A Newton solve pays only for the accuracy each step needs.  Its face
systems are solved to forcing terms (inexact Newton, which keeps local
quadratic convergence while the linear residual stays below a multiple
of the nonlinear one; Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal.
19, 1982): the bootstrap and the first Newton system to
``_FORCING_CAP`` of the condensed right-hand side g, each later one to
``0.9 (|g_k| / |g_{k-1}|)^2``, kept within ``[_RTOL, _FORCING_CAP]``.  A
full step whose relative increment is at most ``_CHORD_INCREMENT`` is
followed by a chord step, which keeps that step's Jacobian (Kelley,
*Solving Nonlinear Equations with Newton's Method*, SIAM 2003): it
assembles only the residual, condenses it with the inverted cell blocks
the step kept, a product per cell, and solves its face system to
``_FORCING_CAP``.  Once increments are that small it changes the iterate
only at round-off, and a lagged Jacobian makes its increment no more
exact than about the previous one, so a tighter solve would be wasted.

The Poisson bootstrap that starts a Newton solve goes through the same
condensation and face solve, but its local matrices do not depend on the
iterate: each is the HHO stiffness ``G^T G + S`` of the cell's
congruence class, built once per class from the space's operator stacks
and eliminated once per class, not once per cell.  Its residual is the
source's cell load ``phi^T (w source)``, integrated once per Newton
solve and subtracted from the cell rows of every Newton residual.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.linalg import solve_triangular
from scipy.sparse.linalg import splu

from .hho import HHOSpace

__all__ = [
    "SolverError",
    "ProblemDefinitionError",
    "EvaluationError",
    "CondensationError",
    "NewtonDivergedError",
    "NonlinearProblem",
    "NewtonReport",
    "LinearSolve",
    "mean_curvature_problem",
    "register_problem",
    "get_problem",
    "problem_names",
    "residual",
    "jacobian",
    "static_condense",
    "solve_linear_hho",
    "newton_solve",
]

log = logging.getLogger(__name__)


class SolverError(Exception):
    """Base class for assembly and solve failures."""


class ProblemDefinitionError(SolverError):
    """Problem callbacks are inconsistent (shapes, symmetry, or derivatives)."""


class EvaluationError(SolverError):
    """A problem callback or a source failed, or was not finite, at a quadrature point."""


class CondensationError(SolverError):
    """A cell block of the Jacobian is singular."""


class NewtonDivergedError(SolverError):
    """The Newton iteration did not reach the tolerance; carries the report."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


@dataclass
class NewtonReport:
    """Iteration count, per-iteration relative increments, and convergence flag.

    ``linear_solves`` holds one :class:`LinearSolve` per face-system solve,
    the Poisson bootstrap first when there is one.  ``chord_steps`` lists
    the iterations, counted from 1, that were chord steps: they reused the
    previous step's Jacobian and assembled only the residual.
    """

    iterations: int
    increments: list
    converged: bool
    linear_solves: list = field(default_factory=list)
    chord_steps: list = field(default_factory=list)


# Trailing output shape of each callback: a_z returns (n, 2, 2), source (n,).
_SHAPES = {"a": (2,), "a_z": (2, 2), "a_y": (2,), "f": (), "f_z": (2,), "f_y": (), "source": ()}


@dataclass
class NonlinearProblem:
    """Callbacks defining -div a(x, u, grad u) + f(x, u, grad u) = source(x).

    All callbacks are vectorized over points: ``x`` is (n, 2), ``y`` is (n,),
    ``z`` is (n, 2).  ``a`` returns (n, 2), ``a_z`` returns (n, 2, 2) and must
    be symmetric, ``a_y`` returns (n, 2), ``f`` returns (n,), ``f_z`` returns
    (n, 2), ``f_y`` returns (n,), and ``source(x)`` returns (n,).  The
    reaction ``f`` may be omitted (None), and so may any of ``a_y``, ``f_z``
    and ``f_y`` that vanishes identically; assembly skips an omitted term.
    ``exact_solution`` and ``exact_gradient`` are optional fields used by
    error studies.
    """

    a: callable
    a_z: callable
    source: callable
    a_y: callable = None
    f: callable = None
    f_z: callable = None
    f_y: callable = None
    exact_solution: callable = None
    exact_gradient: callable = None
    name: str = ""

    def check(self):
        """Sample-based guard on user callbacks.

        At 16 fixed random points, verifies the output shape of every given
        callback, the symmetry of ``a_z``, and each derivative of ``a`` and
        ``f`` against central finite differences, an omitted derivative
        being zero; ``f_z`` and ``f_y`` need ``f``.  A non-finite value fails
        every comparison.  Raises :class:`ProblemDefinitionError` on the
        first violation.
        """
        rng = np.random.default_rng(1905)
        n = 16
        x = rng.random((n, 2))
        y = rng.standard_normal(n)
        z = rng.standard_normal((n, 2))
        values = {}  # every given callback at the sample points
        for name, tail in _SHAPES.items():
            fn = getattr(self, name)
            if fn is not None:
                values[name] = np.asarray(fn(x) if name == "source" else fn(x, y, z), dtype=float)
                if values[name].shape != (n, *tail):
                    raise ProblemDefinitionError(f"{name} must return shape {(n, *tail)} at "
                                                 f"{n} points, got {values[name].shape}")
        az = values["a_z"]
        if not np.abs(az - np.transpose(az, (0, 2, 1))).max() <= 1e-9 * (1.0 + np.abs(az).max()):
            raise ProblemDefinitionError("a_z is not symmetric at sampled points")
        eps = 1e-6
        for name, of in (("a_z", "a"), ("a_y", "a"), ("f_z", "f"), ("f_y", "f")):
            fn = getattr(self, of)
            if fn is None:
                if name in values:
                    raise ProblemDefinitionError(f"{name} is given but {of} is omitted")
                continue
            exact = values.get(name, np.zeros((n, *_SHAPES[name])))
            steps = [(0.0, dz) for dz in np.eye(2) * eps] if name.endswith("_z") else [(eps, 0.0)]
            fd = np.stack([np.asarray(fn(x, y + dy, z + dz)) - np.asarray(fn(x, y - dy, z - dz))
                           for dy, dz in steps], axis=-1).reshape(exact.shape) / (2 * eps)
            if not np.abs(fd - exact).max() <= 1e-4 * (1.0 + np.abs(exact).max()):
                omitted = "" if name in values else " (omitted, so zero)"
                raise ProblemDefinitionError(
                    f"{name}{omitted} disagrees with finite differences of {of}")
        return self


def mean_curvature_problem():
    """Prescribed-mean-curvature flux a(z) = z (1+|z|^2)^(-1/2) on the unit square.

    The source is manufactured so the exact solution is
    u(x, y) = x (1 - x) y (1 - y).  The problem has no reaction, and the
    flux does not depend on u.
    """

    def exact(x):
        X, Y = x[:, 0], x[:, 1]
        return X * (1.0 - X) * Y * (1.0 - Y)

    def exact_grad(x):
        X, Y = x[:, 0], x[:, 1]
        return np.column_stack(((1.0 - 2.0 * X) * Y * (1.0 - Y),
                                X * (1.0 - X) * (1.0 - 2.0 * Y)))

    def source(x):
        X, Y = x[:, 0], x[:, 1]
        ux, uy = exact_grad(x).T
        uxx = -2.0 * Y * (1.0 - Y)
        uyy = -2.0 * X * (1.0 - X)
        uxy = (1.0 - 2.0 * X) * (1.0 - 2.0 * Y)
        Q = 1.0 + ux**2 + uy**2
        div = ((uxx + uyy) * Q - (ux**2 * uxx + 2.0 * ux * uy * uxy + uy**2 * uyy)) * Q**-1.5
        return -div

    def a(x, y, z):
        Q = 1.0 + (z[:, 0]**2 + z[:, 1]**2)  # (z**2).sum(axis=1) bit for bit, without its slow reduction
        return z / np.sqrt(Q)[:, None]

    def a_z(x, y, z):
        z1, z2 = z[:, 0], z[:, 1]
        Q = 1.0 + z1**2 + z2**2
        R = Q**-1.5
        out = np.empty((len(z), 2, 2))
        out[:, 0, 0] = R * (1.0 + z2**2)
        out[:, 0, 1] = -R * z1 * z2
        out[:, 1, 0] = out[:, 0, 1]
        out[:, 1, 1] = R * (1.0 + z1**2)
        return out

    return NonlinearProblem(a=a, a_z=a_z, source=source, exact_solution=exact,
                            exact_gradient=exact_grad, name="mean-curvature")


_REGISTRY = {"mean-curvature": mean_curvature_problem}


def register_problem(name, factory):
    """Register a problem factory under ``name`` for lookup by the harness."""
    _REGISTRY[name] = factory


def get_problem(name):
    """Instantiate the registered problem ``name``."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r}; registered: {sorted(_REGISTRY)}") from None


def problem_names():
    return sorted(_REGISTRY)


# -- assembly ----------------------------------------------------------------


def _call(what, fn, args, cells):
    """``fn(*args)`` at the quadrature points of ``cells``, which must come out finite.

    ``what`` names the callback in the :class:`EvaluationError` raised when
    it fails or returns a non-finite value, which also names the cells.
    """
    try:
        out = np.asarray(fn(*args), dtype=float)
    except Exception as exc:
        raise EvaluationError(f"{what} failed on cells {cells[0]}..{cells[-1]}: {exc}") from exc
    finite = np.isfinite(out)
    if not finite.all():
        bad = cells[~finite.reshape(len(cells), -1).all(axis=1)]
        shown = ", ".join(map(str, bad[:8])) + (", ..." if len(bad) > 8 else "")
        raise EvaluationError(
            f"{what} returned non-finite values on {len(bad)} cells: {shown}")
    return out


class _Local(NamedTuple):
    """Local residuals and Jacobians of one chunk of cells with one face count.

    Cell ``i`` of the chunk has the block ``J[op[i]]``.  With ``op`` None,
    ``J`` holds one block per cell, the chunk's own; otherwise it is a
    stack that several chunks share, such as their group's class
    stiffnesses.
    """

    ids: np.ndarray    # (m,) cell ids
    gidx: np.ndarray   # (m, nloc) global dofs of each local block, cell dofs first
    r: np.ndarray      # (m, nloc)
    J: np.ndarray      # (b, nloc, nloc), None when no Jacobian was asked for
    op: np.ndarray = None  # (m,) the stack row of each cell, None for one block per cell


def _assemble(space, problem, w, chunk, load, need_jacobian, fields=None):
    """Local residual (and optionally Jacobian) stacks of the discrete form at ``w``.

    ``chunk`` is one ``(group, slice)`` pair of ``space._chunks()``: cells
    of one face count, which gather their operators from the space.
    ``load`` is the source's cell load (:func:`_cell_load`), subtracted
    from the residual's cell rows.  With ``fields=(u, grad_u)`` the
    Jacobian coefficients are evaluated at the given fields instead of the
    discrete iterate (semi-discrete linearization).  Returns the chunk's
    :class:`_Local`.
    """
    Nk = space.Nk
    g, sl = chunk
    ids, op = g.cells[sl], g.op[sl]
    m = len(ids)
    G = g.G[op]                                   # (m, 2 Nk, nloc)
    phi = g.phi[op, :, :Nk]                       # (m, nq, Nk)
    phiT = np.swapaxes(phi, 1, 2)
    wq = g.weights[op]
    loc = space._local_values(g, sl, w)
    flat = (space.mesh.cell_centroids[ids][:, None, :] + g.offsets[op]).reshape(-1, 2)

    # grad_x, grad_y of G_T w and w_T at every quadrature point.
    q = (G @ loc[..., None]).reshape(m, 2, Nk)
    vals = phi @ np.concatenate((q, loc[:, None, :Nk]), axis=1).transpose(0, 2, 1)
    zq = vals[..., :2].reshape(-1, 2)
    yq = vals[..., 2].ravel()
    if fields is None:
        y_c, z_c = yq, zq
    else:
        y_c = np.asarray(fields[0](flat), dtype=float)
        z_c = np.asarray(fields[1](flat), dtype=float)

    def call(attr, y, z):
        return _call(f"problem callback {attr!r}", getattr(problem, attr), (flat, y, z), ids)

    flux = phiT @ (call("a", yq, zq).reshape(m, -1, 2) * wq[..., None])  # (m, Nk, 2)
    r_loc = (np.swapaxes(G, 1, 2) @ flux.transpose(0, 2, 1).reshape(m, -1, 1)
             + g.S[op] @ loc[..., None])[..., 0]
    r_loc[:, :Nk] -= load[ids]
    if problem.f is not None:
        r_loc[:, :Nk] += (phiT @ (call("f", yq, zq).reshape(m, -1) * wq)[..., None])[..., 0]

    if not need_jacobian:
        return _Local(ids, g.gidx[sl], r_loc, None)

    def mass(weights):
        """phi^T diag(weights) phi per cell, (m, Nk, Nk)."""
        return phiT @ (weights[..., None] * phi)

    # a_z is symmetric (the NonlinearProblem contract), so the (1, 0)
    # block equals the (0, 1) block, itself a symmetric mass matrix.
    az = call("a_z", y_c, z_c).reshape(m, -1, 2, 2) * wq[..., None, None]
    M = np.empty((m, 2 * Nk, 2 * Nk))
    M[:, :Nk, :Nk] = mass(az[..., 0, 0])
    M[:, :Nk, Nk:] = mass(az[..., 0, 1])
    M[:, Nk:, :Nk] = M[:, :Nk, Nk:]
    M[:, Nk:, Nk:] = mass(az[..., 1, 1])
    J_loc = np.swapaxes(G, 1, 2) @ (M @ G) + g.S[op]

    if problem.a_y is not None:
        ayw = call("a_y", y_c, z_c).reshape(m, -1, 2) * wq[..., None]
        W = np.concatenate((mass(ayw[..., 0]), mass(ayw[..., 1])), axis=1)
        J_loc[:, :, :Nk] += np.swapaxes(G, 1, 2) @ W
    if problem.f_z is not None:
        fzw = call("f_z", y_c, z_c).reshape(m, -1, 2) * wq[..., None]
        W = np.concatenate((mass(fzw[..., 0]), mass(fzw[..., 1])), axis=2)
        J_loc[:, :Nk, :] += W @ G
    if problem.f_y is not None:
        J_loc[:, :Nk, :Nk] += mass(call("f_y", y_c, z_c).reshape(m, -1) * wq)
    return _Local(ids, g.gidx[sl], r_loc, J_loc)


def _cell_load(space, source):
    """The load ``phi^T (w source)`` of every cell, (num_cells, Nk).

    These are the cell blocks of ``space.interpolate(source)``.  ``source``
    is called once per chunk; its values must be finite.
    """
    return space._cell_moments(lambda points, ids: _call("source", source, (points,), ids))


def _poisson_local(space, load):
    """Local stacks of the Poisson problem -div grad u = source, chunk by chunk.

    A cell's matrix is the HHO stiffness of its congruence class,
    ``K = G^T G + S`` in the orthonormal cell bases, formed once per class
    of each face-count group from the space's operator stacks.  Yields one
    :class:`_Local` per chunk of ``space._chunks()``, in that order: the
    group's stack of class stiffnesses, the same array for each of its
    chunks, with the class of each cell (``op``), and as residual the
    source's cell ``load`` (:func:`_cell_load`) on the cell rows.  A
    group's stiffnesses are dropped when the next group's are built, the
    last ones when the chunks run out, so none outlives the condensation.
    """
    Nk = space.Nk
    group, classes, spent = None, 0, 0.0
    for g, sl in space._chunks():
        if g is not group:
            start = time.perf_counter()
            K = np.swapaxes(g.G, 1, 2) @ g.G + g.S
            spent += time.perf_counter() - start
            group, classes = g, classes + len(K)
        ids, gidx = g.cells[sl], g.gidx[sl]
        r = np.zeros(gidx.shape)
        r[:, :Nk] = load[ids]
        yield _Local(ids, gidx, r, K, g.op[sl])
    log.debug("Poisson stiffness of %d classes built in %.3f s", classes, spent)


def _scatter_vector(blocks, n):
    """Sum of local vectors ``(index (m, b), values (m, b))`` in a length-``n`` vector.

    An index of -1 drops its entry.
    """
    out = np.zeros(n)
    for idx, v in blocks:
        keep = idx >= 0
        out += np.bincount(idx[keep], weights=v[keep], minlength=n)
    return out


def _residual(problem, w, load):
    """:func:`residual` with the source's cell ``load`` (:func:`_cell_load`) given."""
    space = w.space
    local = (_assemble(space, problem, w, chunk, load, need_jacobian=False)
             for chunk in space._chunks())
    return _scatter_vector(((c.gidx, c.r) for c in local), space.num_dofs)


def residual(problem, w):
    """Vector of the discrete nonlinear form at ``w`` against every test dof."""
    return _residual(problem, w, _cell_load(w.space, problem.source))


def jacobian(problem, w, fields=None):
    """Sparse matrix of the fully discrete linearized form at ``w``.

    ``fields=(u, grad_u)`` freezes the linearization coefficients at the
    given fields instead of ``w`` (the semi-discrete variant used in
    verification studies).  The solve path never builds this matrix: it
    condenses the local Jacobians cell by cell (:func:`static_condense`).
    """
    space = w.space
    no_load = np.zeros((space.mesh.num_cells, space.Nk))
    rows, cols, values = [], [], []
    for chunk in space._chunks():
        c = _assemble(space, problem, w, chunk, no_load, need_jacobian=True, fields=fields)
        b = c.gidx.shape[1]
        rows.append(np.repeat(c.gidx, b, axis=1).ravel())
        cols.append(np.tile(c.gidx, (1, b)).ravel())
        values.append(c.J.ravel())
    n = space.num_dofs
    return sparse.coo_matrix((np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(n, n)).tocsr()


# -- linear algebra ----------------------------------------------------------


class _Kept:
    """A Newton step's face system and eliminated cell blocks, kept for a chord step after it.

    The cell blocks are kept inverted, so that the chord step's cell solves
    are products.
    """

    def __init__(self):
        self.S = None
        self.blocks = []  # per chunk: J_TT^-1, J_FT and X_F = J_TT^-1 J_TF


def _eliminate(J, Nk, cell_of):
    """``J_TT^-1``, ``J_FT``, ``X_F = J_TT^-1 J_TF`` and ``J_FF - J_FT X_F`` of a block stack.

    One stacked inverse serves both the face block and, later, every
    right-hand side.  A singular ``J_TT`` raises :class:`CondensationError`
    naming ``cell_of(i)``, a cell that uses the singular block ``i``.
    """
    J_TT, J_FT = J[:, :Nk, :Nk], J[:, Nk:, :Nk]
    try:
        inv = np.linalg.inv(J_TT)
    except np.linalg.LinAlgError:
        for i, block in enumerate(J_TT):
            try:
                np.linalg.inv(block)
            except np.linalg.LinAlgError as exc:
                raise CondensationError(f"cell {cell_of(i)}: singular cell block") from exc
        raise
    X_F = inv @ J[:, :Nk, Nk:]
    return inv, J_FT, X_F, J[:, Nk:, Nk:] - J_FT @ X_F


def static_condense(space, local, kept=None):
    """The system ``J x = r`` of local stacks with each cell's unknowns eliminated.

    ``local`` yields one :class:`_Local` per chunk of ``space._chunks()``, in
    that order: the residuals and per-cell Jacobians of :func:`_assemble`
    for a Newton step, or the load and class stiffnesses of
    :func:`_poisson_local` for the Poisson bootstrap.  Each distinct block
    is eliminated once (:func:`_eliminate`): a chunk's own blocks as it
    comes, a shared stack when its first chunk comes, so the bootstrap
    inverts one block per congruence class.  Each chunk is condensed and
    dropped before the next is drawn, so the Jacobian stacks of all cells
    never exist at once.  Per cell, ``X_r = J_TT^-1 r_T``; the local Schur
    complements ``J_FF - J_FT X_F`` are summed straight into the data of
    the face system's CSC pattern, through the slot map the space builds
    once (:meth:`HHOSpace.face_pattern`), and the reduced right-hand sides
    ``r_F - J_FT X_r`` into its right-hand side.  Rows follow the pattern's
    ``rows``; boundary face dofs are dropped, their values being zero.

    ``kept``, a :class:`_Kept`, serves a chord step.  An empty one takes
    the face system and each chunk's ``J_TT^-1``, ``J_FT`` and ``X_F``; one
    that holds them condenses residual-only chunks (no Jacobian) with
    them, a product per cell, dropping each chunk's blocks once used, and
    returns the kept face system.  The bootstrap keeps nothing.

    Returns ``(S, g, recover)``: the face system (CSC, sharing the
    pattern's index arrays), its right-hand side, and a callback mapping a
    face solution to the full-layout solution ``x``, zero on boundary
    faces.
    """
    Nk = space.Nk
    pattern = space.face_pattern()
    rows = pattern.rows
    n = len(pattern.indptr) - 1
    g = np.zeros(n)
    chord = kept is not None and kept.S is not None
    # -0.0 + v is v for every v, so each slot ends up with exactly the sum
    # of its entries; the nF slots past the pattern take the dropped ones.
    nnz = len(pattern.indices)
    data = None if chord else np.full(nnz + space.nF, -0.0)
    cells = []  # per chunk: gidx, X_F, the stack row of each cell and X_r, for the recovery
    stack, blocks, condensed, eliminated = None, None, 0, 0
    for (group, _), c, slots in zip(space._chunks(), local, pattern.slots, strict=True):
        at = slice(None) if c.op is None else c.op  # each cell's row of the block stack
        if chord:
            # A chord step is taken once, so each chunk's blocks go as they are
            # used.  Dropped only after the pass, they fragmented the heap: the
            # peak RSS of 20 kershaw 4, k=1 solves in one process rose by 13 to
            # 20 MB in 7 of 12 processes; in this order 2 of 38 rose (10, 18 MB).
            blocks = (*kept.blocks.pop(0), None)  # no Schur complement: S is kept too
        elif c.op is None or c.J is not stack:  # a shared stack is eliminated once
            stack = None if c.op is None else c.J
            blocks = _eliminate(c.J, Nk, c.ids.__getitem__ if c.op is None
                                else lambda i: group.cells[np.argmax(group.op == i)])
            eliminated += len(c.J)
            if kept is not None:  # a copy of J_FT, so that the chunk's Jacobian stack can go
                kept.blocks.append((blocks[0], blocks[1].copy(), blocks[2]))
        inv, J_FT, X_F, schur = blocks
        if schur is not None:
            np.add.at(data, slots, schur[at].ravel())
        X_r = inv[at] @ c.r[:, :Nk, None]
        f = rows[c.gidx[:, Nk:]]
        g += _scatter_vector([(f, c.r[:, Nk:] - (J_FT[at] @ X_r)[..., 0])], n)
        cells.append((c.gidx, X_F, at, X_r[..., 0]))
        condensed += len(c.ids)
        # A chunk's own blocks and Jacobian stack go before the next chunk is drawn.
        del c, inv, J_FT, X_F, schur
        if stack is None:
            blocks = None
    log.debug("condensed %d cells, %d distinct cell blocks eliminated", condensed, eliminated)
    if chord:
        S = kept.S
    else:
        S = sparse.csc_matrix((data[:nnz], pattern.indices, pattern.indptr), shape=(n, n))
        if kept is not None:
            kept.S = S

    def recover(uf):
        x = np.zeros(space.num_dofs)
        face = rows >= 0
        x[face] = uf[rows[face]]
        for gidx, X_F, at, X_r in cells:
            x[gidx[:, :Nk]] = X_r - (X_F[at] @ x[gidx[:, Nk:], None])[..., 0]
        return x

    return S, g, recover


class LinearSolve(NamedTuple):
    """How one linear solve of the condensed face system went.

    ``rtol`` is the relative tolerance the solve was given: ``_RTOL`` for a
    solve on its own, a forcing term inside :func:`newton_solve`.  The
    residual it reached may lie below ``rtol`` (a Krylov step overshoots)
    and, near ``_RTOL``, somewhat above it (the float64 floor).
    """

    factor: str       # "fresh float32", "held float32" or "float64": the factor that finished
    steps: int        # flexible GMRES steps, over every factor the solve tried
    rtol: float       # the relative tolerance the solve was given
    residual: float   # true relative residual |g - S x| / |g| at the end
    rows: int         # rows of the face system
    nnz: int          # stored entries of the face system
    fill: int         # entries SuperLU stores for the factor that finished (SuperLU.nnz)


# A face solve stops once the flexible GMRES estimate of |g - S x| is at
# most its relative tolerance times |g|.  On its own it is solved to
# _RTOL, where the true residual sits at its float64 floor: 4e-16 to
# 1.2e-12 of |g| over the benchmark's 184 face solves at that tolerance.
_RTOL = 1e-14

# The forcing terms of newton_solve never exceed this: the bootstrap, the
# first Newton system and every chord step are solved to it, each later
# Newton system to 0.9 (|g_k| / |g_{k-1}|)^2 within [_RTOL, _FORCING_CAP].
# A cap of 1e-2 turned 10 Newton steps into 11 on cartesian 16, k=1,
# u = 64 x(1-x)y(1-y), and 1e-4 turned 11 into 10 on cartesian 48, k=3;
# 1e-6 keeps every count of the benchmark, the steep sweep and the tests.
# A chord step's increment, its Jacobian lagged, is only about as exact
# as the previous increment, at most _CHORD_INCREMENT: the cap does not
# oversolve it, and took its Krylov steps from 7 to 4 on the benchmark.
_FORCING_CAP = 1e-6

# A full Newton step whose relative increment is at most this is followed
# by a chord step.  Past it, Newton converges quadratically: on every
# benchmark solve the increments read 1.6e-2, 1.7e-5, 3.6e-11, and the
# chord step's change to the iterate, about |J_k - J_{k-1}| |d_k|, is
# round-off.
_CHORD_INCREMENT = 1e-4

# A float32 factor of the face system costs about as much as 16 Krylov
# steps on cartesian 64 and 96, k=3.  A factor is dropped once the steps it
# still needs exceed 8 plus the steps of a fresh factor, about half a
# factor's cost, as a fresh factor also serves the Newton steps after it.
# On the steep sweep u = s x(1-x)y(1-y), s = 1..64, on cartesian 64, k=3,
# thresholds of 4 to 8 came within 1% of the fewest steps and factors (a
# factor counted as 16 steps) and 10 to 20 took 3-14% more; at 4 the held
# factor is already dropped at s = 1.
_REFACTOR_STEPS = 8

# The residual reduction per step of a fresh float32 factor: it reaches
# _RTOL in about four steps and _FORCING_CAP in about two.  A held factor
# is judged by the steps it still needs to the solve's own tolerance.
_FRESH_RATE = 3e-4

# No attempt with one factor takes more steps than this.
_MAX_STEPS = 40


def _factor(S, dtype):
    """Sparse LU factor of the CSC matrix ``S`` in ``dtype``, in the face order.

    SuperLU keeps that order (``NATURAL``) and pivots in symmetric mode: the
    diagonal pivot is kept unless it is below 0.1 times the largest entry
    of its column.  Full partial pivoting would swap rows freely and
    destroy the order's fill savings; the threshold still pivots a
    nonsymmetric Jacobian where it must.  The copy in ``dtype`` that
    SuperLU takes shares the index arrays of ``S``.
    """
    S.sum_duplicates()  # a no-op on a face system; SuperLU must not sort shared indices
    with np.errstate(over="ignore"):  # entries beyond float32's range become inf
        data = S.data.astype(dtype, copy=False)
    return splu(sparse.csc_matrix((data, S.indices, S.indptr), shape=S.shape),
                permc_spec="NATURAL", diag_pivot_thresh=0.1, options=dict(SymmetricMode=True))


def _fgmres(S, g, x, lu, dtype, tol, patient):
    """Flexible GMRES for ``S x = g`` from ``x``, preconditioned by the factor ``lu``.

    ``x`` None starts from zero, whose residual is ``g`` itself.

    Step ``j`` solves with the factor (of precision ``dtype``) for
    ``z_j ~ S^-1 v_j``, the right-hand side scaled so that it neither
    overflows nor falls into subnormals in single precision, and extends
    the Arnoldi basis with ``S z_j`` in float64.  The iterate is
    ``x + Z y``, with ``y`` minimizing the residual: every ``z_j`` is kept,
    since a single-precision solve is not a linear operator.  The attempt
    ends once the residual estimate is at most ``tol``.  Unless ``patient``,
    it gives up as soon as the steps still needed at its average rate so
    far exceed ``_REFACTOR_STEPS`` plus the steps a fresh factor would
    need at ``_FRESH_RATE``.  Returns ``(x, steps, converged)``: the
    iterate (None while it is still zero), the steps taken and whether the
    estimate reached ``tol``.
    """
    r = g if x is None else g - S @ x
    beta = np.linalg.norm(r)
    if beta <= tol:
        return np.zeros_like(g) if x is None else x, 0, True
    V, Z = [r / beta], []
    R = np.zeros((_MAX_STEPS + 1, _MAX_STEPS))  # the Hessenberg matrix, rotated to triangular
    cs, sn = np.zeros(_MAX_STEPS), np.zeros(_MAX_STEPS)
    e = np.zeros(_MAX_STEPS + 1)
    e[0] = beta
    converged = False
    for j in range(_MAX_STEPS):
        scale = max(np.abs(V[j]).max(), np.finfo(float).tiny)
        z = scale * lu.solve((V[j] / scale).astype(dtype))
        if not np.all(np.isfinite(z)):
            break
        w = S @ z
        h = R[:j + 2, j]
        for i, v in enumerate(V):  # modified Gram-Schmidt
            h[i] = v @ w
            w -= h[i] * v
        h[j + 1] = wnorm = np.linalg.norm(w)
        for i in range(j):
            h[i], h[i + 1] = cs[i] * h[i] + sn[i] * h[i + 1], cs[i] * h[i + 1] - sn[i] * h[i]
        d = np.hypot(h[j], h[j + 1])
        if not d > 0:
            break
        cs[j], sn[j] = h[j] / d, h[j + 1] / d
        h[j], h[j + 1] = d, 0.0
        e[j], e[j + 1] = cs[j] * e[j], -sn[j] * e[j]
        Z.append(z)
        est = abs(e[j + 1])
        if est <= tol:
            converged = True
            break
        if not patient:
            rho = est / beta
            left = (j + 1) * np.log(tol / est) / np.log(rho) if rho < 1 else np.inf
            if left > _REFACTOR_STEPS + np.log(tol / est) / np.log(_FRESH_RATE):
                break
        V.append(w / wnorm)
    n = len(Z)
    if n:
        dx = np.column_stack(Z) @ solve_triangular(R[:n, :n], e[:n])
        x = dx if x is None else x + dx
    return x, n, converged


class _FaceFactor:
    """The float32 factor of the face system that one Newton solve holds, and its records.

    Each :meth:`solve` runs flexible GMRES (:func:`_fgmres`) with the held
    factor first, since the Newton systems of one solve share their pattern
    and, as Newton converges, nearly their values.  Only when the held
    factor does not pay is it dropped and the system factored afresh in
    float32; if that factor fails or does not pay either, a float64 factor
    finishes the solve.  Each factor takes over from the current iterate.
    A float32 factor that finished a solve is held for the next one.
    """

    def __init__(self):
        self.lu = None
        self.solves = []  # one LinearSolve per solve

    def solve(self, S, g, rtol=_RTOL):
        """The solution ``x`` of ``S x = g`` to ``rtol`` of ``|g|``.

        Its :class:`LinearSolve` goes on ``solves``.
        """
        gnorm = np.linalg.norm(g)
        tol = rtol * gnorm
        x = None  # zero
        steps = 0
        for kind in ("held float32", "fresh float32", "float64"):
            dtype = np.float64 if kind == "float64" else np.float32
            if kind == "held float32":
                if self.lu is None:
                    continue
                lu = self.lu
            else:
                self.lu = lu = None  # dropped before the next factor is made
                try:
                    lu = _factor(S, dtype)
                except RuntimeError as exc:
                    if dtype is np.float64:
                        raise SolverError(f"condensed face system is singular: {exc}") from exc
                    log.debug("float32 factor of the face system failed (%s)", exc)
                    continue
            x, n, converged = _fgmres(S, g, x, lu, dtype, tol, patient=dtype is np.float64)
            steps += n
            if converged:
                break
            log.debug("%s factor gave up after %d Krylov steps", kind, n)
        else:
            raise SolverError("condensed face system is singular: "
                              "flexible GMRES with a float64 factor did not converge")
        if dtype is np.float32:
            self.lu = lu
        residual = float(np.linalg.norm(g - S @ x) / gnorm) if gnorm > 0 else 0.0
        self.solves.append(LinearSolve(kind, steps, rtol, residual, S.shape[0], S.nnz, lu.nnz))
        log.debug("face system: %d rows, %d nonzeros, %s factor, %d Krylov steps, "
                  "tolerance %.1e, relative residual %.1e",
                  S.shape[0], S.nnz, kind, steps, rtol, residual)
        return x


def _increment(space, problem, w, load):
    """The exact Newton increment ``d`` with ``J(w) d = -r(w)`` on the free dofs.

    The local stacks of :func:`_assemble` with the source's cell ``load``,
    condensed chunk by chunk (:func:`static_condense`) into a face system
    already in the mesh's nested-dissection order, whose solve to
    ``_RTOL`` makes and drops its own factor.  :func:`newton_solve` takes
    the same step, but to a forcing term and with a held factor.
    """
    local = (_assemble(space, problem, w, chunk, load, need_jacobian=True)
             for chunk in space._chunks())
    S, g, recover = static_condense(space, local)
    return space.vector_from_flat(-recover(_FaceFactor().solve(S, g)))


def solve_linear_hho(space, source, face_factor=None, load=None, rtol=_RTOL):
    """HHO solution of the Poisson problem -div grad u = source with zero Dirichlet data.

    This is the bootstrap of :func:`newton_solve`: the class stiffnesses
    and the source's cell load of :func:`_poisson_local`, condensed and
    solved as a Newton step's.  ``source`` takes an (n, 2) array of points
    and returns n values, which must be finite.  The face system is solved
    to ``rtol`` of its right-hand side.  :func:`newton_solve` passes the
    rest: the source's cell load ``load`` (:func:`_cell_load`), otherwise
    integrated here, and its ``face_factor``, a :class:`_FaceFactor` that
    holds the factor on for the Newton steps; without one the solve makes
    and drops its own.
    """
    if load is None:
        load = _cell_load(space, source)
    S, g, recover = static_condense(space, _poisson_local(space, load))
    return space.vector_from_flat(recover((face_factor or _FaceFactor()).solve(S, g, rtol)))


def _relative_increment(space, u, delta):
    """The gradient norm of ``delta`` relative to that of the iterate ``u`` it led to."""
    denom = space.gradient_norm(u)
    return space.gradient_norm(delta) / denom if denom > 0 else space.gradient_norm(delta)


def newton_solve(problem, mesh, k, tol=1e-8, max_iter=25, initial_guess=None,
                 line_search=False):
    """Newton iteration for the discrete nonlinear problem on ``mesh``.

    Starts from ``initial_guess`` or the Poisson bootstrap
    (:func:`solve_linear_hho`); the source's cell load is integrated once
    and serves the bootstrap and every residual.  Each step solves the
    condensed linearized system for an increment, to the forcing term of
    the module's rule; the iteration stops once the reconstructed-gradient
    norm of the increment, relative to the new iterate, drops to ``tol``.
    A full (undamped) step whose relative increment is at most
    ``_CHORD_INCREMENT`` is followed by a chord step, which condenses the
    new residual with that step's kept cell-block inverses, face system and
    factor, and solves to ``_FORCING_CAP``.  With ``line_search``, a step
    is halved, at most 8 times, until the free residual falls by a
    sufficient decrease; a full step whose increment already meets ``tol``
    is taken without a search.  The nonlinear coefficients are integrated by the space's
    quadrature: one rule of degree 2k+4 per face-count group, the same one
    its operators are built with.

    Returns ``(solution, NewtonReport)``; raises
    :class:`NewtonDivergedError` after ``max_iter`` steps without
    convergence; ``max_iter`` below 1 raises ``ValueError``.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    space = HHOSpace(mesh, k) if initial_guess is None else initial_guess.space
    if space.mesh is not mesh or space.k != k:
        raise ValueError("initial guess must live on the same mesh and degree")
    problem.check()
    face_factor = _FaceFactor()
    load = _cell_load(space, problem.source)
    if initial_guess is None:
        u = solve_linear_hho(space, problem.source, face_factor, load, _FORCING_CAP)
    else:
        u = initial_guess.with_zero_boundary()

    free = space.free_dofs()
    increments, chord_steps = [], []
    chord, last = False, 0.0  # last: |g| of the previous Newton system
    for it in range(1, max_iter + 1):
        if chord:
            chord_steps.append(it)
        else:
            kept = _Kept()  # the last step's blocks go before this Jacobian is condensed
        local = (_assemble(space, problem, u, chunk, load, need_jacobian=not chord)
                 for chunk in space._chunks())
        S, g, recover = static_condense(space, local, kept)
        gnorm = np.linalg.norm(g)
        if chord or last == 0:
            rtol = _FORCING_CAP
        else:
            rtol = min(_FORCING_CAP, max(_RTOL, 0.9 * (gnorm / last) ** 2))
        last = gnorm
        delta = space.vector_from_flat(-recover(face_factor.solve(S, g, rtol)))
        del S, g, recover  # so that this step's blocks go with kept, before the next condensation
        alpha = 1.0
        trial = u + delta
        inc = _relative_increment(space, trial, delta)
        if line_search and inc > tol:  # a full step that converges needs no search
            rnorm = np.linalg.norm(_residual(problem, u, load)[free])
            while alpha > 1.0 / 256.0:
                r = _residual(problem, u + alpha * delta, load)[free]
                if np.linalg.norm(r) <= (1.0 - 0.25 * alpha) * rnorm:
                    break
                alpha *= 0.5
            if alpha < 1.0:
                delta = alpha * delta
                trial = u + delta
                inc = _relative_increment(space, trial, delta)
        u = trial
        increments.append(inc)
        if inc <= tol:
            return u, NewtonReport(it, increments, True, face_factor.solves, chord_steps)
        chord = not chord and alpha == 1.0 and inc <= _CHORD_INCREMENT
    report = NewtonReport(max_iter, increments, False, face_factor.solves, chord_steps)
    raise NewtonDivergedError(
        f"no convergence to {tol:g} within {max_iter} iterations "
        f"(last increment {increments[-1]:.3e})", report)

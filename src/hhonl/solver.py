"""Nonlinear problem plumbing: assembly, static condensation, Newton iteration.

The discrete nonlinear form and its fully discrete linearization are
evaluated as stacks of local residuals and Jacobians, in vectorized
chunks of cells with one face count whose local operators are gathered
from the space's operator stacks.  No global matrix holds cell unknowns.

The cell unknowns couple only within their own cell, so a solve
eliminates them cell by cell (static condensation): one stacked dense
solve per chunk gives the local Schur complements on the cell's faces,
scattered straight into the interior-face system, each face's ``k+1`` dofs
together, in the post-order of a median-bisection tree of the cells
(``PolytopalMesh.interior_face_order``, built once per mesh).  SuperLU
factors a float32 copy of that system without a column reordering of its
own (``NATURAL``) in symmetric mode: the diagonal pivot is kept unless it
is below 0.1 times the largest entry of its column.  Full partial pivoting
would swap rows freely and destroy the ordering's fill savings; the
threshold still pivots a nonsymmetric Jacobian where it must.  The face
solution is then refined in float64 against the float64 system (mixed
precision iterative refinement, Langou et al., SC'06; Carson & Higham,
SIAM J. Sci. Comput. 2018), which reaches double-precision accuracy in a
few back-solves; a system that float32 cannot hold, or whose refinement
stalls, is factored again in float64.  Each cell's unknowns are then
recovered from its own stored block.  ``residual`` and ``jacobian``
scatter the same local stacks into the full layout for verification.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .hho import HHOSpace, HybridVector, _solve

__all__ = [
    "SolverError",
    "ProblemDefinitionError",
    "EvaluationError",
    "CondensationError",
    "NewtonDivergedError",
    "NonlinearProblem",
    "NewtonReport",
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
    """A problem callback failed at a quadrature point."""


class CondensationError(SolverError):
    """A cell block of the Jacobian is singular."""


class NewtonDivergedError(SolverError):
    """The Newton iteration did not reach the tolerance; carries the report."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


@dataclass
class NewtonReport:
    """Iteration count, per-iteration relative increments, and convergence flag."""

    iterations: int
    increments: list
    converged: bool


@dataclass
class NonlinearProblem:
    """Callbacks defining -div a(x, u, grad u) + f(x, u, grad u) = 0.

    All callbacks are vectorized over points: ``x`` is (n, 2), ``y`` is (n,),
    ``z`` is (n, 2).  ``a`` returns (n, 2), ``a_z`` returns (n, 2, 2) and must
    be symmetric, ``a_y`` returns (n, 2), ``f`` returns (n,), ``f_z`` returns
    (n, 2), ``f_y`` returns (n,).  ``exact_solution`` and ``exact_gradient``
    are optional fields used by error studies.
    """

    a: callable
    a_z: callable
    a_y: callable
    f: callable
    f_z: callable
    f_y: callable
    exact_solution: callable = None
    exact_gradient: callable = None
    name: str = ""
    _checked: bool = field(default=False, init=False, repr=False)

    def check(self, rng=None, samples=16):
        """Sample-based guard on user callbacks.

        Verifies output shapes, symmetry of ``a_z``, and that the supplied
        derivatives match central finite differences of ``a`` and ``f``;
        a non-finite value fails every comparison.  Raises
        :class:`ProblemDefinitionError` on the first violation.
        """
        rng = np.random.default_rng(1905) if rng is None else rng
        n = samples
        x = rng.random((n, 2))
        y = rng.standard_normal(n)
        z = rng.standard_normal((n, 2))
        az = np.asarray(self.a_z(x, y, z), dtype=float)
        if az.shape != (n, 2, 2):
            raise ProblemDefinitionError("a_z must return an (n, 2, 2) array")
        scale = 1.0 + np.abs(az).max()
        if not np.abs(az - np.transpose(az, (0, 2, 1))).max() <= 1e-9 * scale:
            raise ProblemDefinitionError("a_z is not symmetric at sampled points")
        eps = 1e-6
        for j in range(2):
            dz = np.zeros_like(z)
            dz[:, j] = eps
            fd = (np.asarray(self.a(x, y, z + dz)) - np.asarray(self.a(x, y, z - dz))) / (2 * eps)
            if not np.abs(fd - az[:, :, j]).max() <= 1e-4 * scale:
                raise ProblemDefinitionError("a_z disagrees with finite differences of a")
            fdf = (np.asarray(self.f(x, y, z + dz)) - np.asarray(self.f(x, y, z - dz))) / (2 * eps)
            fz = np.asarray(self.f_z(x, y, z), dtype=float)
            if fz.shape != (n, 2):
                raise ProblemDefinitionError("f_z must return an (n, 2) array")
            if not np.abs(fdf - fz[:, j]).max() <= 1e-4 * (1.0 + np.abs(fz).max()):
                raise ProblemDefinitionError("f_z disagrees with finite differences of f")
        fd = (np.asarray(self.a(x, y + eps, z)) - np.asarray(self.a(x, y - eps, z))) / (2 * eps)
        ay = np.asarray(self.a_y(x, y, z), dtype=float)
        if not np.abs(fd - ay).max() <= 1e-4 * (1.0 + np.abs(ay).max()):
            raise ProblemDefinitionError("a_y disagrees with finite differences of a")
        fdf = (np.asarray(self.f(x, y + eps, z)) - np.asarray(self.f(x, y - eps, z))) / (2 * eps)
        fy = np.asarray(self.f_y(x, y, z), dtype=float)
        if not np.abs(fdf - fy).max() <= 1e-4 * (1.0 + np.abs(fy).max()):
            raise ProblemDefinitionError("f_y disagrees with finite differences of f")
        self._checked = True
        return self


def mean_curvature_problem():
    """Prescribed-mean-curvature flux a(z) = z (1+|z|^2)^(-1/2) on the unit square.

    The source is manufactured so the exact solution is
    u(x, y) = x (1 - x) y (1 - y); the reaction callback stores the negated
    source, f(x, y, z) = -f_src(x).
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
        ux = (1.0 - 2.0 * X) * Y * (1.0 - Y)
        uy = X * (1.0 - X) * (1.0 - 2.0 * Y)
        uxx = -2.0 * Y * (1.0 - Y)
        uyy = -2.0 * X * (1.0 - X)
        uxy = (1.0 - 2.0 * X) * (1.0 - 2.0 * Y)
        Q = 1.0 + ux**2 + uy**2
        div = ((uxx + uyy) * Q - (ux**2 * uxx + 2.0 * ux * uy * uxy + uy**2 * uyy)) * Q**-1.5
        return -div

    def a(x, y, z):
        Q = 1.0 + (z**2).sum(axis=1)
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

    def zero_vec(x, y, z):
        return np.zeros((len(x), 2))

    def zero_scal(x, y, z):
        return np.zeros(len(x))

    return NonlinearProblem(
        a=a, a_z=a_z, a_y=zero_vec,
        f=lambda x, y, z: -source(x), f_z=zero_vec, f_y=zero_scal,
        exact_solution=exact, exact_gradient=exact_grad,
        name="mean-curvature")


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


def _call(problem, attr, x, y, z, cells):
    """Callback ``attr`` at the quadrature points of ``cells``, which must come out finite."""
    fn = getattr(problem, attr)
    try:
        out = np.asarray(fn(x, y, z), dtype=float)
    except Exception as exc:
        raise EvaluationError(
            f"problem callback {attr!r} failed on cells {cells[0]}..{cells[-1]}: {exc}"
        ) from exc
    finite = np.isfinite(out)
    if not finite.all():
        bad = cells[~finite.reshape(len(cells), -1).all(axis=1)]
        shown = ", ".join(map(str, bad[:8])) + (", ..." if len(bad) > 8 else "")
        raise EvaluationError(
            f"problem callback {attr!r} returned non-finite values on "
            f"{len(bad)} cells: {shown}")
    return out


class _Local(NamedTuple):
    """Local residuals and Jacobians of one chunk of cells with one face count."""

    ids: np.ndarray    # (m,) cell ids
    gidx: np.ndarray   # (m, nloc) global dofs of each local block, cell dofs first
    r: np.ndarray      # (m, nloc)
    J: np.ndarray      # (m, nloc, nloc), None when no Jacobian was asked for


def _assemble(space, problem, w, need_jacobian, fields=None):
    """Local residual (and optionally Jacobian) stacks of the discrete form at ``w``.

    With ``fields=(u, grad_u)`` the Jacobian coefficients are evaluated at the
    given fields instead of the discrete iterate (semi-discrete linearization).
    Cells are processed in chunks of one face count, each gathering its
    cells' operators from the space; returns one :class:`_Local` per chunk.
    """
    Nk = space.Nk
    out = []
    for g, sl in space._chunks():
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

        aval = _call(problem, "a", flat, yq, zq, ids).reshape(m, -1, 2)
        fval = _call(problem, "f", flat, yq, zq, ids).reshape(m, -1, 1)
        mom = phiT @ (np.concatenate((aval, fval), axis=2) * wq[..., None])  # (m, Nk, 3)
        r_loc = (np.swapaxes(G, 1, 2) @ mom[:, :, :2].transpose(0, 2, 1).reshape(m, -1, 1)
                 + g.S[op] @ loc[..., None])[..., 0]
        r_loc[:, :Nk] += mom[:, :, 2]

        if not need_jacobian:
            out.append(_Local(ids, g.gidx[sl], r_loc, None))
            continue

        def mass(weights):
            """phi^T diag(weights) phi per cell, (m, Nk, Nk)."""
            return phiT @ (weights[..., None] * phi)

        # a_z is symmetric (the NonlinearProblem contract), so the (1, 0)
        # block equals the (0, 1) block, itself a symmetric mass matrix.
        az = _call(problem, "a_z", flat, y_c, z_c, ids).reshape(m, -1, 2, 2) * wq[..., None, None]
        M = np.empty((m, 2 * Nk, 2 * Nk))
        M[:, :Nk, :Nk] = mass(az[..., 0, 0])
        M[:, :Nk, Nk:] = mass(az[..., 0, 1])
        M[:, Nk:, :Nk] = M[:, :Nk, Nk:]
        M[:, Nk:, Nk:] = mass(az[..., 1, 1])
        J_loc = np.swapaxes(G, 1, 2) @ (M @ G) + g.S[op]

        ay = _call(problem, "a_y", flat, y_c, z_c, ids)
        if np.any(ay):
            ayw = ay.reshape(m, -1, 2) * wq[..., None]
            W = np.concatenate((mass(ayw[..., 0]), mass(ayw[..., 1])), axis=1)
            J_loc[:, :, :Nk] += np.swapaxes(G, 1, 2) @ W
        fz = _call(problem, "f_z", flat, y_c, z_c, ids)
        if np.any(fz):
            fzw = fz.reshape(m, -1, 2) * wq[..., None]
            W = np.concatenate((mass(fzw[..., 0]), mass(fzw[..., 1])), axis=2)
            J_loc[:, :Nk, :] += W @ G
        fy = _call(problem, "f_y", flat, y_c, z_c, ids)
        if np.any(fy):
            J_loc[:, :Nk, :Nk] += mass(fy.reshape(m, -1) * wq)
        out.append(_Local(ids, g.gidx[sl], r_loc, J_loc))
    return out


def _scatter_vector(blocks, n):
    """Sum of local vectors ``(index (m, b), values (m, b))`` in a length-``n`` vector.

    An index of -1 drops its entry.
    """
    out = np.zeros(n)
    for idx, v in blocks:
        keep = idx >= 0
        out += np.bincount(idx[keep], weights=v[keep], minlength=n)
    return out


def _scatter_matrix(blocks, n):
    """Sum of local matrices ``(index (m, b), values (m, b, b))`` as an (n, n) COO matrix.

    An index of -1 drops its row and column.
    """
    rows_all, cols_all, data_all = [], [], []
    for idx, A in blocks:
        b = idx.shape[1]
        rows = np.repeat(idx, b, axis=1).ravel()
        cols = np.tile(idx, (1, b)).ravel()
        keep = (rows >= 0) & (cols >= 0)
        rows_all.append(rows[keep].astype(np.int32))
        cols_all.append(cols[keep].astype(np.int32))
        data_all.append(A.reshape(-1)[keep])
    return sparse.coo_matrix(
        (np.concatenate(data_all), (np.concatenate(rows_all), np.concatenate(cols_all))),
        shape=(n, n))


def residual(problem, w):
    """Vector of the discrete nonlinear form at ``w`` against every test dof."""
    local = _assemble(w.space, problem, w, need_jacobian=False)
    return _scatter_vector(((c.gidx, c.r) for c in local), w.space.num_dofs)


def jacobian(problem, w, fields=None):
    """Sparse matrix of the fully discrete linearized form at ``w``.

    ``fields=(u, grad_u)`` freezes the linearization coefficients at the
    given fields instead of ``w`` (the semi-discrete variant used in
    verification studies).  The solve path never builds this matrix: it
    condenses the local Jacobians cell by cell (:func:`static_condense`).
    """
    local = _assemble(w.space, problem, w, need_jacobian=True, fields=fields)
    return _scatter_matrix(((c.gidx, c.J) for c in local), w.space.num_dofs).tocsr()


# -- linear algebra ----------------------------------------------------------


def static_condense(space, local):
    """Eliminate each cell's unknowns from its own block of ``J x = r``.

    ``local`` holds the stacks of :func:`_assemble`, whose residuals act as
    the right-hand side.  Per chunk one stacked solve gives
    ``X = J_TT^{-1} [J_TF | r_T]``; the local Schur complements
    ``J_FF - J_FT X_F`` and reduced right-hand sides ``r_F - J_FT X_r`` are
    scattered straight into the interior-face system, whose rows follow
    :meth:`HHOSpace.face_rows`; boundary face dofs are dropped, their values
    being zero.  Returns ``(S, g, recover)``: the face system (CSC), its
    right-hand side, and a callback mapping a face solution to the
    full-layout solution ``x``, zero on boundary faces.
    """
    Nk = space.Nk
    rows = space.face_rows()
    n = len(space.mesh.interior_faces) * space.nF
    kept, blocks = [], []
    for c in local:
        J_FT = c.J[:, Nk:, :Nk]
        rhs = np.concatenate((c.J[:, :Nk, Nk:], c.r[:, :Nk, None]), axis=2)
        X = _solve(c.J[:, :Nk, :Nk], rhs, c.ids, "cell block", CondensationError)
        blocks.append((rows[c.gidx[:, Nk:]], c.J[:, Nk:, Nk:] - J_FT @ X[..., :-1],
                       c.r[:, Nk:] - (J_FT @ X[..., -1:])[..., 0]))
        kept.append((c.gidx, X))
    S = _scatter_matrix(((f, A) for f, A, _ in blocks), n).tocsc()
    g = _scatter_vector(((f, b) for f, _, b in blocks), n)

    def recover(uf):
        x = np.zeros(space.num_dofs)
        face = rows >= 0
        x[face] = uf[rows[face]]
        for gidx, X in kept:
            x[gidx[:, :Nk]] = X[..., -1] - (X[..., :-1] @ x[gidx[:, Nk:], None])[..., 0]
        return x

    return S, g, recover


# Refinement stops once the estimated error left in the face solution,
# |d_k|^2 / |d_{k-1}| for the last two corrections, is below this fraction
# of the solution's norm.
_REFINE_TOL = 1e-13


def _solve_face_system(S, g):
    """``S x = g`` to double precision from a single-precision factor.

    ``S`` is factored in float32 and the solution refined in float64:
    starting from ``x = 0``, each step solves ``LU d = g - S x`` with the
    float64 residual and adds ``d``, until ``|d_k|^2 / |d_{k-1}|`` is below
    ``_REFINE_TOL |x|``.  Each contraction estimate ``|d_k| / |d_{k-1}|``
    is about the float32 round-off times the conditioning of ``S``.  If the
    float32 factor fails, or a correction is non-finite or does not shrink
    by half, the same loop factors ``S`` again in float64 and goes on from
    the current ``x``.  Returns ``(x, dtype, steps, last)``: the factor's
    dtype, the number of corrections made with it, and the last one's norm
    relative to ``|x|``.
    """
    x = np.zeros_like(g)
    r = g
    for dtype in (np.float32, np.float64):
        try:
            with np.errstate(over="ignore"):  # entries beyond float32's range become inf
                lu = splu(S.astype(dtype, copy=False), permc_spec="NATURAL",
                          diag_pivot_thresh=0.1, options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            if dtype is np.float64:
                raise SolverError(f"condensed face system is singular: {exc}") from exc
            log.debug("float32 factor of the face system failed (%s); refactoring in float64",
                      exc)
            continue
        last, steps = np.inf, 0
        while True:
            # Scaled so that a single-precision right-hand side neither
            # overflows nor falls into subnormals.
            scale = max(np.abs(r).max(initial=0.0), np.finfo(float).tiny)
            d = scale * lu.solve((r / scale).astype(dtype))
            size = np.linalg.norm(d)
            if not size <= 0.5 * last:  # non-finite, or not contracting
                break
            x += d
            steps += 1
            xnorm = np.linalg.norm(x) or 1.0
            if steps > 1 and size * size <= _REFINE_TOL * xnorm * last:
                return x, dtype, steps, size / xnorm
            last = size
            r = g - S @ x
        if dtype is np.float32:
            log.debug("float32 refinement stalled at step %d (correction %.1e after %.1e); "
                      "refactoring in float64", steps + 1, size, last)
        elif np.isfinite(size):
            # Stalled at round-off: the correction after the last one did not shrink.
            return x, dtype, steps, last / xnorm
    raise SolverError("condensed face system is singular: "
                      "non-finite correction from the float64 factor")


def _increment(space, problem, w):
    """The Newton increment ``d`` with ``J(w) d = -r(w)`` on the free dofs.

    The local residuals and Jacobians are assembled and condensed here, so
    that the Jacobian stacks are freed before the face system is factored.
    The condensed face system, already in the mesh's nested-dissection
    order, is factored in single precision with symmetric-mode threshold
    pivoting and its solution refined in double precision against the
    float64 system; a float64 factor takes over if that refinement fails
    (:func:`_solve_face_system`).
    """
    S, g, recover = static_condense(space, _assemble(space, problem, w, need_jacobian=True))
    uf, dtype, steps, last = _solve_face_system(S, g)
    log.debug("face system: %d rows, %d nonzeros, %s factor, %d refinement steps, "
              "last correction %.1e", S.shape[0], S.nnz, np.dtype(dtype).name, steps, last)
    return space.vector_from_flat(-recover(uf))


def solve_linear_hho(space, source, diffusion=None):
    """HHO solution of -div(A grad u) = source with zero Dirichlet data.

    ``diffusion`` is an optional constant SPD 2x2 matrix A (identity by
    default, the Poisson bootstrap); a matrix that is not symmetric, to the
    tolerance of :meth:`NonlinearProblem.check`, or not positive definite
    raises ``ValueError``.  The discretization (reconstructions and
    stabilization) is the same one the nonlinear solve uses.  Since the
    stabilization does not scale with A, A and the source are divided by
    A's largest eigenvalue first: the solution is the same, and the cell
    blocks stay as well conditioned as for the identity, whatever A's size.
    """
    A = np.eye(2) if diffusion is None else np.asarray(diffusion, dtype=float)
    if A.shape != (2, 2) or not np.abs(A - A.T).max() <= 1e-9 * (1.0 + np.abs(A).max()):
        raise ValueError("diffusion must be a symmetric 2x2 matrix")
    low, high = np.linalg.eigvalsh(A)
    if not low > 0:
        raise ValueError(f"diffusion must be positive definite, its eigenvalues are "
                         f"{low:g} and {high:g}")
    A = A / high

    def lin_a(x, y, z):
        return z @ A.T

    def lin_az(x, y, z):
        return np.broadcast_to(A, (len(x), 2, 2))

    lin = NonlinearProblem(
        a=lin_a, a_z=lin_az, a_y=lambda x, y, z: np.zeros((len(x), 2)),
        f=lambda x, y, z: -np.asarray(source(x), dtype=float) / high,
        f_z=lambda x, y, z: np.zeros((len(x), 2)),
        f_y=lambda x, y, z: np.zeros(len(x)))
    return _increment(space, lin, HybridVector(space))


def newton_solve(problem, mesh, k, tol=1e-8, max_iter=25, initial_guess=None,
                 line_search=False):
    """Newton iteration for the discrete nonlinear problem on ``mesh``.

    Starts from ``initial_guess`` or the Poisson bootstrap (the linear HHO
    solve with the problem's source).  Each step solves the condensed
    linearized system for an increment; the iteration stops once the
    reconstructed-gradient norm of the increment, relative to the new
    iterate, drops to ``tol``.  The nonlinear coefficients are integrated
    by the space's quadrature: one rule of degree 2k+4 per face-count
    group, the same one its operators are built with.

    Returns ``(solution, NewtonReport)``; raises
    :class:`NewtonDivergedError` after ``max_iter`` steps without
    convergence.
    """
    if initial_guess is not None:
        space = initial_guess.space
        if space.mesh is not mesh or space.k != k:
            raise ValueError("initial guess must live on the same mesh and degree")
    else:
        space = HHOSpace(mesh, k)
    if not problem._checked:
        problem.check()
    if initial_guess is None:
        def bootstrap_source(x):
            n = len(x)
            return -np.asarray(problem.f(x, np.zeros(n), np.zeros((n, 2))), dtype=float)

        u = solve_linear_hho(space, bootstrap_source)
    else:
        u = initial_guess.with_zero_boundary()

    free = space.free_dofs()
    increments = []
    for it in range(1, max_iter + 1):
        delta = _increment(space, problem, u)
        if line_search:
            rnorm = np.linalg.norm(residual(problem, u)[free])
            alpha = 1.0
            while alpha > 1.0 / 256.0:
                trial = residual(problem, u + alpha * delta)[free]
                if np.linalg.norm(trial) <= (1.0 - 0.25 * alpha) * rnorm:
                    break
                alpha *= 0.5
            delta = alpha * delta
        u = u + delta
        denom = space.gradient_norm(u)
        inc = space.gradient_norm(delta) / denom if denom > 0 else space.gradient_norm(delta)
        increments.append(inc)
        if inc <= tol:
            return u, NewtonReport(iterations=it, increments=increments, converged=True)
    report = NewtonReport(iterations=max_iter, increments=increments, converged=False)
    raise NewtonDivergedError(
        f"no convergence to {tol:g} within {max_iter} iterations "
        f"(last increment {increments[-1]:.3e})", report)

"""Nonlinear problem plumbing: assembly, static condensation, Newton iteration.

The discrete nonlinear form and its fully discrete linearization are
evaluated as stacks of local residuals and Jacobians, in vectorized
chunks of cells with one face count whose local operators are gathered
from the space's operator stacks.  No global matrix holds cell unknowns.

The cell unknowns couple only within their own cell, so a solve
eliminates them cell by cell (static condensation): each chunk is
assembled and condensed by one stacked dense solve before the next chunk
is assembled, and its local Schur complements on the cell's faces are
summed straight into the values of the interior-face system's CSC
arrays, whose rows, pattern and slot map the space builds once
(``HHOSpace.face_pattern``).  Rows keep each face's ``k+1`` dofs
together, in the post-order of a median-bisection tree of the cells
(``PolytopalMesh.interior_face_order``, built once per mesh).  SuperLU
factors a float32 copy of that system without a column reordering of its
own (``NATURAL``) in symmetric mode: the diagonal pivot is kept unless it
is below 0.1 times the largest entry of its column.  Full partial pivoting
would swap rows freely and destroy the ordering's fill savings; the
threshold still pivots a nonsymmetric Jacobian where it must.

The face system is solved in float64 by flexible GMRES against the
float64 system, preconditioned by a float32 factor (GMRES-based iterative
refinement, Carson & Higham, SIAM J. Sci. Comput. 40, 2018).  A Newton
solve holds its latest float32 factor and preconditions the next system
with it, a lagged factor as in Newton-Krylov solvers (Knoll & Keyes,
J. Comput. Phys. 193, 2004): the pattern never changes, and the values
hardly do once Newton converges.  A fresh factor is made only when the
held one is projected, from its rate so far, to need more steps than a
fresh factor and its own steps are worth; a system that float32 cannot
hold, or on which a fresh float32 factor converges too slowly, is
factored in float64.  Each cell's unknowns are then recovered from its
own stored block.  ``residual`` and ``jacobian`` scatter the same local
stacks into the full layout for verification.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.linalg import solve_triangular
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
    """Iteration count, per-iteration relative increments, and convergence flag.

    ``linear_solves`` holds one :class:`LinearSolve` per face-system solve,
    the Poisson bootstrap first when there is one.
    """

    iterations: int
    increments: list
    converged: bool
    linear_solves: list = field(default_factory=list)


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

    def check(self):
        """Sample-based guard on user callbacks.

        Verifies output shapes, symmetry of ``a_z``, and that the supplied
        derivatives match central finite differences of ``a`` and ``f`` at
        16 fixed random points; a non-finite value fails every comparison.
        Raises :class:`ProblemDefinitionError` on the first violation.
        """
        rng = np.random.default_rng(1905)
        n = 16
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


def _assemble(space, problem, w, chunk, need_jacobian, fields=None):
    """Local residual (and optionally Jacobian) stacks of the discrete form at ``w``.

    ``chunk`` is one ``(group, slice)`` pair of ``space._chunks()``: cells
    of one face count, which gather their operators from the space.  With
    ``fields=(u, grad_u)`` the Jacobian coefficients are evaluated at the
    given fields instead of the discrete iterate (semi-discrete
    linearization).  Returns the chunk's :class:`_Local`.
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

    aval = _call(problem, "a", flat, yq, zq, ids).reshape(m, -1, 2)
    fval = _call(problem, "f", flat, yq, zq, ids).reshape(m, -1, 1)
    mom = phiT @ (np.concatenate((aval, fval), axis=2) * wq[..., None])  # (m, Nk, 3)
    r_loc = (np.swapaxes(G, 1, 2) @ mom[:, :, :2].transpose(0, 2, 1).reshape(m, -1, 1)
             + g.S[op] @ loc[..., None])[..., 0]
    r_loc[:, :Nk] += mom[:, :, 2]

    if not need_jacobian:
        return _Local(ids, g.gidx[sl], r_loc, None)

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
    return _Local(ids, g.gidx[sl], r_loc, J_loc)


def _scatter_vector(blocks, n):
    """Sum of local vectors ``(index (m, b), values (m, b))`` in a length-``n`` vector.

    An index of -1 drops its entry.
    """
    out = np.zeros(n)
    for idx, v in blocks:
        keep = idx >= 0
        out += np.bincount(idx[keep], weights=v[keep], minlength=n)
    return out


def residual(problem, w):
    """Vector of the discrete nonlinear form at ``w`` against every test dof."""
    space = w.space
    local = (_assemble(space, problem, w, chunk, need_jacobian=False)
             for chunk in space._chunks())
    return _scatter_vector(((c.gidx, c.r) for c in local), space.num_dofs)


def jacobian(problem, w, fields=None):
    """Sparse matrix of the fully discrete linearized form at ``w``.

    ``fields=(u, grad_u)`` freezes the linearization coefficients at the
    given fields instead of ``w`` (the semi-discrete variant used in
    verification studies).  The solve path never builds this matrix: it
    condenses the local Jacobians cell by cell (:func:`static_condense`).
    """
    space = w.space
    rows, cols, values = [], [], []
    for chunk in space._chunks():
        c = _assemble(space, problem, w, chunk, need_jacobian=True, fields=fields)
        b = c.gidx.shape[1]
        rows.append(np.repeat(c.gidx, b, axis=1).ravel())
        cols.append(np.tile(c.gidx, (1, b)).ravel())
        values.append(c.J.ravel())
    n = space.num_dofs
    return sparse.coo_matrix((np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(n, n)).tocsr()


# -- linear algebra ----------------------------------------------------------


def static_condense(space, problem, w):
    """The Newton system ``J(w) x = r(w)`` with each cell's unknowns eliminated.

    Chunk by chunk, the local residuals and Jacobians of :func:`_assemble`
    are condensed and dropped before the next chunk is assembled, so the
    Jacobian stacks of all cells never exist at once.  Per chunk one
    stacked solve gives ``X = J_TT^{-1} [J_TF | r_T]``; the local Schur
    complements ``J_FF - J_FT X_F`` are summed straight into the data of
    the face system's CSC pattern, through the slot map the space builds
    once (:meth:`HHOSpace.face_pattern`), and the reduced right-hand sides
    ``r_F - J_FT X_r`` into its right-hand side.  Rows follow the
    pattern's ``rows``; boundary face dofs are dropped, their values being
    zero.  Returns ``(S, g, recover)``: the face system (CSC,
    sharing the pattern's index arrays), its right-hand side, and a
    callback mapping a face solution to the full-layout solution ``x``,
    zero on boundary faces.
    """
    Nk = space.Nk
    pattern = space.face_pattern()
    rows = pattern.rows
    n = len(pattern.indptr) - 1
    g = np.zeros(n)
    # -0.0 + v is v for every v, so each slot ends up with exactly the sum
    # of its entries; the nF slots past the pattern take the dropped ones.
    nnz = len(pattern.indices)
    data = np.full(nnz + space.nF, -0.0)
    kept = []
    for chunk, slots in zip(space._chunks(), pattern.slots):
        c = _assemble(space, problem, w, chunk, need_jacobian=True)
        J_FT = c.J[:, Nk:, :Nk]
        rhs = np.concatenate((c.J[:, :Nk, Nk:], c.r[:, :Nk, None]), axis=2)
        X = _solve(c.J[:, :Nk, :Nk], rhs, c.ids, "cell block", CondensationError)
        np.add.at(data, slots, (c.J[:, Nk:, Nk:] - J_FT @ X[..., :-1]).ravel())
        f = rows[c.gidx[:, Nk:]]
        g += _scatter_vector([(f, c.r[:, Nk:] - (J_FT @ X[..., -1:])[..., 0])], n)
        kept.append((c.gidx, X))
        del c, J_FT, rhs  # the chunk's Jacobian stack goes before the next one is assembled
    S = sparse.csc_matrix((data[:nnz], pattern.indices, pattern.indptr), shape=(n, n))

    def recover(uf):
        x = np.zeros(space.num_dofs)
        face = rows >= 0
        x[face] = uf[rows[face]]
        for gidx, X in kept:
            x[gidx[:, :Nk]] = X[..., -1] - (X[..., :-1] @ x[gidx[:, Nk:], None])[..., 0]
        return x

    return S, g, recover


class LinearSolve(NamedTuple):
    """How one linear solve of the condensed face system went."""

    factor: str       # "fresh float32", "held float32" or "float64": the factor that finished
    steps: int        # flexible GMRES steps, over every factor the solve tried
    residual: float   # true relative residual |g - S x| / |g| at the end
    rows: int         # rows of the face system
    nnz: int          # stored entries of the face system
    fill: int         # entries SuperLU stores for the factor that finished (SuperLU.nnz)


# A face solve stops once the flexible GMRES estimate of |g - S x| is at
# most this fraction of |g|.  The true residual then sits at its float64
# floor: 4e-16 to 1.2e-12 of |g| over the benchmark's 184 face solves.
_RTOL = 1e-14

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
# _RTOL in about four steps.
_FRESH_RATE = 3e-4

# No attempt with one factor takes more steps than this.
_MAX_STEPS = 40


def _factor(S, dtype):
    """Sparse LU factor of the CSC matrix ``S`` in ``dtype``, in the face order.

    Pivoting is in symmetric mode.  The copy in ``dtype`` that SuperLU
    takes shares the index arrays of ``S``.
    """
    S.sum_duplicates()  # a no-op on a face system; SuperLU must not sort shared indices
    with np.errstate(over="ignore"):  # entries beyond float32's range become inf
        data = S.data.astype(dtype, copy=False)
    return splu(sparse.csc_matrix((data, S.indices, S.indptr), shape=S.shape),
                permc_spec="NATURAL", diag_pivot_thresh=0.1, options=dict(SymmetricMode=True))


def _fgmres(S, g, x, lu, dtype, tol, patient):
    """Flexible GMRES for ``S x = g`` from ``x``, preconditioned by the factor ``lu``.

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
    iterate, the steps taken and whether the estimate reached ``tol``.
    """
    r = g - S @ x
    beta = np.linalg.norm(r)
    if beta <= tol:
        return x, 0, True
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
        x = x + np.column_stack(Z) @ solve_triangular(R[:n, :n], e[:n])
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

    def solve(self, S, g):
        """The solution ``x`` of ``S x = g``; its :class:`LinearSolve` goes on ``solves``."""
        gnorm = np.linalg.norm(g)
        tol = _RTOL * gnorm
        x = np.zeros_like(g)
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
        self.solves.append(LinearSolve(kind, steps, residual, S.shape[0], S.nnz, lu.nnz))
        log.debug("face system: %d rows, %d nonzeros, %s factor, %d Krylov steps, "
                  "relative residual %.1e", S.shape[0], S.nnz, kind, steps, residual)
        return x


def _increment(space, problem, w, face_factor=None):
    """The Newton increment ``d`` with ``J(w) d = -r(w)`` on the free dofs.

    The face system, condensed chunk by chunk (:func:`static_condense`) and
    already in the mesh's nested-dissection order, is solved by
    ``face_factor``, a :class:`_FaceFactor` that may hold a factor from an
    earlier solve; without one the solve makes and drops its own factor.
    """
    S, g, recover = static_condense(space, problem, w)
    return space.vector_from_flat(-recover((face_factor or _FaceFactor()).solve(S, g)))


def solve_linear_hho(space, source, face_factor=None):
    """HHO solution of the Poisson problem -div grad u = source with zero Dirichlet data.

    This is the bootstrap of :func:`newton_solve`: the linear flux
    a(z) = z discretized with the space's reconstructions, stabilization and
    quadrature, and solved by the same condensed face system as a Newton
    step.  ``source`` takes an (n, 2) array of points and returns n values.
    ``face_factor`` is the Newton solve's :class:`_FaceFactor`, which keeps
    the factor and the record of this solve; by default the solve makes and
    drops its own.
    """
    lin = NonlinearProblem(
        a=lambda x, y, z: z,
        a_z=lambda x, y, z: np.broadcast_to(np.eye(2), (len(x), 2, 2)),
        a_y=lambda x, y, z: np.zeros((len(x), 2)),
        f=lambda x, y, z: -np.asarray(source(x), dtype=float),
        f_z=lambda x, y, z: np.zeros((len(x), 2)),
        f_y=lambda x, y, z: np.zeros(len(x)))
    return _increment(space, lin, HybridVector(space), face_factor)


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
    convergence; ``max_iter`` below 1 raises ``ValueError``.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if initial_guess is not None:
        space = initial_guess.space
        if space.mesh is not mesh or space.k != k:
            raise ValueError("initial guess must live on the same mesh and degree")
    else:
        space = HHOSpace(mesh, k)
    if not problem._checked:
        problem.check()
    face_factor = _FaceFactor()
    if initial_guess is None:
        def bootstrap_source(x):
            n = len(x)
            return -np.asarray(problem.f(x, np.zeros(n), np.zeros((n, 2))), dtype=float)

        u = solve_linear_hho(space, bootstrap_source, face_factor)
    else:
        u = initial_guess.with_zero_boundary()

    free = space.free_dofs()
    increments = []
    for it in range(1, max_iter + 1):
        delta = _increment(space, problem, u, face_factor)
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
            return u, NewtonReport(it, increments, True, face_factor.solves)
    report = NewtonReport(max_iter, increments, False, face_factor.solves)
    raise NewtonDivergedError(
        f"no convergence to {tol:g} within {max_iter} iterations "
        f"(last increment {increments[-1]:.3e})", report)

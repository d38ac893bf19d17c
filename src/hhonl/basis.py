"""Orthonormal hierarchical bases on cells and faces, and the cell L2 projection.

A cell basis of degree l is phi(x) = m(A (x - x_T)) T: the graded monomials
m of whitened coordinates times an upper triangular T that makes them
orthonormal in L^2(T) (:func:`orthonormal_frame`).  As T is triangular, the
first dim P_j functions span P_j, and phi_0 = |T|^(-1/2).  Face bases are
the Legendre polynomials sqrt(2j+1) P_j(2s) of the arc-length coordinate s
from the face midpoint in units of the face length: their Gram matrix is |F| I.
"""

from __future__ import annotations

import numpy as np

from .mesh import polygon_centroid
from .quadrature import cell_quadrature

__all__ = [
    "BasisError",
    "BasisDegenerateError",
    "graded_lex_exponents",
    "space_dimension",
    "monomials",
    "legendre",
    "orthonormal_frame",
    "CellBasis",
    "FaceBasis",
    "l2_project_cell",
]


class BasisError(Exception):
    """Base class for basis construction and projection failures."""


class BasisDegenerateError(BasisError):
    """A mass matrix turned out singular, signalling degenerate cell geometry."""


def graded_lex_exponents(degree):
    """Exponent pairs (a, b), a + b <= degree, graded, x-power decreasing within a grade."""
    exps = [(a, d - a) for d in range(degree + 1) for a in range(d, -1, -1)]
    return np.asarray(exps, dtype=np.int64)


def space_dimension(degree):
    """dim P^degree in two variables."""
    return (degree + 1) * (degree + 2) // 2


def monomials(xi, degree, gradient=False):
    """Monomials xi^a eta^b, a + b <= ``degree``, at points ``xi`` of shape (..., 2).

    Values come out with shape (..., N) in graded lexicographic order; with
    ``gradient`` the derivatives with respect to (xi, eta) come out with
    shape (..., N, 2).  ``xi`` may stack any number of cells and points.
    """
    exps = graded_lex_exponents(degree)
    a, b = exps[:, 0], exps[:, 1]
    px = np.polynomial.polynomial.polyvander(xi[..., 0], degree)
    py = np.polynomial.polynomial.polyvander(xi[..., 1], degree)
    if not gradient:
        values = px[..., a]
        values *= py[..., b]
        return values
    gx = a * px[..., np.maximum(a - 1, 0)] * py[..., b]
    gy = b * px[..., a] * py[..., np.maximum(b - 1, 0)]
    return np.stack((gx, gy), axis=-1)


def legendre(t, degree):
    """Legendre polynomials sqrt(2j+1) P_j(2t - 1), j <= ``degree``, orthonormal on [0, 1].

    Values come out along a new last axis.
    """
    x = 2.0 * np.asarray(t, dtype=float) - 1.0
    return np.polynomial.legendre.legvander(x, degree) * np.sqrt(2 * np.arange(degree + 1) + 1.0)


def orthonormal_frame(points, weights, degree):
    """Frame (A, T) of the orthonormal degree-``degree`` basis phi(x) = m(A x) T.

    ``points`` (..., nq, 2), relative to the cell centroid, and ``weights``
    (..., nq) are a cell rule exact to degree 2 ``degree``; leading axes
    stack cells.  A = L^-1 for the Cholesky factor L L^T of the second
    moments per unit area; T = R^-1 for the Householder QR of sqrt(w) m(A x)
    with the diagonal of R made positive.
    """
    return _frame(points, weights, degree)[:2]


def _frame(points, weights, degree):
    """``(A, T, phi)``: :func:`orthonormal_frame` and the basis values phi at the rule's points."""
    w = weights[..., None]
    moment = np.swapaxes(points, -1, -2) @ (points * w) / w.sum(axis=-2)[..., None]
    A = np.linalg.inv(np.linalg.cholesky(moment))
    m = monomials(points @ np.swapaxes(A, -1, -2), degree)
    R = np.linalg.qr(np.sqrt(w) * m, mode="r")
    R *= np.sign(np.diagonal(R, axis1=-2, axis2=-1))[..., None]
    T = np.linalg.inv(R)
    return A, T, m @ T


class CellBasis:
    """Orthonormal hierarchical basis of P_degree on one polygonal cell.

    Parameters
    ----------
    vertices : (m, 2) array
        Cell corners, counterclockwise; used for quadrature.
    degree : int
    frame : optional
        (A, T) of :func:`orthonormal_frame` for this cell's shape, of this
        degree or higher; by default built from the cell's own rule.
    """

    def __init__(self, vertices, degree, frame=None, cell_index=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.degree = int(degree)
        self.center = polygon_centroid(self.vertices)
        self.cell_index = cell_index
        self.dimension = space_dimension(self.degree)
        if frame is None:
            rule = cell_quadrature(self.vertices - self.center, max(2 * self.degree, 2))
            frame = orthonormal_frame(rule.points, rule.weights, self.degree)
        self.A = frame[0]
        self.T = frame[1][:self.dimension, :self.dimension]

    def _whitened(self, points):
        return (np.asarray(points, dtype=float).reshape(-1, 2) - self.center) @ self.A.T

    def evaluate(self, points):
        """Basis values, shape (npoints, dimension)."""
        return monomials(self._whitened(points), self.degree) @ self.T

    def gradient(self, points):
        """Basis gradients, shape (npoints, dimension, 2)."""
        grad = monomials(self._whitened(points), self.degree, gradient=True) @ self.A
        return np.swapaxes(np.swapaxes(grad, 1, 2) @ self.T, 1, 2)


class FaceBasis:
    """Orthonormal Legendre polynomials of the scaled arc-length coordinate on one face.

    The coordinate runs from the face midpoint in the direction of the
    owner cell's traversal, divided by the face length, so it spans
    [-1/2, 1/2] across the face.
    """

    def __init__(self, endpoints, degree):
        pts = np.asarray(endpoints, dtype=float)
        self.start = pts[0]
        self.end = pts[1]
        self.degree = int(degree)
        self.midpoint = 0.5 * (self.start + self.end)
        self.length = float(np.hypot(*(self.end - self.start)))
        self.tangent = (self.end - self.start) / self.length
        self.dimension = self.degree + 1

    def parameter(self, points):
        """Scaled arc-length coordinate of (npoints, 2) points on the face."""
        p = np.asarray(points, dtype=float).reshape(-1, 2)
        return ((p - self.midpoint) @ self.tangent) / self.length

    def evaluate(self, points):
        """Basis values, shape (npoints, degree + 1)."""
        return legendre(self.parameter(points) + 0.5, self.degree)


def l2_project_cell(f, basis, degree=None):
    """Coefficients of the L^2-orthogonal projection of the field ``f(points)`` onto the cell basis.

    Evaluate the projection with ``basis.evaluate(points) @ coefficients``.
    """
    deg = 2 * basis.degree + 2 if degree is None else degree
    rule = cell_quadrature(basis.vertices, deg)
    phi = basis.evaluate(rule.points)
    mass = phi.T @ (rule.weights[:, None] * phi)
    rhs = phi.T @ (rule.weights * np.asarray(f(rule.points), dtype=float))
    # A rule that cannot resolve the basis leaves a singular mass matrix that round-off hides.
    eig = np.linalg.eigvalsh(mass)
    if not eig[0] > 1e-10 * eig[-1]:
        raise BasisDegenerateError(f"singular mass matrix on cell {basis.cell_index}")
    return np.linalg.solve(0.5 * (mass + mass.T), rhs)

"""Scaled monomial bases on cells and faces, mass/stiffness matrices, projectors.

Cell basis functions are ((x - x_T)/h_T)^a ((y - y_T)/h_T)^b with a + b <= l
in graded lexicographic order, so the degree-l basis is a prefix of the
degree-(l+1) basis.  Face basis functions are powers of the arc-length
coordinate measured from the face midpoint, scaled by the face length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .mesh import polygon_centroid, polygon_diameter
from .quadrature import cell_quadrature, face_quadrature

__all__ = [
    "BasisError",
    "BasisDegenerateError",
    "graded_lex_exponents",
    "space_dimension",
    "scaled_monomials",
    "CellBasis",
    "FaceBasis",
    "Polynomial",
    "cell_mass_matrix",
    "cell_stiffness_matrix",
    "face_mass_matrix",
    "l2_project_cell",
    "l2_project_face",
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


def _powers(t, degree):
    """Powers t^0 .. t^degree along a new last axis."""
    out = np.ones(np.shape(t) + (degree + 1,))
    for j in range(1, degree + 1):
        out[..., j] = out[..., j - 1] * t
    return out


def scaled_monomials(xi, degree, gradient=False):
    """Monomials xi^a eta^b, a + b <= ``degree``, at scaled points ``xi`` of shape (..., 2).

    Values come out with shape (..., N) in graded lexicographic order; with
    ``gradient`` the derivatives with respect to (xi, eta) come out with
    shape (..., N, 2).  ``xi`` may stack any number of cells and points.
    """
    exps = graded_lex_exponents(degree)
    a, b = exps[:, 0], exps[:, 1]
    px = _powers(xi[..., 0], degree)
    py = _powers(xi[..., 1], degree)
    if not gradient:
        return px[..., a] * py[..., b]
    gx = a * px[..., np.maximum(a - 1, 0)] * py[..., b]
    gy = b * px[..., a] * py[..., np.maximum(b - 1, 0)]
    return np.stack((gx, gy), axis=-1)


class CellBasis:
    """Scaled monomials on one polygonal cell.

    Parameters
    ----------
    vertices : (m, 2) array
        Cell corners, counterclockwise; used for quadrature.
    degree : int
    center, diameter : optional
        Scaling data; default to the area centroid and the cell diameter.
    orthonormalize : bool
        Apply a Gram-Schmidt (Cholesky) transform so the functions are
        L^2(T)-orthonormal.  Off by default; monomial conditioning is fine
        for the degrees used here.
    """

    def __init__(self, vertices, degree, center=None, diameter=None,
                 cell_index=None, orthonormalize=False):
        self.vertices = np.asarray(vertices, dtype=float)
        self.degree = int(degree)
        self.center = (polygon_centroid(self.vertices) if center is None
                       else np.asarray(center, dtype=float))
        self.diameter = (polygon_diameter(self.vertices) if diameter is None
                         else float(diameter))
        self.cell_index = cell_index
        self.exponents = graded_lex_exponents(self.degree)
        self.dimension = len(self.exponents)
        self._transform = None
        if orthonormalize:
            mono = cell_mass_matrix(self, degree=2 * self.degree)
            try:
                chol = np.linalg.cholesky(mono)
            except np.linalg.LinAlgError as exc:
                raise BasisDegenerateError(
                    f"monomial mass matrix of cell {cell_index} is not positive definite"
                ) from exc
            self._transform = solve_triangular(
                chol, np.eye(self.dimension), lower=True).T

    def evaluate(self, points):
        """Basis values, shape (npoints, dimension)."""
        p = np.asarray(points, dtype=float).reshape(-1, 2)
        vals = scaled_monomials((p - self.center) / self.diameter, self.degree)
        if self._transform is not None:
            vals = vals @ self._transform
        return vals

    def gradient(self, points):
        """Basis gradients, shape (npoints, dimension, 2)."""
        p = np.asarray(points, dtype=float).reshape(-1, 2)
        grads = scaled_monomials((p - self.center) / self.diameter, self.degree,
                                 gradient=True) / self.diameter
        if self._transform is not None:
            grads = np.einsum("qid,ij->qjd", grads, self._transform)
        return grads


class FaceBasis:
    """Powers of the scaled arc-length coordinate on one straight face.

    The coordinate runs from the face midpoint in the direction of the
    owner cell's traversal, divided by the face length, so it spans
    [-1/2, 1/2] across the face.
    """

    def __init__(self, endpoints, degree, face_index=None):
        pts = np.asarray(endpoints, dtype=float)
        self.start = pts[0]
        self.end = pts[1]
        self.degree = int(degree)
        self.face_index = face_index
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
        return _powers(self.parameter(points), self.degree)


@dataclass
class Polynomial:
    """Coefficient vector in a cell or face basis."""

    basis: object
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if len(self.coefficients) != self.basis.dimension:
            raise BasisError("coefficient length does not match the basis dimension")

    def __call__(self, points):
        return self.basis.evaluate(points) @ self.coefficients

    def gradient(self, points):
        """Gradient values, shape (npoints, 2); cell polynomials only."""
        return np.einsum("qid,i->qd", self.basis.gradient(points), self.coefficients)


def cell_mass_matrix(basis, degree=None):
    """Gram matrix of the basis over its cell."""
    deg = 2 * basis.degree if degree is None else degree
    rule = cell_quadrature(basis.vertices, deg)
    phi = basis.evaluate(rule.points)
    mat = phi.T @ (rule.weights[:, None] * phi)
    return 0.5 * (mat + mat.T)


def cell_stiffness_matrix(basis, degree=None):
    """Gram matrix of the basis gradients over its cell; constants span the kernel."""
    deg = max(2 * (basis.degree - 1), 0) if degree is None else degree
    rule = cell_quadrature(basis.vertices, deg)
    grad = basis.gradient(rule.points)
    mat = np.einsum("qid,q,qjd->ij", grad, rule.weights, grad)
    return 0.5 * (mat + mat.T)


def _unit_face_mass(dimension):
    """Gram matrix of the face basis of ``dimension`` functions on a face of unit length."""
    i = np.arange(dimension)
    p = i[:, None] + i[None, :]
    return np.where(p % 2 == 0, 1.0 / (2.0**p * (p + 1)), 0.0)


def face_mass_matrix(basis):
    """Gram matrix of a face basis; closed form in the scaled coordinate."""
    return basis.length * _unit_face_mass(basis.dimension)


def l2_project_cell(f, basis, degree=None):
    """L^2-orthogonal projection of the field ``f(points)`` onto the cell basis."""
    deg = 2 * basis.degree + 2 if degree is None else degree
    rule = cell_quadrature(basis.vertices, deg)
    phi = basis.evaluate(rule.points)
    mass = phi.T @ (rule.weights[:, None] * phi)
    rhs = phi.T @ (rule.weights * np.asarray(f(rule.points), dtype=float))
    try:
        coeffs = np.linalg.solve(0.5 * (mass + mass.T), rhs)
    except np.linalg.LinAlgError as exc:
        raise BasisDegenerateError(
            f"singular mass matrix on cell {basis.cell_index}") from exc
    return Polynomial(basis, coeffs)


def l2_project_face(f, basis, degree=None):
    """L^2-orthogonal projection of ``f`` onto the face basis."""
    deg = 2 * basis.degree + 2 if degree is None else degree
    rule = face_quadrature((basis.start, basis.end), deg)
    psi = basis.evaluate(rule.points)
    rhs = psi.T @ (rule.weights * np.asarray(f(rule.points), dtype=float))
    coeffs = np.linalg.solve(face_mass_matrix(basis), rhs)
    return Polynomial(basis, coeffs)

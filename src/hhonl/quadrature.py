"""Quadrature on polygonal cells and straight faces.

Cell rules come from a conical-product construction on the reference
triangle (Gauss-Jacobi in the collapsed direction times Gauss-Legendre),
mapped onto a centroid fan of the polygon.  All weights are positive and
a rule of declared degree d integrates every bivariate monomial of total
degree <= d exactly.  Face rules are plain Gauss-Legendre on the segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mesh import polygon_centroid

__all__ = [
    "QuadratureError",
    "UnsupportedDegreeError",
    "QuadratureRule",
    "MAX_TRIANGLE_DEGREE",
    "MAX_FACE_DEGREE",
    "cell_quadrature",
    "face_quadrature",
]

MAX_TRIANGLE_DEGREE = 20
MAX_FACE_DEGREE = 41


class QuadratureError(Exception):
    """A quadrature rule could not be built for the given geometry.

    ``index`` is the position of the offending polygon when a stack of
    polygons was passed, otherwise None.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class UnsupportedDegreeError(QuadratureError):
    """The requested exactness degree exceeds the supported range."""


@dataclass(frozen=True)
class QuadratureRule:
    """Points, positive weights, and the polynomial degree integrated exactly."""

    points: np.ndarray
    weights: np.ndarray
    degree: int

    def integrate(self, f):
        """Integral of ``f``; the callback takes an (n, 2) array of points."""
        return self.weights @ np.asarray(f(self.points))


def _gauss_jacobi_1_0(n):
    """n-point Gauss rule on [-1, 1] for the weight 1 - x (Jacobi alpha=1, beta=0).

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix of the orthonormal polynomials, whose recurrence has diagonal
    -1 / ((2i+1)(2i+3)) and off-diagonal sqrt(i (i+1)) / (2i+1); the weights
    are the weight's total mass 2 times the squared first eigenvector
    components.
    """
    i = np.arange(n)
    j = i[1:]
    off = np.sqrt(j * (j + 1.0)) / (2 * j + 1)
    T = np.diag(-1.0 / ((2 * i + 1) * (2 * i + 3))) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vectors = np.linalg.eigh(T)
    return nodes, 2.0 * vectors[0] ** 2


@lru_cache(maxsize=None)
def _reference_triangle(degree):
    """Conical-product rule on the triangle (0,0), (1,0), (0,1).

    The square [0,1]^2 collapses onto the triangle through
    (u, v) -> (u (1 - v), v) with Jacobian (1 - v); Gauss-Jacobi nodes with
    weight (1 - v) absorb the Jacobian, so n points per direction are exact
    for total degree 2n - 1.
    """
    n = max(1, (degree + 2) // 2)
    xg, wg = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (xg + 1.0)
    wu = 0.5 * wg
    xj, wj = _gauss_jacobi_1_0(n)
    v = 0.5 * (xj + 1.0)
    wv = 0.25 * wj
    U, V = np.meshgrid(u, v, indexing="ij")
    pts = np.column_stack(((U * (1.0 - V)).ravel(), V.ravel()))
    wts = np.outer(wu, wv).ravel()
    pts.setflags(write=False)
    wts.setflags(write=False)
    return pts, wts


def cell_quadrature(vertices, degree):
    """Rule over the polygon with counterclockwise corners ``vertices``.

    ``vertices`` is one polygon (nv, 2) or a stack of polygons with equal
    corner counts (m, nv, 2); the rule's points and weights then carry the
    same leading axis, (m, nq, 2) and (m, nq).  Triangles are mapped
    directly; larger polygons are fan-triangulated from the area centroid,
    which must see every edge positively (star-shaped cell), otherwise a
    :class:`QuadratureError` is raised whose ``index`` locates the polygon
    in a stack.
    """
    if not 0 <= degree <= MAX_TRIANGLE_DEGREE:
        raise UnsupportedDegreeError(
            f"cell rules support degrees 0..{MAX_TRIANGLE_DEGREE}, got {degree}")
    v = np.asarray(vertices, dtype=float)
    stack = v if v.ndim == 3 else v[None]
    ref_pts, ref_wts = _reference_triangle(degree)
    # Fan triangles (apex, a, b), shape (m, ntri, 2) each.
    if stack.shape[1] == 3:
        apex, a, b = stack[:, :1], stack[:, 1:2], stack[:, 2:]
    else:
        apex = polygon_centroid(stack)[:, None]
        a, b = stack, np.roll(stack, -1, axis=1)
    e1, e2 = a - apex, b - apex
    det = e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0]
    bad = np.argwhere(~(det > 0.0))
    if len(bad):
        cell, edge = (int(i) for i in bad[0])
        message = ("triangle is degenerate or clockwise" if stack.shape[1] == 3 else
                   "cell is not star-shaped with respect to its centroid "
                   f"(edge {edge} subtends a nonpositive triangle)")
        raise QuadratureError(message, index=cell if v.ndim == 3 else None)
    pts = (apex[:, :, None] + ref_pts[:, :1] * e1[:, :, None]
           + ref_pts[:, 1:] * e2[:, :, None])
    wts = ref_wts * det[:, :, None]
    m = len(stack)
    pts, wts = pts.reshape(m, -1, 2), wts.reshape(m, -1)
    if v.ndim == 2:
        pts, wts = pts[0], wts[0]
    return QuadratureRule(pts, wts, degree)


def face_quadrature(endpoints, degree):
    """Gauss-Legendre rule on the segment from ``endpoints[0]`` to ``endpoints[1]``."""
    if not 0 <= degree <= MAX_FACE_DEGREE:
        raise UnsupportedDegreeError(
            f"face rules support degrees 0..{MAX_FACE_DEGREE}, got {degree}")
    a, b = np.asarray(endpoints, dtype=float)
    n = max(1, (degree + 2) // 2)
    xg, wg = np.polynomial.legendre.leggauss(n)
    t = 0.5 * (xg + 1.0)
    length = float(np.hypot(*(b - a)))
    pts = a + np.outer(t, b - a)
    wts = 0.5 * wg * length
    return QuadratureRule(pts, wts, degree)

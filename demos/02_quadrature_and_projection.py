"""Quadrature on polygons and L2 projection onto orthonormal cell bases.

Cell rules are built by fanning the polygon into triangles around its
centroid and mapping a conical-product Gauss rule to each triangle; they
integrate polynomials up to the requested degree exactly.  A cell basis
is made orthonormal from the cell's own rule: the monomials of the
whitened coordinates, orthonormalized by one QR, so its mass matrix is
the identity on any cell, however small or stretched.
"""

import numpy as np

from hhonl.basis import CellBasis, l2_project_cell
from hhonl.quadrature import cell_quadrature, face_quadrature

# A non-convex but star-shaped pentagon.
pentagon = np.array([[0.0, 0.0], [1.1, 0.1], [1.4, 0.9],
                     [0.5, 1.3], [-0.2, 0.8]])

# Quadrature weights sum to the polygon area (shoelace formula).
rule = cell_quadrature(pentagon, degree=4)
x, y = pentagon.T
area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
print(f"area by shoelace    {area:.12f}")
print(f"area by quadrature  {rule.weights.sum():.12f}")
print(f"points in the rule  {len(rule.weights)}")

# Exactness: integrate x^2 y against a degree-3 rule and a degree-12 rule;
# both must agree to machine precision because the integrand is cubic.
lo = cell_quadrature(pentagon, 3).integrate(lambda p: p[:, 0] ** 2 * p[:, 1])
hi = cell_quadrature(pentagon, 12).integrate(lambda p: p[:, 0] ** 2 * p[:, 1])
print(f"\nint x^2 y, degree-3 rule   {lo:.15f}")
print(f"int x^2 y, degree-12 rule  {hi:.15f}")
print(f"difference                 {abs(hi - lo):.2e}")

# Face rules are Gauss-Legendre on the segment.
edge = face_quadrature(np.array([[0.0, 0.0], [3.0, 4.0]]), degree=7)
print(f"\nedge rule weight sum {edge.weights.sum():.12f} (edge length 5)")

# Project a transcendental function onto polynomials of increasing degree:
# the residual drops until the quadrature-exactness limit.
f = lambda p: np.sin(p[:, 0] + 0.5 * p[:, 1])
check = cell_quadrature(pentagon, 16)
print("\nL2 projection of sin(x + y/2) on the pentagon:")
for degree in range(6):
    basis = CellBasis(pentagon, degree)
    coeffs = l2_project_cell(f, basis)
    err2 = check.integrate(lambda p: (f(p) - basis.evaluate(p) @ coeffs) ** 2)
    print(f"  degree {degree}: residual {np.sqrt(max(err2, 0.0)):.3e}")

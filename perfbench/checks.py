"""Output checks of the solve benchmark, computed without the solver.

Every workload solves the prescribed-mean-curvature problem whose exact
solution is u = x(1-x)y(1-y).  For Leray-Lions fluxes the HHO gradient
error is bounded by the best approximations of grad u and of the flux
a(x, u, grad u) (Di Pietro & Droniou, Math. Comp. 2017).  A solve passes
when its relative gradient error lies between the first of these cellwise
P_k projection distances, below which no discrete solution can go, and
``ESTIMATE_CONSTANT`` times their sum.  A convergence column passes when
the rate at its finest pair of levels lies within ``RATE_BAND`` of k+1.

The exact fields, the quadrature and the projections are written here
from scratch with numpy, so a fault in the library's quadrature, basis or
operators cannot pass itself off as a correct answer.
"""

from __future__ import annotations

import math

import numpy as np

# The a priori estimate holds up to a constant that depends on the mesh
# regularity and on k.  Measured error / (floor(grad u) + floor(a)) is
# 0.48-0.70 on the Cartesian, triangular and Kershaw families, and on the
# hexagonal family up to 0.69 for k <= 2 but 0.87, 1.02, 1.11 on levels
# 1-3 at k=3, where the rate (3.67, 3.83) is still climbing towards 4.
ESTIMATE_CONSTANT = 1.25

# Rate band around the optimal order k+1 at the finest pair of a column.
# Measured finest-pair rates lie within 0.17 of k+1; a solve that loses a
# factor 1.5 at its finest level moves the rate by log2(1.5) = 0.58.
RATE_BAND = 0.25

# Relative slack on the lower bound.  The library integrates the error
# with a rule of degree 2k+4, which is exact for |grad u - G u_h|^2 only
# from k=1 on (grad u is cubic); at k=0 the smallest measured error/floor
# ratio is 1.0016 (cartesian n=32), so 1e-6 only absorbs rounding.
LOWER_SLACK = 1e-6

# Collapsed Gauss points per direction on each fan triangle: exact for
# polynomials of degree 2 * 8 - 2 = 14, ample for the degree-6 integrands
# of the gradient floor and the smooth flux.
_GAUSS_POINTS = 8


def exact_gradient(x):
    """Gradient of u = x(1-x)y(1-y) at points of shape (N, 2)."""
    X, Y = x[..., 0], x[..., 1]
    return np.stack(((1.0 - 2.0 * X) * Y * (1.0 - Y),
                     X * (1.0 - X) * (1.0 - 2.0 * Y)), axis=-1)


def exact_flux(x):
    """Mean-curvature flux grad u / sqrt(1 + |grad u|^2) at the exact solution."""
    g = exact_gradient(x)
    return g / np.sqrt(1.0 + (g**2).sum(axis=-1))[..., None]


def _reference_triangle():
    """Collapsed Gauss rule on the triangle (0,0), (1,0), (0,1)."""
    t, w = np.polynomial.legendre.leggauss(_GAUSS_POINTS)
    s, ws = 0.5 * (t + 1.0), 0.5 * w
    S, T = np.meshgrid(s, s, indexing="ij")
    W = np.outer(ws, ws) * (1.0 - S)
    return S.ravel(), (T * (1.0 - S)).ravel(), W.ravel()


def projection_floors(mesh, k, chunk=1024):
    """Relative L2 distances of grad u and of the flux to cellwise P_k^2.

    Returns ``(floor_grad, floor_flux)``, both relative to the L2 norm of
    grad u.  Each cell is fanned into triangles from its centroid with
    signed weights, which integrates polynomials exactly on any simple
    polygon.
    """
    ru, rv, rw = _reference_triangle()
    exps = [(a, d - a) for d in range(k + 1) for a in range(d, -1, -1)]
    by_size = {}
    for ci, cell in enumerate(mesh.cells):
        by_size.setdefault(len(cell), []).append(ci)
    num = np.zeros(2)
    den = 0.0
    for ids in by_size.values():
        for lo in range(0, len(ids), chunk):
            part = np.asarray(ids[lo:lo + chunk])
            verts = mesh.vertices[np.stack([mesh.cells[c] for c in part])]
            c = mesh.cell_centroids[part][:, None, :]
            h = mesh.cell_diameters[part][:, None, None]
            a = verts - c
            b = np.roll(verts, -1, axis=1) - c
            det = a[:, :, 0] * b[:, :, 1] - a[:, :, 1] * b[:, :, 0]
            pts = (c[:, :, None, :] + ru[:, None] * a[:, :, None, :]
                   + rv[:, None] * b[:, :, None, :]).reshape(len(part), -1, 2)
            w = (det[:, :, None] * rw).reshape(len(part), -1)
            rel = (pts - c) / h
            phi = np.stack([rel[..., 0]**p * rel[..., 1]**q for p, q in exps], axis=-1)
            mass = np.einsum("mq,mqi,mqj->mij", w, phi, phi)
            for i, field in enumerate((exact_gradient, exact_flux)):
                g = field(pts)
                coef = np.linalg.solve(mass, np.einsum("mq,mqi,mqc->mic", w, phi, g))
                resid = g - np.einsum("mqi,mic->mqc", phi, coef)
                num[i] += float(np.einsum("mq,mqc,mqc->", w, resid, resid))
                if i == 0:
                    den += float(np.einsum("mq,mqc,mqc->", w, g, g))
    floor_grad, floor_flux = np.sqrt(num / den)
    return float(floor_grad), float(floor_flux)


def mesh_h(family, level, mesh):
    """The h of a study level: 1/n on Cartesian grids, else the largest cell diameter."""
    if family == "cartesian":
        return 1.0 / int(level)
    return float(mesh.cell_diameters.max())


def bound_failure(label, error, floors):
    """None if ``floor_grad <= error <= C (floor_grad + floor_flux)``, else the reason."""
    floor_grad, floor_flux = floors
    upper = ESTIMATE_CONSTANT * (floor_grad + floor_flux)
    if not math.isfinite(error):
        return f"{label}: gradient error {error} is not finite"
    if error < floor_grad * (1.0 - LOWER_SLACK):
        return (f"{label}: gradient error {error:.4e} below the best cellwise "
                f"P_k approximation of grad u {floor_grad:.4e}")
    if error > upper:
        return (f"{label}: gradient error {error:.4e} above the a priori bound "
                f"{upper:.4e} (error/bound {error / upper:.3f})")
    return None


def rate_failure(label, k, coarse, fine):
    """None if the rate between two ``(h, error)`` levels is within the band of k+1."""
    (h0, e0), (h1, e1) = coarse, fine
    if not (e0 > 0.0 and e1 > 0.0 and h1 < h0):
        return f"{label}: no rate from errors {e0:.3e}, {e1:.3e} at h {h0:.4g}, {h1:.4g}"
    rate = math.log(e1 / e0) / math.log(h1 / h0)
    if abs(rate - (k + 1)) > RATE_BAND:
        return f"{label}: finest-pair rate {rate:.3f} not within {RATE_BAND} of {k + 1}"
    return None


def report_failure(label, report):
    """None if a Newton report says the iteration converged, else the reason."""
    if not getattr(report, "converged", False):
        return f"{label}: Newton did not report convergence"
    return None

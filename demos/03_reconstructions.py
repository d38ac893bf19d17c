"""The local HHO operators: potential and gradient reconstruction,
stabilization, and their two defining properties.

A hybrid unknown holds one polynomial of degree k per cell and one per
face.  From a cell's blocks the space reconstructs a degree-(k+1)
potential and a degree-k vector gradient.  Two facts make the method
work, and both are visible numerically:

  1. polynomial exactness: interpolating any p of degree k+1 and
     reconstructing returns p (and grad p) to machine precision, and the
     stabilization of the interpolant vanishes;
  2. approximation: for smooth non-polynomial data the reconstruction
     error decays at order k+1 in the gradient under mesh refinement.
"""

import numpy as np

from hhonl.hho import HHOSpace
from hhonl.mesh import generate_cartesian

k = 2
space = HHOSpace(generate_cartesian(4), k)
print(f"degree k={k}: {space.num_dofs} unknowns "
      f"({space.mesh.num_cells} cells x {space.Nk} + "
      f"{space.mesh.num_faces} faces x {space.nF})")

# -- exactness on a degree-(k+1) polynomial ----------------------------------
p = lambda x: x[:, 0] ** 3 - 2.0 * x[:, 0] * x[:, 1] ** 2 + 0.5 * x[:, 1]
grad_p = lambda x: np.stack((3.0 * x[:, 0] ** 2 - 2.0 * x[:, 1] ** 2,
                             -4.0 * x[:, 0] * x[:, 1] + 0.5), axis=1)

v = space.interpolate(p)
pot = space.reconstruct_potential_global(v)
grd = space.reconstruct_gradient_global(v)

worst_pot = 0.0
worst_grd = 0.0
for ids, pts, w, phi in space.quadrature_batches():
    flat = pts.reshape(-1, 2)
    pv = p(flat).reshape(w.shape)
    pg = grad_p(flat).reshape(w.shape + (2,))
    rv = np.einsum("mqn,mn->mq", phi, pot[ids])
    gv = np.einsum("mqn,mcn->mqc", phi[..., :space.Nk], grd[ids])
    worst_pot = max(worst_pot, np.abs(rv - pv).max())
    worst_grd = max(worst_grd, np.abs(gv - pg).max())

flat = v.to_flat()
energy = sum(float(b @ space.build_stabilization(ci) @ b)
             for ci in range(space.mesh.num_cells)
             for b in [flat[space.local_dof_indices(ci)]])
print("\nexactness on a cubic polynomial:")
print(f"  max |R I p - p|        {worst_pot:.2e}")
print(f"  max |G I p - grad p|   {worst_grd:.2e}")
print(f"  stabilization energy   {energy:.2e}")

# -- approximation of smooth data under refinement ---------------------------
v_fn = lambda x: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
g_fn = lambda x: np.pi * np.stack(
    (np.cos(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]),
     np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])), axis=1)

print(f"\n|grad v - G I v| for v = sin(pi x) sin(pi y), k={k}:")
previous = None
for n in (4, 8, 16, 32):
    space = HHOSpace(generate_cartesian(n), k)
    v = space.interpolate(v_fn)
    grd = space.reconstruct_gradient_global(v)
    err2 = 0.0
    for ids, pts, w, phi in space.quadrature_batches():
        gv = g_fn(pts.reshape(-1, 2)).reshape(w.shape + (2,))
        gg = np.einsum("mqn,mcn->mqc", phi[..., :space.Nk], grd[ids])
        err2 += float(np.einsum("mq,mqc->", w, (gv - gg) ** 2))
    err = np.sqrt(err2)
    rate = "" if previous is None else f"   rate {np.log2(previous / err):.3f}"
    print(f"  n={n:3d}: error {err:.4e}{rate}")
    previous = err

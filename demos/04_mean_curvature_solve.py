"""Solving the prescribed-mean-curvature test problem with Newton.

The flux a(grad u) = grad u / sqrt(1 + |grad u|^2) is strongly nonlinear;
the manufactured solution is u = x(1-x)y(1-y) with homogeneous Dirichlet
data.  Newton starts from a linear Poisson solve with the problem's source
(the bootstrap) and stops once the reconstructed-gradient norm of the
increment (``HHOSpace.gradient_norm``), relative to the iterate, drops
below the tolerance.  Quadratic convergence makes that happen in three
steps here.  Each face system is solved only to the tolerance its step
needs, and the last step is a chord step: the second increment is so
small that the third reuses the second step's Jacobian.
"""

import numpy as np

from hhonl.harness import gradient_error
from hhonl.hho import HHOSpace
from hhonl.mesh import generate_cartesian, mesh_size
from hhonl.solver import mean_curvature_problem, newton_solve

problem = mean_curvature_problem()
mesh = generate_cartesian(16)
k = 2

solution, report = newton_solve(problem, mesh, k)
space = solution.space

print(f"mesh: {mesh.num_cells} cells, h = {mesh_size(mesh):.4e}")
print(f"space: k = {k}, {space.num_dofs} unknowns")
print(f"\nnewton converged in {report.iterations} iterations:")
# linear_solves[0] is the bootstrap's face solve, linear_solves[i] step i's.
for i, inc in enumerate(report.increments, start=1):
    solve = report.linear_solves[i]
    chord = ", chord step" if i in report.chord_steps else ""
    print(f"  step {i}: relative increment {inc:.3e}, face solve to {solve.rtol:.1e} "
          f"in {solve.steps} Krylov steps{chord}")

# Accuracy against the manufactured solution, measured the way the
# convergence studies do: |grad u - G u_h| / |grad u|.
err = gradient_error(solution, problem.exact_gradient)
print(f"\nrelative gradient error: {err:.4e}")

# Warm starts help when solving a family of nearby problems: reusing the
# converged solution as the initial guess skips the bootstrap.
again, report2 = newton_solve(problem, mesh, k, initial_guess=solution)
print(f"warm restart from the solution: {report2.iterations} iteration(s), "
      f"first increment {report2.increments[0]:.2e}")

# The computed cell polynomials are regular data; sample the midpoint.
center = np.array([[0.5, 0.5]])
ci = int(np.argmin(np.linalg.norm(space.mesh.cell_centroids - center, axis=1)))
pot = space.reconstruct_potential_global(solution)
value = (space.cell_basis(ci).evaluate(center) @ pot[ci])[0]
print(f"\nu_h at the domain center   {value:.8f}")
print(f"exact u at the center      {problem.exact_solution(center)[0]:.8f}")

"""Hybrid high-order (HHO) method for nonlinear elliptic problems on polytopal meshes.

The package provides arbitrary-order cell/face polynomial spaces, local
gradient and potential reconstructions with stabilization, a Newton solver
with static condensation, and a convergence-study harness.  The library
logs through the ``hhonl`` logger, which is silent unless the caller
configures logging.
"""

import logging

from .basis import (BasisDegenerateError, BasisError, CellBasis, FaceBasis,
                    Polynomial, cell_mass_matrix, face_mass_matrix,
                    graded_lex_exponents, l2_project_cell, space_dimension)
from .harness import (ConvergenceRecord, StudyConfig, StudyResult,
                      convergence_rate, gradient_error, run_study, write_csv)
from .hho import HHOSpace, HybridVector
from .mesh import (MeshError, MeshFormatError, MeshInvalidError, PolytopalMesh,
                   generate_cartesian, generate_hexagonal, generate_kershaw,
                   generate_triangular, mesh_regularity, mesh_size,
                   quasi_uniformity, read_mesh, write_mesh)
from .quadrature import (QuadratureRule, UnsupportedDegreeError,
                         cell_quadrature, face_quadrature)
from .solver import (NewtonDivergedError, NewtonReport, NonlinearProblem,
                     SolverError, get_problem, jacobian, mean_curvature_problem,
                     newton_solve, problem_names, register_problem, residual,
                     solve_linear_hho, static_condense)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "BasisDegenerateError", "BasisError", "CellBasis", "FaceBasis",
    "Polynomial", "cell_mass_matrix", "face_mass_matrix",
    "graded_lex_exponents", "l2_project_cell", "space_dimension",
    "ConvergenceRecord", "StudyConfig", "StudyResult", "convergence_rate",
    "gradient_error", "run_study", "write_csv",
    "HHOSpace", "HybridVector",
    "MeshError", "MeshFormatError", "MeshInvalidError", "PolytopalMesh",
    "generate_cartesian", "generate_hexagonal", "generate_kershaw",
    "generate_triangular", "mesh_regularity",
    "mesh_size", "quasi_uniformity", "read_mesh", "write_mesh",
    "QuadratureRule", "UnsupportedDegreeError", "cell_quadrature",
    "face_quadrature",
    "NewtonDivergedError", "NewtonReport", "NonlinearProblem", "SolverError",
    "get_problem", "jacobian", "mean_curvature_problem", "newton_solve",
    "problem_names", "register_problem", "residual", "solve_linear_hho",
    "static_condense",
    "__version__",
]

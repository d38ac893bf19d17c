"""Hybrid high-order (HHO) method for nonlinear elliptic problems on polytopal meshes.

The package provides arbitrary-order cell/face polynomial spaces, local
gradient and potential reconstructions with stabilization, a Newton solver
with static condensation, and a convergence-study harness.  Each name is
imported from the module that defines it, for example
``hhonl.solver.newton_solve``.  The library logs through the ``hhonl``
logger, which is silent unless the caller configures logging.
"""

import logging

# Each module after the modules it imports.
from . import mesh, quadrature, basis, hho, solver, harness

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = ["basis", "harness", "hho", "mesh", "quadrature", "solver", "__version__"]

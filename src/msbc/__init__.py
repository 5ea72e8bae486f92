"""Macroscale boundary conditions for a nonlinear two-stream heat exchanger.

The toolkit separates the steady spatial boundary-layer dynamics into slow,
stable and unstable components by a near-identity coordinate transform,
projects microscale Dirichlet data along the resulting isochrons, and
assembles nonlinear Robin boundary conditions for the macroscale mean-field
model.  Method-of-lines solvers for both the microscale pair and the
macroscale equation verify the derived conditions numerically.

The solver names load ``msbc.solvers`` on first use.  The solvers call
LAPACK in the OpenBLAS bundled with numpy, and import scipy only where numpy
bundles none; the derivation never imports scipy.
"""

__version__ = "0.1.0"

from .boundary import (BoundaryData, RobinBC, SolverError,  # noqa: F401
                       centre_stable_restriction, derive_boundary_conditions,
                       dirichlet_heuristic, revert_boundary, robin_pair)
from .normalform import (ConstructionRefused, construct,  # noqa: F401
                         construct_at_unity, cross_validate_embeddings,
                         verify_conjugacy)
from .series import (ReversionError, SeriesError, SeriesVector,  # noqa: F401
                     Space, TruncatedSeries, solve_implicit_system)
from .system import (SpatialSystem, build_embedding,  # noqa: F401
                     build_original, coordinate_map)

_SOLVER_NAMES = frozenset({"Grid1D", "SolveConfig", "interior_error",
                           "reconstruct_micro", "solve_macroscale",
                           "solve_microscale"})


def __getattr__(name):
    if name in _SOLVER_NAMES:
        from . import solvers
        return getattr(solvers, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))

"""Dual variational space-time finite element solvers.

Parabolic and hyperbolic model problems (1-D heat conduction, 1-D linear
transport) and the rigid body rotation ODE system are solved through a dual
convex variational principle: a linear (or mildly nonlinear) system is solved
for auxiliary dual fields, and the physical fields are recovered pointwise
through an algebraic dual-to-primal change of variables.
"""

from .errors import (AssemblyError, DualFemError, InvalidArgumentError,
                     NonconvergenceError, SingularDtPError, SolverError,
                     UnsupportedBranchError)
from .euler import EulerConfig, EulerRun, kinetic_energy, momentum_magnitude, run_euler
from .heat import (DIRICHLET_THETA, NEUMANN_PI, HeatProblem, dtp_heat, solve_heat,
                   solve_heat_primal)
from .mesh import (NodalGrid, SpaceTimeMesh, TimeMesh, build_space_time_mesh,
                   build_time_mesh)
from .presets import PRESETS, get_preset, list_presets
from .transport import StagePlan, TransportProblem, run_time_sliced, track_jump

__version__ = "0.1.0"

__all__ = [
    "AssemblyError", "DualFemError", "InvalidArgumentError",
    "NonconvergenceError", "SingularDtPError", "SolverError",
    "UnsupportedBranchError",
    "EulerConfig", "EulerRun", "kinetic_energy", "momentum_magnitude",
    "run_euler",
    "DIRICHLET_THETA", "NEUMANN_PI", "HeatProblem", "dtp_heat", "solve_heat",
    "solve_heat_primal",
    "NodalGrid", "SpaceTimeMesh", "TimeMesh", "build_space_time_mesh",
    "build_time_mesh",
    "PRESETS", "get_preset", "list_presets",
    "StagePlan", "TransportProblem", "run_time_sliced", "track_jump",
    "__version__",
]

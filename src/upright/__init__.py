"""Tools for keeping an inverted rod upright on a moving carriage.

The package computes T-periodic non-falling motions of the rod-on-carriage
equations (on a line and in the plane) by continuation of Poincare-map
fixed points, certifies the bound sets that confine them, and solves the
finite-journey problem of choosing a non-falling release position by
bisection.
"""
from .bounds import (BoundSetCertificate, BoundSetSpec, compute_a_linear,
                     compute_a_planar, compute_b_linear, compute_b_planar,
                     degree_of_autonomous_field, exit_cone_check,
                     orbit_containment, verify_bound_set)
from .dynamics import GUARD, ModelParams, PhaseState, jacobian, make_field
from .errors import (BoundVerificationError, BracketError,
                     ContinuationStuckError, FallError, IllConditionedError,
                     InsufficientDataError, NewtonConvergenceError, SingularityError,
                     StepBudgetError, UprightError)
from .forcing import (PathSamples, PeriodicSignal, ingest_path,
                      make_fourier_forcing, read_path_csv)
from .integrator import (Event, EventKind, IntegratorConfig, Trajectory,
                         evolve, integrate_field)
from .poincare import (ContinuationConfig, PeriodicOrbitResult,
                       continue_in_lambda, newton_correct, poincare_jacobian,
                       poincare_map)
from .whitney import (BisectionStep, FallClass, JourneySpec,
                      SurvivorSearchResult, bisect_survivor, classify,
                      planar_survivor_grid, transcript_to_csv)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # forcing
    "PeriodicSignal", "PathSamples", "make_fourier_forcing", "ingest_path",
    "read_path_csv",
    # dynamics
    "GUARD", "ModelParams", "PhaseState", "jacobian", "make_field",
    # integration
    "IntegratorConfig", "EventKind", "Event", "Trajectory", "evolve",
    "integrate_field",
    # periodic orbits
    "ContinuationConfig", "PeriodicOrbitResult", "poincare_map",
    "poincare_jacobian", "newton_correct", "continue_in_lambda",
    # bound sets
    "BoundSetSpec", "BoundSetCertificate", "compute_a_linear",
    "compute_b_linear", "compute_a_planar", "compute_b_planar",
    "exit_cone_check", "verify_bound_set", "degree_of_autonomous_field",
    "orbit_containment",
    # finite journeys
    "FallClass", "JourneySpec", "BisectionStep", "SurvivorSearchResult",
    "classify", "bisect_survivor", "transcript_to_csv",
    "planar_survivor_grid",
    # errors
    "UprightError", "InsufficientDataError", "SingularityError", "FallError",
    "StepBudgetError", "NewtonConvergenceError", "IllConditionedError",
    "ContinuationStuckError", "BoundVerificationError", "BracketError",
]

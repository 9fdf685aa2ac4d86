"""Exception types shared across the toolkit.

Numerical failure modes are reported through typed exceptions so that
drivers (continuation, bisection search, the command line front end) can
react to them individually instead of pattern matching on messages.
"""
from __future__ import annotations


class UprightError(Exception):
    """Base class for all toolkit-specific failures."""


class InsufficientDataError(UprightError, ValueError):
    """Too few samples to build the requested object."""


class SingularityError(UprightError):
    """The state reached the coordinate singularity |x| -> 1.

    Carries the offending time and flat state vector.
    """

    def __init__(self, message: str, time: float, state=None):
        super().__init__(message)
        self.time = time
        self.state = state


class FallError(UprightError):
    """A trajectory fell (|x| reached the fall threshold) before it was allowed to."""

    def __init__(self, message: str, time: float, kind=None):
        super().__init__(message)
        self.time = time
        self.kind = kind


class StepBudgetError(UprightError):
    """The integrator exhausted its step budget or the step size underflowed."""


class NewtonConvergenceError(UprightError):
    """Newton iteration did not reach the requested residual."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class IllConditionedError(UprightError):
    """A linear solve was abandoned because the matrix is numerically singular."""

    def __init__(self, message: str, condition: float):
        super().__init__(message)
        self.condition = condition


class ContinuationStuckError(UprightError):
    """Homotopy continuation could not advance with the minimum step size.

    ``last_lambda`` and ``last_result`` describe the deepest parameter value
    that was solved successfully.
    """

    def __init__(self, message: str, last_lambda: float, last_result=None):
        super().__init__(message)
        self.last_lambda = last_lambda
        self.last_result = last_result


class BoundVerificationError(UprightError):
    """Bound-set verification failed in a way escalation could not repair."""

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class BracketError(UprightError):
    """The survivor search endpoints do not bracket a sign change."""

    def __init__(self, message: str, left_class=None, right_class=None):
        super().__init__(message)
        self.left_class = left_class
        self.right_class = right_class

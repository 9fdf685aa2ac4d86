"""Finding a non-falling initial rod position for a finite journey.

Release the rod at rest at position ``x0``: if ``x0`` is far left the rod
falls to the left, far right it falls to the right, and the classification
is computable for any start.  Bisecting on the released position therefore
traps an initial condition whose trajectory survives the whole journey
window.  After ``k`` halvings the bracket has width ``2 * 0.999 * 2^-k``
and its midpoint survives for longer and longer, which is the constructive
shadow of the intermediate-value existence argument.

Each release is classified in the angle chart ``x = sin theta``,
``p = theta' cos theta`` (``dynamics.angle_field``), where the rod is a
regular pendulum.  In ``x`` the field's ``d(x'')/dp = -2px / (1 - x^2)``
grows without bound toward the fall, and the stepper's steps shrink for
stability alone: bisecting a four-second journey under ``0.5 sin t`` at
rel tol 1e-12 takes 1,575 steps in ``x``, 53 % of them beyond
``|x| = 0.99``, and 542 in the angle chart.  The chart is stretched to
``phi = c theta`` with ``c = dynamics.ANGLE_CHART_SCALE``, so the
integrator's fall gauge on ``|phi|`` fires where ``|x|`` reaches
``FALL_THRESHOLD``, on the same side.

The planar grid steps each start in the rod-direction chart
(``dynamics.direction_field``), where the rod's unit vector ``u = (x, y)``
obeys ``u'' = (g.u - |u'|^2) u - g``, regular at every direction.  In ``x``
the field's ``1 / (1 - |x|^2)`` terms stiffen toward the fall here too: on
a 9x9 grid of rest starts under the circle of acceleration 1.5 to
``t_end`` 3, 66 % of ``evolve``'s 1,984 accepted steps end beyond
``|x| = 0.99``, and the chart takes 585.  Its state is stretched so that
the fall gauge on its first component fires where ``|x|`` reaches
``FALL_THRESHOLD``.  ``evolve`` and everything else keep ``x``.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import (ANGLE_CHART_SCALE, DIRECTION_CHART_SCALE, FALL_THRESHOLD,
                       ModelParams, PhaseState, angle_field, direction_field)
from .errors import BracketError
from .forcing import PeriodicSignal
# ``evolve`` is not called here; bench/spans.py wraps ``whitney.evolve`` by
# name and refuses a missing one, so the name stays an attribute of this module.
from .integrator import EventKind, IntegratorConfig, _check_start, evolve, integrate_field

__all__ = [
    "FallClass",
    "JourneySpec",
    "BisectionStep",
    "SurvivorSearchResult",
    "bisect_survivor",
    "transcript_to_csv",
    "planar_survivor_grid",
]


class FallClass(str, Enum):
    FALLS_NEGATIVE = "falls_negative"
    FALLS_POSITIVE = "falls_positive"
    SURVIVES = "survives"


@dataclass(frozen=True)
class JourneySpec:
    """Forcing, horizon, and gravity ratio for one journey.

    The signal is only ever evaluated on ``[0, t_end]``; its periodic
    extension outside the window does not matter, so any signal whose
    period covers or tiles the window is acceptable.
    """

    F: PeriodicSignal
    t_end: float
    G: float

    def __post_init__(self):
        if not 0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if not 0 < self.G < math.inf:
            raise ValueError(f"G must be positive and finite, got {self.G}")


@dataclass(frozen=True)
class BisectionStep:
    step: int
    left: float
    right: float
    mid: float
    outcome: FallClass
    fall_time: float  # nan when the midpoint survives


@dataclass
class SurvivorSearchResult:
    lower: float
    upper: float
    survivor: float | None
    transcript: list
    endpoint_classes: tuple

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def best(self) -> float:
        """The surviving start if one was found, else the bracket midpoint."""
        return self.survivor if self.survivor is not None else 0.5 * (self.lower + self.upper)


def _classify_with_time(x0: float, journey: JourneySpec,
                        cfg: IntegratorConfig | None) -> tuple[FallClass, float]:
    """Fate and fall time (nan if it survives) of the rod released at rest
    from ``x0`` over the journey window, integrated in the angle chart
    with the forcing's breakpoints as step nodes."""
    params = ModelParams(G=journey.G, lam=1.0, dim=1)
    _check_start(PhaseState(x0, 0.0), params)
    traj = integrate_field(angle_field(params, journey.F), 0.0, journey.t_end,
                           [ANGLE_CHART_SCALE * math.asin(x0), 0.0],
                           cfg or IntegratorConfig(), fall_dim=1,
                           breaks=journey.F.breaks_between(0.0, journey.t_end))
    ev = traj.fall_event
    if ev is None:
        return FallClass.SURVIVES, math.nan
    if ev.kind is EventKind.FALL_POSITIVE:
        return FallClass.FALLS_POSITIVE, ev.time
    return FallClass.FALLS_NEGATIVE, ev.time


def bisect_survivor(journey: JourneySpec, cfg: IntegratorConfig | None = None,
                    depth: int = 60) -> SurvivorSearchResult:
    """Trap a non-falling release position by bisection.

    Starts from the bracket [-0.999, 0.999].  The invariant is that the
    left end falls negative and the right end falls positive; a midpoint
    that survives is returned immediately, otherwise it replaces the end
    it agrees with.  If an initial endpoint itself survives, that endpoint
    is the answer.  It stops after ``depth`` midpoints, or once a midpoint
    is an end of the float bracket.  Raises ``BracketError`` when the
    initial bracket does not hold (then no sign change is available to
    bisect on).
    """
    if journey.F.dim != 1:
        raise ValueError("bisection on release position needs a 1-d journey")
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    left, right = -0.999, 0.999
    c_left, t_left = _classify_with_time(left, journey, cfg)
    c_right, t_right = _classify_with_time(right, journey, cfg)
    endpoints = (c_left, c_right)
    if c_left is FallClass.SURVIVES:
        return SurvivorSearchResult(left, left, left, [], endpoints)
    if c_right is FallClass.SURVIVES:
        return SurvivorSearchResult(right, right, right, [], endpoints)
    if c_left is not FallClass.FALLS_NEGATIVE or c_right is not FallClass.FALLS_POSITIVE:
        raise BracketError(
            f"no bracket: left endpoint {c_left.value}, right endpoint {c_right.value}",
            left_class=c_left, right_class=c_right)

    transcript: list[BisectionStep] = []
    for k in range(1, int(depth) + 1):
        mid = 0.5 * (left + right)
        if not left < mid < right:
            break
        outcome, fall_time = _classify_with_time(mid, journey, cfg)
        transcript.append(BisectionStep(k, left, right, mid, outcome, fall_time))
        if outcome is FallClass.SURVIVES:
            return SurvivorSearchResult(left, right, mid, transcript, endpoints)
        if outcome is FallClass.FALLS_NEGATIVE:
            left = mid
        else:
            right = mid
    return SurvivorSearchResult(left, right, None, transcript, endpoints)


def transcript_to_csv(result: SurvivorSearchResult, path) -> None:
    """Write the bisection log as ``step,l,r,mid,class,fall_time`` rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "l", "r", "mid", "class", "fall_time"])
        for s in result.transcript:
            writer.writerow([
                s.step,
                f"{s.left:.17g}",
                f"{s.right:.17g}",
                f"{s.mid:.17g}",
                s.outcome.value,
                f"{s.fall_time:.17g}",
            ])


def planar_survivor_grid(journey: JourneySpec, grid_radius: float = 0.9,
                         n: int = 21,
                         cfg: IntegratorConfig | None = None) -> dict:
    """Diagnostic sweep for the planar journey problem.

    There is no one-parameter bisection in the plane, so this simply
    classifies an n-by-n grid of rest starts and reports fall times (nan
    for survivors).  No convergence guarantee is attached; the longest
    survivor is a starting guess, not a certificate.  Each start is one
    ``integrate_field`` run in the rod-direction chart
    (``dynamics.direction_field``), with the forcing's breakpoints as step
    nodes.  A start at or beyond the fall threshold falls at t = 0.
    """
    if journey.F.dim != 2:
        raise ValueError("the survivor grid sweep needs a planar journey")
    n = int(n)
    field = direction_field(ModelParams(G=journey.G, lam=1.0, dim=2), journey.F)
    cfg = cfg or IntegratorConfig()
    thr2 = FALL_THRESHOLD * FALL_THRESHOLD
    coords = np.linspace(-grid_radius, grid_radius, n)
    fall_times = np.full((n, n), math.nan)
    for i, a in enumerate(coords.tolist()):
        for j, b in enumerate(coords.tolist()):
            r2 = a * a + b * b
            if r2 >= thr2:
                fall_times[i, j] = 0.0
                continue
            q0 = DIRECTION_CHART_SCALE * r2 / (1.0 + math.sqrt(1.0 - r2))
            ev = integrate_field(field, 0.0, journey.t_end, [q0, a, b, 0.0, 0.0, 0.0],
                                 cfg, fall_dim=1,
                                 breaks=journey.F.breaks_between(0.0, journey.t_end)).fall_event
            if ev is not None:
                fall_times[i, j] = ev.time
    return {"coords": coords, "fall_times": fall_times,
            "survived": np.isnan(fall_times)}

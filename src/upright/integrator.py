"""Adaptive Runge-Kutta integration with dense output and fall detection.

The stepper is a Dormand-Prince 5(4) pair with the first-same-as-last
property and a quartic interpolant on every accepted step.  The one event is
the fall, the rod reaching the fall threshold; it is located on the
interpolant by bisection, so fall times are resolved far below the step size
without extra field evaluations.

Steps never straddle a breakpoint of the forcing, where ``dF/dt`` jumps, as
at the knots of a sampled path: a step that would cross one is clipped to
end on it, its time is stored as the node, and the step after it resumes at
the size the controller had proposed (Hairer-Norsett-Wanner I, II.6).
``F`` is continuous there, so first-same-as-last still holds.  Without
breakpoints the step sequence is that of the plain controller.

The driver never integrates through the singular radius ``|x| = 1``: the
field raises ``SingularityError`` there, and trial steps that overshoot it
are retried with half the step until the fall event can be localized.

``integrate_field`` is the one stepper: it steps one state at a time, in
plain Python floats at every width.  The journey tools step the rod in
charts where the fall is no singularity (``dynamics.angle_field`` on the
line, ``dynamics.direction_field`` in the plane), with the gauge
``fall_dim = 1`` on the chart's first component.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import FALL_THRESHOLD, ModelParams, PhaseState, make_field
from .errors import SingularityError, StepBudgetError
from .forcing import PeriodicSignal

__all__ = [
    "FALL_THRESHOLD",
    "IntegratorConfig",
    "EventKind",
    "Event",
    "Trajectory",
    "integrate_field",
    "evolve",
]

# Dormand-Prince 5(4) tableau: nodes, stage weights, 5th-order weights and
# error weights as named floats (zero entries left out).  Every state width
# takes the plain-float step: its stage sums beat numpy's per-call overhead
# even at width 20, the variational system in the plane.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                                -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)
# Interpolant y(t0 + theta h) = y0 + h sum_j w_j K_j: row j holds the
# coefficients of theta, .., theta^4 in w_j (the second stage's are 0).
_P_ROWS = [
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
]

_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_SAFETY = 0.9

@dataclass(frozen=True)
class IntegratorConfig:
    """Step-control tolerances and the step budget."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not (0 < self.rel_tol < 1):
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if self.abs_tol <= 0:
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be at least 1, got {self.max_steps}")


class EventKind(str, Enum):
    FALL_POSITIVE = "fall_positive"
    FALL_NEGATIVE = "fall_negative"
    FALL_PLANAR = "fall_planar"


@dataclass(frozen=True)
class Event:
    kind: EventKind
    time: float
    state: np.ndarray


class Trajectory:
    """Solution of one integration with dense evaluation between step nodes."""

    def __init__(self, t_nodes, y_nodes, seg_h, seg_K, fall_event, n_accepted,
                 n_rejected):
        self._t = np.asarray(t_nodes, dtype=float)
        self._y = np.asarray(y_nodes, dtype=float)
        self._h = np.asarray(seg_h, dtype=float)
        self._seg_K = seg_K  # per segment, the 7 stage vectors
        # the fall that ended the run early, if any
        self.fall_event: Event | None = fall_event
        self.n_accepted = int(n_accepted)
        self.n_rejected = int(n_rejected)

    @property
    def t0(self) -> float:
        return float(self._t[0])

    @property
    def t_end(self) -> float:
        return float(self._t[-1])

    @property
    def t_nodes(self) -> np.ndarray:
        return self._t

    @property
    def states(self) -> np.ndarray:
        """Flat states at the step nodes, shape (n_nodes, 2*dim)."""
        return self._y

    @property
    def dim(self) -> int:
        return self._y.shape[1] // 2

    def end_state(self) -> PhaseState:
        return PhaseState.from_flat(self._y[-1])

    def leading(self, n: int) -> Trajectory:
        """The first ``n`` components on this run's steps: the state part of
        a state-and-variational run is the state's own run."""
        ev = self.fall_event
        ev = ev and Event(ev.kind, ev.time, ev.state[:n])
        return Trajectory(self._t, self._y[:, :n].copy(), self._h,
                          [[k[:n] for k in K] for K in self._seg_K], ev,
                          self.n_accepted, self.n_rejected)

    def dense_array(self, ts) -> np.ndarray:
        """Vectorized dense evaluation, shape (len(ts), 2*dim): each sample
        is ``_dense_state`` on its step, the interpolant the fall is located on."""
        ts = np.asarray(ts, dtype=float)
        if np.any(ts < self._t[0]) or np.any(ts > self._t[-1]):
            raise ValueError("sample times outside the integration interval")
        if len(self._h) == 0:
            return np.broadcast_to(self._y[0], (ts.shape[0], self._y.shape[1])).copy()
        idx = np.clip(np.searchsorted(self._t, ts, side="right") - 1, 0, len(self._h) - 1)
        h = self._h[idx]
        K = np.asarray(self._seg_K, dtype=float)[idx]
        return np.stack(_dense_state(self._y[idx].T, h, K.transpose(1, 2, 0),
                                     (ts - self._t[idx]) / h), axis=1)

    def to_csv(self, path, n_samples: int | None = None) -> None:
        """Write ``t,x1[,x2],p1[,p2],y`` rows; dense-resampled if requested."""
        if n_samples is None:
            ts = self._t
            ys = self._y
        else:
            ts = np.linspace(self._t[0], self._t[-1], int(n_samples))
            ys = self.dense_array(ts)
        d = self.dim
        heights = np.sqrt(np.maximum(1.0 - np.sum(ys[:, :d] ** 2, axis=1), 0.0))
        if d == 1:
            header = "t,x1,p1,y"
        else:
            header = "t,x1,x2,p1,p2,y"
        row = ",".join(["%.17g"] * (2 * d + 2)) + "\n"
        with open(path, "w") as fh:
            fh.write(header + "\n")
            fh.writelines(row % (t, *y, hgt) for t, y, hgt in
                          zip(ts.tolist(), ys.tolist(), heights.tolist()))


def _rms(values, scales, n) -> float:
    """Root mean square of ``values / scales`` over the first ``n`` entries."""
    total = 0.0
    for v, s in zip(values[:n], scales):
        q = v / s
        total += q * q
    return math.sqrt(total / n)


def _initial_step(fun, t0, y0, f0, t1, cfg, n_err):
    """Starting step size from the standard two-evaluation heuristic.

    Only the first ``n_err`` components are measured.
    """
    n = len(y0) if n_err is None else n_err
    sc = [cfg.abs_tol + cfg.rel_tol * abs(v) for v in y0[:n]]
    d0 = _rms(y0, sc, n)
    d1 = _rms(f0, sc, n)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, abs(t1 - t0))
    try:
        f1 = fun(t0 + h0, [v + h0 * f for v, f in zip(y0, f0)])
        d2 = _rms([a - b for a, b in zip(f1[:n], f0)], sc, n) / h0
    except SingularityError:
        d2 = math.inf
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, abs(t1 - t0))


def _dense_state(y_left, h, K, theta):
    """The step's interpolant at ``theta``, in plain floats or elementwise on
    arrays: ``y_left`` and each stage of ``K`` (m, n), ``h`` and ``theta`` (n,)."""
    w1, _, w3, w4, w5, w6, w7 = [
        ((c4 * theta + c3) * theta + c2) * theta * theta + c1 * theta
        for c1, c2, c3, c4 in _P_ROWS]
    return [y + h * (w1 * a + w3 * c + w4 * d + w5 * e + w6 * f + w7 * g)
            for y, a, _, c, d, e, f, g in zip(y_left, *K)]


def _fall_gauge(fall_dim: int):
    """``g(y)``, nonnegative once the rod has fallen; ``None`` for no watch."""
    if fall_dim == 0:
        return None
    if fall_dim == 1:
        return lambda y: abs(y[0]) - FALL_THRESHOLD
    thr2 = FALL_THRESHOLD * FALL_THRESHOLD
    return lambda y: y[0] * y[0] + y[1] * y[1] - thr2


def _fall_event(t, y, fall_dim: int) -> Event:
    """The fall at ``(t, y)``; on the line its side is the sign of ``x``."""
    if fall_dim == 2:
        kind = EventKind.FALL_PLANAR
    elif y[0] > 0.0:
        kind = EventKind.FALL_POSITIVE
    else:
        kind = EventKind.FALL_NEGATIVE
    return Event(kind, t, np.asarray(y, dtype=float))


def _locate_fall(gauge, t_left, h, y_left, K, t_right):
    """Bisect gauge(y(t)) >= 0 to a root on the step's interpolant."""
    a = t_left
    b = t_right
    width_goal = 1e-13 * (1.0 + abs(t_right))
    for _ in range(200):
        if b - a <= width_goal:
            break
        mid = 0.5 * (a + b)
        ymid = _dense_state(y_left, h, K, (mid - t_left) / h)
        if gauge(ymid) >= 0.0:
            b = mid
        else:
            a = mid
    yb = _dense_state(y_left, h, K, (b - t_left) / h)
    return b, yb


def _step_floats(fun, t, h, y, k1, n, atol, rtol):
    """One trial step on lists of floats: ``(y_new, K, err_norm)``.

    ``K`` holds the seven stage vectors; the last is the field at ``y_new``
    (first-same-as-last).  ``err_norm`` is the RMS over the first ``n``
    components of the error estimate ``h E.K`` scaled by
    ``atol + rtol max(|y|, |y_new|)``.
    """
    k2 = fun(t + _C2 * h, [v + h * (_A21 * a) for v, a in zip(y, k1)])
    k3 = fun(t + _C3 * h, [v + h * (_A31 * a + _A32 * b)
                           for v, a, b in zip(y, k1, k2)])
    k4 = fun(t + _C4 * h, [v + h * (_A41 * a + _A42 * b + _A43 * c)
                           for v, a, b, c in zip(y, k1, k2, k3)])
    k5 = fun(t + _C5 * h, [v + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
                           for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
    k6 = fun(t + h, [v + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
                     for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
    y_new = [v + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * f)
             for v, a, c, d, e, f in zip(y, k1, k3, k4, k5, k6)]
    k7 = fun(t + h, y_new)
    total = 0.0
    for v, w, a, c, d, e, f, g in zip(y[:n], y_new, k1, k3, k4, k5, k6, k7):
        v = abs(v)
        w = abs(w)
        q = ((_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * f + _E7 * g)
             / (atol + rtol * (v if v > w else w)))
        total += q * q
    return y_new, (k1, k2, k3, k4, k5, k6, k7), h * math.sqrt(total / n)


def integrate_field(fun, t0, t1, y0, cfg: IntegratorConfig, fall_dim: int = 0,
                    n_err=None, breaks=()) -> Trajectory:
    """Integrate ``dy/dt = fun(t, y)`` from t0 to t1 (t1 >= t0).

    ``fun(t, y)`` receives ``y`` as a list of floats and returns a sequence
    of floats of the same length (a list is fastest; a tuple or an ndarray
    gives the same result).  The stage sums run on plain floats at every
    width, so they run at Python float speed only if the field returns
    Python floats: numpy scalars in its output make a step about 1.6x
    slower.
    ``fall_dim`` (1 or 2) watches the first ``fall_dim`` components as the
    rod's ``x``: integration stops at the first time where ``|x|`` reaches
    ``FALL_THRESHOLD``, recorded as the trajectory's ``fall_event``;
    ``fall_dim = 0`` watches nothing.  ``n_err`` limits step control to the
    first ``n_err`` components (partial error control, Hairer-Norsett-Wanner
    I, II.4): a state integrated together with its variational equation
    then takes the steps it takes alone.  ``breaks`` are times strictly
    inside ``(t0, t1)``, ascending, where the field's time derivative may
    jump (``PeriodicSignal.breaks_between``): each is a step node.  Raises
    ``StepBudgetError`` if the step budget is exhausted and propagates
    ``SingularityError`` if the field is singular even at the minimum step.
    """
    t0 = float(t0)
    t1 = float(t1)
    if t1 < t0:
        raise ValueError(f"t1={t1} must be >= t0={t0}")
    y0 = np.asarray(y0, dtype=float).tolist()
    gauge = _fall_gauge(fall_dim)

    t_nodes = [t0]
    y_nodes = [y0]
    seg_h: list[float] = []
    seg_K: list = []
    n_acc = 0
    n_rej = 0

    if gauge is not None and gauge(y0) >= 0.0:
        return Trajectory(t_nodes, y_nodes, seg_h, seg_K,
                          _fall_event(t0, y0, fall_dim), 0, 0)

    if t1 == t0:
        return Trajectory(t_nodes, y_nodes, seg_h, seg_K, None, 0, 0)

    f0 = fun(t0, y0)
    h = _initial_step(fun, t0, y0, f0, t1, cfg, n_err)
    n = len(y0) if n_err is None else n_err
    atol = cfg.abs_tol
    rtol = cfg.rel_tol
    t = t0
    y = y0
    k1 = f0
    attempts = 0
    knots = [*breaks, math.inf]
    i_knot = 0
    t_knot = knots[0]

    while t < t1:
        if attempts >= cfg.max_steps:
            raise StepBudgetError(
                f"exceeded {cfg.max_steps} step attempts at t={t:.6g} "
                f"(accepted {n_acc}, rejected {n_rej})")
        attempts += 1
        h = min(h, t1 - t)
        h_floor = 1e-14 * (1.0 + abs(t))
        if h < h_floor:
            h = h_floor
        landing = t + h >= t_knot
        if landing:
            h_free = h
            h = t_knot - t

        try:
            y_new, K, err_norm = _step_floats(fun, t, h, y, k1, n, atol, rtol)
        except SingularityError as exc:
            if h <= 2 * h_floor:
                raise SingularityError(
                    f"field singular within one minimal step of t={t:.6g}",
                    time=exc.time, state=exc.state) from exc
            h *= 0.5
            continue

        if err_norm > 1.0:
            n_rej += 1
            factor = max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2)
            h *= min(factor, 1.0)
            continue

        # Accepted.  Every node so far lies inside the threshold, so the
        # rod falls within this step exactly when it ends outside.
        n_acc += 1
        t_new = t_knot if landing else t + h
        seg_h.append(h)
        seg_K.append(K)
        if gauge is not None and gauge(y_new) >= 0.0:
            t_ev, y_ev = _locate_fall(gauge, t, h, y, K, t_new)
            t_nodes.append(t_ev)
            y_nodes.append(y_ev)
            return Trajectory(t_nodes, y_nodes, seg_h, seg_K,
                              _fall_event(t_ev, y_ev, fall_dim), n_acc, n_rej)

        t_nodes.append(t_new)
        y_nodes.append(y_new)
        t = t_new
        y = y_new
        k1 = K[6]  # first-same-as-last

        if landing:  # resume at the step the controller had proposed
            i_knot += 1
            t_knot = knots[i_knot]
            h = h_free
        elif err_norm == 0.0:
            h *= _MAX_FACTOR
        else:
            h *= min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2))

    return Trajectory(t_nodes, y_nodes, seg_h, seg_K, None, n_acc, n_rej)


def _check_start(s0: PhaseState, params: ModelParams) -> None:
    """Reject a start of the wrong dimension or already at the fall threshold."""
    if s0.dim != params.dim:
        raise ValueError(f"state dim {s0.dim} does not match model dim {params.dim}")
    r = float(np.linalg.norm(s0.x))
    if r >= FALL_THRESHOLD:
        raise ValueError(
            f"initial |x| = {r:.17g} already at the fall threshold {FALL_THRESHOLD}")


def evolve(t0: float, t1: float, s0: PhaseState, params: ModelParams,
           F: PeriodicSignal, cfg: IntegratorConfig | None = None) -> Trajectory:
    """Integrate the rod equations from ``s0`` over ``[t0, t1]``.

    Fall detection is always on: the trajectory ends early with a fall
    event if ``|x|`` reaches ``FALL_THRESHOLD``.  The forcing's breakpoints
    inside the window are step nodes.
    """
    _check_start(s0, params)
    fun = make_field(params, F)
    return integrate_field(fun, t0, t1, s0.flat(), cfg or IntegratorConfig(),
                           params.dim, breaks=F.breaks_between(t0, t1))


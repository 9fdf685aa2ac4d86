"""Adaptive Runge-Kutta integration with dense output and fall detection.

The stepper is a Dormand-Prince 5(4) pair with the first-same-as-last
property and a quartic interpolant on every accepted step.  Events (the rod
reaching the fall threshold, or a user-supplied boundary crossing) are
located on the interpolant by bisection, so event times are resolved far
below the step size without extra field evaluations.

The driver never integrates through the singular radius ``|x| = 1``: the
field raises ``SingularityError`` there, and trial steps that overshoot it
are retried with half the step until the fall event can be localized.
"""
from __future__ import annotations

import bisect as _bisect
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dynamics import ModelParams, PhaseState, make_field
from .errors import SingularityError, StepBudgetError
from .forcing import PeriodicSignal

__all__ = [
    "IntegratorConfig",
    "EventKind",
    "Event",
    "Trajectory",
    "integrate_field",
    "evolve",
]

# Dormand-Prince 5(4) tableau.
_C = np.asarray([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.asarray([]),
    np.asarray([1 / 5]),
    np.asarray([3 / 40, 9 / 40]),
    np.asarray([44 / 45, -56 / 15, 32 / 9]),
    np.asarray([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.asarray([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.asarray([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B = np.asarray([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = np.asarray([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                 -17253 / 339200, 22 / 525, -1 / 40])
# Interpolant coefficients: y(t0 + theta h) = y0 + h * K^T (P @ [theta, .., theta^4]).
_P = np.asarray([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_SAFETY = 0.9


@dataclass(frozen=True)
class IntegratorConfig:
    """Step-control and fall-detection settings."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    max_step: float = math.inf
    fall_threshold: float = 1.0 - 1e-6
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not (0 < self.rel_tol < 1):
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if self.abs_tol <= 0:
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")
        if not (0 < self.fall_threshold < 1):
            raise ValueError(f"fall_threshold must lie in (0, 1), got {self.fall_threshold}")


class EventKind(str, Enum):
    FALL_POSITIVE = "fall_positive"
    FALL_NEGATIVE = "fall_negative"
    FALL_PLANAR = "fall_planar"
    BOUNDARY_EXIT = "boundary_exit"

    @property
    def is_fall(self) -> bool:
        return self in (EventKind.FALL_POSITIVE, EventKind.FALL_NEGATIVE,
                        EventKind.FALL_PLANAR)


@dataclass(frozen=True)
class Event:
    kind: EventKind
    time: float
    state: np.ndarray


class Trajectory:
    """Solution of one integration with dense evaluation between step nodes."""

    def __init__(self, t_nodes, y_nodes, seg_h, seg_K, events, n_accepted,
                 n_rejected):
        self._t = np.asarray(t_nodes, dtype=float)
        self._y = np.asarray(y_nodes, dtype=float)
        self._h = np.asarray(seg_h, dtype=float)
        self._K = seg_K  # list of (7, m) arrays, one per segment
        self.events: list[Event] = list(events)
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

    @property
    def fall_event(self) -> Event | None:
        for ev in self.events:
            if ev.kind.is_fall:
                return ev
        return None

    def end_state(self) -> PhaseState:
        return PhaseState.from_flat(self._y[-1])

    def _segment(self, t: float) -> int:
        if not (self._t[0] <= t <= self._t[-1]):
            raise ValueError(f"t={t!r} outside [{self._t[0]!r}, {self._t[-1]!r}]")
        i = _bisect.bisect_right(self._t, t) - 1
        return min(max(i, 0), len(self._h) - 1)

    def dense_eval(self, t: float) -> PhaseState:
        """State at any time inside the integration interval."""
        if len(self._h) == 0:
            return PhaseState.from_flat(self._y[0])
        i = self._segment(float(t))
        theta = (float(t) - self._t[i]) / self._h[i]
        powers = theta ** np.arange(1, 5)
        w = _P @ powers
        y = self._y[i] + self._h[i] * (self._K[i].T @ w)
        return PhaseState.from_flat(y)

    def dense_array(self, ts) -> np.ndarray:
        """Vectorized dense evaluation, shape (len(ts), 2*dim)."""
        ts = np.asarray(ts, dtype=float)
        if len(self._h) == 0:
            return np.broadcast_to(self._y[0], (ts.shape[0], self._y.shape[1])).copy()
        lo, hi = self._t[0], self._t[-1]
        if np.any(ts < lo) or np.any(ts > hi):
            raise ValueError("sample times outside the integration interval")
        idx = np.clip(np.searchsorted(self._t, ts, side="right") - 1, 0, len(self._h) - 1)
        theta = (ts - self._t[idx]) / self._h[idx]
        powers = theta[:, None] ** np.arange(1, 5)[None, :]
        w = powers @ _P.T  # (n, 7)
        out = np.empty((ts.shape[0], self._y.shape[1]))
        for i in np.unique(idx):
            sel = idx == i
            out[sel] = self._y[i] + self._h[i] * (w[sel] @ self._K[i])
        return out

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
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for t, y, hgt in zip(ts, ys, heights):
                cols = [t, *y, hgt]
                fh.write(",".join(f"{v:.17g}" for v in cols) + "\n")


def _initial_step(fun, t0, y0, f0, t1, cfg, n_err):
    """Starting step size from the standard two-evaluation heuristic.

    Only the first ``n_err`` components are measured.
    """
    y0e = y0[:n_err]
    f0e = f0[:n_err]
    sc = cfg.abs_tol + cfg.rel_tol * np.abs(y0e)
    d0 = math.sqrt(float(np.mean((y0e / sc) ** 2)))
    d1 = math.sqrt(float(np.mean((f0e / sc) ** 2)))
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, abs(t1 - t0))
    try:
        f1 = fun(t0 + h0, y0 + h0 * f0)
        d2 = math.sqrt(float(np.mean(((f1[:n_err] - f0e) / sc) ** 2))) / h0
    except SingularityError:
        d2 = math.inf
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, cfg.max_step, abs(t1 - t0))


def _dense_state(y_left, h, K, theta):
    powers = theta ** np.arange(1, 5)
    return y_left + h * (K.T @ (_P @ powers))


def _locate_event(g, t_left, h, y_left, K, t_right):
    """Bisect g(t, y(t)) >= 0 to a root on the step's interpolant."""
    a = t_left
    b = t_right
    width_goal = 1e-13 * (1.0 + abs(t_right))
    for _ in range(200):
        if b - a <= width_goal:
            break
        mid = 0.5 * (a + b)
        ymid = _dense_state(y_left, h, K, (mid - t_left) / h)
        if g(mid, ymid) >= 0.0:
            b = mid
        else:
            a = mid
    yb = _dense_state(y_left, h, K, (b - t_left) / h)
    return b, yb


def integrate_field(fun, t0, t1, y0, cfg: IntegratorConfig, events=None,
                    n_err=None) -> Trajectory:
    """Integrate ``dy/dt = fun(t, y)`` from t0 to t1 (t1 >= t0).

    ``events`` is a list of ``(EventKind, g)`` pairs with scalar
    ``g(t, y)``; integration stops at the first time where some ``g``
    becomes nonnegative, recorded as a terminal event.  ``n_err`` limits
    step control to the first ``n_err`` components (partial error control,
    Hairer-Norsett-Wanner I, II.4): a state integrated together with its
    variational equation then takes the steps it takes alone.  Raises
    ``StepBudgetError`` if the step budget is exhausted and propagates
    ``SingularityError`` if the field is singular even at the minimum step.
    """
    t0 = float(t0)
    t1 = float(t1)
    if t1 < t0:
        raise ValueError(f"t1={t1} must be >= t0={t0}")
    y0 = np.asarray(y0, dtype=float).copy()
    events = list(events or [])

    t_nodes = [t0]
    y_nodes = [y0.copy()]
    seg_h: list[float] = []
    seg_K: list[np.ndarray] = []
    ev_out: list[Event] = []
    n_acc = 0
    n_rej = 0

    # Immediate event at the initial point.
    for kind, g in events:
        if g(t0, y0) >= 0.0:
            ev_out.append(Event(kind, t0, y0.copy()))
            return Trajectory(t_nodes, y_nodes, seg_h, seg_K, ev_out, 0, 0)

    if t1 == t0:
        return Trajectory(t_nodes, y_nodes, seg_h, seg_K, ev_out, 0, 0)

    f0 = fun(t0, y0)
    h = _initial_step(fun, t0, y0, f0, t1, cfg, n_err)
    t = t0
    y = y0
    k1 = f0
    m = y0.shape[0]
    g_left = [g(t0, y0) for _, g in events]
    attempts = 0

    while t < t1:
        if attempts >= cfg.max_steps:
            raise StepBudgetError(
                f"exceeded {cfg.max_steps} step attempts at t={t:.6g} "
                f"(accepted {n_acc}, rejected {n_rej})")
        attempts += 1
        h = min(h, cfg.max_step, t1 - t)
        h_floor = 1e-14 * (1.0 + abs(t))
        if h < h_floor:
            h = h_floor

        K = np.empty((7, m))
        K[0] = k1
        try:
            for i in range(1, 7):
                yi = y + h * (_A[i] @ K[:i])
                K[i] = fun(t + _C[i] * h, yi)
        except SingularityError as exc:
            if h <= 2 * h_floor:
                raise SingularityError(
                    f"field singular within one minimal step of t={t:.6g}",
                    time=exc.time, state=exc.state) from exc
            h *= 0.5
            continue

        y_new = y + h * (_B @ K)
        sc = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = h * (_E @ K)
        if n_err is not None:
            sc, err = sc[:n_err], err[:n_err]
        err_norm = math.sqrt(float(np.mean((err / sc) ** 2)))

        if err_norm > 1.0:
            n_rej += 1
            factor = max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2)
            h *= min(factor, 1.0)
            continue

        # Accepted.  Scan for events before committing the full step.
        n_acc += 1
        t_new = t + h
        triggered = []
        for j, (kind, g) in enumerate(events):
            g_right = g(t_new, y_new)
            if g_left[j] < 0.0 <= g_right:
                triggered.append((kind, g))
            g_left[j] = g_right
        if triggered:
            located = [
                (*_locate_event(g, t, h, y, K, t_new), kind)
                for kind, g in triggered
            ]
            t_ev, y_ev, kind = min(located, key=lambda r: r[0])
            seg_h.append(h)
            seg_K.append(K)
            t_nodes.append(t_ev)
            y_nodes.append(y_ev)
            ev_out.append(Event(kind, t_ev, y_ev.copy()))
            return Trajectory(t_nodes, y_nodes, seg_h, seg_K, ev_out, n_acc, n_rej)

        seg_h.append(h)
        seg_K.append(K)
        t_nodes.append(t_new)
        y_nodes.append(y_new)
        t = t_new
        y = y_new
        k1 = K[6]  # first-same-as-last

        if err_norm == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2))
        h *= factor

    return Trajectory(t_nodes, y_nodes, seg_h, seg_K, ev_out, n_acc, n_rej)


def _fall_events(dim: int, thr: float, boundary=None):
    if dim == 1:
        evs = [
            (EventKind.FALL_POSITIVE, lambda t, y: y[0] - thr),
            (EventKind.FALL_NEGATIVE, lambda t, y: -y[0] - thr),
        ]
    else:
        thr2 = thr * thr
        evs = [
            (EventKind.FALL_PLANAR, lambda t, y: y[0] * y[0] + y[1] * y[1] - thr2),
        ]
    if boundary is not None:
        evs.append((EventKind.BOUNDARY_EXIT, boundary))
    return evs


def _check_start(s0: PhaseState, params: ModelParams, cfg: IntegratorConfig) -> None:
    """Reject a start of the wrong dimension or already at the fall threshold."""
    if s0.dim != params.dim:
        raise ValueError(f"state dim {s0.dim} does not match model dim {params.dim}")
    r = float(np.linalg.norm(s0.x))
    if r >= cfg.fall_threshold:
        raise ValueError(
            f"initial |x| = {r:.17g} already at the fall threshold {cfg.fall_threshold}")


def evolve(t0: float, t1: float, s0: PhaseState, params: ModelParams,
           F: PeriodicSignal, cfg: IntegratorConfig | None = None,
           boundary=None) -> Trajectory:
    """Integrate the rod equations from ``s0`` over ``[t0, t1]``.

    Fall detection is always on: the trajectory ends early with a fall
    event if ``|x|`` reaches ``cfg.fall_threshold``.  An optional
    ``boundary(t, y)`` scalar adds a ``BOUNDARY_EXIT`` event at its first
    zero crossing from below.
    """
    cfg = cfg or IntegratorConfig()
    _check_start(s0, params, cfg)
    fun = make_field(params, F)
    evs = _fall_events(params.dim, cfg.fall_threshold, boundary)
    return integrate_field(fun, t0, t1, s0.flat(), cfg, evs)


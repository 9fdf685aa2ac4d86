"""Equations of motion for an inverted rod on an accelerating carriage.

States are pairs ``(x, p)`` where ``x`` is the horizontal displacement of
the rod tip scaled by rod length (so the rod is upright at ``x = 0`` and
horizontal at ``|x| = 1``) and ``p = dx/dt``.  The rod height is
``y = sqrt(1 - |x|^2)``; motions with ``|x| < 1`` for all time never fall.

With ``G = gravity / rod_length`` and forcing ``F(t)`` (carriage
acceleration over rod length), the second-order equation is

    x'' = R(x, p) x + Phi(t, x)

where ``R = G sqrt(1 - |x|^2) - (x.p)^2 / (1 - |x|^2) - |p|^2`` and
``Phi = lam ((x.F) x - F)``.  In one dimension this reduces to

    x'' = (G sqrt(1 - x^2) - p^2 / (1 - x^2)) x - lam (1 - x^2) F(t).

The homotopy parameter ``lam`` scales the forcing; ``lam = 0`` is the free
rod and ``lam = 1`` the driven one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularityError
from .forcing import PeriodicSignal

__all__ = [
    "GUARD",
    "ModelParams",
    "PhaseState",
    "HeightReadout",
    "rhs_linear",
    "rhs_planar",
    "make_field",
    "jacobian",
    "height",
]

# Hard guard on |x|: the equation is singular at |x| = 1, and evaluating past
# this radius is numerically meaningless.  The integrator's fall detection
# triggers earlier (at its fall_threshold), so hitting the guard means a
# trial step overshot badly.
GUARD = 1.0 - 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Gravity ratio ``G = g / ell``, forcing scale ``lam``, and dimension."""

    G: float
    lam: float
    dim: int

    def __post_init__(self):
        if self.G <= 0:
            raise ValueError(f"G must be positive, got {self.G}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")

    def with_lam(self, lam: float) -> "ModelParams":
        return ModelParams(self.G, float(lam), self.dim)


@dataclass(frozen=True)
class PhaseState:
    """Position and velocity of the rod tip, each of shape ``(dim,)``."""

    x: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if x.shape != p.shape or x.ndim != 1 or x.shape[0] not in (1, 2):
            raise ValueError(f"x and p must both have shape (1,) or (2,), got {x.shape}, {p.shape}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p", p)

    @property
    def dim(self) -> int:
        return self.x.shape[0]

    def flat(self) -> np.ndarray:
        return np.concatenate([self.x, self.p])

    @staticmethod
    def from_flat(y: np.ndarray) -> "PhaseState":
        y = np.asarray(y, dtype=float)
        if y.shape not in ((2,), (4,)):
            raise ValueError(f"flat state must have length 2 or 4, got shape {y.shape}")
        d = y.shape[0] // 2
        return PhaseState(y[:d], y[d:])


@dataclass(frozen=True)
class HeightReadout:
    """Rod height ``y = sqrt(1 - |x|^2)`` together with the raw radicand."""

    y: float
    radicand: float


def height(state: PhaseState) -> HeightReadout:
    """Height of the rod tip above the pivot plane, in rod lengths."""
    rad = 1.0 - float(np.dot(state.x, state.x))
    if rad < -1e-14:
        raise ValueError(f"state lies outside the unit disk: 1 - |x|^2 = {rad:.3e}")
    return HeightReadout(math.sqrt(max(rad, 0.0)), rad)


def rhs_linear(t: float, state: PhaseState, params: ModelParams,
               F: PeriodicSignal) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side (dx/dt, dp/dt) of the one-dimensional equation."""
    x = float(state.x[0])
    p = float(state.p[0])
    one_minus = 1.0 - x * x
    if one_minus <= 1.0 - GUARD * GUARD:
        raise SingularityError(f"|x| = {abs(x):.17g} at the singular radius", time=t,
                               state=state.flat())
    f = F.eval_scalar(t)[0]
    acc = (params.G * math.sqrt(one_minus) - p * p / one_minus) * x \
        - params.lam * one_minus * f
    return np.asarray([p]), np.asarray([acc])


def rhs_planar(t: float, state: PhaseState, params: ModelParams,
               F: PeriodicSignal) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side (dx/dt, dp/dt) of the planar equation."""
    x = state.x
    p = state.p
    r2 = float(np.dot(x, x))
    one_minus = 1.0 - r2
    if one_minus <= 1.0 - GUARD * GUARD:
        raise SingularityError(f"|x| = {math.sqrt(r2):.17g} at the singular radius",
                               time=t, state=state.flat())
    f = np.asarray(F.eval_scalar(t), dtype=float)
    xp = float(np.dot(x, p))
    R = params.G * math.sqrt(one_minus) - xp * xp / one_minus - float(np.dot(p, p))
    phi = params.lam * (float(np.dot(x, f)) * x - f)
    return p.copy(), R * x + phi


def make_field(params: ModelParams, F: PeriodicSignal, variational: bool = False):
    """Compile the flat-vector field ``f(t, y) -> dy/dt`` for the integrator.

    The returned closure works on plain float math (no PhaseState
    construction per call) since the stepper evaluates it millions of times.

    With ``variational=True`` the field acts on ``[y, vec M]`` (``M`` an
    ``n x n`` matrix stored row by row, ``n = 2 * dim``) and adds the
    variational equation ``dM/dt = J(t, y) M``; started from ``M = I`` it
    carries the derivative of the flow.  The state rows are computed with
    the same expressions as the plain field, and the forcing is evaluated
    once per call.
    """
    if F.dim != params.dim:
        raise ValueError(f"forcing dim {F.dim} does not match model dim {params.dim}")
    G = params.G
    lam = params.lam
    guard2 = GUARD * GUARD
    eval_scalar = F.eval_scalar

    if variational:
        return _variational_field(params.dim, G, lam, guard2, eval_scalar)

    if params.dim == 1:

        def field1(t: float, y: np.ndarray) -> np.ndarray:
            x = y[0]
            p = y[1]
            r2 = x * x
            if r2 >= guard2:
                raise SingularityError(f"|x| = {abs(x):.17g} at the singular radius",
                                       time=t, state=np.asarray(y, dtype=float))
            one_minus = 1.0 - r2
            f = eval_scalar(t)[0]
            acc = (G * math.sqrt(one_minus) - p * p / one_minus) * x \
                - lam * one_minus * f
            return np.asarray([p, acc])

        return field1

    def field2(t: float, y: np.ndarray) -> np.ndarray:
        x0 = y[0]
        x1 = y[1]
        p0 = y[2]
        p1 = y[3]
        r2 = x0 * x0 + x1 * x1
        if r2 >= guard2:
            raise SingularityError(f"|x| = {math.sqrt(r2):.17g} at the singular radius",
                                   time=t, state=np.asarray(y, dtype=float))
        one_minus = 1.0 - r2
        f0, f1 = eval_scalar(t)
        xp = x0 * p0 + x1 * p1
        R = G * math.sqrt(one_minus) - xp * xp / one_minus - (p0 * p0 + p1 * p1)
        xf = x0 * f0 + x1 * f1
        return np.asarray([
            p0,
            p1,
            R * x0 + lam * (xf * x0 - f0),
            R * x1 + lam * (xf * x1 - f1),
        ])

    return field2


def _variational_field(dim: int, G: float, lam: float, guard2: float, eval_scalar):
    """The field of ``make_field(..., variational=True)``.

    The Jacobian entries are those of ``_jacobian_analytic``, written out
    in plain floats; its top block is ``[0, I]``, so the top rows of
    ``dM/dt`` are the bottom rows of ``M``.
    """
    if dim == 1:

        def field1_var(t: float, y: np.ndarray) -> np.ndarray:
            x, p, m00, m01, m10, m11 = y.tolist()
            r2 = x * x
            if r2 >= guard2:
                raise SingularityError(f"|x| = {abs(x):.17g} at the singular radius",
                                       time=t, state=np.asarray(y[:2], dtype=float))
            one_minus = 1.0 - r2
            f = eval_scalar(t)[0]
            root = math.sqrt(one_minus)
            acc = (G * root - p * p / one_minus) * x - lam * one_minus * f
            A = G * (1.0 - 2.0 * x * x) / root \
                - p * p * (1.0 + x * x) / (one_minus * one_minus) \
                + 2.0 * lam * x * f
            B = -2.0 * p * x / one_minus
            return np.asarray([p, acc, m10, m11,
                               A * m00 + B * m10, A * m01 + B * m11])

        return field1_var

    def field2_var(t: float, y: np.ndarray) -> np.ndarray:
        x0, x1, p0, p1, *m = y.tolist()
        r2 = x0 * x0 + x1 * x1
        if r2 >= guard2:
            raise SingularityError(f"|x| = {math.sqrt(r2):.17g} at the singular radius",
                                   time=t, state=np.asarray(y[:4], dtype=float))
        one_minus = 1.0 - r2
        f0, f1 = eval_scalar(t)
        root = math.sqrt(one_minus)
        xp = x0 * p0 + x1 * p1
        R = G * root - xp * xp / one_minus - (p0 * p0 + p1 * p1)
        xf = x0 * f0 + x1 * f1
        # dR/dx = -(G / root + 2 xp^2 / one_minus^2) x - (2 xp / one_minus) p
        c = 2.0 * xp / one_minus
        g = G / root + c * xp / one_minus
        dRx0 = -g * x0 - c * p0
        dRx1 = -g * x1 - c * p1
        dRp0 = -c * x0 - 2.0 * p0
        dRp1 = -c * x1 - 2.0 * p1
        # d(dp/dt)/dx = x dR/dx^T + R I + lam (xf I + x f^T); d(dp/dt)/dp = x dR/dp^T
        diag = R + lam * xf
        a00 = x0 * dRx0 + diag + lam * x0 * f0
        a01 = x0 * dRx1 + lam * x0 * f1
        a10 = x1 * dRx0 + lam * x1 * f0
        a11 = x1 * dRx1 + diag + lam * x1 * f1
        b00 = x0 * dRp0
        b01 = x0 * dRp1
        b10 = x1 * dRp0
        b11 = x1 * dRp1
        m0, m1, m2, m3 = m[0:4], m[4:8], m[8:12], m[12:16]
        return np.asarray([
            p0,
            p1,
            R * x0 + lam * (xf * x0 - f0),
            R * x1 + lam * (xf * x1 - f1),
            *m2,
            *m3,
            *[a00 * u + a01 * v + b00 * w + b01 * s
              for u, v, w, s in zip(m0, m1, m2, m3)],
            *[a10 * u + a11 * v + b10 * w + b11 * s
              for u, v, w, s in zip(m0, m1, m2, m3)],
        ])

    return field2_var


def _jacobian_analytic(t: float, state: PhaseState, params: ModelParams,
                       F: PeriodicSignal) -> np.ndarray:
    d = state.dim
    x = state.x
    p = state.p
    r2 = float(np.dot(x, x))
    one_minus = 1.0 - r2
    if one_minus <= 1.0 - GUARD * GUARD:
        raise SingularityError("state at the singular radius", time=t, state=state.flat())
    f = np.asarray(F.eval_scalar(t), dtype=float)
    lam = params.lam
    G = params.G
    if d == 1:
        xx = float(x[0])
        pp = float(p[0])
        A = G * (1.0 - 2.0 * xx * xx) / math.sqrt(one_minus) \
            - pp * pp * (1.0 + xx * xx) / (one_minus * one_minus) \
            + 2.0 * lam * xx * float(f[0])
        B = -2.0 * pp * xx / one_minus
        return np.asarray([[0.0, 1.0], [A, B]])
    xp = float(np.dot(x, p))
    R = G * math.sqrt(one_minus) - xp * xp / one_minus - float(np.dot(p, p))
    dR_dx = -(G / math.sqrt(one_minus)) * x \
        - (2.0 * xp / one_minus) * p \
        - (2.0 * xp * xp / (one_minus * one_minus)) * x
    dR_dp = -(2.0 * xp / one_minus) * x - 2.0 * p
    xf = float(np.dot(x, f))
    eye = np.eye(d)
    dpdot_dx = np.outer(x, dR_dx) + R * eye + lam * (xf * eye + np.outer(x, f))
    dpdot_dp = np.outer(x, dR_dp)
    top = np.hstack([np.zeros((d, d)), eye])
    bottom = np.hstack([dpdot_dx, dpdot_dp])
    return np.vstack([top, bottom])


def _jacobian_fd(t: float, state: PhaseState, params: ModelParams,
                 F: PeriodicSignal) -> np.ndarray:
    field = make_field(params, F)
    y0 = state.flat()
    n = y0.shape[0]
    J = np.empty((n, n))
    for j in range(n):
        h = 1e-7 * (1.0 + abs(y0[j]))
        yp = y0.copy()
        ym = y0.copy()
        yp[j] += h
        ym[j] -= h
        J[:, j] = (field(t, yp) - field(t, ym)) / (2.0 * h)
    return J


def jacobian(t: float, state: PhaseState, params: ModelParams,
             F: PeriodicSignal, mode: str = "analytic") -> np.ndarray:
    """State-space Jacobian of the flat vector field at ``(t, state)``.

    ``mode="analytic"`` uses the closed-form partial derivatives,
    ``mode="fd"`` central finite differences of the compiled field.
    """
    if mode == "analytic":
        return _jacobian_analytic(t, state, params, F)
    if mode == "fd":
        return _jacobian_fd(t, state, params, F)
    raise ValueError(f"unknown jacobian mode: {mode!r}")

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

On the line the angle chart ``x = sin theta``, ``p = theta' cos theta``
turns this into the regular pendulum

    theta'' = G sin theta - lam F(t) cos theta,

which has no singularity at the fall ``|x| = 1`` (``angle_field``).  In the
plane the rod's unit vector ``u = (x, y)`` obeys

    u'' = (g.u - |u'|^2) u - g,    g = (lam F(t), G),

whose horizontal part is the equation above and which is regular at every
direction (``direction_field``).
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SingularityError
from .forcing import PeriodicSignal
from .kernel import Source, function, renamed

__all__ = [
    "GUARD",
    "FALL_THRESHOLD",
    "ANGLE_CHART_SCALE",
    "ModelParams",
    "PhaseState",
    "make_field",
    "angle_field",
    "DIRECTION_CHART_SCALE",
    "direction_field",
    "jacobian",
]

# Hard guard on |x|: the equation is singular at |x| = 1, and evaluating past
# this radius is numerically meaningless.  The integrator's fall detection
# triggers earlier (at its FALL_THRESHOLD), so hitting the guard means a
# trial step overshot badly.
GUARD = 1.0 - 1e-12
_GUARD2 = GUARD * GUARD

# |x| at which a fall event is declared, short of GUARD
FALL_THRESHOLD = 1.0 - 1e-6


@dataclass(frozen=True)
class ModelParams:
    """Gravity ratio ``G = g / ell``, forcing scale ``lam``, and dimension."""

    G: float
    lam: float
    dim: int

    def __post_init__(self):
        # Python floats, so that no numpy scalar reaches the compiled field
        object.__setattr__(self, "G", float(self.G))
        object.__setattr__(self, "lam", float(self.lam))
        if self.G <= 0:
            raise ValueError(f"G must be positive, got {self.G}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")

    def with_lam(self, lam: float) -> "ModelParams":
        return ModelParams(self.G, lam, self.dim)


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


def make_field(params: ModelParams, F: PeriodicSignal, variational: bool = False):
    """Compile the flat-vector field ``f(t, y) -> dy/dt`` for the integrator.

    The returned closure works on plain float math (no PhaseState
    construction, no numpy) since the stepper evaluates it millions of
    times: ``y`` is a sequence of floats (the integrator passes a list) and
    the result is a list of floats; wrap it in ``np.asarray`` for array
    arithmetic.

    With ``variational=True`` the field acts on ``[y, vec M]`` (``M`` an
    ``n x n`` matrix stored row by row, ``n = 2 * dim``) and adds the
    variational equation ``dM/dt = J(t, y) M``; started from ``M = I`` it
    carries the derivative of the flow.  The state rows are computed with
    the same expressions as the plain field, each entry of ``J M`` is one
    sum written out, and the forcing is evaluated once per call.
    """
    if F.dim != params.dim:
        raise ValueError(f"forcing dim {F.dim} does not match model dim {params.dim}")
    G = params.G
    lam = params.lam
    guard2 = _GUARD2
    eval_scalar = F.eval_scalar

    if variational:
        return _variational_field(params.dim, G, lam, guard2, eval_scalar)

    if params.dim == 1:

        def field1(t: float, y: list) -> list:
            x, p = y
            r2 = x * x
            if r2 >= guard2:
                raise SingularityError(f"|x| = {abs(x):.17g} at the singular radius",
                                       time=t, state=np.asarray(y, dtype=float))
            one_minus = 1.0 - r2
            f = eval_scalar(t)[0]
            acc = (G * math.sqrt(one_minus) - p * p / one_minus) * x \
                - lam * one_minus * f
            return [p, acc]

        return field1

    def field2(t: float, y: list) -> list:
        x0, x1, p0, p1 = y
        r2 = x0 * x0 + x1 * x1
        if r2 >= guard2:
            raise SingularityError(f"|x| = {math.sqrt(r2):.17g} at the singular radius",
                                   time=t, state=np.asarray(y, dtype=float))
        one_minus = 1.0 - r2
        f0, f1 = eval_scalar(t)
        xp = x0 * p0 + x1 * p1
        R = G * math.sqrt(one_minus) - xp * xp / one_minus - (p0 * p0 + p1 * p1)
        xf = x0 * f0 + x1 * f1
        return [
            p0,
            p1,
            R * x0 + lam * (xf * x0 - f0),
            R * x1 + lam * (xf * x1 - f1),
        ]

    return field2


def _forcing_lines(src):
    """A chart field's lines of the forcing source ``src``: its statements,
    which read ``t``, the names that hold ``F(t)`` after them, and the names
    of its constants.  Its names take the prefix ``F_``, which no chart
    field's own name carries."""
    lines, out = renamed(src, "F_", ("t",))
    return lines, out, tuple("F_" + c for c in src.consts)


# The angle chart's stretch ``c``: its state ``c theta`` reaches
# FALL_THRESHOLD exactly where ``|x| = |sin theta|`` does.
ANGLE_CHART_SCALE = FALL_THRESHOLD / math.asin(FALL_THRESHOLD)


def angle_field(params: ModelParams, F: PeriodicSignal):
    """Compile the line's field in the angle chart, ``f(t, y) -> dy/dt``.

    The state is ``y = [c theta, c theta']`` with ``c = ANGLE_CHART_SCALE``,
    ``x = sin theta`` and ``p = theta' cos theta``, and the rod is the
    pendulum ``theta'' = G sin theta - lam F(t) cos theta``: regular at every
    angle, so nothing stiffens as the rod nears the fall, and a fall gauge on
    ``|y[0]|`` fires where ``|x|`` reaches ``FALL_THRESHOLD``.  Plain floats
    in and out, as ``make_field``.  The field is compiled from its source
    lines (``kernel.function``), the forcing's scalar lines among them, and
    the integrator's step splices the same lines into its stages.
    """
    if params.dim != 1 or F.dim != 1:
        raise ValueError("the angle chart is the line's: dim must be 1")
    f_src, f_values = F.scalar_kernel
    scale = ANGLE_CHART_SCALE
    return function(_angle_source(f_src), (scale * params.G, scale * params.lam, scale,
                                           math.sin, math.cos, *f_values))


@lru_cache
def _angle_source(f_src):
    """``angle_field``'s source on the forcing source ``f_src``."""
    f_lines, (f,), f_consts = _forcing_lines(f_src)
    return Source(("t", "phi", "v"),
                  (*f_lines, "theta = phi / scale"),
                  ("v", f"G * sin(theta) - lam * ({f}) * cos(theta)"),
                  ("G", "lam", "scale", "sin", "cos", *f_consts))


# The direction chart's stretch ``c``: its state ``c (1 - y)`` reaches
# FALL_THRESHOLD exactly where ``|x|`` does.
DIRECTION_CHART_SCALE = FALL_THRESHOLD / (1.0 - math.sqrt(1.0 - FALL_THRESHOLD ** 2))


def direction_field(params: ModelParams, F: PeriodicSignal):
    """Compile the plane's field in the rod-direction chart, ``f(t, s) -> ds/dt``.

    The state is ``s = [c (1 - y), x1, x2, y', p1, p2]`` with
    ``c = DIRECTION_CHART_SCALE``, the rod height ``y = sqrt(1 - |x|^2)``
    and ``p = x'``.  The rod's unit vector ``u = (x1, x2, y)`` obeys
    ``u'' = (g.u - |u'|^2) u - g`` with ``g = (lam F1, lam F2, G)``: regular
    at every direction, so nothing stiffens as the rod nears the fall, and a
    fall gauge on ``|s[0]|`` fires where ``|x|`` reaches ``FALL_THRESHOLD``.
    Plain floats in and out, compiled from source lines as ``angle_field``.
    """
    if params.dim != 2 or F.dim != 2:
        raise ValueError("the direction chart is the plane's: dim must be 2")
    f_src, f_values = F.scalar_kernel
    return function(_direction_source(f_src),
                    (params.G, params.lam, DIRECTION_CHART_SCALE, *f_values))


@lru_cache
def _direction_source(f_src):
    """``direction_field``'s source on the forcing source ``f_src``."""
    f_lines, (f0, f1), f_consts = _forcing_lines(f_src)
    return Source(("t", "q", "x0", "x1", "w", "p0", "p1"),
                  (*f_lines,
                   "y = 1.0 - q / scale",
                   f"g0 = lam * ({f0})",
                   f"g1 = lam * ({f1})",
                   "k = g0 * x0 + g1 * x1 + G * y - (p0 * p0 + p1 * p1 + w * w)"),
                  ("-scale * w", "p0", "p1", "k * y - G", "k * x0 - g0", "k * x1 - g1"),
                  ("G", "lam", "scale", *f_consts))


def _variational_field(dim: int, G: float, lam: float, guard2: float, eval_scalar):
    """The field of ``make_field(..., variational=True)``.

    The Jacobian entries are the partial derivatives of the plain field,
    written out in plain floats; its top block is ``[0, I]``, so the top
    rows of ``dM/dt`` are the bottom rows of ``M``.
    """
    if dim == 1:

        def field1_var(t: float, y: list) -> list:
            x, p, m00, m01, m10, m11 = y
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
            return [p, acc, m10, m11,
                    A * m00 + B * m10, A * m01 + B * m11]

        return field1_var

    def field2_var(t: float, y: list) -> list:
        (x0, x1, p0, p1, m00, m01, m02, m03, m10, m11, m12, m13,
         m20, m21, m22, m23, m30, m31, m32, m33) = y
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
        b00, b01, b10, b11 = x0 * dRp0, x0 * dRp1, x1 * dRp0, x1 * dRp1
        return [
            p0, p1,
            R * x0 + lam * (xf * x0 - f0),
            R * x1 + lam * (xf * x1 - f1),
            m20, m21, m22, m23, m30, m31, m32, m33,
            a00 * m00 + a01 * m10 + b00 * m20 + b01 * m30,
            a00 * m01 + a01 * m11 + b00 * m21 + b01 * m31,
            a00 * m02 + a01 * m12 + b00 * m22 + b01 * m32,
            a00 * m03 + a01 * m13 + b00 * m23 + b01 * m33,
            a10 * m00 + a11 * m10 + b10 * m20 + b11 * m30,
            a10 * m01 + a11 * m11 + b10 * m21 + b11 * m31,
            a10 * m02 + a11 * m12 + b10 * m22 + b11 * m32,
            a10 * m03 + a11 * m13 + b10 * m23 + b11 * m33,
        ]

    return field2_var


# the batched rod kernel's terms, one entry per row: the rows of x, p and F,
# |x|^2, 1 - |x|^2 at |x| clamped to the guard radius, |p|^2, x.p, x.F and R
RodTerms = namedtuple("RodTerms", "X P F r2 one_minus p2 xp xf R")


def _rowdot(A, B) -> np.ndarray:
    return np.einsum("ij,ij->i", A, B)


def rod_terms(X, P, Fv, G: float) -> RodTerms:
    """The batched rod kernel's terms for ``(N, dim)`` rows of x, p and F."""
    r2, xp, p2 = _rowdot(X, X), _rowdot(X, P), _rowdot(P, P)
    one_minus = 1.0 - np.minimum(r2, _GUARD2)
    R = G * np.sqrt(one_minus) - xp * xp / one_minus - p2
    return RodTerms(X, P, Fv, r2, one_minus, p2, xp, _rowdot(X, Fv), R)


def rod_acceleration(s: RodTerms, lam: float) -> np.ndarray:
    """The acceleration ``a = R x + lam ((x.F) x - F)`` of every row."""
    return s.R[:, None] * s.X + lam * (s.xf[:, None] * s.X - s.F)


def acceleration_rate(s: RodTerms, acc, dF, lam: float, G: float) -> np.ndarray:
    """``a' = R' x + R p + lam ((p.F + x.F') x + (x.F) p - F')`` per row, for
    ``acc = rod_acceleration(s, lam)``, the rows ``dF`` of ``F'`` and
    ``R' = dR/dx.p + dR/dp.a`` (the gradients of ``_variational_field``)."""
    c = 2.0 * s.xp / s.one_minus
    dR = (-(G / np.sqrt(s.one_minus) + c * s.xp / s.one_minus) * s.xp - c * s.p2
          - c * _rowdot(s.X, acc) - 2.0 * _rowdot(s.P, acc))
    return (dR[:, None] * s.X + s.R[:, None] * s.P
            + lam * ((_rowdot(s.P, s.F) + _rowdot(s.X, dF))[:, None] * s.X
                     + s.xf[:, None] * s.P - dF))


def jacobian(t: float, state: PhaseState, params: ModelParams,
             F: PeriodicSignal) -> np.ndarray:
    """State-space Jacobian of the flat vector field at ``(t, state)``.

    Read from the variational field at ``[y, vec I]``, whose ``M`` rows are
    then ``J I = J``.
    """
    n = 2 * state.dim
    y = np.concatenate([state.flat(), np.eye(n).ravel()]).tolist()
    return np.asarray(make_field(params, F, variational=True)(t, y)[n:]).reshape(n, n)

"""Independent cross-checks for the test suite.

Everything here is transcribed directly from the governing equations and
classic textbook formulas, without importing anything from the package
under test, so that agreement between the two is meaningful evidence.
"""
from __future__ import annotations

import math

import numpy as np


def rhs_linear(t: float, y, G: float, lam: float, F) -> np.ndarray:
    """Scalar rod equation as a first-order system.  F maps t to a float."""
    x, p = float(y[0]), float(y[1])
    one = 1.0 - x * x
    acc = (G * math.sqrt(one) - p * p / one) * x - lam * one * F(t)
    return np.array([p, acc])


def rhs_planar(t: float, y, G: float, lam: float, F) -> np.ndarray:
    """Planar rod equation.  F maps t to a length-2 array."""
    x = np.asarray(y[:2], dtype=float)
    p = np.asarray(y[2:], dtype=float)
    one = 1.0 - float(x @ x)
    R = G * math.sqrt(one) - float(x @ p) ** 2 / one - float(p @ p)
    Fv = np.asarray(F(t), dtype=float)
    acc = R * x + lam * (float(x @ Fv) * x - Fv)
    return np.concatenate([p, acc])


def jacobian(t: float, y, G: float, lam: float, F) -> np.ndarray:
    """Jacobian of the rod equation in either dimension, differentiated by hand.

    With ``R = G sqrt(1 - |x|^2) - (x.p)^2 / (1 - |x|^2) - |p|^2`` the
    acceleration is ``R x + lam ((x.F) x - F)``, so its partials are
    ``x dR/dx^T + R I + lam ((x.F) I + x F^T)`` and ``x dR/dp^T``.
    F maps t to an array of length ``dim``; on the line this is the
    derivative of :func:`rhs_linear`.
    """
    d = len(y) // 2
    x = np.asarray(y[:d], dtype=float)
    p = np.asarray(y[d:], dtype=float)
    Fv = np.asarray(F(t), dtype=float)
    one = 1.0 - float(x @ x)
    xp = float(x @ p)
    R = G * math.sqrt(one) - xp ** 2 / one - float(p @ p)
    dR_dx = -(G / math.sqrt(one) + 2.0 * xp ** 2 / one ** 2) * x - (2.0 * xp / one) * p
    dR_dp = -(2.0 * xp / one) * x - 2.0 * p
    eye = np.eye(d)
    J = np.zeros((2 * d, 2 * d))
    J[:d, d:] = eye
    J[d:, :d] = np.outer(x, dR_dx) + R * eye + lam * (float(x @ Fv) * eye + np.outer(x, Fv))
    J[d:, d:] = np.outer(x, dR_dp)
    return J


def unresolved_planar_residual(t: float, y, G: float, lam: float, F) -> float:
    """Residual of the pre-elimination linear system in the acceleration.

    The derivation of the planar equation passes through

        ((1 - |x|^2) I + x x^T) xdd = R x - (1 - |x|^2) Fdd

    before solving for xdd.  Substituting the resolved acceleration back
    into the left side must reproduce the right side.
    """
    x = np.asarray(y[:2], dtype=float)
    acc = rhs_planar(t, y, G, lam, F)[2:]
    one = 1.0 - float(x @ x)
    M = one * np.eye(2) + np.outer(x, x)
    R = G * math.sqrt(one) - float(x @ np.asarray(y[2:], dtype=float)) ** 2 / one \
        - float(np.asarray(y[2:], dtype=float) @ np.asarray(y[2:], dtype=float))
    rhs = R * x - one * lam * np.asarray(F(t), dtype=float)
    return float(np.linalg.norm(M @ acc - rhs))


def rk4_step(fun, t: float, y: np.ndarray, h: float) -> np.ndarray:
    k1 = fun(t, y)
    k2 = fun(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = fun(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = fun(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_integrate(fun, t0: float, t1: float, y0, h: float = 1e-4) -> np.ndarray:
    """Classic fixed-step fourth-order Runge-Kutta from t0 to t1."""
    y = np.asarray(y0, dtype=float).copy()
    n = max(1, int(math.ceil((t1 - t0) / h)))
    hh = (t1 - t0) / n
    t = t0
    for _ in range(n):
        y = rk4_step(fun, t, y, hh)
        t += hh
    return y


def rk4_until_fall(fun, t0: float, t1: float, y0, xdim: int,
                   threshold: float, h: float = 1e-4):
    """Fixed-step integration that stops when |x| reaches the threshold.

    Returns (fell, t_fall, y).  The crossing time is refined by linear
    interpolation of |x| - threshold over the last step, so it is accurate
    to O(h^2) only; callers should use loose tolerances.
    """
    y = np.asarray(y0, dtype=float).copy()
    t = t0
    r_prev = float(np.linalg.norm(y[:xdim]))
    while t < t1:
        hh = min(h, t1 - t)
        y_new = rk4_step(fun, t, y, hh)
        r_new = float(np.linalg.norm(y_new[:xdim]))
        if r_new >= threshold:
            g0 = r_prev - threshold
            g1 = r_new - threshold
            frac = g0 / (g0 - g1) if g1 != g0 else 1.0
            return True, t + frac * hh, y_new
        y, t, r_prev = y_new, t + hh, r_new
    return False, math.nan, y


def linear_scalar_rhs(G: float, lam: float, F):
    """Plain-float right-hand side for tight pure-Python loops."""

    def fun(t, xp):
        x, p = xp
        one = 1.0 - x * x
        return p, (G * math.sqrt(one) - p * p / one) * x - lam * one * F(t)

    return fun


def rk4_scalar(fun, t0: float, t1: float, x0: float, p0: float,
               h: float = 1e-6) -> tuple[float, float]:
    """Fixed-step RK4 on a scalar second-order system without numpy overhead."""
    n = max(1, int(math.ceil((t1 - t0) / h)))
    hh = (t1 - t0) / n
    x, p = x0, p0
    t = t0
    for _ in range(n):
        k1x, k1p = fun(t, (x, p))
        k2x, k2p = fun(t + 0.5 * hh, (x + 0.5 * hh * k1x, p + 0.5 * hh * k1p))
        k3x, k3p = fun(t + 0.5 * hh, (x + 0.5 * hh * k2x, p + 0.5 * hh * k2p))
        k4x, k4p = fun(t + hh, (x + hh * k3x, p + hh * k3p))
        x += (hh / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        p += (hh / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        t += hh
    return x, p

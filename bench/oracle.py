"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports the package under test.  The equations are written out
from the model statement in the ``dynamics`` module docstring:

    x'' = R(x, p) x + Phi(t, x),
    R   = G sqrt(1 - |x|^2) - (x.p)^2 / (1 - |x|^2) - |p|^2,
    Phi = lam ((x.F) x - F),

with ``x`` and ``p`` of dimension 1 or 2.  Integration is classical
fixed-step RK4, vectorized over independent lanes, so a check costs a few
numpy operations per step whatever the number of lanes.
"""
from __future__ import annotations

import math

import numpy as np


class Fourier:
    """``F(t) = sum_k c_k cos(2 pi k t / T) + s_k sin(2 pi k t / T)``, k >= 1."""

    def __init__(self, period, dim, cosine=(), sine=()):
        self.period = float(period)
        self.dim = int(dim)
        c = np.asarray(cosine, dtype=float).reshape(-1, self.dim)
        s = np.asarray(sine, dtype=float).reshape(-1, self.dim)
        n = max(c.shape[0], s.shape[0])
        self.c = np.vstack([c, np.zeros((n - c.shape[0], self.dim))])
        self.s = np.vstack([s, np.zeros((n - s.shape[0], self.dim))])
        self.omega = 2.0 * math.pi * np.arange(1, n + 1) / self.period

    def __call__(self, t):
        """Values at times ``t`` (any shape), shape ``t.shape + (dim,)``."""
        ph = np.multiply.outer(np.asarray(t, dtype=float), self.omega)
        return np.cos(ph) @ self.c + np.sin(ph) @ self.s

    def sup_norm_bounds(self, n_grid=65536):
        """``(lower, upper)`` bounds on ``max_t |F(t)|``.

        The grid maximum is attained, so it is a lower bound; the triangle
        inequality over the modes gives the upper bound.
        """
        u = np.linspace(0.0, self.period, n_grid, endpoint=False)
        lower = float(np.max(np.linalg.norm(self(u), axis=-1)))
        upper = float(np.sum(np.linalg.norm(self.c, axis=1)
                             + np.linalg.norm(self.s, axis=1)))
        return lower, upper


def rhs(t, y, G, lam, F, r_max=1.0):
    """Field for lanes ``y`` of shape ``(n, 2 dim)`` at common time ``t``.

    Lanes with ``|x| >= r_max`` get nan: past the fall threshold the field
    is not evaluated, so no step can jump over the singular radius.
    """
    d = y.shape[1] // 2
    x = y[:, :d]
    p = y[:, d:]
    r2 = np.sum(x * x, axis=1)
    one = np.where(r2 < r_max * r_max, 1.0 - r2, np.nan)
    xp = np.sum(x * p, axis=1)
    R = G * np.sqrt(one) - xp * xp / one - np.sum(p * p, axis=1)
    f = F(t)
    xf = x @ f
    acc = R[:, None] * x + lam * (xf[:, None] * x - f)
    return np.hstack([p, acc])


def _rk4_step(t, y, h, G, lam, F, r_max=1.0):
    k1 = rhs(t, y, G, lam, F, r_max)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1, G, lam, F, r_max)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2, G, lam, F, r_max)
    k4 = rhs(t + h, y + h * k3, G, lam, F, r_max)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _approach(t, y, h, G, lam, F, threshold):
    """Walk one lane up to where ``|x|`` reaches ``threshold``.

    Steps that would reach it, at their end or at any stage, are halved;
    the others are taken.  Returns the crossing time
    and the last state below the threshold.
    """
    d = y.shape[1] // 2
    while h > 1e-13 * (1.0 + abs(t)):
        y_new = _rk4_step(t, y, h, G, lam, F, threshold)
        if np.linalg.norm(y_new[0, :d]) < threshold:
            t, y = t + h, y_new
        else:
            h *= 0.5
    return t + h, y


def flow(y0, t0, t1, n_steps, G, lam, F, threshold=None):
    """RK4 flow of lanes ``y0`` from ``t0`` to ``t1``.

    Returns ``(states, fall_times, max_radius)``: the states at ``t1`` (or
    at the fall), the first time each lane's ``|x|`` reaches ``threshold``
    (nan for lanes that stay below it), and each lane's largest ``|x|`` at
    the step nodes.  A step that reaches the threshold, at its end or at
    any stage, is redone by ``_approach`` with ever shorter steps.
    """
    y = np.atleast_2d(np.asarray(y0, dtype=float)).copy()
    d = y.shape[1] // 2
    n = y.shape[0]
    h = (t1 - t0) / n_steps
    r_max = 1.0 if threshold is None else threshold
    fall = np.full(n, math.nan)
    max_r = np.linalg.norm(y[:, :d], axis=1)
    live = np.ones(n, dtype=bool)
    for k in range(n_steps):
        if not live.any():
            break
        t = t0 + k * h
        idx = np.nonzero(live)[0]
        ya = y[idx]
        yb = _rk4_step(t, ya, h, G, lam, F, r_max)
        rb = np.linalg.norm(yb[:, :d], axis=1)
        if threshold is not None:
            for j in np.nonzero(~(rb < threshold))[0]:  # nan counts as reached
                fall[idx[j]], last = _approach(t, ya[j:j + 1], h, G, lam, F,
                                               threshold)
                yb[j] = last[0]
                rb[j] = threshold
                live[idx[j]] = False
        max_r[idx] = np.maximum(max_r[idx], rb)
        y[idx] = yb
    return y, fall, max_r


def sample_orbit(y0, T, n_steps, G, F):
    """States at every RK4 node of one period under full forcing."""
    y = np.atleast_2d(np.asarray(y0, dtype=float)).copy()
    h = T / n_steps
    out = [y[0].copy()]
    for k in range(n_steps):
        y = _rk4_step(k * h, y, h, G, 1.0, F)
        out.append(y[0].copy())
    return np.asarray(out)


def cylinder_curvature(t, x, p, G, lam, F):
    """``|p|^2 + R |x|^2 + x.Phi`` at one point of the cylinder face."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    r2 = float(x @ x)
    one = 1.0 - r2
    xp = float(x @ p)
    R = G * math.sqrt(one) - xp * xp / one - float(p @ p)
    f = np.asarray(F(t), dtype=float)
    phi = lam * (float(x @ f) * x - f)
    return float(p @ p) + R * r2 + float(x @ phi)

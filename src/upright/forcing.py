"""Periodic forcing signals for the rod-on-carriage equations.

The model works with the rescaled horizontal acceleration of the pivot,
``F(t) = f''(t) / rod_length``, where ``f`` is the carriage path.  A signal
knows its period, its dimension (1 for the rail-mounted rod, 2 for the free
planar rod), how to evaluate ``F`` and ``dF/dt``, and certified upper bounds
``sup_norm >= max |F|`` and ``sup_norm_derivative >= max |dF/dt|``.  The
bounds feed the closed-form bound-set constants, so they are computed with a
safety margin rather than as bare grid maxima.

Two constructions are provided: trigonometric polynomials
(:func:`make_fourier_forcing`) and ingestion of sampled carriage paths
(:func:`ingest_path`), where ``F`` is obtained from the second derivative of
a periodic cubic spline through the samples.
"""
from __future__ import annotations

import bisect as _bisect
import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError

__all__ = [
    "PeriodicSignal",
    "PathSamples",
    "make_fourier_forcing",
    "ingest_path",
    "read_path_csv",
]

_DENSE_GRID = 4096


class PeriodicSignal:
    """A T-periodic vector signal with derivative access and sup-norm bounds.

    Evaluation reduces the argument to one period first, so the signal is
    defined for every real ``t``; exact multiples of the period map to 0.
    ``value_fn`` and ``derivative_fn`` take an array of reduced times;
    ``scalar_value_fn`` takes one reduced time and returns a tuple of floats.
    """

    def __init__(self, period, dim, value_fn, derivative_fn, sup_norm,
                 sup_norm_derivative, scalar_value_fn):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {dim}")
        self.period = float(period)
        self.dim = int(dim)
        self.sup_norm = float(sup_norm)
        self.sup_norm_derivative = float(sup_norm_derivative)
        self._value_fn = value_fn
        self._derivative_fn = derivative_fn
        self._scalar_value_fn = scalar_value_fn

    # -- range reduction -------------------------------------------------

    def _reduce_scalar(self, t: float) -> float:
        u = math.fmod(t, self.period)
        if u < 0.0:
            u += self.period
        return u

    def _reduce(self, t):
        u = np.mod(t, self.period)
        return u

    # -- evaluation ------------------------------------------------------

    def eval(self, t):
        """F(t).  Scalar input gives shape (dim,), array input (..., dim)."""
        if np.ndim(t) == 0:
            u = self._reduce_scalar(float(t))
            return np.asarray(self._scalar_value_fn(u), dtype=float)
        u = self._reduce(np.asarray(t, dtype=float))
        return self._value_fn(u)

    def eval_derivative(self, t):
        """dF/dt at t, same shape conventions as :meth:`eval`."""
        if np.ndim(t) == 0:
            u = self._reduce_scalar(float(t))
            return np.asarray(self._derivative_fn(np.asarray([u]))[0], dtype=float)
        u = self._reduce(np.asarray(t, dtype=float))
        return self._derivative_fn(u)

    def eval_scalar(self, t: float):
        """Fast path used by the integrator: returns a plain tuple of floats."""
        return self._scalar_value_fn(self._reduce_scalar(t))

    def __repr__(self):
        return (f"PeriodicSignal(period={self.period!r}, dim={self.dim}, "
                f"sup_norm={self.sup_norm:.6g}, "
                f"sup_norm_derivative={self.sup_norm_derivative:.6g})")


def _coeff_array(coeffs, dim: int, name: str) -> np.ndarray:
    """Normalize a coefficient list to shape (n_modes, dim)."""
    if coeffs is None:
        coeffs = []
    arr = np.asarray(list(coeffs), dtype=float)
    if arr.size == 0:
        return np.zeros((0, dim))
    if arr.ndim == 1:
        if dim != 1:
            raise ValueError(f"{name}: scalar coefficients given for dim={dim}")
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"{name}: expected entries of length {dim}, got shape {arr.shape}")
    return arr


def make_fourier_forcing(period, dim, cosine_coeffs, sine_coeffs, *,
                         constant=None, grid_points=_DENSE_GRID) -> PeriodicSignal:
    """Build a trigonometric-polynomial signal.

    ``F(t) = constant + sum_k c_k cos(2 pi k t / period) + s_k sin(2 pi k t / period)``
    with mode index ``k`` starting at 1 for both coefficient lists, so
    ``cosine_coeffs=[2]`` gives ``2 cos(2 pi t / period)``.

    Sup norms are grid maxima over one period (at least 4096 points) plus a
    Lipschitz safety margin ``L * h / 2`` with an ``L`` from the coefficient
    sums, so they are genuine upper bounds for the continuum maxima.
    """
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    c = _coeff_array(cosine_coeffs, dim, "cosine_coeffs")
    s = _coeff_array(sine_coeffs, dim, "sine_coeffs")
    n_modes = max(c.shape[0], s.shape[0])
    c = np.vstack([c, np.zeros((n_modes - c.shape[0], dim))])
    s = np.vstack([s, np.zeros((n_modes - s.shape[0], dim))])
    if constant is None:
        c0 = np.zeros(dim)
    else:
        c0 = np.atleast_1d(np.asarray(constant, dtype=float))
        if c0.shape != (dim,):
            raise ValueError(f"constant must have length {dim}")
    omega = 2.0 * math.pi * np.arange(1, n_modes + 1) / period

    def value(u):
        # u: (m,) reduced times -> (m, dim)
        if n_modes == 0:
            return np.broadcast_to(c0, u.shape + (dim,)).copy()
        ph = np.outer(u, omega)
        return c0 + np.cos(ph) @ c + np.sin(ph) @ s

    def derivative(u):
        if n_modes == 0:
            return np.zeros(u.shape + (dim,))
        ph = np.outer(u, omega)
        return -(np.sin(ph) * omega) @ c + (np.cos(ph) * omega) @ s

    modes = [(float(w), tuple(ck), tuple(sk)) for w, ck, sk in zip(omega, c, s)]
    c0t = tuple(c0)

    def value_scalar(u):
        out = list(c0t)
        for w, ck, sk in modes:
            cw = math.cos(w * u)
            sw = math.sin(w * u)
            for i in range(dim):
                out[i] += ck[i] * cw + sk[i] * sw
        return tuple(out)

    n_grid = max(int(grid_points), _DENSE_GRID)
    u = np.linspace(0.0, period, n_grid, endpoint=False)
    h = period / n_grid
    amp = np.linalg.norm(c, axis=1) + np.linalg.norm(s, axis=1)
    # Lipschitz constants from coefficient sums: |dF/dt| <= sum w*amp, etc.
    lip_f = float(np.sum(omega * amp)) if n_modes else 0.0
    lip_df = float(np.sum(omega**2 * amp)) if n_modes else 0.0
    sup_f = float(np.max(np.linalg.norm(value(u), axis=1))) + 0.5 * lip_f * h
    sup_df = float(np.max(np.linalg.norm(derivative(u), axis=1))) + 0.5 * lip_df * h

    return PeriodicSignal(period, dim, value, derivative, sup_f, sup_df,
                          scalar_value_fn=value_scalar)


@dataclass(frozen=True)
class PathSamples:
    """One period of a sampled carriage path.

    ``times`` must be strictly increasing; ``positions`` holds the path
    samples (shape ``(n,)`` or ``(n, d)``); the first and last positions must
    agree within ``closure_tol`` since the path is periodically extended.
    """

    times: np.ndarray
    positions: np.ndarray
    rod_length: float = 1.0
    closure_tol: float = 1e-8

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        positions = np.asarray(self.positions, dtype=float)
        if positions.ndim == 1:
            positions = positions[:, None]
        if times.ndim != 1 or positions.shape[0] != times.shape[0]:
            raise ValueError("times and positions must have matching length")
        if times.shape[0] < 8:
            raise InsufficientDataError(
                f"need at least 8 samples per period, got {times.shape[0]}")
        if positions.shape[1] not in (1, 2):
            raise ValueError(f"positions must be 1- or 2-dimensional, got {positions.shape[1]}")
        if not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        if self.rod_length <= 0:
            raise ValueError(f"rod_length must be positive, got {self.rod_length}")
        gap = float(np.linalg.norm(positions[-1] - positions[0]))
        if gap > self.closure_tol:
            raise ValueError(
                f"path endpoints differ by {gap:.3e} > closure_tol={self.closure_tol:.3e}; "
                "the samples must cover exactly one period")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "positions", positions)

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def period(self) -> float:
        return float(self.times[-1] - self.times[0])


def ingest_path(samples: PathSamples, gravity: float):
    """Turn sampled carriage positions into a forcing signal.

    Fits a periodic cubic spline ``s`` through the samples and returns
    ``(F, G)`` with ``F(t) = s''(t) / rod_length`` and
    ``G = gravity / rod_length``.  ``F`` is piecewise linear in ``t`` and its
    derivative (from the spline's third derivative) is piecewise constant.

    Sup norms are exact for the spline: ``|F|`` is convex between knots, so
    its maximum sits at a knot, and ``dF/dt`` is constant between knots.
    """
    # imported here: scipy.interpolate takes most of the package's import time
    from scipy.interpolate import CubicSpline

    if gravity <= 0:
        raise ValueError(f"gravity must be positive, got {gravity}")
    ell = samples.rod_length
    t0 = samples.times[0]
    knots = samples.times - t0
    pos = samples.positions.copy()
    pos[-1] = pos[0]  # periodic closure, already within tolerance
    spline = CubicSpline(knots, pos, axis=0, bc_type="periodic")
    d2 = spline.derivative(2)
    d3 = spline.derivative(3)
    period = samples.period
    dim = samples.dim

    def value(u):
        return np.asarray(d2(u), dtype=float) / ell

    def derivative(u):
        return np.asarray(d3(u), dtype=float) / ell

    # F on one piece is linear: s''(u) = 6 c0 (u - x_k) + 2 c1.  The scalar
    # path evaluates it in plain floats with the coefficients and the
    # periodic wrap of d2 itself, so it equals the array path bit for bit.
    knot_list = knots.tolist()
    last = len(knot_list) - 2
    slope = d2.c[0].tolist()
    offset = d2.c[1].tolist()

    def value_scalar(u):
        u = u % period
        k = min(_bisect.bisect_right(knot_list, u) - 1, last)
        s = u - knot_list[k]
        return tuple([(b + a * s) / ell for a, b in zip(slope[k], offset[k])])

    sup_f = float(np.max(np.linalg.norm(np.atleast_2d(d2(knots)), axis=1))) / ell
    # third derivative per piece: 6 * leading coefficient
    lead = 6.0 * np.abs(spline.c[0])
    if lead.ndim == 1:
        lead = lead[:, None]
    sup_df = float(np.max(np.linalg.norm(lead, axis=1))) / ell

    signal = PeriodicSignal(period, dim, value, derivative, sup_f, sup_df,
                            scalar_value_fn=value_scalar)
    return signal, gravity / ell


def read_path_csv(path, rod_length: float = 1.0, closure_tol: float = 1e-8) -> PathSamples:
    """Read carriage path samples from a CSV file with header ``t,f1[,f2]``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        if header not in (["t", "f1"], ["t", "f1", "f2"]):
            raise ValueError(f"expected header 't,f1' or 't,f1,f2', got {header}")
        rows = [[float(v) for v in row] for row in reader if row]
    if not rows:
        raise InsufficientDataError(f"no data rows in {path}")
    data = np.asarray(rows, dtype=float)
    if data.shape[1] != len(header):
        raise ValueError("row width does not match header")
    return PathSamples(times=data[:, 0], positions=data[:, 1:],
                       rod_length=rod_length, closure_tol=closure_tol)

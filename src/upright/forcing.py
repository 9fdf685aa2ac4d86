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
(:func:`ingest_path`), where ``F`` is the second derivative of a periodic
cubic spline through the samples, computed with numpy alone.

A path's ``F`` is piecewise linear, so ``dF/dt`` jumps at every knot.  The
knots are the signal's ``breakpoints``, and every rod integration makes
them step nodes: a Runge-Kutta step that straddled one would lose its order
(Hairer, Norsett & Wanner I, II.6).  Fourier signals have no breakpoints.
"""
from __future__ import annotations

import bisect as _bisect
import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError

__all__ = [
    "PeriodicSignal",
    "PathSamples",
    "make_fourier_forcing",
    "ingest_path",
    "read_path_csv",
]

# grid points over one period for the Fourier sup norms
_DENSE_GRID = 4096
# largest gap between the first and last sample of a path
_CLOSURE_TOL = 1e-8


class PeriodicSignal:
    """A T-periodic vector signal with derivative access and sup-norm bounds.

    Evaluation reduces the argument to one period first, so the signal is
    defined for every real ``t``; exact multiples of the period map to 0.
    ``value_fn`` and ``derivative_fn`` take an array of reduced times;
    ``scalar_value_fn`` takes any one time, reduces it itself (``math.fmod``,
    then ``+ period`` if negative, as ``_reduce_scalar``) and returns a tuple
    of floats: it is the integrator's path, one call per field evaluation.
    ``breakpoints`` are the times in ``[0, period)``, ascending, where
    ``dF/dt`` may jump; ``F`` itself is continuous there.
    """

    def __init__(self, period, dim, value_fn, derivative_fn, sup_norm,
                 sup_norm_derivative, scalar_value_fn, breakpoints=()):
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
        self.breakpoints = tuple(float(b) for b in breakpoints)
        if not all(0.0 <= a < b for a, b in
                   zip(self.breakpoints, self.breakpoints[1:] + (self.period,))):
            raise ValueError("breakpoints must ascend strictly within [0, period)")

    # -- range reduction -------------------------------------------------

    def _reduce_scalar(self, t: float) -> float:
        u = math.fmod(t, self.period)
        if u < 0.0:
            u += self.period
        return u

    # -- evaluation ------------------------------------------------------

    def eval(self, t):
        """F(t).  Scalar input gives shape (dim,), array input (..., dim)."""
        if np.ndim(t) == 0:
            return np.asarray(self._scalar_value_fn(float(t)), dtype=float)
        return self._value_fn(np.mod(np.asarray(t, dtype=float), self.period))

    def eval_derivative(self, t):
        """dF/dt at t, same shape conventions as :meth:`eval`."""
        if np.ndim(t) == 0:
            u = self._reduce_scalar(float(t))
            return np.asarray(self._derivative_fn(np.asarray([u]))[0], dtype=float)
        return self._derivative_fn(np.mod(np.asarray(t, dtype=float),
                                          self.period))

    def eval_scalar(self, t: float):
        """Fast path used by the integrator: returns a plain tuple of floats."""
        return self._scalar_value_fn(t)

    def breaks_between(self, t0: float, t1: float) -> list[float]:
        """The times ``breakpoint + k * period`` strictly inside ``(t0, t1)``,
        ascending: the step nodes an integration over ``[t0, t1]`` needs."""
        out = []
        if self.breakpoints and t1 > t0:
            T = self.period
            for k in range(math.floor(t0 / T), math.floor(t1 / T) + 1):
                out.extend(s for s in (b + k * T for b in self.breakpoints)
                           if t0 < s < t1)
        return out

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
                         constant=None) -> PeriodicSignal:
    """Build a trigonometric-polynomial signal.

    ``F(t) = constant + sum_k c_k cos(2 pi k t / period) + s_k sin(2 pi k t / period)``
    with mode index ``k`` starting at 1 for both coefficient lists, so
    ``cosine_coeffs=[2]`` gives ``2 cos(2 pi t / period)``.

    Sup norms are grid maxima over one period (``_DENSE_GRID`` points) plus a
    Lipschitz margin ``L * h / 2`` with an ``L`` from the coefficient sums,
    genuine upper bounds for the continuum maxima; they must be finite.
    """
    if not 0 < period < math.inf:
        raise ValueError(f"period must be positive and finite, got {period}")
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
    if not all(np.all(np.isfinite(v)) for v in (c, s, c0)):
        raise ValueError("coefficients and constant must be finite")
    omega = 2.0 * math.pi * np.arange(1, n_modes + 1) / period

    def value(u):
        # u: (m,) reduced times -> (m, dim)
        ph = np.outer(u, omega)
        return c0 + np.cos(ph) @ c + np.sin(ph) @ s

    def derivative(u):
        ph = np.outer(u, omega)
        return -(np.sin(ph) * omega) @ c + (np.cos(ph) * omega) @ s

    # Python floats, not numpy scalars: the integrator's stage sums run on
    # whatever the field returns, and numpy scalar arithmetic is slower.
    # The scalar path reduces its own argument, fmod then + period, as
    # ``PeriodicSignal._reduce_scalar`` does, and adds each mode's terms to
    # the constant in mode order.
    T = float(period)
    fmod, cos, sin = math.fmod, math.cos, math.sin
    if dim == 1:
        modes = list(zip(omega.tolist(), c[:, 0].tolist(), s[:, 0].tolist()))
        (a0,) = c0.tolist()

        def value_scalar(t):
            u = fmod(t, T)
            if u < 0.0:
                u += T
            a = a0
            for w, ck, sk in modes:
                a += ck * cos(w * u) + sk * sin(w * u)
            return (a,)
    else:
        modes = list(zip(omega.tolist(), c.tolist(), s.tolist()))
        a0, b0 = c0.tolist()

        def value_scalar(t):
            u = fmod(t, T)
            if u < 0.0:
                u += T
            a, b = a0, b0
            for w, (ck0, ck1), (sk0, sk1) in modes:
                cw = cos(w * u)
                sw = sin(w * u)
                a += ck0 * cw + sk0 * sw
                b += ck1 * cw + sk1 * sw
            return (a, b)

    u = np.linspace(0.0, period, _DENSE_GRID, endpoint=False)
    h = period / _DENSE_GRID
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        amp = np.linalg.norm(c, axis=1) + np.linalg.norm(s, axis=1)
        # Lipschitz constants from coefficient sums: |dF/dt| <= sum w*amp, etc.
        lip_f = float(np.sum(omega * amp))
        lip_df = float(np.sum(omega**2 * amp))
        sup_f = float(np.max(np.linalg.norm(value(u), axis=1))) + 0.5 * lip_f * h
        sup_df = float(np.max(np.linalg.norm(derivative(u), axis=1))) + 0.5 * lip_df * h
    if not (math.isfinite(sup_f) and math.isfinite(sup_df)):
        raise ValueError("coefficients too large: the forcing's sup norm bounds overflow")

    return PeriodicSignal(period, dim, value, derivative, sup_f, sup_df,
                          scalar_value_fn=value_scalar)


@dataclass(frozen=True)
class PathSamples:
    """One period of a sampled carriage path.

    ``times`` must be strictly increasing; ``positions`` holds the path
    samples (shape ``(n,)`` or ``(n, d)``); the first and last positions must
    agree within ``_CLOSURE_TOL`` since the path is periodically extended.
    """

    times: np.ndarray
    positions: np.ndarray
    rod_length: float = 1.0

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        positions = np.asarray(self.positions, dtype=float)
        if positions.ndim == 1:
            positions = positions[:, None]
        if times.ndim != 1 or positions.shape[0] != times.shape[0]:
            raise ValueError("times and positions must have matching length")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(positions))):
            raise ValueError("times and positions must be finite")
        if times.shape[0] < 8:
            raise InsufficientDataError(
                f"need at least 8 samples per period, got {times.shape[0]}")
        if positions.shape[1] not in (1, 2):
            raise ValueError(f"positions must be 1- or 2-dimensional, got {positions.shape[1]}")
        if not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        if self.rod_length <= 0:
            raise ValueError(f"rod_length must be positive, got {self.rod_length}")
        # in Python floats: a difference past the float range is inf, unwarned
        gap = math.hypot(*(b - a for a, b in zip(positions[0].tolist(),
                                                 positions[-1].tolist())))
        if gap > _CLOSURE_TOL:
            raise ValueError(
                f"path endpoints differ by {gap:.3e} > {_CLOSURE_TOL:.3e}; "
                "the samples must cover exactly one period")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "positions", positions)

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def period(self) -> float:
        return float(self.times[-1] - self.times[0])


def _periodic_spline_curvature(h, rhs):
    """Solve ``h[k-1] M[k-1] + 2 (h[k-1] + h[k]) M[k] + h[k] M[k+1] = rhs[k]``, k mod n,
    per column in O(n): Thomas' algorithm with a Sherman-Morrison corner correction."""
    diag = 2.0 * (h + np.roll(h, 1))
    gamma = -diag[0]
    diag[0] -= gamma
    diag[-1] -= h[-1] * h[-1] / gamma
    b = np.column_stack([rhs, np.zeros(len(h))])
    b[0, -1], b[-1, -1] = gamma, h[-1]  # u, with A = A' + u v^T
    # both sweeps in plain floats, column by column, as numpy's row operations
    hs, ds, cols = h.tolist(), diag.tolist(), b.T.tolist()
    for k in range(1, len(h)):
        ds[k] -= hs[k - 1] / ds[k - 1] * hs[k - 1]
    for col in cols:
        for k in range(1, len(h)):
            col[k] -= hs[k - 1] / ds[k - 1] * col[k - 1]
        col[-1] /= ds[-1]
        for k in range(len(h) - 2, -1, -1):
            col[k] = (col[k] - hs[k] * col[k + 1]) / ds[k]
    b = np.array(cols).T
    vb = b[0] + h[-1] / gamma * b[-1]  # v = (1, 0, ..., 0, h[-1] / gamma)
    return b[:, :-1] - np.outer(b[:, -1], vb[:-1] / (1.0 + vb[-1]))


def ingest_path(samples: PathSamples, gravity: float):
    """Turn sampled carriage positions into a forcing signal.

    Fits a periodic cubic spline ``s`` through the samples and returns
    ``(F, G)`` with ``F(t) = s''(t) / rod_length`` and
    ``G = gravity / rod_length``.  ``F`` is linear between the knot values
    ``s''(t_k)``, which solve one cyclic tridiagonal system (de Boor, ch. IV).

    Sup norms are exact for the spline: ``|F|`` is convex between knots, so
    its maximum sits at a knot, and ``dF/dt`` is constant between knots.
    The knots in ``[0, period)`` are the signal's ``breakpoints``.  The
    scalar path is written out per dimension in plain floats: about 0.33 us
    a call on a 2-core Xeon (CPython 3.11), as for a one-mode Fourier sum.
    """
    if gravity <= 0:
        raise ValueError(f"gravity must be positive, got {gravity}")
    ell = float(samples.rod_length)
    knots = samples.times - samples.times[0]
    # periodic closure: the end samples already agree within tolerance
    pos = np.vstack([samples.positions[:-1], samples.positions[:1]])
    h = np.diff(knots)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        slope = np.diff(pos, axis=0) / h[:, None]
        curv = _periodic_spline_curvature(h, 6.0 * (slope - np.roll(slope, 1, axis=0))) / ell
        rate = (np.roll(curv, -1, axis=0) - curv) / h[:, None]
        sup_f, sup_df = (np.linalg.norm(a, axis=1).max() for a in (curv, rate))
    if not (math.isfinite(sup_f) and math.isfinite(sup_df)):
        raise ValueError("path too large: the spline's curvature or rate, "
                         "or their sup norms, are not finite")
    period = samples.period
    inner = knots[1:-1]

    # F = curv[k] + rate[k] (u - t_k) on piece k, alike in both paths to the bit
    def value(u):
        u = u % period
        k = np.searchsorted(inner, u, side="right")
        return curv[k] + rate[k] * (u - knots[k])[..., None]

    def derivative(u):
        return rate[np.searchsorted(inner, u % period, side="right")]

    knot_list, inner_list = knots.tolist(), inner.tolist()
    fmod, bisect_right = math.fmod, _bisect.bisect_right
    if samples.dim == 1:
        c, r = curv[:, 0].tolist(), rate[:, 0].tolist()

        def value_scalar(t):
            u = fmod(t, period)
            if u < 0.0:
                u += period
            u = u % period  # a negative t a hair below a multiple rounds up to period
            k = bisect_right(inner_list, u)
            return (c[k] + r[k] * (u - knot_list[k]),)
    else:
        pieces = list(zip(knot_list, curv.tolist(), rate.tolist()))

        def value_scalar(t):
            u = fmod(t, period)
            if u < 0.0:
                u += period
            u = u % period  # a negative t a hair below a multiple rounds up to period
            t_k, (c0, c1), (r0, r1) = pieces[bisect_right(inner_list, u)]
            s = u - t_k
            return (c0 + r0 * s, c1 + r1 * s)

    return PeriodicSignal(period, samples.dim, value, derivative, sup_f, sup_df,
                          scalar_value_fn=value_scalar,
                          breakpoints=knot_list[:-1]), gravity / ell


def read_path_csv(path, rod_length: float = 1.0) -> PathSamples:
    """Read carriage path samples from a CSV file with header ``t,f1[,f2]``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader, [])]
        if header not in (["t", "f1"], ["t", "f1", "f2"]):
            raise ValueError(f"expected header 't,f1' or 't,f1,f2', got {header}")
        rows = [[float(v) for v in row] for row in reader if row]
    if not rows:
        raise InsufficientDataError(f"no data rows in {path}")
    data = np.asarray(rows, dtype=float)
    if data.shape[1] != len(header):
        raise ValueError("row width does not match header")
    return PathSamples(times=data[:, 0], positions=data[:, 1:],
                       rod_length=rod_length)

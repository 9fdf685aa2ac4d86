"""Bound sets for the rod equations and their numerical verification.

The non-falling region is trapped inside the intersection of a cylinder
``|x| <= a`` and a cone ``b|x| + |p| <= b``.  The boundary gauges are

    m(x)    = |x|^2/2 - a^2/2      (cylinder face, |x| = a)
    n(x, p) = b|x| + |p| - b       (cone face, away from the vertex x = 0)

and the set is a valid trap when no trajectory can touch its boundary from
the inside tangentially: at boundary points where the gauge's derivative
along the flow vanishes (gate points) the second derivative must be
positive, at all other points the crossing is transversal and either
direction is acceptable.  The cone vertex ``x = 0, |p| = b`` needs its own
exit condition.  Along the flow ``y' = (p, a)``, with the acceleration ``a``
and its rate ``a'`` from ``dynamics``, a gauge ``g(y)`` has

    g' = grad g . y',        g'' = y'^T (hess g) y' + grad g . (a, a'),

so ``m' = x.p``, ``m'' = |p|^2 + x.a`` and

    n'  = b (x.p)/|x| + (p.a)/|p|,
    n'' = b (|x|^2 |p|^2 - (x.p)^2)/|x|^3 + (|p|^2 |a|^2 - (p.a)^2)/|p|^3
          + b (x.a)/|x| + (p.a')/|p|.

The forcing enters only through its value ``f = lam F(t)`` and rate
``lam F'(t)``, at most ``sup|F|`` and ``sup|F'|`` in norm for every time and
``lam`` in ``[0, 1]``; the verifier reads nothing else of it.  The
cylinder's and the line cone's margins see only ``xh.f`` (``xh = x/|x|``),
so both are closed forms.  At a cylinder gate point (``x.p = 0``,
``|p| = rho``), in both dimensions,

    m'' = rho^2 (1 - a^2) + a sqrt(1 - a^2) (G a - sqrt(1 - a^2) xh.f),

least at ``rho = 0`` and ``xh.f = sup|F|``.  On the line's cone at
``|x| = r`` the least margin is ``c(r) = b^2 (1-r)/(1+r) + r G sqrt(1-r^2)
- sup|F| (1-r^2)``, enclosed on ``[0, a]`` by a fixed grid of ``r`` and
``|c''| <= 4 b^2 + 3 a G/(1 - a^2)^(3/2) + 2 sup|F|``.  From the vertex
``x' = p`` and ``p' = -f``, so the gauge grows on both sides of it when
``b^2 > sup|F|``.

The rod is symmetric under rotation, so the planar cone is checked over the
disk of forcing values: ``x = (r, 0)`` and ``f = |f| (cos phi, sin phi)``
with ``|f| <= sup|F|`` stand for every time, scale and direction of ``x``,
and a reflection across ``x`` leaves ``phi`` in ``[0, pi]``.  At
``|p| = rho = b (1 - r)``, with ``c = cos s`` for the velocity angle ``s``
from ``x``, and ``f_par``, ``f_perp`` the forcing along ``x`` and across it,
the gate is

    g(s) = c (K + B c^2) - L sin s,      B = -r^3 rho^2 / (1 - r^2) < 0,
    K = b rho + r (G sqrt(1 - r^2) - rho^2) - f_par (1 - r^2),
    L = f_perp.

``w = c^2`` solves ``B^2 w^3 + 2 K B w^2 + (K^2 + L^2) w - L^2 = 0``; its
roots in ``[0, 1]`` give ``c = +-sqrt(w)``, and ``L sin s = c (K + B c^2)``
the sign of ``sin s``.  Where ``L = 0`` (no forcing, or f along ``x``) the
cubic is ``w (K + B w)^2``: ``c = 0`` and ``c^2 = -K/B``, each with either
sign of ``sin s``.  The gate does not involve the rate, which enters ``n''``
only as ``lam F'.((x.p) x - p)/|p|``: at a gate root the curvature is at
least its value at ``F' = 0`` less ``sup|F'| sqrt((1 - r^2)^2 c^2 + sin^2 s)``.
Cells of the disk, realized at a time, are spot-confirmed by short
two-sided integrations.  On the line, the plane's axis, ``s`` is 0 or
``pi``, ``f_par = sign(x) f`` and ``L = 0``: the margin ``sign(x p) n'`` is
``g(0) = K + B`` at ``(x, p)`` and ``(x, -p)`` alike, ``c(r)`` at its worst.
The closed-form constants (``compute_a`` and friends) supply starting
values of ``a`` and ``b`` that make the conditions hold.
"""
from __future__ import annotations

import copy
import json
import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dynamics import (ModelParams, acceleration_rate, make_field,
                       rod_acceleration, rod_terms)
from .errors import BoundVerificationError
from .forcing import PeriodicSignal
from .integrator import IntegratorConfig, integrate_field

__all__ = [
    "BoundSetSpec",
    "BoundSetCertificate",
    "compute_a",
    "compute_b_linear",
    "compute_b_planar",
    "exit_cone_check",
    "verify_bound_set",
    "degree_of_autonomous_field",
    "orbit_containment",
    "certificate_to_dict",
    "save_certificate_json",
]


@dataclass(frozen=True)
class BoundSetSpec:
    """Cylinder radius ``a``, cone slope ``b``, and dimension.

    Only shape validity is checked here; whether (a, b) actually bound the
    dynamics depends on G and F and is the job of ``verify_bound_set``.
    """

    a: float
    b: float
    dim: int

    def __post_init__(self):
        if not (0.0 < self.a < 1.0):
            raise ValueError(f"a must lie in (0,1), got {self.a}")
        if self.b <= 0.0:
            raise ValueError(f"b must be positive, got {self.b}")
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")


@dataclass
class BoundSetCertificate:
    """Outcome of one verification run, including the worst offenders."""

    spec: BoundSetSpec
    boundary_samples: int
    min_margin_gamma: float
    min_margin_delta: float
    corner_ok: bool
    verified: bool
    gate_tol: float
    thresholds: dict
    failures: list
    worst_gamma: list
    worst_delta: list
    gamma_gate_count: int
    delta_gate_count: int
    xtp_abs: np.ndarray
    xtp_bound: np.ndarray
    spot_checks: dict
    samples_per_face: int
    seed: int


# -- closed-form constants ---------------------------------------------


def compute_a(G: float, F_norm: float, margin: float = 0.5) -> float:
    """Cylinder radius, the same on the line and in the plane.

    The threshold radius ``a* = F_norm / sqrt(G^2 + F_norm^2)`` is the root
    of ``G a - F_norm sqrt(1 - a^2)``, the sign of the cylinder gate's least
    curvature on the line and in the plane alike; any ``a`` above it keeps
    the cylinder face repelling.  Returns ``a* + margin*(1 - a*)``.
    """
    if G <= 0:
        raise ValueError(f"G must be positive, got {G}")
    if not (0.0 < margin < 1.0):
        raise ValueError(f"margin must lie in (0,1), got {margin}")
    if F_norm < 0:
        raise ValueError(f"F_norm must be nonnegative, got {F_norm}")
    # Scaled exactly, by a power of two, so that no square under- or
    # overflows: the larger of G and F_norm lies in [1/2, 1), and a* is the same.
    e = math.frexp(max(G, F_norm))[1]
    g, f = math.ldexp(G, -e), math.ldexp(F_norm, -e)
    a_star = f / math.sqrt(g * g + f * f)
    a = a_star + margin * (1.0 - a_star)
    if not a < 1.0:
        raise ValueError(f"sup|F| = {F_norm:g} is too large against gravity "
                         f"{G:g}: the cylinder radius rounds to 1")
    return a


def compute_b_linear(a: float, F_norm: float, margin: float = 0.5) -> float:
    """Cone slope for the one-dimensional problem.

    The threshold is ``b^2 = (1+a) F_norm / (1-a)``; returns the threshold
    inflated by ``1 + margin``.  For an unforced system any positive b
    works and the value of ``margin`` itself is returned as the floor.
    """
    if not (0.0 < a < 1.0):
        raise ValueError(f"a must lie in (0,1), got {a}")
    if margin <= 0:
        raise ValueError(f"margin must be positive, got {margin}")
    if F_norm == 0.0:
        return margin
    return math.sqrt((1.0 + a) * F_norm / (1.0 - a)) * (1.0 + margin)


# the planar slope search starts at or above _B_FLOOR, so that the unforced
# case is well posed, and gives up above _B_CAP
_B_FLOOR = 1.0
_B_CAP = 1e6


def compute_b_planar(a: float, F: PeriodicSignal, G: float,
                     cfg: IntegratorConfig | None = None, *,
                     samples_per_face: int = 16, seed: int = 0):
    """Cone slope for the planar problem and its certificate, ``(b, cert)``.

    Starts from ``b0 = 1.05 * max((16 |F|^2/(1-a)^3)^(1/4), sqrt(|F|))``,
    raised to ``_B_FLOOR``, and doubles ``b`` until ``verify_bound_set``
    passes.  Raises ``BoundVerificationError`` if no passing value is found
    below ``_B_CAP``.
    """
    if not (0.0 < a < 1.0):
        raise ValueError(f"a must lie in (0,1), got {a}")
    Fn = F.sup_norm
    b0 = 1.05 * max((16.0 * Fn * Fn / (1.0 - a) ** 3) ** 0.25, math.sqrt(Fn))
    b = max(b0, _B_FLOOR)
    last_cert = None
    while b <= _B_CAP:
        spec = BoundSetSpec(a=a, b=b, dim=F.dim)
        cert = verify_bound_set(spec, G, F, cfg,
                                samples_per_face=samples_per_face, seed=seed)
        if cert.verified:
            return b, cert
        last_cert = cert
        b *= 2.0
    if last_cert is None:
        raise BoundVerificationError(
            f"the cap {_B_CAP:g} is below the analytic starting slope {b:g}; "
            "nothing was tried", certificate=None)
    raise BoundVerificationError(
        f"no verifiable cone slope below the cap {_B_CAP:g} "
        f"(last margins: gamma {last_cert.min_margin_gamma:.3e}, "
        f"delta {last_cert.min_margin_delta:.3e})",
        certificate=last_cert)


# -- pointwise boundary checks -----------------------------------------


def _cylinder_quantities(ts, xs, ps, F, G):
    """Gate ``m' = x.p`` and curvature ``m'' = |p|^2 + x.a`` on ``|x| = a``,
    the latter as ``base + lam * slope``: ``(xp, base, slope)``."""
    s = rod_terms(xs, ps, F.eval(ts), G)
    # x.a = R |x|^2 + lam (|x|^2 - 1) x.F
    return s.xp, s.p2 + s.R * s.r2, s.xf * s.r2 - s.xf


def _cone_quantities(xs, ps, f, df, G, b):
    """Gate ``n'`` and curvature ``n''`` of the cone gauge at rows of ``x``,
    ``p``, the forcing ``f = lam F`` and its rate ``df = lam F'``, as the
    module docstring writes them."""
    s = rod_terms(xs, ps, f, G)
    acc = rod_acceleration(s, 1.0)
    rate = acceleration_rate(s, acc, df, 1.0, G)
    nx, pn = np.sqrt(s.r2), np.sqrt(s.p2)
    pa = np.sum(s.P * acc, axis=1)
    # the two determinant terms are nonnegative; clipping drops rounding
    curv = (b * np.clip(s.r2 * s.p2 - s.xp * s.xp, 0.0, None) / nx ** 3
            + np.clip(s.p2 * np.sum(acc * acc, axis=1) - pa * pa, 0.0, None) / pn ** 3
            + (b / nx) * np.sum(s.X * acc, axis=1)
            + np.sum(s.P * rate, axis=1) / pn)
    return (b / nx) * s.xp + pa / pn, curv


def _cone_radial(r, G, b):
    """The cone gate's lam-free terms at ``|x| = r``: ``K0``, ``B``, ``1 - r^2``."""
    rho = b * (1.0 - r)
    one_minus = 1.0 - r * r
    return (b * rho + r * (G * np.sqrt(one_minus) - rho * rho),
            -r ** 3 * rho * rho / one_minus, one_minus)


def _cone_gate_roots(K, B, L):
    """Cell index and velocity angle ``s`` in ``[0, 2 pi)`` from ``x`` of
    every cone gate root.

    Solves the module docstring's cubic for all cells at once; both signs
    of ``sin s`` are kept where ``L`` vanishes to rounding.  Unlike a sign
    scan, this finds tangent roots and pairs closer than any scan step.
    Roots are ordered by cell, then by angle, at most six per cell.
    """
    # Scaled exactly, by a power of two, so that no square overflows: the
    # largest of |K|, |B|, |L| lies in [1/2, 1) and the roots are the same.
    _, e = np.frexp(np.maximum(np.maximum(np.abs(K), np.abs(B)), np.abs(L)))
    K, B, L = np.ldexp(K, -e), np.ldexp(B, -e), np.ldexp(L, -e)
    # Where |B| < 1e-8 max(|K|, |L|) the monic form loses every digit, and
    # its coefficients overflow as |K/B| grows.  There the cubic increases on
    # [0, 1], and its one root there lies within 1e-7 of L^2 / (K^2 + L^2),
    # where the Newton steps below start.
    flat = np.abs(B) < 1e-8 * np.maximum(np.abs(K), np.abs(L))
    Bm = np.where(flat, 1.0, B)
    # Cardano, adding the discriminant's root with the sign of d1 so that
    # nothing cancels; C = 0 only at a triple root, where d0 = 0 as well
    a2, a1, a0 = 2.0 * K / Bm, (K * K + L * L) / (Bm * Bm), -(L * L) / (Bm * Bm)
    d0 = a2 * a2 - 3.0 * a1
    d1 = (2.0 * a2 * a2 - 9.0 * a1) * a2 + 27.0 * a0
    root_disc = np.sqrt(d1 * d1 - 4.0 * d0 ** 3 + 0j)
    q = 0.5 * (d1 + np.where(d1 * root_disc.real >= 0.0, root_disc, -root_disc))
    C = q[:, None] ** (1.0 / 3.0) * np.exp(2j * math.pi / 3.0 * np.arange(3))
    w = -(a2[:, None] + C
          + np.divide(d0[:, None], C, out=np.zeros_like(C), where=C != 0)) / 3.0
    # the roots carry rounding of the order of the largest coefficient;
    # the Newton steps below restore full accuracy
    slack = 1e-6 * (1.0 + np.abs(a2))[:, None]
    real = ((np.abs(w.imag) <= slack) & (w.real >= -slack)
            & (w.real <= 1.0 + slack))
    w[flat, 0] = L[flat] ** 2 / (K[flat] ** 2 + L[flat] ** 2)
    real[flat] = [True, False, False]
    cells, k = np.nonzero(real)
    w = np.repeat(np.clip(w.real[cells, k], 0.0, 1.0), 4)
    cells = np.repeat(cells, 4)
    c = np.tile([1.0, 1.0, -1.0, -1.0], cells.size // 4) * np.sqrt(w)
    sn = np.tile([1.0, -1.0, 1.0, -1.0], cells.size // 4) * np.sqrt(1.0 - w)
    Kc, Bc, Lc = K[cells], B[cells], L[cells]
    scale = np.abs(Kc) + np.abs(Bc) + np.abs(Lc)
    keep = ((c * (Kc + Bc * w) * Lc * sn >= 0.0)
            | (np.abs(Lc) <= 1e-6 * scale))
    cells, Kc, Bc, Lc, scale = (v[keep] for v in (cells, Kc, Bc, Lc, scale))
    s = np.arctan2(sn[keep], c[keep])
    # Newton on g, at most 6 steps; a candidate stops once g is at rounding
    # level (at a tangent root g' vanishes too and a step would lead away)
    # and never moves again, so the loop ends once all of them have stopped
    for n_steps in range(7):
        c, sn = np.cos(s), np.sin(s)
        g = c * (Kc + Bc * c * c) - Lc * sn
        moving = np.abs(g) > 1e-15 * scale
        if n_steps == 6 or not moving.any():
            break
        dg = -sn * (Kc + 3.0 * Bc * c * c) - Lc * c
        step = np.divide(g, dg, out=np.zeros_like(g), where=(dg != 0.0) & moving)
        s = s - np.clip(step, -0.5, 0.5)
    root = np.abs(g) <= 1e-12 * scale
    cells, s = cells[root], np.mod(s[root], 2.0 * math.pi)
    order = np.lexsort((s, cells))
    cells, s = cells[order], s[order]
    # drop candidates that polished onto the same root: near a double root
    # |g| grows quadratically, so within sqrt(1e-12) it is one root
    first = np.diff(cells, prepend=-1) != 0
    s_first = s[np.maximum.accumulate(np.where(first, np.arange(cells.size), 0))]
    gap = np.diff(s, prepend=-math.inf)
    dup = ~first & ((gap < 1e-6) | (s_first + 2.0 * math.pi - s < 1e-6))
    return cells[~dup], s[~dup]


def exit_cone_check(p, F: PeriodicSignal) -> bool:
    """Exit condition at the cone vertex ``(x, p) = (0, p)`` with ``|p| = b``:
    the vertex repels when ``b^2 > sup|F|`` (the module docstring)."""
    b = float(np.linalg.norm(p))
    return b * b > F.sup_norm


def degree_of_autonomous_field(G: float, dim: int) -> int:
    """Sign of the Jacobian determinant of the unforced field at the origin.

    This is the topological degree of the unforced field on any small
    neighborhood of the upright rest point.  The Jacobian there is
    ``[[0, I], [G I, 0]]``, whose determinant ``(-G)^dim`` gives -1 on a
    line and +1 in the plane.
    """
    if G <= 0:
        raise ValueError(f"G must be positive, got {G}")
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    return -1 if dim == 1 else 1


# -- verification driver ------------------------------------------------

# radii of the grid on [0, a] that encloses the line cone's closed form
_CONE_RADII = 2 ** 7 + 1
# planar cone cells confirmed by two-sided integration in each verification
_SPOT_CHECKS = 50
# worst samples a margin pool reports
_WORST_KEPT = 10
# dense-output times at which orbit_containment reads a trajectory
_CONTAINMENT_SAMPLES = 2048


class _MarginPool:
    """Running minimum and the ``_WORST_KEPT`` worst samples of a margin."""

    def __init__(self):
        self.min = math.inf
        self.count = 0
        self.worst: list[dict] = []

    def add(self, margins, kind: str, **rows):
        """Pool the samples' margins, each reported with its entry of every
        row array (a number or a vector per sample); the worst tie by index."""
        m = np.asarray(margins, dtype=float)
        if m.size == 0:
            return
        self.count += m.size
        self.min = min(self.min, float(np.min(m)))
        k = min(_WORST_KEPT, m.size)
        kept = np.flatnonzero(m <= m[np.argpartition(m, k - 1)[k - 1]])
        for i in kept[np.argsort(m[kept], kind="stable")[:k]]:
            entry = {"margin": float(m[i])}
            entry.update((name, np.asarray(v[i], dtype=float).tolist())
                         for name, v in rows.items())
            entry["kind"] = kind
            self.worst.append(entry)
        self.worst.sort(key=lambda e: e["margin"])
        del self.worst[_WORST_KEPT:]

    def clamp(self, value: float, entry: dict):
        self.min = min(self.min, value)
        self.worst.append(dict(entry, margin=float(value)))
        self.worst.sort(key=lambda e: e["margin"])
        del self.worst[_WORST_KEPT:]


def _unit(angles) -> np.ndarray:
    """Unit vectors ``(cos, sin)`` of the angles, one row each."""
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _thresholds(spec: BoundSetSpec, G: float, F: PeriodicSignal) -> dict:
    a, b = spec.a, spec.b
    Fn = F.sup_norm
    # the cylinder gate's least curvature is a sqrt(1 - a^2) a_margin
    a_margin = G * a - Fn * math.sqrt(1.0 - a * a)
    if spec.dim == 1:
        b2_req = (1.0 + a) * Fn / (1.0 - a)
        ok = a_margin > 0.0 and b * b > b2_req
        return {"a_margin": a_margin, "b_squared": b * b,
                "b_squared_required": b2_req, "invariants_ok": ok}
    b4_req = 16.0 * Fn * Fn / (1.0 - a) ** 3
    ok = a_margin > 0.0 and b ** 4 > b4_req and b * b > Fn
    return {"a_margin": a_margin, "b_fourth": b ** 4,
            "b_fourth_required": b4_req, "b_squared": b * b,
            "vertex_required": Fn, "invariants_ok": ok}


# what one verification checks, and how densely; read by every face
_Sampling = namedtuple("_Sampling", "spec G F cfg t_grid spf gate_tol rng")


@dataclass
class _Margins:
    """What the faces find: margins, failures, spot-check candidates."""

    gamma: _MarginPool = field(default_factory=_MarginPool)
    delta: _MarginPool = field(default_factory=_MarginPool)
    spot_pool: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    xtp_abs: list = field(default_factory=list)
    xtp_bound: list = field(default_factory=list)

    def closed_form(self, pool: _MarginPool, value: float, face: str, r: float):
        """A face's least margin in closed form, reached at radius ``r``."""
        pool.min = min(pool.min, float(value))
        if not value > 0.0:
            self.failures.append({"face": face, "r": float(r), "margin": float(value),
                                  "reason": "closed-form margin is not positive"})


def _cylinder_face(ctx: _Sampling, rec: _Margins) -> None:
    """Cylinder ``|x| = a``: the gate curvature's least value in closed form,
    witnessed at each grid time by ``p = 0``, ``x`` along ``F``, ``lam = 1``."""
    a, F, G, t_grid = ctx.spec.a, ctx.F, ctx.G, ctx.t_grid
    f = F.eval(t_grid)
    f[np.linalg.norm(f, axis=1) == 0.0, 0] = 1.0  # F = 0: along the first axis
    x, p = a * (f / np.linalg.norm(f, axis=1, keepdims=True)), np.zeros_like(f)
    _, base, slope = _cylinder_quantities(t_grid, x, p, F, G)
    rec.gamma.add(base + slope, "cylinder-gate", t=t_grid,
                  lam=np.ones_like(t_grid), x=x, p=p)
    rec.closed_form(rec.gamma, a * math.sqrt(1.0 - a * a)
                    * _thresholds(ctx.spec, G, F)["a_margin"], "cylinder", a)


def _cone_face_line(ctx: _Sampling, rec: _Margins) -> None:
    """Cone on the line: the least margin ``c(r)``, enclosed on ``[0, a]``.
    The witness at each grid time is the grid's worst radius (``x != 0``)
    on the side of ``F``, ``lam = 1``: ``K0 + B - |F(t)| (1 - r^2)``."""
    a, b, F, G, t_grid = ctx.spec.a, ctx.spec.b, ctx.F, ctx.G, ctx.t_grid
    r = np.linspace(0.0, a, _CONE_RADII)
    K0, B, one_minus = _cone_radial(r, G, b)
    c = K0 + B - F.sup_norm * one_minus
    j = int(np.argmin(c))
    # with |c''| <= M, c stays within M h^2 / 8 below its chords
    M = 4.0 * b * b + 3.0 * a * G / (1.0 - a * a) ** 1.5 + 2.0 * F.sup_norm
    rec.closed_form(rec.delta, c[j] - M * (r[1] - r[0]) ** 2 / 8.0, "cone", r[j])
    k, f = max(j, 1), F.eval(t_grid)
    x = r[k] * np.where(f < 0.0, -1.0, 1.0)
    rec.delta.add(K0[k] + B[k] - np.abs(f[:, 0]) * one_minus[k], "cone-sign",
                  t=t_grid, lam=np.ones_like(t_grid), x=x,
                  p=np.full_like(x, b * (1.0 - r[k])))


def _cone_face_plane(ctx: _Sampling, rec: _Margins) -> None:
    """Planar cone over the disk of forcing values: the curvature, with
    ``F'`` at its worst, at the gate roots of every cell ``(r, |f|, phi)``
    of a ``(2 spf + 1)^3`` grid.

    Spot candidates are cells realized at the grid time ``t*`` where ``|F|``
    peaks, at the scale ``lam = |f| / |F(t*)|`` (if at most 1) and with
    ``x`` at the angle ``arg F(t*) - phi``: 20 gate roots, and 40 points at
    one of 32 velocity angles.
    """
    a, b, F, G, rng = ctx.spec.a, ctx.spec.b, ctx.F, ctx.G, ctx.rng
    n = 2 * ctx.spf + 1
    r, fn, phi = (v.ravel() for v in np.meshgrid(
        np.linspace(0.02 * a, a, n), np.linspace(0.0, F.sup_norm, n),
        np.linspace(0.0, math.pi, n), indexing="ij"))
    K0, B, one_minus = _cone_radial(r, G, b)
    f = fn[:, None] * _unit(phi)
    cells, s = _cone_gate_roots(K0 - f[:, 0] * one_minus, B, f[:, 1])
    x = r[cells, None] * [1.0, 0.0]
    p = (b * (1.0 - r[cells]))[:, None] * _unit(s)
    _, curv = _cone_quantities(x, p, f[cells], np.zeros_like(p), G, b)
    curv -= F.sup_norm_derivative * np.hypot(one_minus[cells] * np.cos(s),
                                             np.sin(s))
    rec.delta.add(curv, "cone-gate", x=x, p=p, f=f[cells])
    rec.xtp_abs.append(np.abs(x[:, 0] * p[:, 0]))
    rec.xtp_bound.append(4.0 * F.sup_norm * r[cells] / b)

    f_grid = F.eval(ctx.t_grid)
    k = int(np.argmax(np.linalg.norm(f_grid, axis=1)))
    t_star, f_star = float(ctx.t_grid[k]), f_grid[k]
    df_star = F.eval_derivative(ctx.t_grid[k:k + 1])[0]
    peak = float(np.linalg.norm(f_star))
    lam = fn / peak if peak > 0.0 else np.zeros_like(fn)
    realizable = np.flatnonzero(lam <= 1.0)
    picks = np.flatnonzero(lam[cells] <= 1.0)
    picks = rng.choice(picks, size=min(20, picks.size), replace=False)
    flat = rng.choice(32 * realizable.size, size=min(40, 32 * realizable.size),
                      replace=False)
    rows = np.concatenate([cells[picks], realizable[flat // 32]])
    angle = np.concatenate([s[picks], (flat % 32) * (2.0 * math.pi / 32)])
    theta = math.atan2(f_star[1], f_star[0]) - phi[rows]
    xs = r[rows, None] * _unit(theta)
    ps = (b * (1.0 - r[rows]))[:, None] * _unit(theta + angle)
    gate, curv = _cone_quantities(xs, ps, lam[rows, None] * f_star,
                                  lam[rows, None] * df_star, G, b)
    for j, i in enumerate(rows):
        exact = j < picks.size
        rec.spot_pool.append({
            "face": "delta", "t": t_star, "lam": float(lam[i]), "x": xs[j],
            "p": ps[j], "gate": 0.0 if exact else float(gate[j]),
            "curv": float(curv[j]), "exact_gate": exact})


def _vertex_face(ctx: _Sampling, rec: _Margins) -> bool:
    """Vertex circle ``x = 0, |p| = b``: the analytic exit condition, one
    verdict for every point of it."""
    p = np.zeros(ctx.spec.dim)
    p[0] = ctx.spec.b
    ok = exit_cone_check(p, ctx.F)
    if not ok:
        rec.failures.append({"face": "vertex", "p": p.tolist(),
                             "margin": ctx.spec.b ** 2 - ctx.F.sup_norm,
                             "reason": "analytic vertex exit condition fails"})
    return ok


def _spot_checks(ctx: _Sampling, rec: _Margins) -> dict:
    """Confirm up to ``_SPOT_CHECKS`` candidates by two-sided integration."""
    result = {"attempted": 0, "passed": 0, "failures": []}
    dt = 1e-3 * ctx.F.period
    # A transversal sample predicts a monotone crossing only while the
    # linear term of the gauge dominates over the window: |g| dt must beat
    # the quadratic term |c| dt^2 / 2 with room to spare, else the sample
    # is effectively tangent and belongs to the gate machinery instead.
    # The same argument needs a smooth gauge along the arc, and the cone
    # gauge b|x| + |p| - b has a kink at x = 0: a cone-face arc, which moves
    # x by about |p| dt each way, must keep |x| > 2 |p| dt to stay clear of it.
    usable = [s for s in rec.spot_pool
              if math.hypot(*s["x"]) > 2.0 * math.hypot(*s["p"]) * dt
              and (s["exact_gate"]
                   or (abs(s["gate"]) >= 10.0 * ctx.gate_tol
                       and abs(s["gate"]) >= 8.0 * abs(s["curv"]) * dt))]
    ctx.rng.shuffle(usable)
    # Every arc starts at the same time and spans the same window, mostly in
    # one step: the arcs share their reads of F, F's own floats, one per time.
    F = copy.copy(ctx.F)
    F.eval_scalar = lru_cache(maxsize=None)(ctx.F.eval_scalar)
    for sample in usable[:_SPOT_CHECKS]:
        result["attempted"] += 1
        if _spot_check(sample, ctx.spec, ctx.G, F, ctx.cfg, dt):
            result["passed"] += 1
            continue
        entry = {"face": sample["face"], "t": sample["t"], "lam": sample["lam"],
                 "x": [float(v) for v in sample["x"]],
                 "p": [float(v) for v in sample["p"]],
                 "reason": "two-sided integration contradicts prediction"}
        result["failures"].append(entry)
        rec.failures.append(entry)
        # an observed wrong-side crossing is a genuine margin defect
        defect = {k: entry[k] for k in ("t", "lam", "x", "p")}
        rec.delta.clamp(-abs(sample["gate"]) - 1e-15, dict(defect, kind="spot-check"))
    return result


def verify_bound_set(spec: BoundSetSpec, G: float, F: PeriodicSignal,
                     cfg: IntegratorConfig | None = None,
                     samples_per_face: int = 16, *,
                     seed: int = 0) -> BoundSetCertificate:
    """Check the boundary faces and certify the trap conditions.

    The forcing is read through ``sup|F|`` and ``sup|F'|``; the grid of
    ``2 samples_per_face`` times only places witnesses.  One function per
    face writes to a shared margin record:

    * cylinder ``|x| = a``: gate points (``p`` orthogonal to ``x``) need
      positive curvature, least in the module docstring's closed form;
    * cone ``b|x| + |p| = b``: on the line, the enclosed minimum of ``c(r)``
      must be positive; in the plane, the curvature at the roots of the
      module docstring's cubic over the disk of forcing values;
    * vertex ``x = 0, |p| = b``: ``exit_cone_check``;
    * spot checks: planar cone cells drawn by ``seed``, confirmed by
      two-sided integrations.  The line draws nothing.

    A closed-form minimum is the face's ``min_margin``, named in
    ``failures`` with its radius when not positive; its worst samples are
    boundary points at the grid times, each with its own margin.  Raises
    ``ValueError`` for a set whose cone curvature is no float.
    """
    if F.dim != spec.dim:
        raise ValueError(f"forcing dim {F.dim} does not match spec dim {spec.dim}")
    spf = int(samples_per_face)
    if spf < 1:
        raise ValueError(f"samples_per_face must be positive, got {samples_per_face}")
    # the cone's curvature multiplies |p|^2 <= b^2 by the squared
    # acceleration, up to about G + sup|F| + b^2 / (1 - a^2): no float beyond
    a, b = spec.a, spec.b
    if not b * (G + F.sup_norm + b * b / (1.0 - a * a)) < 1e150:
        raise ValueError(f"the cone's curvature overflows at G = {G:.6g}, "
                         f"sup|F| = {F.sup_norm:.6g}, b = {b:.6g}")
    ctx = _Sampling(
        spec=spec, G=G, F=F, cfg=cfg or IntegratorConfig(),
        t_grid=(np.arange(2 * spf) + 0.5) * (F.period / (2 * spf)), spf=spf,
        gate_tol=1e-6 * spec.b * (1.0 + F.sup_norm + G),
        rng=np.random.default_rng(seed))
    rec = _Margins()
    _cylinder_face(ctx, rec)
    (_cone_face_line if spec.dim == 1 else _cone_face_plane)(ctx, rec)
    corner_ok = _vertex_face(ctx, rec)
    spot_result = _spot_checks(ctx, rec)

    gamma, delta = rec.gamma, rec.delta
    failures = rec.failures + [e for e in gamma.worst + delta.worst
                               if e["margin"] <= 0.0]
    return BoundSetCertificate(
        spec=spec, boundary_samples=gamma.count + delta.count,
        min_margin_gamma=gamma.min, min_margin_delta=delta.min,
        corner_ok=corner_ok,
        verified=(gamma.min > 0.0) and (delta.min > 0.0) and corner_ok,
        gate_tol=ctx.gate_tol, thresholds=_thresholds(spec, G, F),
        failures=failures[:40], worst_gamma=gamma.worst,
        worst_delta=delta.worst, gamma_gate_count=gamma.count,
        delta_gate_count=delta.count,
        xtp_abs=np.concatenate([np.zeros(0), *rec.xtp_abs]),
        xtp_bound=np.concatenate([np.zeros(0), *rec.xtp_bound]),
        spot_checks=spot_result, samples_per_face=samples_per_face, seed=seed)


def _spot_check(sample: dict, spec: BoundSetSpec, G: float, F: PeriodicSignal,
                cfg: IntegratorConfig, dt: float) -> bool:
    """Confirm one boundary sample by integrating a short arc both ways."""
    a, b = spec.a, spec.b
    params = ModelParams(G=G, lam=sample["lam"], dim=spec.dim)
    fun = make_field(params, F)
    y0 = np.concatenate([sample["x"], sample["p"]])
    t0 = sample["t"]
    d = spec.dim

    def gauge(y):
        xn = math.hypot(*y[:d])
        pn = math.hypot(*y[d:])
        if sample["face"] == "gamma":
            return 0.5 * xn * xn - 0.5 * a * a
        return b * xn + pn - b

    fwd = integrate_field(fun, t0, t0 + dt, y0, cfg, d,
                          breaks=F.breaks_between(t0, t0 + dt))
    e_plus = gauge(fwd.states[-1])

    def fun_rev(s, y):
        return [-v for v in fun(t0 - s, y)]

    # the backward arc runs s = t0 - t: its breaks are the knots before t0
    bwd = integrate_field(fun_rev, 0.0, dt, y0, cfg, d,
                          breaks=[t0 - s for s in F.breaks_between(t0 - dt, t0)[::-1]])
    e_minus = gauge(bwd.states[-1])

    if sample["exact_gate"] and sample["curv"] > 0:
        return e_plus > 0.0 and e_minus > 0.0
    if sample["gate"] > 0:
        return e_plus > 0.0 and e_minus < 0.0
    return e_plus < 0.0 and e_minus > 0.0


def orbit_containment(traj, spec: BoundSetSpec) -> dict:
    """Check that a trajectory stays inside the cylinder-cone trap.

    The trajectory is read at ``_CONTAINMENT_SAMPLES`` evenly spaced times
    of its dense output.
    """
    ts = np.linspace(traj.t0, traj.t_end, _CONTAINMENT_SAMPLES)
    ys = traj.dense_array(ts)
    d = spec.dim
    xn = np.linalg.norm(ys[:, :d], axis=1)
    pn = np.linalg.norm(ys[:, d:], axis=1)
    cone = spec.b * xn + pn - spec.b
    max_xn = float(np.max(xn))
    max_cone = float(np.max(cone))
    return {
        "a": spec.a,
        "b": spec.b,
        "max_x_norm": max_xn,
        "max_cone_gauge": max_cone,
        "contained": bool(max_xn <= spec.a + 1e-12 and max_cone <= 1e-12),
    }


def certificate_to_dict(cert: BoundSetCertificate) -> dict:
    xtp = None
    if cert.xtp_abs.size:
        slack = cert.xtp_bound - cert.xtp_abs
        i = int(np.argmin(slack))
        xtp = {"samples": int(cert.xtp_abs.size),
               "worst_abs": float(cert.xtp_abs[i]),
               "worst_bound": float(cert.xtp_bound[i]),
               "min_slack": float(slack[i])}
    return {
        "spec": {"a": cert.spec.a, "b": cert.spec.b, "dim": cert.spec.dim},
        "boundary_samples": cert.boundary_samples,
        "min_margin_gamma": cert.min_margin_gamma,
        "min_margin_delta": cert.min_margin_delta,
        "corner_ok": cert.corner_ok,
        "verified": cert.verified,
        "gate_tol": cert.gate_tol,
        "thresholds": cert.thresholds,
        "gate_samples": {"gamma": cert.gamma_gate_count,
                         "delta": cert.delta_gate_count},
        "worst_samples": {"gamma": cert.worst_gamma, "delta": cert.worst_delta},
        "velocity_alignment": xtp,
        "spot_checks": cert.spot_checks,
        "failures": cert.failures,
        "samples_per_face": cert.samples_per_face,
        "seed": cert.seed,
    }


def save_certificate_json(cert: BoundSetCertificate, path) -> None:
    with open(path, "w") as fh:
        json.dump(certificate_to_dict(cert), fh, indent=2)
        fh.write("\n")

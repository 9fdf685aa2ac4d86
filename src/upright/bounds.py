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

``verify_bound_set`` checks these conditions by quasi-uniform sampling of
both faces over time, face coordinates and every forcing scale ``lam`` in
``[0, 1]`` (a grid of scales on the planar cone), and spot-confirms a random
subset of predictions by short forward/backward integrations.  Gate points
are located exactly.  On the planar cone face at ``x = r (cos theta, sin theta)``,
``|p| = rho = b (1 - r)``, ``c = cos s`` for the velocity angle ``s`` from ``x``,
and ``f_par``, ``f_perp`` the forcing along ``x`` and across it, the gate is

    g(s) = c (K + B c^2) - L sin s,      B = -r^3 rho^2 / (1 - r^2) < 0,
    K = b rho + r (G sqrt(1 - r^2) - rho^2) - lam f_par (1 - r^2),
    L = lam f_perp.

``w = c^2`` solves ``B^2 w^3 + 2 K B w^2 + (K^2 + L^2) w - L^2 = 0``; its
roots in ``[0, 1]`` give ``c = +-sqrt(w)``, and ``L sin s = c (K + B c^2)``
the sign of ``sin s``.  Where ``L = 0`` (``lam = 0``, or F along ``x``) the
cubic is ``w (K + B w)^2``: ``c = 0`` and ``c^2 = -K/B``, each with either
sign of ``sin s``.  The closed-form constants (``compute_a`` and
friends) supply starting values of ``a`` and ``b`` that make the
conditions hold.
"""
from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (ModelParams, PhaseState, RodTerms, acceleration_rate,
                       make_field, rod_acceleration, rod_terms)
from .errors import BoundVerificationError
from .forcing import PeriodicSignal
from .integrator import IntegratorConfig, evolve, integrate_field

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
    lambda_cover: dict
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

    The threshold radius is ``a* = F_norm / sqrt(G^2 + F_norm^2)``; any
    ``a`` above it keeps the cylinder face repelling.  In the plane the
    condition ``G a sqrt(1+a) = (1+a) F_norm sqrt(1-a)`` factors as
    ``sqrt(1+a) (G a - F_norm sqrt(1-a^2))``, so its root is the same
    ``a*``.  Returns ``a* + margin*(1 - a*)``.
    """
    if G <= 0:
        raise ValueError(f"G must be positive, got {G}")
    if not (0.0 < margin < 1.0):
        raise ValueError(f"margin must lie in (0,1), got {margin}")
    if F_norm < 0:
        raise ValueError(f"F_norm must be nonnegative, got {F_norm}")
    a_star = F_norm / math.sqrt(G * G + F_norm * F_norm)
    return a_star + margin * (1.0 - a_star)


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


def _cone_gate(s: RodTerms, b):
    """Cone gate (b/|x|) x.p + p.(R x + Phi)/|p| as ``g0 + lam * g1``."""
    pn = np.sqrt(s.p2)
    g0 = ((b / np.sqrt(s.r2)) * s.xp
          + np.sum(s.P * (s.R[:, None] * s.X), axis=1) / pn)
    g1 = np.sum(s.P * (s.xf[:, None] * s.X - s.F), axis=1) / pn
    return g0, g1


def _cone_quantities(ts, xs, ps, lam, F, G, b):
    """Gate ``n'`` and curvature ``n''`` of the cone gauge at the samples,
    as the module docstring writes them."""
    s = rod_terms(xs, ps, F.eval(ts), G)
    acc = rod_acceleration(s, lam)
    rate = acceleration_rate(s, acc, F.eval_derivative(ts), lam, G)
    nx, pn = np.sqrt(s.r2), np.sqrt(s.p2)
    pa = np.sum(s.P * acc, axis=1)
    # the two determinant terms are nonnegative; clipping drops rounding
    curv = (b * np.clip(s.r2 * s.p2 - s.xp * s.xp, 0.0, None) / nx ** 3
            + np.clip(s.p2 * np.sum(acc * acc, axis=1) - pa * pa, 0.0, None) / pn ** 3
            + (b / nx) * np.sum(s.X * acc, axis=1)
            + np.sum(s.P * rate, axis=1) / pn)
    return (b / nx) * s.xp + pa / pn, curv


def _cone_gate_terms(theta, r, f, G, b):
    """Cone gate ``K0, K1, B, f_perp``: ``K = K0 - lam K1``, ``L = lam f_perp``."""
    f = np.atleast_2d(f)
    cos, sin = np.cos(theta), np.sin(theta)
    rho = b * (1.0 - r)
    one_minus = 1.0 - r * r
    K0 = b * rho + r * (G * np.sqrt(one_minus) - rho * rho)
    K1 = (f[:, 0] * cos + f[:, 1] * sin) * one_minus
    B = -r ** 3 * rho * rho / one_minus
    return K0, K1, B, f[:, 1] * cos - f[:, 0] * sin


def _cone_gate_roots(theta, K, B, L):
    """Cell index and angle ``psi`` in ``[0, 2 pi)`` of every cone gate root.

    Solves the module docstring's cubic for all cells at once; both signs
    of ``sin s`` are kept where ``L`` vanishes to rounding.  Unlike a sign
    scan, this finds tangent roots and pairs closer than any scan step.
    Roots are ordered by cell, then by angle, at most six per cell.
    """
    # Cardano, adding the discriminant's root with the sign of d1 so that
    # nothing cancels; C = 0 only at a triple root, where d0 = 0 as well
    a2, a1, a0 = 2.0 * K / B, (K * K + L * L) / (B * B), -(L * L) / (B * B)
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
    # Newton on g; a candidate stops once g is at rounding level, for at a
    # tangent root g' vanishes too and a step would only lead away
    for _ in range(6):
        c, sn = np.cos(s), np.sin(s)
        g = c * (Kc + Bc * c * c) - Lc * sn
        dg = -sn * (Kc + 3.0 * Bc * c * c) - Lc * c
        step = np.divide(g, dg, out=np.zeros_like(g),
                         where=(dg != 0.0) & (np.abs(g) > 1e-15 * scale))
        s = s - np.clip(step, -0.5, 0.5)
    c = np.cos(s)
    root = np.abs(c * (Kc + Bc * c * c) - Lc * np.sin(s)) <= 1e-12 * scale
    cells = cells[root]
    psi = np.mod(theta[cells] + s[root], 2.0 * math.pi)
    order = np.lexsort((psi, cells))
    cells, psi = cells[order], psi[order]
    # drop candidates that polished onto the same root: near a double root
    # |g| grows quadratically, so within sqrt(1e-12) it is one root
    first = np.diff(cells, prepend=-1) != 0
    psi_first = psi[np.maximum.accumulate(np.where(first, np.arange(cells.size), 0))]
    gap = np.diff(psi, prepend=-math.inf)
    dup = ~first & ((gap < 1e-6) | (psi_first + 2.0 * math.pi - psi < 1e-6))
    return cells[~dup], psi[~dup]


def exit_cone_check(t: float, p, F: PeriodicSignal, G: float | None = None,
                    cfg: IntegratorConfig | None = None) -> bool:
    """Exit condition at the cone vertex ``(x, p) = (0, p)`` with ``|p| = b``.

    Analytically the vertex repels when ``b^2 > |F|_sup``.  When ``G`` is
    supplied the verdict is additionally confirmed by a short integration
    from the vertex at the full forcing scale ``lam = 1``, requiring the
    cone gauge to be positive at the arc's end, ``1e-3`` periods later.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    b = float(np.linalg.norm(p))
    analytic = b * b > F.sup_norm
    if not analytic or G is None:
        return analytic
    d = p.shape[0]
    traj = evolve(t, t + 1e-3 * F.period, PhaseState(np.zeros(d), p),
                  ModelParams(G, 1.0, d), F, cfg)
    x, p_end = np.split(traj.states[-1], 2)
    return b * float(np.linalg.norm(x)) + float(np.linalg.norm(p_end)) - b > 0.0


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

# forcing scales at which the planar cone face is checked, ascending; the
# last is the full forcing lam = 1
_LAMBDA_GRID = np.linspace(0.0, 1.0, 21)
# samples confirmed by two-sided integration in each verification
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

    def add(self, margins, lams, ts, xs, ps, kind: str):
        """Pool the margin of sample ``i`` at scale ``lams[i]``, or at the one
        scale ``lams``; the worst tie by sample index."""
        m = np.asarray(margins, dtype=float)
        if m.size == 0:
            return
        lams = np.broadcast_to(lams, m.shape)
        self.count += m.size
        self.min = min(self.min, float(np.min(m)))
        k = min(_WORST_KEPT, m.size)
        kept = np.flatnonzero(m <= m[np.argpartition(m, k - 1)[k - 1]])
        for i in kept[np.argsort(m[kept], kind="stable")[:k]]:
            self.worst.append({
                "margin": float(m[i]), "t": float(ts[i]), "lam": float(lams[i]),
                "x": [float(v) for v in xs[i]], "p": [float(v) for v in ps[i]],
                "kind": kind})
        self.worst.sort(key=lambda e: e["margin"])
        del self.worst[_WORST_KEPT:]

    def clamp(self, value: float, entry: dict):
        self.min = min(self.min, value)
        self.worst.append(dict(entry, margin=float(value)))
        self.worst.sort(key=lambda e: e["margin"])
        del self.worst[_WORST_KEPT:]


def _lowest_end(base, slope, sign=1.0):
    """Per sample, the lower of ``sign (base + lam slope)`` at ``lam = 0, 1``
    and that ``lam`` (0 on a tie; a NaN at 1 comes with one at 0, kept)."""
    m0, m1 = sign * (base + 0.0 * slope), sign * (base + slope)
    at_one = m1 < m0
    return np.where(at_one, m1, m0), np.where(at_one, 1.0, 0.0)


def _unit(angles) -> np.ndarray:
    """Unit vectors ``(cos, sin)`` of the angles, one row each."""
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _jittered(lo: float, hi: float, n: int, rng) -> np.ndarray:
    u = (np.arange(n) + rng.uniform(0.15, 0.85, size=n)) / n
    return lo + (hi - lo) * u


def _thresholds(spec: BoundSetSpec, G: float, F: PeriodicSignal) -> dict:
    a, b = spec.a, spec.b
    Fn = F.sup_norm
    if spec.dim == 1:
        a_margin = G * a - Fn * math.sqrt(1.0 - a * a)
        b2_req = (1.0 + a) * Fn / (1.0 - a)
        ok = a_margin > 0.0 and b * b > b2_req
        return {"a_margin": a_margin, "b_squared": b * b,
                "b_squared_required": b2_req, "invariants_ok": ok}
    a_margin = G * a * math.sqrt(1.0 + a) - (1.0 + a) * Fn * math.sqrt(1.0 - a)
    b4_req = 16.0 * Fn * Fn / (1.0 - a) ** 3
    ok = a_margin > 0.0 and b ** 4 > b4_req and b * b > Fn
    return {"a_margin": a_margin, "b_fourth": b ** 4,
            "b_fourth_required": b4_req, "b_squared": b * b,
            "vertex_required": Fn, "invariants_ok": ok}


# what one verification checks, and how densely; read by every face
_Sampling = namedtuple("_Sampling", "spec G F cfg t_grid spf gate_tol rng")


@dataclass
class _Margins:
    """What the faces find: margins, vertex samples, spot-check candidates."""

    gamma: _MarginPool = field(default_factory=_MarginPool)
    delta: _MarginPool = field(default_factory=_MarginPool)
    vertex_samples: int = 0
    spot_pool: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    xtp_abs: list = field(default_factory=list)
    xtp_bound: list = field(default_factory=list)

    def candidate(self, face, t, lam, x, p, gate, curv, exact_gate):
        """Offer one sample to the two-sided integration spot checks."""
        self.spot_pool.append({
            "face": face, "t": float(t), "lam": float(lam),
            "x": np.array(x, dtype=float), "p": np.array(p, dtype=float),
            "gate": float(gate), "curv": float(curv), "exact_gate": exact_gate})


def _cylinder_samples(ctx: _Sampling):
    """Up to 40 transversal spot candidates ``(t, x, p)`` of ``|x| = a``,
    rows of the full product grid, and groups of exact gate samples."""
    a, b, spf, rng, t_grid = ctx.spec.a, ctx.spec.b, ctx.spf, ctx.rng, ctx.t_grid
    n_t = t_grid.size
    p_max = b * (1.0 - a)
    if ctx.spec.dim == 1:
        # product grid over (t, side of x, p)
        grids = (t_grid, np.asarray([a, -a]), _jittered(-p_max, p_max, 2 * spf, rng))
        # on the line the gate is p = 0, on either side
        gates = [(t_grid, np.full((n_t, 1), x), np.zeros((n_t, 1)))
                 for x in (a, -a)]
    else:
        theta_grid = _jittered(0.0, 2.0 * math.pi, spf, rng)
        rho_grid = np.concatenate([_jittered(0.0, p_max, max(4, spf // 2), rng),
                                   [p_max]])
        grids = (t_grid, theta_grid, rho_grid, _jittered(0.0, 2.0 * math.pi, spf, rng))
        # exact gates: p = 0, and p orthogonal to x (the curvature is even in p)
        tg, thg, rhg = (v.ravel() for v in np.meshgrid(
            t_grid, theta_grid, np.concatenate([[0.0], rho_grid]), indexing="ij"))
        radial = _unit(thg)
        gates = [(tg, a * radial, rhg[:, None] * (radial[:, ::-1] * [-1.0, 1.0]))]
    # the candidates, drawn by flat index into the C-ordered product grid
    shape = [g.size for g in grids]
    n = math.prod(shape)
    rows = np.unravel_index(rng.choice(n, size=min(40, n), replace=False), shape)
    t, *rest = (g[i] for g, i in zip(grids, rows))
    if ctx.spec.dim == 1:
        return (t, rest[0][:, None], rest[1][:, None]), gates
    th, rh, psi = rest
    return (t, a * _unit(th), rh[:, None] * _unit(psi)), gates


def _cylinder_face(ctx: _Sampling, rec: _Margins) -> None:
    """Cylinder ``|x| = a``: the curvature at every gate sample and scale;
    transversal samples pass either way and only offer spot checks."""
    F, G, rng = ctx.F, ctx.G, ctx.rng
    (ts, xs, ps), gates = _cylinder_samples(ctx)
    full = []
    for t, x, p in gates:
        _, g_base, g_slope = _cylinder_quantities(t, x, p, F, G)
        full.append(g_base + g_slope)
        rec.gamma.add(*_lowest_end(g_base, g_slope), t, x, p, "cylinder-gate")

    lam = 1.0
    xp, base, slope = _cylinder_quantities(ts, xs, ps, F, G)
    for j in range(ts.size):
        rec.candidate("gamma", ts[j], lam, xs[j], ps[j], xp[j],
                      base[j] + lam * slope[j], False)
    (t, x, p), curv = gates[0], full[0]
    if ctx.spec.dim == 1:
        picks = range(0, t.size, max(1, t.size // 8))
    else:
        picks = rng.choice(t.size, size=min(10, t.size), replace=False)
    for i in picks:
        rec.candidate("gamma", t[i], lam, x[i], p[i], 0.0, curv[i], True)


def _cone_face_line(ctx: _Sampling, rec: _Margins) -> None:
    """Cone on the line: the signed gate on the four branch lines.

    A branch is crossed outward where ``x p > 0`` and inward where
    ``x p < 0``, so the gate times ``sign(x p)`` is the margin.
    """
    a, b, F, G = ctx.spec.a, ctx.spec.b, ctx.F, ctx.G
    xi = np.concatenate([_jittered(a * 1e-3, a, 2 * ctx.spf, ctx.rng), [a]])
    n_t = ctx.t_grid.size
    tq = np.repeat(ctx.t_grid, xi.size)
    fq = F.eval(tq)
    branches = []
    for sx, sp in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
        xq = np.tile((sx * xi)[:, None], (n_t, 1))
        pq = np.tile((sp * b * (1.0 - xi))[:, None], (n_t, 1))
        g0, g1 = _cone_gate(rod_terms(xq, pq, fq, G), b)
        rec.delta.add(*_lowest_end(g0, g1, sx * sp), tq, xq, pq, "cone-sign")
        branches.append((xq, pq, g0, g1))

    lam = 1.0
    xq, pq, g0, g1 = branches[0]
    sel = ctx.rng.choice(tq.size, size=min(30, tq.size), replace=False)
    _, curv = _cone_quantities(tq[sel], xq[sel], pq[sel], lam, F, G, b)
    for i, c in zip(sel, curv):
        rec.candidate("delta", tq[i], lam, xq[i], pq[i], g0[i] + lam * g1[i],
                      c, False)


def _cone_face_plane(ctx: _Sampling, rec: _Margins) -> None:
    """Planar cone: the curvature at the gate roots of every cell and scale.

    ``F`` is read once per cell ``(t, theta, r)``; each ``lam`` shifts the
    cubic's ``K`` and scales its ``L``.
    """
    a, b, F, G, rng = ctx.spec.a, ctx.spec.b, ctx.F, ctx.G, ctx.rng
    theta_grid = _jittered(0.0, 2.0 * math.pi, ctx.spf, rng)
    r_grid = np.concatenate([_jittered(a * 0.02, a, max(4, ctx.spf // 2), rng),
                             [a]])
    tc, thc, rc = (v.ravel() for v in np.meshgrid(ctx.t_grid, theta_grid, r_grid,
                                                  indexing="ij"))
    xc = rc[:, None] * _unit(thc)
    pnorm = b * (1.0 - rc)
    K0, K1, B, f_perp = _cone_gate_terms(thc, rc, F.eval(tc), G, b)
    for lam in _LAMBDA_GRID:
        cells, psi = _cone_gate_roots(thc, K0 - lam * K1, B, lam * f_perp)
        p_root = pnorm[cells, None] * _unit(psi)
        _, curv = _cone_quantities(tc[cells], xc[cells], p_root, lam, F, G, b)
        rec.delta.add(curv, lam, tc[cells], xc[cells], p_root, "cone-gate")
        rec.xtp_abs.append(np.abs(np.sum(xc[cells] * p_root, axis=1)))
        rec.xtp_bound.append(4.0 * F.sup_norm * rc[cells] / b)

    # spot-check candidates at the largest scale, whose roots the loop leaves
    for i in rng.choice(cells.size, size=min(20, cells.size), replace=False):
        rec.candidate("delta", tc[cells[i]], lam, xc[cells[i]], p_root[i],
                      0.0, curv[i], True)
    # transversal candidates on 32 velocity angles per cell
    sel = rng.choice(tc.size * 32, size=min(40, tc.size * 32), replace=False)
    rows = sel // 32
    psis = (sel % 32) * (2.0 * math.pi / 32)
    p_sel = pnorm[rows, None] * _unit(psis)
    gate, curv_sel = _cone_quantities(tc[rows], xc[rows], p_sel, lam, F, G, b)
    for j, i in enumerate(rows):
        rec.candidate("delta", tc[i], lam, xc[i], p_sel[j], gate[j],
                      curv_sel[j], False)


def _vertex_face(ctx: _Sampling, rec: _Margins) -> bool:
    """Vertex circle ``x = 0, |p| = b``: the exit condition at every sample."""
    b = ctx.spec.b
    if ctx.spec.dim == 1:
        vertex_ps = [np.asarray([b]), np.asarray([-b])]
    else:
        psis = _jittered(0.0, 2.0 * math.pi, ctx.spf, ctx.rng)
        vertex_ps = [b * np.asarray([math.cos(s), math.sin(s)]) for s in psis]
    samples = [(float(t), p) for t in ctx.t_grid for p in vertex_ps]
    rec.vertex_samples = len(samples)

    def failure(t, p, reason):
        return {"face": "vertex", "t": t, "p": [float(v) for v in p],
                "reason": reason}

    # the analytic exit condition b^2 > sup|F| is one verdict for every sample
    ok = exit_cone_check(samples[0][0], vertex_ps[0], ctx.F)
    if not ok:
        rec.failures.extend(failure(t, p, "analytic vertex exit condition fails")
                            for t, p in samples)
    # confirm a few vertex samples by integration
    for i in ctx.rng.choice(len(samples), size=min(5, len(samples)),
                            replace=False):
        t, p = samples[int(i)]
        if ok and not exit_cone_check(t, p, ctx.F, G=ctx.G, cfg=ctx.cfg):
            ok = False
            rec.failures.append(failure(t, p, "vertex integration failed to exit"))
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
              if (s["face"] == "gamma"
                  or np.linalg.norm(s["x"]) > 2.0 * np.linalg.norm(s["p"]) * dt)
              and (s["exact_gate"]
                   or (abs(s["gate"]) >= 10.0 * ctx.gate_tol
                       and abs(s["gate"]) >= 8.0 * abs(s["curv"]) * dt))]
    ctx.rng.shuffle(usable)
    for sample in usable[:_SPOT_CHECKS]:
        result["attempted"] += 1
        if _spot_check(sample, ctx.spec, ctx.G, ctx.F, ctx.cfg, dt):
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
        pool = rec.gamma if sample["face"] == "gamma" else rec.delta
        pool.clamp(-abs(sample["gate"]) - 1e-15, dict(defect, kind="spot-check"))
    return result


def verify_bound_set(spec: BoundSetSpec, G: float, F: PeriodicSignal,
                     cfg: IntegratorConfig | None = None,
                     samples_per_face: int = 16, *,
                     seed: int = 0) -> BoundSetCertificate:
    """Sample the boundary faces and certify the trap conditions.

    One function per face writes to a shared margin record, in a fixed
    order so that the seed fixes every sample:

    * cylinder ``|x| = a``: gate points (``p`` orthogonal to ``x``) need
      positive curvature; the other points cross transversally and pass
      either way, so they are drawn only as spot-check candidates;
    * cone ``b|x| + |p| = b``: on the line, every sample of the four branch
      lines must cross in its prescribed direction (sign(x p)); in the
      plane, the gate points are the roots of the module docstring's cubic
      and need positive curvature;
    * vertex ``x = 0, |p| = b``: ``exit_cone_check``;
    * spot checks: a random subset confirmed by two-sided integrations.

    The cylinder curvature and the line's cone gate, ``base + lam * slope``,
    are monotone in ``lam`` as computed, for rounding is: the lower of their
    ends ``lam = 0, 1`` is their least value on all of ``[0, 1]``, bit for
    bit, and each sample is pooled once with it.  The planar cone's gate
    points move with ``lam`` and are pooled per scale of ``_LAMBDA_GRID``.
    """
    if F.dim != spec.dim:
        raise ValueError(f"forcing dim {F.dim} does not match spec dim {spec.dim}")
    rng = np.random.default_rng(seed)
    spf = int(samples_per_face)
    if spf < 1:
        raise ValueError(f"samples_per_face must be positive, got {samples_per_face}")
    ctx = _Sampling(
        spec=spec, G=G, F=F, cfg=cfg or IntegratorConfig(),
        t_grid=_jittered(0.0, F.period, 2 * spf, rng), spf=spf,
        gate_tol=1e-6 * spec.b * (1.0 + F.sup_norm + G), rng=rng)
    rec = _Margins()
    _cylinder_face(ctx, rec)
    (_cone_face_line if spec.dim == 1 else _cone_face_plane)(ctx, rec)
    corner_ok = _vertex_face(ctx, rec)
    spot_result = _spot_checks(ctx, rec)

    gamma, delta = rec.gamma, rec.delta
    failures = rec.failures + [e for e in gamma.worst + delta.worst
                               if e["margin"] <= 0.0]
    return BoundSetCertificate(
        spec=spec, lambda_cover={"cylinder": "interval", "cone": "interval"
                                 if spec.dim == 1 else _LAMBDA_GRID.tolist()},
        boundary_samples=gamma.count + delta.count + rec.vertex_samples,
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
        xn = float(np.linalg.norm(y[:d]))
        pn = float(np.linalg.norm(y[d:]))
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
        "lambda": cert.lambda_cover,
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

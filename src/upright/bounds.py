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
exit condition.

``verify_bound_set`` checks these conditions by quasi-uniform sampling of
both faces over time, face coordinates, and the forcing scale ``lam``, and
spot-confirms a random subset of predictions by short forward/backward
integrations.  Gate points are located exactly.  On the planar cone face
at ``x = r (cos theta, sin theta)``, ``|p| = rho = b (1 - r)``, ``c = cos s``
for the velocity angle ``s`` from ``x``, and ``f_par``, ``f_perp`` the
forcing along ``x`` and across it, the gate is

    g(s) = c (K + B c^2) - L sin s,      B = -r^3 rho^2 / (1 - r^2) < 0,
    K = b rho + r (G sqrt(1 - r^2) - rho^2) - lam f_par (1 - r^2),
    L = lam f_perp.

``w = c^2`` solves ``B^2 w^3 + 2 K B w^2 + (K^2 + L^2) w - L^2 = 0``; its
roots in ``[0, 1]`` give ``c = +-sqrt(w)``, and ``L sin s = c (K + B c^2)``
the sign of ``sin s``.  Where ``L = 0`` (``lam = 0``, or F along ``x``) the
cubic is ``w (K + B w)^2``: ``c = 0`` and ``c^2 = -K/B``, each with either
sign of ``sin s``.  The closed-form constants (``compute_a_linear`` and
friends) supply starting values of ``a`` and ``b`` that make the
conditions hold.
"""
from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .dynamics import ModelParams, make_field
from .errors import BoundVerificationError
from .forcing import PeriodicSignal
from .integrator import IntegratorConfig, integrate_field

__all__ = [
    "BoundSetSpec",
    "BoundSetCertificate",
    "compute_a_linear",
    "compute_b_linear",
    "compute_a_planar",
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
    lambda_grid: np.ndarray
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


def compute_a_linear(G: float, F_norm: float, margin: float = 0.5) -> float:
    """Cylinder radius for the one-dimensional problem.

    The threshold radius is ``a* = F_norm / sqrt(G^2 + F_norm^2)``; any
    ``a`` above it keeps the cylinder face repelling.  Returns
    ``a* + margin*(1 - a*)``.
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


def compute_a_planar(G: float, F_norm: float, margin: float = 0.5) -> float:
    """Cylinder radius for the planar problem.

    The threshold ``a*`` is the smallest root in (0,1) of
    ``G a sqrt(1+a) = (1+a) F_norm sqrt(1-a)``, located by scan plus
    bisection to 1e-12.  Returns ``a* + margin*(1 - a*)``.
    """
    if G <= 0:
        raise ValueError(f"G must be positive, got {G}")
    if not (0.0 < margin < 1.0):
        raise ValueError(f"margin must lie in (0,1), got {margin}")
    if F_norm < 0:
        raise ValueError(f"F_norm must be nonnegative, got {F_norm}")
    if F_norm == 0.0:
        return margin

    def h(a):
        return G * a * math.sqrt(1.0 + a) - (1.0 + a) * F_norm * math.sqrt(1.0 - a)

    # h(0) < 0 and h(1) > 0; find the first sign change on a fine scan.
    n = 4096
    prev_a, prev_h = 0.0, h(0.0)
    lo = hi = None
    for k in range(1, n + 1):
        ak = k / n
        hk = h(min(ak, 1.0 - 1e-15))
        if prev_h < 0.0 <= hk:
            lo, hi = prev_a, ak
            break
        prev_a, prev_h = ak, hk
    if lo is None:
        raise ValueError("no threshold radius found in (0,1)")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if h(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    a_star = 0.5 * (lo + hi)
    return a_star + margin * (1.0 - a_star)


# the planar slope search starts at or above _B_FLOOR, so that the unforced
# case is well posed, and gives up above _B_CAP
_B_FLOOR = 1.0
_B_CAP = 1e6


def compute_b_planar(a: float, F: PeriodicSignal, G: float,
                     lambda_grid=None, cfg: IntegratorConfig | None = None, *,
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
                                samples_per_face=samples_per_face,
                                lambda_grid=lambda_grid, seed=seed)
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


# boundary terms shared by the face kernels, one array entry per sample
_Terms = namedtuple("_Terms", "ts xs ps f r2 one_minus p2 xp xf R")


def _terms(ts, xs, ps, F, G) -> _Terms:
    """F, |x|^2, 1 - |x|^2, |p|^2, x.p, x.F and the field's R per sample."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    # a single sample may come as a 1d vector; rows keep the kernels generic
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ps = np.atleast_2d(np.asarray(ps, dtype=float))
    f = np.atleast_2d(F.eval(ts))
    r2 = np.sum(xs * xs, axis=1)
    one_minus = 1.0 - r2
    p2 = np.sum(ps * ps, axis=1)
    xp = np.sum(xs * ps, axis=1)
    xf = np.sum(xs * f, axis=1)
    R = G * np.sqrt(one_minus) - xp * xp / one_minus - p2
    return _Terms(ts, xs, ps, f, r2, one_minus, p2, xp, xf, R)


def _cylinder_quantities(ts, xs, ps, lam, F, G):
    """Gate value x.p and curvature |p|^2 + R|x|^2 + x.Phi on |x| = a."""
    xp, base, slope = _cylinder_terms(ts, xs, ps, F, G)
    return xp, base + lam * slope


def _cylinder_terms(ts, xs, ps, F, G):
    """Cylinder gate and curvature, the latter as ``base + lam * slope``."""
    s = _terms(ts, xs, ps, F, G)
    # x.Phi = -lam (1 - |x|^2) (x.F)
    return s.xp, s.p2 + s.R * s.r2, s.xf * s.r2 - s.xf


def _cone_gate(s: _Terms, b):
    """Cone gate (b/|x|) x.p + p.(R x + Phi)/|p| as ``g0 + lam * g1``."""
    pn = np.sqrt(s.p2)
    g0 = ((b / np.sqrt(s.r2)) * s.xp
          + np.sum(s.ps * (s.R[:, None] * s.xs), axis=1) / pn)
    g1 = np.sum(s.ps * (s.xf[:, None] * s.xs - s.f), axis=1) / pn
    return g0, g1


def _cone_branch_terms(ts, xs, ps, F, G, b):
    """Cone gate ``g0, g1`` (gate ``g0 + lam * g1``) at the samples."""
    return _cone_gate(_terms(ts, xs, ps, F, G), b)


def _cone_quantities(ts, xs, ps, lam, F, G, b, want_curvature=True):
    """Gate (Dn)v and, optionally, the full tangency curvature on n = 0.

    The curvature is the second derivative of the cone gauge along a
    trajectory, written out term by term: the two nonnegative determinant
    terms, the bR|x| + R|p| core, the R-derivative coupling through x.p,
    and the forcing terms through Phi and its t- and x-derivatives.
    """
    s = _terms(ts, xs, ps, F, G)
    g0, g1 = _cone_gate(s, b)
    gate = g0 + lam * g1
    if not want_curvature:
        return gate, None

    xs, ps, f, r2, one_minus, p2, xp, xf, R = s[1:]
    nx, pn = np.sqrt(r2), np.sqrt(p2)
    pf = np.sum(ps * f, axis=1)
    phi = lam * (xf[:, None] * xs - f)
    rxphi = R[:, None] * xs + phi
    p_rxphi = np.sum(ps * rxphi, axis=1)
    fd = np.atleast_2d(F.eval_derivative(s.ts))
    xfd = np.sum(xs * fd, axis=1)
    x_phi = np.sum(xs * phi, axis=1)
    p_phi = np.sum(ps * phi, axis=1)
    det1_sq = np.clip(r2 * p2 - xp * xp, 0.0, None)
    det2_sq = np.clip(p2 * np.sum(rxphi * rxphi, axis=1) - p_rxphi * p_rxphi,
                      0.0, None)
    dRdx_p = (-(G / np.sqrt(one_minus)) * xp
              - (2.0 * xp / one_minus) * p2
              - (2.0 * xp * xp / one_minus ** 2) * xp)
    dRdp_x = -2.0 * xp / one_minus
    dRdp_phi = -(2.0 * xp / one_minus) * x_phi - 2.0 * p_phi
    dphidt = lam * (xfd[:, None] * xs - fd)
    dphidx_p = lam * (xf[:, None] * ps + pf[:, None] * xs)
    p_dphi = np.sum(ps * (dphidt + dphidx_p), axis=1)
    curv = (b * det1_sq / nx ** 3
            + det2_sq / pn ** 3
            + b * R * nx + R * pn
            + (dRdx_p + R * dRdp_x) * xp / pn
            + (b / nx) * x_phi
            + p_dphi / pn
            + (xp / pn) * dRdp_phi)
    return gate, curv


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


def exit_cone_check(t: float, p, F: PeriodicSignal, lambda_grid,
                    G: float | None = None,
                    cfg: IntegratorConfig | None = None) -> bool:
    """Exit condition at the cone vertex ``(x, p) = (0, p)`` with ``|p| = b``.

    Analytically the vertex repels when ``b^2 > |F|_sup``.  When ``G`` is
    supplied the verdict is additionally confirmed by a short integration
    from the vertex at the largest forcing scale in ``lambda_grid``,
    requiring the cone gauge to become positive within ``1e-3`` periods.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    b = float(np.linalg.norm(p))
    analytic = b * b > F.sup_norm
    if not analytic or G is None:
        return analytic
    cfg = cfg or IntegratorConfig()
    lam = float(np.max(np.asarray(lambda_grid, dtype=float)))
    params = ModelParams(G=G, lam=lam, dim=p.shape[0])
    fun = make_field(params, F)
    y0 = np.concatenate([np.zeros_like(p), p])
    dt = 1e-3 * F.period
    traj = integrate_field(fun, t, t + dt, y0, cfg)
    end = traj.states[-1]
    d = p.shape[0]
    n_end = b * float(np.linalg.norm(end[:d])) + float(np.linalg.norm(end[d:])) - b
    return n_end > 0.0


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

# samples confirmed by two-sided integration in each verification
_SPOT_CHECKS = 50


class _MarginPool:
    """Running minimum and worst-k samples of a margin quantity."""

    def __init__(self, keep: int = 10):
        self.keep = keep
        self.min = math.inf
        self.count = 0
        self.worst: list[dict] = []

    def add(self, margins, ts, lam, xs, ps, kind: str):
        margins = np.atleast_1d(np.asarray(margins, dtype=float))
        if margins.size == 0:
            return
        self.count += margins.size
        self.min = min(self.min, float(np.min(margins)))
        for i in np.argsort(margins)[: self.keep]:
            self.worst.append({
                "margin": float(margins[i]),
                "t": float(ts[i]),
                "lam": float(lam),
                "x": [float(v) for v in xs[i]],
                "p": [float(v) for v in ps[i]],
                "kind": kind,
            })
        self.worst.sort(key=lambda e: e["margin"])
        del self.worst[self.keep:]

    def clamp(self, value: float, entry: dict):
        self.min = min(self.min, value)
        self.worst.append(dict(entry, margin=float(value)))
        self.worst.sort(key=lambda e: e["margin"])
        del self.worst[self.keep:]


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
_Sampling = namedtuple("_Sampling", "spec G F cfg lams t_grid spf gate_tol rng")


@dataclass
class _Margins:
    """What the faces find: margins, sample count, spot-check candidates."""

    gamma: _MarginPool = field(default_factory=_MarginPool)
    delta: _MarginPool = field(default_factory=_MarginPool)
    total: int = 0
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
    """Transversal samples ``(t, x, p)`` of ``|x| = a``, groups of exact gate
    samples, and the map that moves a near-gate ``p`` onto the gate."""
    a, b, spf, rng, t_grid = ctx.spec.a, ctx.spec.b, ctx.spf, ctx.rng, ctx.t_grid
    n_t = t_grid.size
    p_max = b * (1.0 - a)
    if ctx.spec.dim == 1:
        p_grid = _jittered(-p_max, p_max, 2 * spf, rng)
        tt = np.repeat(t_grid, 4 * spf)
        xs = np.tile(np.repeat(np.asarray([a, -a]), 2 * spf), n_t)[:, None]
        ps = np.tile(p_grid, 2 * n_t)[:, None]
        # on the line the gate is p = 0, on either side
        gates = [(t_grid, np.full((n_t, 1), x), np.zeros((n_t, 1)))
                 for x in (a, -a)]
        return (tt, xs, ps), gates, lambda x, p: np.zeros_like(x)

    theta_grid = _jittered(0.0, 2.0 * math.pi, spf, rng)
    rho_grid = np.concatenate([_jittered(0.0, p_max, max(4, spf // 2), rng),
                               [p_max]])
    psi_grid = _jittered(0.0, 2.0 * math.pi, spf, rng)
    # transversal sweep: full product grid
    tt, th, rh, psi = (v.ravel() for v in np.meshgrid(
        t_grid, theta_grid, rho_grid, psi_grid, indexing="ij"))
    xs, ps = a * _unit(th), rh[:, None] * _unit(psi)
    # exact gates: p orthogonal to x, in both senses, plus p = 0
    tg, thg, rhg = (np.tile(v.ravel(), 2) for v in np.meshgrid(
        t_grid, theta_grid, np.concatenate([[0.0], rho_grid]), indexing="ij"))
    rhg[rhg.size // 2:] *= -1.0
    radial = _unit(thg)
    gates = [(tg, a * radial, rhg[:, None] * (radial[:, ::-1] * [-1.0, 1.0]))]

    def drop_radial(x, p):
        return p - (np.sum(x * p, axis=1) / (a * a))[:, None] * x

    return (tt, xs, ps), gates, drop_radial


def _cylinder_face(ctx: _Sampling, rec: _Margins) -> None:
    """Cylinder ``|x| = a``: the curvature at every gate sample and scale."""
    F, G, lams, rng = ctx.F, ctx.G, ctx.lams, ctx.rng
    (tt, xs, ps), gates, onto_gate = _cylinder_samples(ctx)
    xp, base, slope = _cylinder_terms(tt, xs, ps, F, G)
    near = np.abs(xp) <= ctx.gate_tol
    groups = [(tt[near], xs[near], onto_gate(xs[near], ps[near]))] + gates
    groups = [(t, x, p) + _cylinder_terms(t, x, p, F, G)[1:]
              for t, x, p in groups]
    for lam in lams:
        for t, x, p, g_base, g_slope in groups:
            rec.gamma.add(g_base + lam * g_slope, t, lam, x, p, "cylinder-gate")
    rec.total += lams.size * (xp.size + sum(t.size for t, _, _ in gates))

    lam = lams[-1]
    for i in rng.choice(xp.size, size=min(40, xp.size), replace=False):
        rec.candidate("gamma", tt[i], lam, xs[i], ps[i], xp[i],
                      base[i] + lam * slope[i], False)
    t, x, p, g_base, g_slope = groups[1]
    if ctx.spec.dim == 1:
        picks = range(0, t.size, max(1, t.size // 8))
    else:
        picks = rng.choice(t.size, size=min(10, t.size), replace=False)
    for i in picks:
        rec.candidate("gamma", t[i], lam, x[i], p[i], 0.0,
                      g_base[i] + lam * g_slope[i], True)


def _cone_face_line(ctx: _Sampling, rec: _Margins) -> None:
    """Cone on the line: the signed gate on the four branch lines.

    A branch is crossed outward where ``x p > 0`` and inward where
    ``x p < 0``, so the gate times ``sign(x p)`` is the margin.
    """
    a, b, F, G, lams = ctx.spec.a, ctx.spec.b, ctx.F, ctx.G, ctx.lams
    xi = np.concatenate([_jittered(a * 1e-3, a, 2 * ctx.spf, ctx.rng), [a]])
    n_t = ctx.t_grid.size
    tq = np.repeat(ctx.t_grid, xi.size)
    branches = []
    for sx in (1.0, -1.0):
        for sp in (1.0, -1.0):
            xq = np.tile((sx * xi)[:, None], (n_t, 1))
            pq = np.tile((sp * b * (1.0 - xi))[:, None], (n_t, 1))
            branches.append((sx * sp, xq, pq)
                            + _cone_branch_terms(tq, xq, pq, F, G, b))
    for lam in lams:
        for sign, xq, pq, g0, g1 in branches:
            rec.delta.add(sign * (g0 + lam * g1), tq, lam, xq, pq, "cone-sign")
    rec.total += lams.size * len(branches) * tq.size

    lam = lams[-1]
    _, xq, pq, g0, g1 = branches[0]
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
    for lam in ctx.lams:
        cells, psi = _cone_gate_roots(thc, K0 - lam * K1, B, lam * f_perp)
        p_root = pnorm[cells, None] * _unit(psi)
        _, curv = _cone_quantities(tc[cells], xc[cells], p_root, lam, F, G, b)
        rec.delta.add(curv, tc[cells], lam, xc[cells], p_root, "cone-gate")
        rec.total += curv.size
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
    g_sel, curv_sel = _cone_quantities(tc[rows], xc[rows], p_sel, lam, F, G, b)
    for j, i in enumerate(rows):
        rec.candidate("delta", tc[i], lam, xc[i], p_sel[j], g_sel[j],
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
    rec.total += len(samples)

    def failure(t, p, reason):
        return {"face": "vertex", "t": t, "p": [float(v) for v in p],
                "reason": reason}

    # the analytic exit condition b^2 > sup|F| is one verdict for every sample
    ok = exit_cone_check(samples[0][0], vertex_ps[0], ctx.F, ctx.lams)
    if not ok:
        rec.failures.extend(failure(t, p, "analytic vertex exit condition fails")
                            for t, p in samples)
    # confirm a few vertex samples by integration
    for i in ctx.rng.choice(len(samples), size=min(5, len(samples)),
                            replace=False):
        t, p = samples[int(i)]
        if ok and not exit_cone_check(t, p, ctx.F, ctx.lams, G=ctx.G,
                                      cfg=ctx.cfg):
            ok = False
            rec.failures.append(failure(t, p, "vertex integration failed to exit"))
    return ok


def _spot_checks(ctx: _Sampling, rec: _Margins) -> dict:
    """Confirm up to ``_SPOT_CHECKS`` candidates by two-sided integration."""
    result = {"attempted": 0, "passed": 0, "failures": []}
    gate_tol = ctx.gate_tol
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
                   or (abs(s["gate"]) >= 10.0 * gate_tol
                       and abs(s["gate"]) >= 8.0 * abs(s["curv"] or 0.0) * dt))]
    ctx.rng.shuffle(usable)
    for sample in usable[:_SPOT_CHECKS]:
        result["attempted"] += 1
        if _spot_check(sample, ctx.spec, ctx.G, ctx.F, ctx.cfg, dt, gate_tol):
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
                     samples_per_face: int = 16,
                     lambda_grid=None, *, seed: int = 0) -> BoundSetCertificate:
    """Sample the boundary faces and certify the trap conditions.

    One function per face writes to a shared margin record, in a fixed
    order so that the seed fixes every sample:

    * cylinder ``|x| = a``: gate points (``p`` orthogonal to ``x``, and
      near-gate samples moved onto the gate) need positive curvature; the
      other samples cross transversally and pass either way;
    * cone ``b|x| + |p| = b``: on the line, every sample of the four branch
      lines must cross in its prescribed direction (sign(x p)); in the
      plane, the gate points are the roots of the module docstring's cubic
      and need positive curvature;
    * vertex ``x = 0, |p| = b``: ``exit_cone_check``;
    * spot checks: a random subset confirmed by two-sided integrations.

    Gates and curvatures are affine in the forcing scale ``lam``: each
    sample's terms free of ``lam`` (``F``, ``R``, ``x.p``, ``x.F``) are
    computed once, and each scale of ``lambda_grid`` (21 in [0, 1] by
    default) costs a multiply-add.  Only the planar cone gate points move
    with ``lam``.
    """
    if F.dim != spec.dim:
        raise ValueError(f"forcing dim {F.dim} does not match spec dim {spec.dim}")
    if lambda_grid is None:
        lambda_grid = np.linspace(0.0, 1.0, 21)
    rng = np.random.default_rng(seed)
    spf = int(samples_per_face)
    ctx = _Sampling(
        spec=spec, G=G, F=F, cfg=cfg or IntegratorConfig(),
        lams=np.sort(np.atleast_1d(np.asarray(lambda_grid, dtype=float))),
        t_grid=_jittered(0.0, F.period, 2 * spf, rng), spf=spf,
        gate_tol=1e-6 * spec.b * (1.0 + F.sup_norm + G), rng=rng)
    rec = _Margins()
    _cylinder_face(ctx, rec)
    (_cone_face_line if spec.dim == 1 else _cone_face_plane)(ctx, rec)
    corner_ok = _vertex_face(ctx, rec)
    spot_result = _spot_checks(ctx, rec)

    gamma, delta = rec.gamma, rec.delta
    min_gamma = gamma.min if gamma.count else math.inf
    min_delta = delta.min if delta.count else math.inf
    failures = rec.failures + [e for e in gamma.worst + delta.worst
                               if e["margin"] <= 0.0]
    return BoundSetCertificate(
        spec=spec, lambda_grid=ctx.lams, boundary_samples=rec.total,
        min_margin_gamma=min_gamma, min_margin_delta=min_delta,
        corner_ok=corner_ok,
        verified=(min_gamma > 0.0) and (min_delta > 0.0) and corner_ok,
        gate_tol=ctx.gate_tol, thresholds=_thresholds(spec, G, F),
        failures=failures[:40], worst_gamma=gamma.worst,
        worst_delta=delta.worst, gamma_gate_count=gamma.count,
        delta_gate_count=delta.count,
        xtp_abs=np.concatenate([np.zeros(0), *rec.xtp_abs]),
        xtp_bound=np.concatenate([np.zeros(0), *rec.xtp_bound]),
        spot_checks=spot_result, samples_per_face=samples_per_face, seed=seed)


def _spot_check(sample: dict, spec: BoundSetSpec, G: float, F: PeriodicSignal,
                cfg: IntegratorConfig, dt: float, gate_tol: float) -> bool:
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

    fwd = integrate_field(fun, t0, t0 + dt, y0, cfg)
    e_plus = gauge(fwd.states[-1])

    def fun_rev(s, y):
        return [-v for v in fun(t0 - s, y)]

    bwd = integrate_field(fun_rev, 0.0, dt, y0, cfg)
    e_minus = gauge(bwd.states[-1])

    if sample["exact_gate"] and sample["curv"] > 0:
        return e_plus > 0.0 and e_minus > 0.0
    if sample["gate"] > 0:
        return e_plus > 0.0 and e_minus < 0.0
    return e_plus < 0.0 and e_minus > 0.0


def orbit_containment(traj, spec: BoundSetSpec, n_samples: int = 2048) -> dict:
    """Check that a trajectory stays inside the cylinder-cone trap."""
    ts = np.linspace(traj.t0, traj.t_end, int(n_samples))
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
        "lambda_grid": [float(v) for v in cert.lambda_grid],
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

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


def compute_b_planar(a: float, F: PeriodicSignal, G: float,
                     lambda_grid=None, cfg: IntegratorConfig | None = None, *,
                     samples_per_face: int = 16, seed: int = 0,
                     floor: float = 1.0, b_cap: float = 1e6,
                     return_certificate: bool = False):
    """Cone slope for the planar problem, found by verified escalation.

    Starts from ``b0 = 1.05 * max((16 |F|^2/(1-a)^3)^(1/4), sqrt(|F|))``
    (with a positive floor so the unforced case is well posed) and doubles
    ``b`` until ``verify_bound_set`` passes.  Raises
    ``BoundVerificationError`` if no passing value is found below
    ``b_cap``.
    """
    Fn = F.sup_norm
    b0 = 1.05 * max((16.0 * Fn * Fn / (1.0 - a) ** 3) ** 0.25, math.sqrt(Fn))
    b = max(b0, floor)
    last_cert = None
    while b <= b_cap:
        spec = BoundSetSpec(a=a, b=b, dim=F.dim)
        cert = verify_bound_set(spec, G, F, cfg,
                                samples_per_face=samples_per_face,
                                lambda_grid=lambda_grid, seed=seed)
        if cert.verified:
            return (b, cert) if return_certificate else b
        last_cert = cert
        b *= 2.0
    if last_cert is None:
        raise BoundVerificationError(
            f"the cap {b_cap:g} is below the analytic starting slope {b:g}; "
            "nothing was tried", certificate=None)
    raise BoundVerificationError(
        f"no verifiable cone slope below the cap {b_cap:g} "
        f"(last margins: gamma {last_cert.min_margin_gamma:.3e}, "
        f"delta {last_cert.min_margin_delta:.3e})",
        certificate=last_cert)


# -- pointwise boundary checks -----------------------------------------


def _padded(arr):
    """View 1d samples as rows so every kernel is dimension-generic."""
    arr = np.asarray(arr, dtype=float)
    return arr[None, :] if arr.ndim == 1 else arr


def _cylinder_quantities(ts, xs, ps, lam, F, G):
    """Gate value x.p and curvature |p|^2 + R|x|^2 + x.Phi on |x| = a."""
    xp, base, slope = _cylinder_terms(ts, xs, ps, F, G)
    return xp, base + lam * slope


def _cylinder_terms(ts, xs, ps, F, G):
    """Cylinder gate and curvature, the latter as ``base + lam * slope``."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    xs = _padded(xs)
    ps = _padded(ps)
    f = np.atleast_2d(F.eval(ts))
    r2 = np.sum(xs * xs, axis=1)
    one_minus = 1.0 - r2
    p2 = np.sum(ps * ps, axis=1)
    xp = np.sum(xs * ps, axis=1)
    xf = np.sum(xs * f, axis=1)
    R = G * np.sqrt(one_minus) - xp * xp / one_minus - p2
    # x.Phi = -lam (1 - |x|^2) (x.F)
    return xp, p2 + R * r2, xf * r2 - xf


def _cone_quantities(ts, xs, ps, lam, F, G, b, want_curvature=True):
    """Gate (Dn)v and, optionally, the full tangency curvature on n = 0.

    The curvature is the second derivative of the cone gauge along a
    trajectory, written out term by term: the two nonnegative determinant
    terms, the bR|x| + R|p| core, the R-derivative coupling through x.p,
    and the forcing terms through Phi and its t- and x-derivatives.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    xs = _padded(xs)
    ps = _padded(ps)
    f = np.atleast_2d(F.eval(ts))
    r2 = np.sum(xs * xs, axis=1)
    nx = np.sqrt(r2)
    one_minus = 1.0 - r2
    p2 = np.sum(ps * ps, axis=1)
    pn = np.sqrt(p2)
    xp = np.sum(xs * ps, axis=1)
    xf = np.sum(xs * f, axis=1)
    pf = np.sum(ps * f, axis=1)
    R = G * np.sqrt(one_minus) - xp * xp / one_minus - p2
    phi = lam * (xf[:, None] * xs - f)
    rxphi = R[:, None] * xs + phi
    p_rxphi = np.sum(ps * rxphi, axis=1)
    gate = (b / nx) * xp + p_rxphi / pn
    if not want_curvature:
        return gate, None

    fd = np.atleast_2d(F.eval_derivative(ts))
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
    neighborhood of the upright rest point: -1 on a line, +1 in the plane.
    """
    if G <= 0:
        raise ValueError(f"G must be positive, got {G}")
    if dim == 1:
        J0 = np.asarray([[0.0, 1.0], [G, 0.0]])
    elif dim == 2:
        J0 = np.asarray([
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [G, 0.0, 0.0, 0.0],
            [0.0, G, 0.0, 0.0],
        ])
    else:
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    det = float(np.linalg.det(J0))
    return int(math.copysign(1.0, det))


# -- verification driver ------------------------------------------------


class _MarginPool:
    """Running minimum and worst-k samples of a margin quantity."""

    def __init__(self, keep: int = 10):
        self.keep = keep
        self.min = math.inf
        self.count = 0
        self.worst: list[dict] = []

    def add(self, margins, ts, lams, xs, ps, kind: str):
        margins = np.atleast_1d(np.asarray(margins, dtype=float))
        if margins.size == 0:
            return
        self.count += margins.size
        self.min = min(self.min, float(np.min(margins)))
        order = np.argsort(margins)[: self.keep]
        ts = np.atleast_1d(ts)
        xs = _padded(xs)
        ps = _padded(ps)
        for i in order:
            self.worst.append({
                "margin": float(margins[i]),
                "t": float(ts[i] if ts.size > 1 else ts[0]),
                "lam": float(lams),
                "x": [float(v) for v in xs[i]],
                "p": [float(v) for v in ps[i]],
                "kind": kind,
            })
        self.worst.sort(key=lambda e: e["margin"])
        del self.worst[self.keep:]

    def clamp(self, value: float, entry: dict | None = None):
        self.min = min(self.min, value)
        if entry is not None:
            self.worst.append(dict(entry, margin=float(value)))
            self.worst.sort(key=lambda e: e["margin"])
            del self.worst[self.keep:]


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


def verify_bound_set(spec: BoundSetSpec, G: float, F: PeriodicSignal,
                     cfg: IntegratorConfig | None = None,
                     samples_per_face: int = 16,
                     lambda_grid=None, *, seed: int = 0,
                     spot_checks: int = 50) -> BoundSetCertificate:
    """Sample both boundary faces and certify the trap conditions.

    For every sampled boundary point and forcing scale: points where the
    gauge derivative along the flow is within ``gate_tol`` of zero must
    have positive tangency curvature; all other points cross transversally
    and pass either way, except on the one-dimensional cone face where the
    four branch lines have a prescribed crossing direction
    (sign(x p) = crossing sign) that the verification enforces.  Gate
    points are located exactly: on the cylinder they are constructed with
    ``p`` orthogonal to ``x``, on the planar cone face they are the roots
    of the module docstring's cubic, with its own ``L = 0`` case.  The
    vertex circle ``x = 0, |p| = b`` is checked by ``exit_cone_check``, and
    a random subset of samples is confirmed by short two-sided integrations.
    """
    if F.dim != spec.dim:
        raise ValueError(f"forcing dim {F.dim} does not match spec dim {spec.dim}")
    cfg = cfg or IntegratorConfig()
    a, b, d = spec.a, spec.b, spec.dim
    if lambda_grid is None:
        # 21 equispaced scales; every lam-affine term then gets checked at
        # both endpoints 0 and 1 as well as in between.
        lambda_grid = np.linspace(0.0, 1.0, 21)
    lambda_grid = np.sort(np.atleast_1d(np.asarray(lambda_grid, dtype=float)))
    rng = np.random.default_rng(seed)
    T = F.period
    gate_tol = 1e-6 * b * (1.0 + F.sup_norm + G)
    spf = int(samples_per_face)
    n_t = 2 * spf
    n_theta = spf
    n_r = max(4, spf // 2)
    n_rho = max(4, spf // 2)
    n_psi = spf

    t_grid = _jittered(0.0, T, n_t, rng)
    gamma = _MarginPool()
    delta = _MarginPool()
    total = 0
    failures: list[dict] = []
    spot_pool: list[dict] = []
    xtp_abs_parts: list[np.ndarray] = []
    xtp_bound_parts: list[np.ndarray] = []

    def pool_candidate(face, t, lam, x, p, gate, curv, exact_gate):
        spot_pool.append({"face": face, "t": float(t), "lam": float(lam),
                          "x": np.atleast_1d(x).astype(float).copy(),
                          "p": np.atleast_1d(p).astype(float).copy(),
                          "gate": float(gate),
                          "curv": None if curv is None else float(curv),
                          "exact_gate": bool(exact_gate)})

    # ---------------- cylinder face |x| = a ----------------
    if d == 1:
        p_max = b * (1.0 - a)
        p_grid = _jittered(-p_max, p_max, 2 * spf, rng)
        xs_signs = np.asarray([a, -a])
        tt = np.repeat(t_grid, 2 * 2 * spf)
        xx = np.tile(np.repeat(xs_signs, 2 * spf), n_t)[:, None]
        pp = np.tile(p_grid, 2 * n_t)[:, None]
        for lam in lambda_grid:
            gate_vals, curv_vals = _cylinder_quantities(tt, xx, pp, lam, F, G)
            total += gate_vals.size
            near = np.abs(gate_vals) <= gate_tol
            if np.any(near):
                # polish near-gate samples onto the gate manifold p = 0
                tn = tt[near]
                xn = xx[near]
                _, curvn = _cylinder_quantities(tn, xn, np.zeros_like(xn), lam, F, G)
                gamma.add(curvn, tn, lam, xn, np.zeros_like(xn), "cylinder-gate")
            # exact gate samples at p = 0, both sides, all t
            _, curv0 = _cylinder_quantities(t_grid, np.full((n_t, 1), a),
                                            np.zeros((n_t, 1)), lam, F, G)
            _, curv1 = _cylinder_quantities(t_grid, np.full((n_t, 1), -a),
                                            np.zeros((n_t, 1)), lam, F, G)
            gamma.add(curv0, t_grid, lam, np.full((n_t, 1), a),
                      np.zeros((n_t, 1)), "cylinder-gate")
            gamma.add(curv1, t_grid, lam, np.full((n_t, 1), -a),
                      np.zeros((n_t, 1)), "cylinder-gate")
            total += 2 * n_t
            if lam == lambda_grid[-1]:
                sel = rng.choice(gate_vals.size, size=min(40, gate_vals.size),
                                 replace=False)
                for i in sel:
                    pool_candidate("gamma", tt[i], lam, xx[i], pp[i],
                                   gate_vals[i], curv_vals[i], False)
                for i in range(0, n_t, max(1, n_t // 8)):
                    c = float(curv0[i])
                    pool_candidate("gamma", t_grid[i], lam,
                                   np.asarray([a]), np.asarray([0.0]),
                                   0.0, c, True)
    else:
        theta_grid = _jittered(0.0, 2.0 * math.pi, n_theta, rng)
        rho_max = b * (1.0 - a)
        rho_grid = np.concatenate([_jittered(0.0, rho_max, n_rho, rng), [rho_max]])
        psi_grid = _jittered(0.0, 2.0 * math.pi, n_psi, rng)
        # transversal sweep: full product grid
        TT, TH, RH, PS = np.meshgrid(t_grid, theta_grid, rho_grid, psi_grid,
                                     indexing="ij")
        tt = TT.ravel()
        xs = a * np.stack([np.cos(TH.ravel()), np.sin(TH.ravel())], axis=1)
        ps = RH.ravel()[:, None] * np.stack([np.cos(PS.ravel()),
                                             np.sin(PS.ravel())], axis=1)
        # exact gate construction: p orthogonal to x (both senses), plus p = 0
        TTg, THg, RHg = np.meshgrid(t_grid, theta_grid,
                                    np.concatenate([[0.0], rho_grid]),
                                    indexing="ij")
        ttg = np.concatenate([TTg.ravel(), TTg.ravel()])
        cosg = np.cos(THg.ravel())
        sing = np.sin(THg.ravel())
        xg = a * np.stack([np.concatenate([cosg, cosg]),
                           np.concatenate([sing, sing])], axis=1)
        tang = np.stack([-sing, cosg], axis=1)
        pg = np.concatenate([RHg.ravel()[:, None] * tang,
                             -RHg.ravel()[:, None] * tang])
        # the gate x.p does not depend on lam and the curvature is affine in
        # it, so every sample's terms are computed once for the whole grid
        gate_vals, curv_base, curv_slope = _cylinder_terms(tt, xs, ps, F, G)
        near = np.abs(gate_vals) <= gate_tol
        xn = xs[near]
        # polish near-gate samples: drop the radial velocity component
        pn = ps[near] - (np.sum(xn * ps[near], axis=1) / (a * a))[:, None] * xn
        _, near_base, near_slope = _cylinder_terms(tt[near], xn, pn, F, G)
        _, gate_base, gate_slope = _cylinder_terms(ttg, xg, pg, F, G)
        for lam in lambda_grid:
            gamma.add(near_base + lam * near_slope, tt[near], lam, xn, pn,
                      "cylinder-gate")
            curvg = gate_base + lam * gate_slope
            gamma.add(curvg, ttg, lam, xg, pg, "cylinder-gate")
            total += gate_vals.size + curvg.size
            if lam == lambda_grid[-1]:
                sel = rng.choice(gate_vals.size, size=min(40, gate_vals.size),
                                 replace=False)
                for i in sel:
                    pool_candidate("gamma", tt[i], lam, xs[i], ps[i], gate_vals[i],
                                   curv_base[i] + lam * curv_slope[i], False)
                selg = rng.choice(curvg.size, size=min(10, curvg.size),
                                  replace=False)
                for i in selg:
                    pool_candidate("gamma", ttg[i], lam, xg[i], pg[i],
                                   0.0, curvg[i], True)

    # ---------------- cone face n = 0, 0 < |x| <= a ----------------
    if d == 1:
        xi = np.concatenate([_jittered(a * 1e-3, a, 2 * spf, rng), [a]])
        for lam in lambda_grid:
            for sx in (1.0, -1.0):
                for sp in (1.0, -1.0):
                    xq = (sx * xi)[:, None]
                    pq = (sp * b * (1.0 - xi))[:, None]
                    tq = np.repeat(t_grid, xi.size)
                    xq_full = np.tile(xq, (n_t, 1))
                    pq_full = np.tile(pq, (n_t, 1))
                    gate_vals, _ = _cone_quantities(tq, xq_full, pq_full, lam,
                                                    F, G, b, want_curvature=False)
                    total += gate_vals.size
                    # prescribed crossing direction on each branch line:
                    # outward where x p > 0, inward where x p < 0
                    margins = (sx * sp) * gate_vals
                    delta.add(margins, tq, lam, xq_full, pq_full, "cone-sign")
                    if lam == lambda_grid[-1] and sx == 1.0 and sp == 1.0:
                        sel = rng.choice(gate_vals.size,
                                         size=min(30, gate_vals.size),
                                         replace=False)
                        _, curv_sel = _cone_quantities(tq[sel], xq_full[sel],
                                                       pq_full[sel], lam, F, G, b)
                        for j, i in enumerate(sel):
                            pool_candidate("delta", tq[i], lam, xq_full[i],
                                           pq_full[i], gate_vals[i],
                                           curv_sel[j], False)
    else:
        theta_grid = _jittered(0.0, 2.0 * math.pi, n_theta, rng)
        r_grid = np.concatenate([_jittered(a * 0.02, a, n_r, rng), [a]])
        TT, TH, RR = np.meshgrid(t_grid, theta_grid, r_grid, indexing="ij")
        tc, thc, rc = TT.ravel(), TH.ravel(), RR.ravel()
        xc = rc[:, None] * np.stack([np.cos(thc), np.sin(thc)], axis=1)
        pnorm = b * (1.0 - rc)
        # F is read once per cell; every lam only shifts K and scales L
        K0, K1, B, f_perp = _cone_gate_terms(thc, rc, F.eval(tc), G, b)
        for lam in lambda_grid:
            cell_idx, psi_root = _cone_gate_roots(thc, K0 - lam * K1, B,
                                                  lam * f_perp)
            if cell_idx.size:
                p_root = pnorm[cell_idx, None] * np.stack(
                    [np.cos(psi_root), np.sin(psi_root)], axis=1)
                _, curv_root = _cone_quantities(tc[cell_idx], xc[cell_idx],
                                                p_root, lam, F, G, b)
                delta.add(curv_root, tc[cell_idx], lam, xc[cell_idx], p_root,
                          "cone-gate")
                total += curv_root.size
                xtp_abs_parts.append(np.abs(np.sum(xc[cell_idx] * p_root, axis=1)))
                xtp_bound_parts.append(4.0 * F.sup_norm * rc[cell_idx] / b)
                if lam == lambda_grid[-1]:
                    sel = rng.choice(cell_idx.size, size=min(20, cell_idx.size),
                                     replace=False)
                    for i in sel:
                        pool_candidate("delta", tc[cell_idx[i]], lam,
                                       xc[cell_idx[i]], p_root[i], 0.0,
                                       curv_root[i], True)
            if lam == lambda_grid[-1]:
                # transversal spot-check samples on 32 velocity angles per cell
                sel = rng.choice(tc.size * 32, size=min(40, tc.size * 32),
                                 replace=False)
                rows = sel // 32
                psis = (sel % 32) * (2.0 * math.pi / 32)
                p_sel = pnorm[rows, None] * np.stack([np.cos(psis), np.sin(psis)],
                                                     axis=1)
                g_sel, curv_sel = _cone_quantities(tc[rows], xc[rows], p_sel,
                                                   lam, F, G, b)
                for j in range(sel.size):
                    pool_candidate("delta", tc[rows[j]], lam, xc[rows[j]],
                                   p_sel[j], g_sel[j], curv_sel[j], False)

    # ---------------- vertex circle x = 0, |p| = b ----------------
    if d == 1:
        vertex_ps = [np.asarray([b]), np.asarray([-b])]
    else:
        psis = _jittered(0.0, 2.0 * math.pi, n_psi, rng)
        vertex_ps = [b * np.asarray([math.cos(s), math.sin(s)]) for s in psis]
    vertex_samples = [(float(t), p) for t in t_grid for p in vertex_ps]
    total += len(vertex_samples)
    # the analytic exit condition b^2 > sup|F| is one verdict for every sample
    corner_ok = exit_cone_check(vertex_samples[0][0], vertex_ps[0], F, lambda_grid)
    if not corner_ok:
        failures.extend({"face": "vertex", "t": t, "p": [float(v) for v in p],
                         "reason": "analytic vertex exit condition fails"}
                        for t, p in vertex_samples)

    # confirm a few vertex samples by integration
    n_vertex_confirm = min(5, len(vertex_samples))
    for i in rng.choice(len(vertex_samples), size=n_vertex_confirm, replace=False):
        t, p = vertex_samples[int(i)]
        if corner_ok and not exit_cone_check(t, p, F, lambda_grid, G=G, cfg=cfg):
            corner_ok = False
            failures.append({"face": "vertex", "t": t,
                             "p": [float(v) for v in p],
                             "reason": "vertex integration failed to exit"})

    # ---------------- two-sided integration spot checks ----------------
    # A transversal sample predicts a monotone crossing only while the
    # linear term of the gauge dominates over the window: |g| dt must beat
    # the quadratic term |c| dt^2 / 2 with room to spare, else the sample
    # is effectively tangent and belongs to the gate machinery instead.
    # The same argument needs a smooth gauge along the arc, and the cone
    # gauge b|x| + |p| - b has a kink at x = 0: a cone-face arc, which moves
    # x by about |p| dt each way, must keep |x| > 2 |p| dt to stay clear of it.
    spot_result = {"attempted": 0, "passed": 0, "failures": []}
    dt = 1e-3 * T
    usable = [s for s in spot_pool
              if (s["face"] == "gamma"
                  or np.linalg.norm(s["x"]) > 2.0 * np.linalg.norm(s["p"]) * dt)
              and (s["exact_gate"]
                   or (abs(s["gate"]) >= 10.0 * gate_tol
                       and abs(s["gate"]) >= 8.0 * abs(s["curv"] or 0.0) * dt))]
    rng.shuffle(usable)
    for sample in usable[:spot_checks]:
        spot_result["attempted"] += 1
        ok = _spot_check(sample, spec, G, F, cfg, dt, gate_tol)
        if ok:
            spot_result["passed"] += 1
        else:
            entry = {"face": sample["face"], "t": sample["t"],
                     "lam": sample["lam"],
                     "x": [float(v) for v in sample["x"]],
                     "p": [float(v) for v in sample["p"]],
                     "reason": "two-sided integration contradicts prediction"}
            spot_result["failures"].append(entry)
            failures.append(entry)
            # an observed wrong-side crossing is a genuine margin defect
            defect = dict(entry, kind="spot-check")
            defect.pop("reason", None)
            defect.pop("face", None)
            if sample["face"] == "gamma":
                gamma.clamp(-abs(sample["gate"]) - 1e-15, defect)
            else:
                delta.clamp(-abs(sample["gate"]) - 1e-15, defect)

    min_gamma = gamma.min if gamma.count else math.inf
    min_delta = delta.min if delta.count else math.inf
    for entry in gamma.worst + delta.worst:
        if entry["margin"] <= 0.0:
            failures.append(entry)
    verified = (min_gamma > 0.0) and (min_delta > 0.0) and corner_ok
    xtp_abs = (np.concatenate(xtp_abs_parts) if xtp_abs_parts
               else np.zeros(0))
    xtp_bound = (np.concatenate(xtp_bound_parts) if xtp_bound_parts
                 else np.zeros(0))
    return BoundSetCertificate(
        spec=spec, lambda_grid=lambda_grid, boundary_samples=total,
        min_margin_gamma=min_gamma, min_margin_delta=min_delta,
        corner_ok=corner_ok, verified=verified, gate_tol=gate_tol,
        thresholds=_thresholds(spec, G, F), failures=failures[:40],
        worst_gamma=gamma.worst, worst_delta=delta.worst,
        gamma_gate_count=gamma.count, delta_gate_count=delta.count,
        xtp_abs=xtp_abs, xtp_bound=xtp_bound, spot_checks=spot_result,
        samples_per_face=samples_per_face, seed=seed)


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

    if sample["exact_gate"] and sample["curv"] is not None and sample["curv"] > 0:
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

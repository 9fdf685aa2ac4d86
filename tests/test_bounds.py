from __future__ import annotations

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from upright import bounds
from upright.bounds import (BoundSetSpec, _cone_gate_roots, _cone_quantities,
                            _cone_radial, _cylinder_quantities,
                            certificate_to_dict,
                            compute_a, compute_b_linear, compute_b_planar,
                            degree_of_autonomous_field, exit_cone_check,
                            orbit_containment, save_certificate_json,
                            verify_bound_set)
from upright.dynamics import ModelParams, PhaseState, make_field, rod_terms
from upright.errors import BoundVerificationError
from upright.forcing import PathSamples, ingest_path, make_fourier_forcing
from upright.integrator import (FALL_THRESHOLD, IntegratorConfig, evolve,
                                integrate_field)

F1 = make_fourier_forcing(1.0, 1, [2.0], [])
F2 = make_fourier_forcing(1.0, 2, [(1.5, 0.0)], [(0.0, 1.5)])
Z1 = make_fourier_forcing(1.0, 1, [0.0], [])
Z2 = make_fourier_forcing(1.0, 2, [(0.0, 0.0)], [])


# -- closed-form constants ----------------------------------------------

def test_a_linear_unforced():
    assert compute_a(9.81, 0.0) == pytest.approx(0.5)


def test_a_linear_threshold_values():
    # a* = F/sqrt(G^2+F^2); the returned radius interpolates toward 1
    a = compute_a(1.0, 1.0)
    a_star = (a - 0.5) / 0.5
    assert a_star == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    a = compute_a(9.81, 2.0)
    a_star = (a - 0.5) / 0.5
    assert a_star == pytest.approx(2.0 / math.sqrt(9.81 ** 2 + 4.0), abs=1e-15)
    assert a_star == pytest.approx(0.19978, abs=5e-5)


@settings(max_examples=50, deadline=None)
@given(G=st.floats(0.1, 50.0), Fn=st.floats(0.0, 20.0),
       m=st.floats(0.05, 0.95))
@example(G=0.125, Fn=13.0, m=0.94921875)
def test_a_linear_properties(G, Fn, m):
    with mock.patch.object(bounds, "_TRAP_MARGIN", m):
        a = compute_a(G, Fn)
    assert 0.0 < a < 1.0
    a_star = (a - m) / (1.0 - m)
    # the threshold radius balances gravity against the forcing exactly,
    # G a* = Fn sqrt(1 - a*^2); squared, so that near a* = 1 the square
    # root does not magnify the rounding of a*
    assert a_star ** 2 * (G * G + Fn * Fn) == pytest.approx(Fn * Fn,
                                                            rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("e", [-1000, -500, 500, 1000])
def test_a_is_the_same_at_any_scale_of_gravity_and_forcing(e):
    # a* depends on G and sup|F| through their ratio alone; G^2 + sup|F|^2
    # underflowed to 0 near 1e-300 (ZeroDivisionError) and overflowed
    # near 1e300 (a* = 0)
    for G, Fn in ((9.81, 2.0), (9.81, 0.0), (1.0, 1.0), (2.0, 9.81)):
        assert compute_a(math.ldexp(G, e), math.ldexp(Fn, e)) == compute_a(G, Fn)


def test_b_linear_threshold_values():
    # thresholds: sqrt((1+a) F/(1-a)); the trap margin 0.5 inflates them
    # multiplicatively
    assert compute_b_linear(0.8, 1.0) == pytest.approx(3.0 * 1.5, rel=1e-15)
    assert compute_b_linear(0.5, 4.0) \
        == pytest.approx(3.4641016151377544 * 1.5, rel=1e-14)
    # unforced case returns the margin itself as a floor
    assert compute_b_linear(0.5, 0.0) == bounds._TRAP_MARGIN == 0.5


def test_a_planar_against_root_finder():
    for G, Fn in ((1.0, 1.0), (9.81, 1.5), (5.0, 3.0)):
        a = compute_a(G, Fn)
        a_star = (a - 0.5) / 0.5
        h = lambda s: G * s * math.sqrt(1 + s) - (1 + s) * Fn * math.sqrt(1 - s)
        ref = brentq(h, 1e-9, 1.0 - 1e-9, xtol=1e-13)
        assert a_star == pytest.approx(ref, abs=1e-10)


def test_a_planar_unforced_and_monotone():
    assert compute_a(9.81, 0.0) == pytest.approx(0.5)
    prev = 0.0
    for Fn in (0.5, 1.0, 2.0, 4.0):
        a = compute_a(9.81, Fn)
        assert a > prev
        prev = a


def test_b_planar_start_respects_quartic_bound():
    # with a=0.5 and |F| about 1 the quartic constraint needs b >= 128^(1/4)
    F_unit = make_fourier_forcing(1.0, 2, [(1.0, 0.0)], [(0.0, 1.0)])
    b, _ = compute_b_planar(0.5, F_unit, 9.81, samples_per_face=6)
    assert b >= (16.0 / 0.125) ** 0.25
    assert b * b > F_unit.sup_norm


def test_b_planar_certificate_and_cap(monkeypatch):
    a = compute_a(9.81, 1.5)
    b, cert = compute_b_planar(a, F2, 9.81, samples_per_face=6)
    assert cert.verified
    assert cert.spec.b == b
    monkeypatch.setattr(bounds, "_B_CAP", 2.0)
    with pytest.raises(BoundVerificationError):
        compute_b_planar(a, F2, 9.81, samples_per_face=6)


def test_b_planar_unforced_floor():
    b, _ = compute_b_planar(0.5, Z2, 9.81, samples_per_face=6)
    assert b == pytest.approx(1.0)


# -- pointwise checks ----------------------------------------------------

def test_curvature_cylinder_hand_value():
    # d=1, p=0, x=a, unforced: curvature is G a^2 sqrt(1-a^2)
    _, base, slope = _cylinder_quantities([0.0], [[0.9]], [[0.0]], Z1, 1.0)
    v = float(base[0] + 0.0 * slope[0])
    assert v == pytest.approx(0.81 * math.sqrt(0.19), rel=1e-13)
    assert v == pytest.approx(0.3530708144267946, rel=1e-13)


def test_curvature_cylinder_positive_unforced():
    for th in np.linspace(0.0, 2 * math.pi, 7):
        x = 0.6 * np.array([math.cos(th), math.sin(th)])
        _, base, slope = _cylinder_quantities([0.0], [x], [np.zeros(2)], Z2, 9.81)
        assert base[0] + 0.0 * slope[0] > 0.0


def test_curvature_cylinder_lambda_monotone_in_forcing_sign():
    # the forcing contribution is -lam (1-|x|^2) x.F, so pushing lam to 1
    # lowers the margin exactly when x.F > 0
    a = 0.6
    x = np.array([a, 0.0])
    p = np.zeros(2)
    Fc = make_fourier_forcing(1.0, 2, [(1.5, 0.0)], [])  # x.F(0) > 0
    _, (base,), (slope,) = _cylinder_quantities([0.0], [x], [p], Fc, 9.81)
    v0, v1 = (base + lam * slope for lam in (0.0, 1.0))
    assert v1 < v0
    # x.F(0) < 0, worst case is lam=0
    _, (base,), (slope,) = _cylinder_quantities([0.0], [-x], [p], Fc, 9.81)
    w0, w1 = (base + lam * slope for lam in (0.0, 1.0))
    assert w1 > w0


def test_curvature_cone_unforced_orthogonal_sample():
    # face point with x.p = 0: gate holds trivially, value must be positive
    b = 3.0
    x = np.array([0.2, 0.0])
    p_mag = b * (1.0 - 0.2)
    gate, curv = _cone_quantities([x], [[0.0, p_mag]], np.zeros((1, 2)),
                                  np.zeros((1, 2)), 9.81, b)
    assert gate[0] == 0.0
    assert curv[0] > 0.0


def test_exit_cone_check_analytic():
    Fn = F2.sup_norm
    b_hi = math.sqrt(2.0 * Fn)
    b_lo = math.sqrt(0.5 * Fn)
    assert exit_cone_check(np.array([0.0, b_hi]), F2)
    assert not exit_cone_check(np.array([0.0, b_lo]), F2)
    assert exit_cone_check(np.array([0.5, 0.0]), Z2)


def _vertex_sample(t, p):
    """The vertex ``x = 0`` with momentum ``p`` as a spot sample whose arcs
    must end outside the cone on both sides."""
    p = np.asarray(p, dtype=float)
    return {"face": "delta", "t": t, "lam": 1.0, "x": np.zeros(p.size), "p": p,
            "exact_gate": True, "gate": 0.0, "curv": 1.0}


def test_exit_cone_check_with_integration():
    # where the analytic condition holds, arcs of 1e-3 periods from the
    # vertex end outside the cone both forward and backward in time
    Fn = F2.sup_norm
    p = np.array([0.0, math.sqrt(4.0 * Fn)])
    assert exit_cone_check(p, F2)
    spec = BoundSetSpec(0.6, float(np.linalg.norm(p)), 2)
    for t in (0.0, 0.3, 0.7):
        assert bounds._spot_check(_vertex_sample(t, p), spec, 9.81, F2,
                                  IntegratorConfig(), 1e-3)


@pytest.mark.parametrize("p, F", [
    ([1000.0], make_fourier_forcing(2.0, 1, [1.0], [])),
    ([1000.0, 0.0], make_fourier_forcing(2.0, 2, [[1.0, 0.0]], [[0.0, 1.0]])),
], ids=["line", "plane"])
def test_exit_cone_check_steep_vertex_arc_ends_at_the_fall(monkeypatch, p, F):
    # from |p| = 1000 the vertex arcs reach |x| = 1 long before 1e-3
    # periods; each ends at the fall threshold, outside the cone, instead of
    # crawling into the field's singularity until the step budget runs out
    assert exit_cone_check(p, F)
    arcs = []

    def recorded(*args, **kwargs):
        traj = integrate_field(*args, **kwargs)
        arcs.append(traj)
        return traj

    monkeypatch.setattr(bounds, "integrate_field", recorded)
    spec = BoundSetSpec(0.5, 1000.0, len(p))
    assert bounds._spot_check(_vertex_sample(0.0, p), spec, 1.0, F,
                              IntegratorConfig(), 1e-3 * F.period)
    assert len(arcs) == 2
    for traj in arcs:
        assert traj.fall_event is not None
        assert traj.fall_event.time - traj.t0 < 1e-3 * F.period
        assert np.linalg.norm(traj.fall_event.state[:len(p)]) == pytest.approx(
            FALL_THRESHOLD, abs=1e-9)


def test_planar_verification_reads_forcing_once_per_cone_point(monkeypatch):
    # the planar cone's cells take their forcing from the disk |f| <= sup|F|;
    # the face reads F only at the grid times, to find the peak t* where its
    # spot candidates are realized, and F' there.  Gate and curvature come
    # from one call for the gate roots and one for the 60 candidates
    face = {"inside": False, "points": [], "quantity_points": []}
    eval_points = bounds.PeriodicSignal.eval
    eval_rates = bounds.PeriodicSignal.eval_derivative
    cone_face = bounds._cone_face_plane

    def counted_eval(self, t):
        if face["inside"]:
            face["points"].append(("F", np.size(t)))
        return eval_points(self, t)

    def counted_rate(self, t):
        if face["inside"]:
            face["points"].append(("F'", np.size(t)))
        return eval_rates(self, t)

    def counted_quantities(xs, *args):
        face["quantity_points"].append(len(xs))
        return _cone_quantities(xs, *args)

    def counted_face(ctx, rec):
        face["inside"] = True
        cone_face(ctx, rec)
        face["inside"] = False

    monkeypatch.setattr(bounds.PeriodicSignal, "eval", counted_eval)
    monkeypatch.setattr(bounds.PeriodicSignal, "eval_derivative", counted_rate)
    monkeypatch.setattr(bounds, "_cone_quantities", counted_quantities)
    monkeypatch.setattr(bounds, "_cone_face_plane", counted_face)
    spec = BoundSetSpec(compute_a(9.81, 1.5), 5.0, 2)
    cert = verify_bound_set(spec, 9.81, F2, samples_per_face=6)
    assert face["points"] == [("F", 2 * 6), ("F'", 1)]
    assert face["quantity_points"] == [cert.delta_gate_count, 20 + 40]


# -- closed-form planar cone gates ---------------------------------------

F4 = make_fourier_forcing(
    1.0, 2, [(1.0, 0.2), (0.3, 0.1), (0.1, 0.2), (0.05, 0.05)],
    [(0.1, 1.0), (0.2, 0.3), (0.1, 0.1), (0.05, 0.02)])


def _split_cone_gate(s, b):
    """The cone gate ``(b/|x|) x.p + p.(R x + Phi)/|p|`` from the rod
    kernel's terms ``s``, as ``g0 + lam * g1``."""
    pn = np.sqrt(s.p2)
    g0 = ((b / np.sqrt(s.r2)) * s.xp
          + np.sum(s.P * (s.R[:, None] * s.X), axis=1) / pn)
    g1 = np.sum(s.P * (s.xf[:, None] * s.X - s.F), axis=1) / pn
    return g0, g1


def _cone_gate(t, theta, r, psi, lam, F, b, G=9.81):
    x = r[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    p = (b * (1.0 - r))[:, None] * np.stack([np.cos(psi), np.sin(psi)], axis=1)
    g0, g1 = _split_cone_gate(rod_terms(x, p, F.eval(t), G), b)
    return g0 + lam * g1


def _scanned_gate_roots(t, theta, r, lam, F, b, n=4096):
    """Gate roots per cell by an n-angle sign scan plus bisection."""
    psi = 2.0 * math.pi * np.arange(n) / n
    rows = np.repeat(np.arange(t.size), n)

    def gate(rows, angles):
        return _cone_gate(t[rows], theta[rows], r[rows], angles, lam, F, b)

    g = gate(rows, np.tile(psi, t.size)).reshape(t.size, n)
    cells, k = np.nonzero(g * np.roll(g, -1, axis=1) < 0.0)
    lo, hi, g_lo = psi[k], psi[k] + 2.0 * math.pi / n, g[cells, k]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        g_mid = gate(cells, mid)
        left = g_lo * g_mid > 0.0
        lo, g_lo, hi = (np.where(left, mid, lo), np.where(left, g_mid, g_lo),
                        np.where(left, hi, mid))
    return cells, 0.5 * (lo + hi)


def _cone_gate_terms(theta, r, f, b):
    """The cubic's ``K``, ``B`` and ``L`` at ``x = r (cos theta, sin theta)``
    under the forcing rows ``f``."""
    cos, sin = np.cos(theta), np.sin(theta)
    K0, B, one_minus = _cone_radial(r, 9.81, b)
    f = np.atleast_2d(f)
    return (K0 - (f[:, 0] * cos + f[:, 1] * sin) * one_minus, B,
            f[:, 1] * cos - f[:, 0] * sin)


def _check_gate_roots(t, theta, r, lam, F, b):
    """Closed-form roots: every scanned root, true gate points, at most 6."""
    cells, s = _cone_gate_roots(*_cone_gate_terms(theta, r, lam * F.eval(t), b))
    psi = np.mod(theta[cells] + s, 2.0 * math.pi)
    gate_tol = 1e-6 * b * (1.0 + F.sup_norm + 9.81)
    assert np.all(np.abs(_cone_gate(t[cells], theta[cells], r[cells], psi,
                                    lam, F, b)) <= gate_tol)
    assert np.bincount(cells, minlength=t.size).max() <= 6
    scan_cells, scan_psi = _scanned_gate_roots(t, theta, r, lam, F, b)
    assert scan_cells.size > 0
    for cell, angle in zip(scan_cells, scan_psi):
        found = psi[cells == cell]
        gap = np.abs(np.mod(found - angle + math.pi, 2.0 * math.pi) - math.pi)
        assert gap.size and gap.min() <= 1e-12, (lam, cell, angle, found)
    return cells, psi


def _cell_B(theta, r, b):
    return _cone_gate_terms(theta, r, np.zeros((1, 2)), b)[1][0]


def _constant_forcing(theta, r, b, K, L):
    """A constant forcing that gives one cell the gate terms K and L at lam = 1."""
    K0 = _cone_gate_terms(theta, r, np.zeros((1, 2)), b)[0][0]
    f_par = (K0 - K) / (1.0 - r[0] ** 2)
    f = f_par * np.array([math.cos(theta[0]), math.sin(theta[0])]) \
        + L * np.array([-math.sin(theta[0]), math.cos(theta[0])])
    return make_fourier_forcing(1.0, 2, [], [], constant=f)


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_cone_gate_roots_match_a_dense_scan(lam):
    rng = np.random.default_rng(11)
    a, b = 0.8, 5.0
    n = 60
    t = rng.uniform(0.0, 1.0, n)
    r = rng.uniform(0.02 * a, a, n)
    for F in (F2, F4):
        _check_gate_roots(t, rng.uniform(0.0, 2.0 * math.pi, n), r, lam, F, b)
    # forcing along x: f_perp = 0 at theta = 0, rounding-small at theta = pi
    along = make_fourier_forcing(1.0, 2, [(3.0, 0.0)], [(2.0, 0.0)])
    theta = np.where(np.arange(n) % 2 == 0, 0.0, math.pi)
    _check_gate_roots(t, theta, r, lam, along, b)


def test_cone_gate_roots_without_cross_forcing_take_both_signs():
    # with L = 0 the gate c (K + B c^2) vanishes at c = 0 and c^2 = -K/B,
    # each with either sign of sin s: six roots when K = -B/2
    theta, r, t = np.array([0.0]), np.array([0.5]), np.array([0.0])
    b = 5.0
    F = _constant_forcing(theta, r, b, -0.5 * _cell_B(theta, r, b), 0.0)
    cells, psi = _check_gate_roots(t, theta, r, 1.0, F, b)
    expected = np.mod(np.pi / 4.0 * np.array([1, 2, 3, 5, 6, 7]), 2.0 * math.pi)
    assert cells.size == 6
    assert np.max(np.abs(psi - expected)) <= 1e-12


def test_cone_gate_roots_at_any_scale():
    # K, B, L scaled by 2^600 or 2^-600 (their squares overflow or vanish)
    # give the same roots; where |K/B| and |L/B| are 1e300 the monic cubic
    # has no float coefficients, and the gate c K = L sin s has one root
    # pair, c = 0 with both signs of sin s where L = 0
    rng = np.random.default_rng(5)
    K, B, L = rng.normal(size=(3, 200))
    B = -np.abs(B)
    cells, s = _cone_gate_roots(K, B, L)
    assert cells.size > 200
    for k in (-600, 600):
        scaled = _cone_gate_roots(np.ldexp(K, k), np.ldexp(B, k), np.ldexp(L, k))
        assert np.array_equal(scaled[0], cells) and np.array_equal(scaled[1], s)
    K, L = np.array([1e300, -1e300, 3e299]), np.array([2e299, 1e300, 0.0])
    cells, s = _cone_gate_roots(K, -np.ones(3), L)
    assert cells.tolist() == [0, 0, 1, 1, 2, 2]
    gate = np.cos(s) * (K[cells] - np.cos(s) ** 2) - L[cells] * np.sin(s)
    assert np.all(np.abs(gate) <= 1e-12 * (np.abs(K) + np.abs(L))[cells])


def test_cone_gate_roots_resolve_a_pair_the_coarse_scan_misses():
    # put a double root of g(s) = c (K + B c^2) - L sin s mid-way between
    # two of 32 scan angles, then shift K to split it into a close pair
    theta, r, t = np.array([0.3]), np.array([0.5]), np.array([0.0])
    b = 5.0
    B = _cell_B(theta, r, b)
    psi0 = 2.0 * math.pi * 5.5 / 32
    s0 = psi0 - theta[0]
    c0, sn0 = math.cos(s0), math.sin(s0)
    # g(s0) = 0 and g'(s0) = 0 are linear in K and L
    K, L = np.linalg.solve([[c0, -sn0], [-sn0, -c0]],
                           [-B * c0 ** 3, 3.0 * B * c0 * c0 * sn0])
    g2 = -c0 * (K + 3.0 * B * c0 * c0) + 6.0 * B * c0 * sn0 * sn0 + L * sn0
    half_gap = 0.02
    F = _constant_forcing(theta, r, b, K - 0.5 * g2 * half_gap ** 2 / c0, L)
    cells, psi = _check_gate_roots(t, theta, r, 1.0, F, b)
    pair = psi[np.abs(psi - psi0) < 0.1]
    assert pair.size == 2
    assert 0.03 < pair[1] - pair[0] < 2.0 * math.pi / 64
    scan = 2.0 * math.pi * np.arange(32) / 32
    g = _cone_gate(np.zeros(32), np.full(32, theta[0]), np.full(32, r[0]), scan,
                   1.0, F, b)
    assert np.count_nonzero(g * np.roll(g, -1) < 0.0) < cells.size


def _six_pass_gate_roots(K, B, L):
    """The reference ``_cone_gate_roots``: its Newton loop runs all 6 passes
    over every candidate, and the root test forms ``g`` once more."""
    _, e = np.frexp(np.maximum(np.maximum(np.abs(K), np.abs(B)), np.abs(L)))
    K, B, L = np.ldexp(K, -e), np.ldexp(B, -e), np.ldexp(L, -e)
    flat = np.abs(B) < 1e-8 * np.maximum(np.abs(K), np.abs(L))
    Bm = np.where(flat, 1.0, B)
    a2, a1, a0 = 2.0 * K / Bm, (K * K + L * L) / (Bm * Bm), -(L * L) / (Bm * Bm)
    d0 = a2 * a2 - 3.0 * a1
    d1 = (2.0 * a2 * a2 - 9.0 * a1) * a2 + 27.0 * a0
    root_disc = np.sqrt(d1 * d1 - 4.0 * d0 ** 3 + 0j)
    q = 0.5 * (d1 + np.where(d1 * root_disc.real >= 0.0, root_disc, -root_disc))
    C = q[:, None] ** (1.0 / 3.0) * np.exp(2j * math.pi / 3.0 * np.arange(3))
    w = -(a2[:, None] + C
          + np.divide(d0[:, None], C, out=np.zeros_like(C), where=C != 0)) / 3.0
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
    for _ in range(6):
        c, sn = np.cos(s), np.sin(s)
        g = c * (Kc + Bc * c * c) - Lc * sn
        dg = -sn * (Kc + 3.0 * Bc * c * c) - Lc * c
        step = np.divide(g, dg, out=np.zeros_like(g),
                         where=(dg != 0.0) & (np.abs(g) > 1e-15 * scale))
        s = s - np.clip(step, -0.5, 0.5)
    c = np.cos(s)
    root = np.abs(c * (Kc + Bc * c * c) - Lc * np.sin(s)) <= 1e-12 * scale
    cells, s = cells[root], np.mod(s[root], 2.0 * math.pi)
    order = np.lexsort((s, cells))
    cells, s = cells[order], s[order]
    first = np.diff(cells, prepend=-1) != 0
    s_first = s[np.maximum.accumulate(np.where(first, np.arange(cells.size), 0))]
    gap = np.diff(s, prepend=-math.inf)
    dup = ~first & ((gap < 1e-6) | (s_first + 2.0 * math.pi - s < 1e-6))
    return cells[~dup], s[~dup]


def _assert_six_pass_roots(K, B, L):
    cells, s = _cone_gate_roots(K, B, L)
    want_cells, want_s = _six_pass_gate_roots(K, B, L)
    assert np.array_equal(cells, want_cells) and s.tobytes() == want_s.tobytes()


@pytest.mark.parametrize("spf", [4, 6, 16])
@pytest.mark.parametrize("name, F", [("circle", F2), ("four_harmonics", F4)],
                         ids=["circle", "four_harmonics"])
def test_gate_newton_stops_where_the_six_passes_end(monkeypatch, name, F, spf):
    # the Newton loop ends once no candidate moves, which changes no root:
    # the reference grids' cells and angles are the six passes' bit for bit
    terms = []
    roots = bounds._cone_gate_roots

    def recorded(K, B, L):
        terms.append((K, B, L))
        return roots(K, B, L)

    monkeypatch.setattr(bounds, "_cone_gate_roots", recorded)
    a = compute_a(9.81, F.sup_norm)
    verify_bound_set(BoundSetSpec(a, PLANAR_SLOPES[name], 2), 9.81, F,
                     samples_per_face=spf)
    assert [K.size for K, _, _ in terms] == [(2 * spf + 1) ** 3]
    _assert_six_pass_roots(*terms[0])


def test_gate_newton_stops_where_the_six_passes_end_on_random_cubics():
    # random cubics with flat cells (|B| below 1e-8 of the largest, and
    # B = 0), L = 0, tangent roots (g = g' = 0 at a random s0) and scales
    # from 2^-600 to 2^600
    rng = np.random.default_rng(34)
    n = 3000
    K, B, L = rng.normal(size=(3, n))
    B[:300] *= 10.0 ** rng.uniform(-16.0, -8.5, 300)
    B[300:400] = 0.0
    L[400:600] = 0.0
    s0 = rng.uniform(0.0, 2.0 * math.pi, 1000)
    c0, sn0, Bt = np.cos(s0), np.sin(s0), B[600:1600]
    r1, r2 = -Bt * c0 ** 3, 3.0 * Bt * c0 * c0 * sn0
    K[600:1600], L[600:1600] = c0 * r1 - sn0 * r2, -sn0 * r1 - c0 * r2
    e = np.where(np.arange(n) % 3 == 0, rng.integers(-600, 600, n), 0)
    _assert_six_pass_roots(np.ldexp(K, e), np.ldexp(B, e), np.ldexp(L, e))

# -- gates and curvatures against the flow -------------------------------

# cosine and sine coefficients of the forcings below; F(-t) flips the sines
FD_FORCING = {1: ([2.0, 0.4], [0.7, 0.3]),
              2: ([(1.0, 0.2), (0.3, 0.1)], [(0.1, 1.0), (0.2, 0.3)])}
FD_STEP = 1e-3


def _fd_signal(dim, reflected=False):
    cosine, sine = FD_FORCING[dim]
    if reflected:
        sine = [-np.asarray(v) for v in sine]
    return make_fourier_forcing(1.0, dim, cosine, sine)


def _gauge_rates(gauge, t0, x, p, lam):
    """First and second derivative of the gauge along the flow through
    ``(x, p)`` at ``t0``: Richardson-extrapolated central differences at
    steps ``h`` and ``2 h`` on the dense output of two-sided arcs.

    The rod equations are reversible (R is even in p, Phi free of it), so
    the arc before ``t0`` is the forward arc from ``(x, -p)`` at ``-t0``
    under ``F(-t)``.  Both gauges read only ``|x|`` and ``|p|``.
    """
    dim, h = x.size, FD_STEP
    params = ModelParams(G=9.81, lam=lam, dim=dim)
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    fwd = evolve(t0, t0 + 2 * h, PhaseState(x, p), params, _fd_signal(dim), cfg)
    bwd = evolve(-t0, -t0 + 2 * h, PhaseState(x, -p), params,
                 _fd_signal(dim, reflected=True), cfg)
    ys = np.concatenate([bwd.dense_array([-t0 + 2 * h, -t0 + h]),
                         [np.concatenate([x, p])],
                         fwd.dense_array([t0 + h, t0 + 2 * h])])
    g = [gauge(np.linalg.norm(y[:dim]), np.linalg.norm(y[dim:])) for y in ys]

    def d1(k):
        return (g[2 + k] - g[2 - k]) / (2 * k * h)

    def d2(k):
        return (g[2 + k] - 2.0 * g[2] + g[2 - k]) / (k * h) ** 2

    return (4.0 * d1(1) - d1(2)) / 3.0, (4.0 * d2(1) - d2(2)) / 3.0


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("dim", [1, 2], ids=["line", "plane"])
def test_gates_and_curvatures_match_differences_along_the_flow(dim, lam):
    # the gate is the gauge's first derivative along the flow, the
    # curvature its second; both faces, at random face points
    rng = np.random.default_rng(17)
    a, b = 0.6, 4.0
    F = _fd_signal(dim)
    for _ in range(4):
        t0 = rng.uniform(0.0, 1.0)
        u, v = (w / np.linalg.norm(w) for w in rng.normal(size=(2, dim)))
        r = rng.uniform(0.2, a)
        x, p = r * u, b * (1.0 - r) * v
        gate, curv = _cone_quantities([x], [p], lam * F.eval([t0]),
                                      lam * F.eval_derivative([t0]), 9.81, b)
        fd = _gauge_rates(lambda xn, pn: b * xn + pn - b, t0, x, p, lam)
        x, p = a * u, rng.uniform(0.0, b * (1.0 - a)) * v
        cyl_gate, base, slope = _cylinder_quantities([t0], [x], [p], F, 9.81)
        cyl_curv = base + lam * slope
        cyl_fd = _gauge_rates(lambda xn, pn: 0.5 * xn * xn - 0.5 * a * a,
                              t0, x, p, lam)
        for got, want in zip((gate[0], curv[0], cyl_gate[0], cyl_curv[0]),
                             fd + cyl_fd):
            assert abs(got - want) <= 1e-6 * (1.0 + abs(got)), (t0, got, want)


# -- the one-dimensional estimate chain ----------------------------------

def test_linear_cone_face_chain_identity():
    # along the branch p = b(1-x), x in (0, a): the scalar product of the
    # field with (b, 1) factors exactly as
    #   b^2 (1-x) (1 - x/(1+x) - lam (1+x) F/b^2) + G x sqrt(1-x^2)
    G, b, lam = 9.81, 4.0, 1.0
    field = make_field(ModelParams(G=G, lam=lam, dim=1), F1)
    for x in np.linspace(0.05, 0.6, 12):
        p = b * (1.0 - x)
        t = 0.37
        xdot, pdot = field(t, np.array([x, p]))
        lhs = b * xdot.item() + pdot.item()
        Ft = F1.eval(t).item()
        rhs = b * b * (1 - x) * (1 - x / (1 + x) - lam * (1 + x) * Ft / b**2) \
            + G * x * math.sqrt(1 - x * x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_linear_cone_face_chain_lower_bound():
    # dropping the gravity term and taking worst x, F gives the closed-form
    # floor b^2 (1-a)(1 - a - (1+a)|F|/b^2); the sampled values must sit above
    G, b, a = 9.81, 4.0, 0.6
    Fn = F1.sup_norm
    field = make_field(ModelParams(G=G, lam=1.0, dim=1), F1)
    floor = b * b * (1 - a) * (1 - a - (1 + a) * Fn / b**2)
    assert floor > 0.0
    worst = math.inf
    for x in np.linspace(1e-3, a, 50):
        p = b * (1.0 - x)
        for t in np.linspace(0.0, 1.0, 11):
            xdot, pdot = field(t, np.array([x, p]))
            worst = min(worst, b * xdot.item() + pdot.item())
    assert worst > floor


# -- face verification ----------------------------------------------------

def test_verify_linear_unforced_closed_form_config():
    spec = BoundSetSpec(a=0.5, b=1.0, dim=1)
    cert = verify_bound_set(spec, 1.0, Z1, samples_per_face=8)
    assert cert.verified
    assert cert.min_margin_gamma > 0 and cert.min_margin_delta > 0
    assert cert.corner_ok


def test_verify_linear_forced_config():
    a = compute_a(9.81, 2.0)
    b = compute_b_linear(a, 2.0)
    cert = verify_bound_set(BoundSetSpec(a, b, 1), 9.81, F1, samples_per_face=8)
    assert cert.verified
    # closed forms only: no spot-check arcs on the line
    assert cert.spot_checks == {"attempted": 0, "passed": 0, "failures": []}
    assert cert.thresholds["invariants_ok"]


def test_verify_detects_undersized_cone():
    # with b^2 below |F| even the cone vertex stops repelling; the
    # certificate must fail and name offending face samples
    a = compute_a(9.81, 2.0)
    cert = verify_bound_set(BoundSetSpec(a, 1.0, 1), 9.81, F1,
                            samples_per_face=8)
    assert not cert.verified
    assert not cert.corner_ok
    assert len(cert.failures) > 0
    assert cert.min_margin_delta < 0
    worst = cert.worst_delta[0]
    assert worst["lam"] == 1.0  # forcing extremes live at the full scale
    assert not cert.thresholds["invariants_ok"]


def test_verify_planar_config():
    a = compute_a(9.81, 1.5)
    b, _ = compute_b_planar(a, F2, 9.81, samples_per_face=6)
    cert = verify_bound_set(BoundSetSpec(a, b, 2), 9.81, F2, samples_per_face=6)
    assert cert.verified
    assert cert.gamma_gate_count > 0 and cert.delta_gate_count > 0
    # gate-passing samples obey the velocity-alignment estimate
    assert len(cert.xtp_abs) == len(cert.xtp_bound) > 0
    assert np.all(cert.xtp_abs <= cert.xtp_bound + 1e-9)


# the slopes of the benchmark's planar ``certify`` inputs, which
# compute_b_planar finds at 6 samples per face and seed 1
PLANAR_SLOPES = {"circle": 4.895909838375881, "four_harmonics": 5.579027695118285}


def _fine_disk_margin(a, b, F, G=9.81):
    """Least cone curvature at the gate roots of a 16 x 32 x 64 grid of
    radii, forcing sizes and forcing angles round the whole circle, less
    ``sup|F'| |(x.p) x - p| / |p|``."""
    r, fn, phi = (v.ravel() for v in np.meshgrid(
        np.linspace(0.02 * a, a, 16), np.linspace(0.0, F.sup_norm, 32),
        np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False), indexing="ij"))
    f = fn[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=1)
    cells, s = _cone_gate_roots(*_cone_gate_terms(np.zeros(r.size), r, f, b))
    x = np.stack([r[cells], np.zeros(cells.size)], axis=1)
    p = (b * (1.0 - r[cells]))[:, None] * np.stack([np.cos(s), np.sin(s)], axis=1)
    _, curv = _cone_quantities(x, p, f[cells], np.zeros_like(p), G, b)
    xp = np.sum(x * p, axis=1)
    rate = np.linalg.norm(xp[:, None] * x - p, axis=1) / np.linalg.norm(p, axis=1)
    return float(np.min(curv - F.sup_norm_derivative * rate))


@pytest.mark.parametrize("name, F", [("circle", F2), ("four_harmonics", F4)],
                         ids=["circle", "four_harmonics"])
def test_planar_cone_margin_matches_a_fine_disk_grid(monkeypatch, name, F):
    # the reference slopes still verify; the (2 spf + 1)^3 half-disk grid
    # finds the least margin of a 16 x 32 x 64 grid over the whole disk to
    # 1e-3 (42.898 and 40.703), in no more cells than the (t, theta, r)
    # grid at 21 forcing scales that it replaces
    cells = []
    roots = bounds._cone_gate_roots

    def counted(K, B, L):
        cells.append(K.size)
        return roots(K, B, L)

    monkeypatch.setattr(bounds, "_cone_gate_roots", counted)
    a = compute_a(9.81, F.sup_norm)
    b, cert = compute_b_planar(a, F, 9.81, samples_per_face=6, seed=1)
    assert b == PLANAR_SLOPES[name] and cert.verified
    assert abs(cert.min_margin_delta - _fine_disk_margin(a, b, F)) <= 1e-3
    assert cells == [13 ** 3] and 13 ** 3 <= (2 * 6) * 6 * (max(4, 6 // 2) + 1) * 21
    assert np.all(cert.xtp_abs <= cert.xtp_bound)


def test_planar_verdict_is_the_same_for_every_seed():
    # four harmonics at b = 1.449 and 6 samples per face: a jittered
    # (t, theta, r) grid verified this trap at seeds 1-6 and 8 and refuted
    # it at seed 7.  The disk of forcing values has no seed; the finer
    # _fine_disk_margin refutes it too
    a = compute_a(9.81, F4.sup_norm)
    certs = [verify_bound_set(BoundSetSpec(a, 1.449, 2), 9.81, F4,
                              samples_per_face=6, seed=seed) for seed in range(1, 9)]
    assert {(c.verified, c.min_margin_delta) for c in certs} \
        == {(False, certs[0].min_margin_delta)}
    assert certs[0].min_margin_delta < 0.0 and _fine_disk_margin(a, 1.449, F4) < 0.0


def test_failed_spot_check_refutes_a_face_without_gate_points(monkeypatch):
    # a planar cone face whose cells have no gate roots pools no margin; a
    # spot check that contradicts its prediction there must still refute it
    def no_roots(K, B, L):
        return np.zeros(0, dtype=int), np.zeros(0)

    def refuted(sample, *args):
        return sample["face"] != "delta"

    monkeypatch.setattr(bounds, "_cone_gate_roots", no_roots)
    monkeypatch.setattr(bounds, "_spot_check", refuted)
    cert = verify_bound_set(BoundSetSpec(0.6, 5.0, 2), 9.81, F2,
                            samples_per_face=4)
    assert cert.delta_gate_count == 0 and cert.spot_checks["failures"]
    assert cert.min_margin_delta < 0.0 and not cert.verified


def test_planar_cylinder_gate_points_are_sampled_once():
    # one gate point per grid time, in the plane as on the line: p = 0 and
    # x along F at lam = 1, where that time's curvature is least; its margin
    # is the rod kernel's there and never below the closed form
    spf = 4
    a1, a2 = compute_a(9.81, F1.sup_norm), compute_a(9.81, 1.5)
    _, planar = compute_b_planar(a2, F2, 9.81, samples_per_face=spf, seed=0)
    line = verify_bound_set(BoundSetSpec(a1, 5.0, 1), 9.81, F1,
                            samples_per_face=spf, seed=0)
    for a, F, cert in ((a1, F1, line), (a2, F2, planar)):
        closed = a * math.sqrt(1.0 - a * a) * cert.thresholds["a_margin"]
        assert cert.min_margin_gamma == closed
        assert cert.gamma_gate_count == 2 * spf
        points = [(w["t"], *w["x"]) for w in cert.worst_gamma]
        assert len(set(points)) == len(points) == 2 * spf
        for w in cert.worst_gamma:
            x, f = np.asarray(w["x"]), F.eval(np.array([w["t"]]))[0]
            assert w["kind"] == "cylinder-gate" and w["lam"] == 1.0
            assert w["p"] == [0.0] * F.dim
            np.testing.assert_allclose(x, a * f / np.linalg.norm(f), rtol=0,
                                       atol=1e-15)
            _, base, slope = _cylinder_quantities([w["t"]], [x], [w["p"]], F, 9.81)
            assert w["margin"] == base[0] + slope[0] >= closed
    points = [(*w["x"], *w["p"], *w["f"]) for w in planar.worst_delta]
    assert len(set(points)) == len(points) == bounds._WORST_KEPT


def _line_certify_spec():
    """The benchmark's ``certify`` linear trap (|F| = 2 sampled)."""
    a = compute_a(9.81, F1.sup_norm)
    return BoundSetSpec(a, compute_b_linear(a, F1.sup_norm), 1)


@pytest.mark.parametrize("dim", [1, 2], ids=["line", "plane"])
def test_boundary_samples_count_the_samples_given_a_margin(dim):
    # every counted sample has a margin pooled; the vertex is one analytic
    # condition and counts none
    if dim == 1:
        spf, spec, F = 32, _line_certify_spec(), F1
    else:
        spf, spec, F = 6, BoundSetSpec(compute_a(9.81, 1.5), 5.0, 2), F2
    cert = verify_bound_set(spec, 9.81, F, samples_per_face=spf, seed=1)
    assert cert.boundary_samples == cert.gamma_gate_count + cert.delta_gate_count
    if dim == 1:
        assert (cert.boundary_samples, cert.gamma_gate_count,
                cert.delta_gate_count) == (128, 64, 64)


def test_planar_cylinder_pools_exactly_its_gate_grid():
    # the circle forcing at 16 samples per face: one gate point for each of
    # the 32 times, nothing more; no angle or speed grid is formed
    a = compute_a(9.81, F2.sup_norm)
    _, cert = compute_b_planar(a, F2, 9.81, samples_per_face=16, seed=0)
    assert cert.gamma_gate_count == 32


@pytest.mark.parametrize("dim", [1, 2], ids=["line", "plane"])
def test_cylinder_quantities_run_on_gates_and_spot_candidates_only(
        monkeypatch, dim):
    rows = []

    def counted(ts, *args):
        rows.append(np.size(ts))
        return _cylinder_quantities(ts, *args)

    monkeypatch.setattr(bounds, "_cylinder_quantities", counted)
    if dim == 1:
        spec, F = _line_certify_spec(), F1
    else:
        spec, F = BoundSetSpec(compute_a(9.81, 1.5), 5.0, 2), F2
    cert = verify_bound_set(spec, 9.81, F, samples_per_face=8, seed=2)
    # the witnesses, one per time; the closed-form face offers no candidates
    assert rows == [cert.gamma_gate_count]
    assert cert.gamma_gate_count == 16


def test_line_cone_face_reads_forcing_once_on_its_branch_times(monkeypatch):
    sizes, inside = [], [False]
    eval_points, cone_face = bounds.PeriodicSignal.eval, bounds._cone_face_line

    def counted_eval(self, t):
        if inside[0]:
            sizes.append(np.size(t))
        return eval_points(self, t)

    def counted_face(ctx, rec):
        inside[0] = True
        cone_face(ctx, rec)
        inside[0] = False

    monkeypatch.setattr(bounds.PeriodicSignal, "eval", counted_eval)
    monkeypatch.setattr(bounds, "_cone_face_line", counted_face)
    spf = 8
    verify_bound_set(_line_certify_spec(), 9.81, F1, samples_per_face=spf)
    # both sides share one read per time, and nothing else is read
    assert sizes == [2 * spf]


@pytest.mark.parametrize("b_scale", [1.0, 0.3], ids=["passing", "undersized"])
@pytest.mark.parametrize("F", [F1, make_fourier_forcing(
    1.5, 1, [0.8, -0.3], [1.1, 0.2], constant=[0.4])], ids=["cosine", "mixed"])
def test_line_cone_margin_is_the_signed_gate_on_all_four_branches(
        monkeypatch, F, b_scale):
    # each pooled witness's margin at lam = 1 is sign(x p) n' from the rod
    # kernel at (x, p) and (x, -p), with x on the side of F; over the grid
    # times F takes both signs, so all four branches x = +-r, p = +-b (1 - r)
    # are met, and no witness is below the enclosed closed form
    G = 9.81
    a = compute_a(G, F.sup_norm)
    b = b_scale * compute_b_linear(a, F.sup_norm)
    pooled, add = [], bounds._MarginPool.add

    def added(self, margins, kind, **rows):
        pooled.append((margins, kind, rows))
        add(self, margins, kind, **rows)

    monkeypatch.setattr(bounds._MarginPool, "add", added)
    cert = verify_bound_set(BoundSetSpec(a, b, 1), G, F, samples_per_face=8,
                            seed=4)
    ((margins, _, rows),) = [p for p in pooled if p[1] == "cone-sign"]
    ts, xs, ps = rows["t"], rows["x"], rows["p"]
    assert np.all(rows["lam"] == 1.0) and np.all(ps > 0.0) and ts.size == 16
    assert set(np.sign(xs[:, 0])) == {1.0, -1.0}
    assert np.all(np.sign(xs[:, 0]) == np.where(F.eval(ts)[:, 0] < 0.0, -1.0, 1.0))
    assert np.all(margins >= cert.min_margin_delta)
    scale = b * b + G + F.sup_norm
    for sp in (1.0, -1.0):
        gate, _ = _cone_quantities(xs, sp * ps, F.eval(ts),
                                   F.eval_derivative(ts), G, b)
        np.testing.assert_allclose(margins, np.sign(xs[:, 0] * sp) * gate,
                                   rtol=0.0, atol=1e-15 * scale)


def test_line_certificate_worst_cone_samples_are_distinct():
    # (x, -p) shares (x, p)'s margin, so a mirror pair would fill two
    # worst slots with one sample: no two entries differ only in p's sign
    spec = _line_certify_spec()
    for b in (spec.b, 1.0):
        cert = verify_bound_set(BoundSetSpec(spec.a, b, 1), 9.81, F1,
                                samples_per_face=8, seed=1)
        points = [(w["t"], *w["x"], abs(w["p"][0])) for w in cert.worst_delta]
        assert len(set(points)) == len(points) == bounds._WORST_KEPT


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("dim", [1, 2], ids=["line", "plane"])
def test_cone_quantities_gate_is_the_split_cone_gate(dim, lam):
    # n' from the curvature's terms equals the split gate g0 + lam g1 to
    # rounding of its terms, at random cone face points
    rng = np.random.default_rng(5)
    b, n, F = 4.0, 2000, (F1 if dim == 1 else F4)
    t = rng.uniform(0.0, 1.0, n)
    r = rng.uniform(1e-3, 0.95, n)
    u, v = rng.normal(size=(2, n, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    x, p = r[:, None] * u, (b * (1.0 - r))[:, None] * v
    gate, _ = _cone_quantities(x, p, lam * F.eval(t),
                               lam * F.eval_derivative(t), 9.81, b)
    s = rod_terms(x, p, F.eval(t), 9.81)
    g0, g1 = _split_cone_gate(s, b)
    pn = np.sqrt(s.p2)
    size = (np.abs(b * s.xp / np.sqrt(s.r2))
            + np.abs(np.sum(s.P * (s.R[:, None] * s.X), axis=1)) / pn
            + lam * np.abs(np.sum(s.P * (s.xf[:, None] * s.X - s.F), axis=1)) / pn)
    assert np.all(np.abs(gate - (g0 + lam * g1)) <= 1e-13 * size)


def _naive_pool(blocks, kind):
    """Every (block, sample) entry sorted by margin, then by order."""
    entries = []
    for margins, lam, ts, xs, ps in blocks:
        for i in range(margins.size):
            entries.append({"margin": float(margins[i]), "t": float(ts[i]),
                            "lam": float(lam),
                            "x": [float(v) for v in xs[i]],
                            "p": [float(v) for v in ps[i]], "kind": kind})
    return sorted(entries, key=lambda e: e["margin"])[:bounds._WORST_KEPT]


@pytest.mark.parametrize("seed", range(4))
def test_margin_pool_block_matches_a_naive_reference(seed):
    rng = np.random.default_rng(seed)
    blocks = []
    for n in (30, 2, 7, 0, 40):
        # a few distinct negatives, then ties at zero, of either sign so that
        # the JSON text tells the entries apart; each block has one scale
        margins = rng.integers(0, 3, size=n) * 0.5
        margins[(margins == 0.0) & (rng.uniform(size=n) < 0.5)] = -0.0
        margins[rng.uniform(size=n) < 0.03] = -rng.uniform()
        if not blocks:
            margins[:2] = (0.0, -0.0)
        blocks.append((margins, rng.uniform(), rng.uniform(size=n),
                       rng.normal(size=(n, 2)), rng.normal(size=(n, 2))))
    pool = bounds._MarginPool()
    for margins, lam, ts, xs, ps in blocks:
        pool.add(margins, "test", t=ts, lam=np.full(margins.size, lam), x=xs,
                 p=ps)
    assert pool.count == sum(m.size for m, *_ in blocks)
    assert pool.min == min(float(np.min(m)) for m, *_ in blocks if m.size)
    text = json.dumps(pool.worst)
    assert text == json.dumps(_naive_pool(blocks, "test"))
    assert '"margin": -0.0' in text and '"margin": 0.0' in text


def test_affine_faces_cover_every_lambda_in_the_unit_interval():
    # the cylinder curvature and the line cone's signed gate are affine in
    # lam, and their closed forms hold for every lam in [0, 1]: at random
    # boundary points and at every pooled witness, no lam of a 1,001-point
    # grid takes a margin below the certificate's
    lam_fine = np.linspace(0.0, 1.0, 1001)[:, None]
    rng = np.random.default_rng(11)
    a1, a2 = compute_a(9.81, 2.0), compute_a(9.81, 1.5)
    for spec, F in ((BoundSetSpec(a1, compute_b_linear(a1, 2.0), 1), F1),
                    (BoundSetSpec(a1, 1.0, 1), F1),
                    (BoundSetSpec(a2, 5.0, 2), F2)):
        a, b, d = spec.a, spec.b, spec.dim
        cert = verify_bound_set(spec, 9.81, F, samples_per_face=4, seed=3)
        n = 400
        t = np.concatenate([rng.uniform(0.0, 1.0, n),
                            [w["t"] for w in cert.worst_gamma]])
        u = rng.normal(size=(t.size, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        x = np.concatenate([a * u[:n], [w["x"] for w in cert.worst_gamma]])
        rho = rng.uniform(0.0, b * (1.0 - a), t.size)[:, None]
        p = rho * (u[:, ::-1] * ([-1.0, 1.0] if d == 2 else [0.0]))
        p[n:] = 0.0
        _, base, slope = _cylinder_quantities(t, x, p, F, 9.81)
        assert np.min(base + lam_fine * slope) >= cert.min_margin_gamma
        if d == 1:
            t = np.concatenate([rng.uniform(0.0, 1.0, n),
                                [w["t"] for w in cert.worst_delta]])
            r = np.concatenate([rng.uniform(1e-3, a, n),
                                [abs(w["x"][0]) for w in cert.worst_delta]])
            x = (r * rng.choice([-1.0, 1.0], t.size))[:, None]
            p = (b * (1.0 - r))[:, None]
            signed = [np.sign(x[:, 0]) * _cone_quantities(
                x, p, lam * F.eval(t), lam * F.eval_derivative(t), 9.81, b)[0]
                for lam in lam_fine[::50, 0]]
            assert np.min(signed) >= cert.min_margin_delta


def test_line_cone_refutes_a_trap_its_time_grid_misses():
    # 8 cos 2 pi t at 0.99 of the exact threshold slope: at t = 0, x = 0.179,
    # p = b (1 - x), lam = 1 the signed gate is -0.113, but 8 times at 4
    # samples per face miss the forcing's peak; the closed form does not
    F = make_fourier_forcing(1.0, 1, [8.0], [])
    a = compute_a(9.81, F.sup_norm)
    spec = BoundSetSpec(a, 2.911555024, 1)
    x, p = np.array([[0.179]]), np.array([[2.911555024 * (1.0 - 0.179)]])
    assert _cone_quantities(x, p, F.eval([0.0]), F.eval_derivative([0.0]),
                            9.81, spec.b)[0][0] < -0.1
    cert = verify_bound_set(spec, 9.81, F, samples_per_face=4, seed=0)
    assert not cert.verified and cert.corner_ok
    assert min(w["margin"] for w in cert.worst_delta) > 0.0
    (failure,) = [f for f in cert.failures if f["face"] == "cone"]
    assert failure["margin"] == cert.min_margin_delta < -0.1
    assert abs(failure["r"] - 0.179) < 1e-3
    assert failure["reason"] == "closed-form margin is not positive"


@pytest.mark.parametrize("a, b, G, Fn", [
    (0.5, 3.0, 9.81, 2.0), (0.9, 10.0, 9.81, 30.0), (0.97, 1.0, 50.0, 0.5),
    (0.2, 0.3, 0.1, 0.01)])
def test_line_cone_enclosure_bounds_the_second_derivative(a, b, G, Fn):
    # the line cone's enclosure lies M h^2 / 8 below the least grid value of
    # c(r), with M = 4 b^2 + 3 a G / (1 - a^2)^(3/2) + 2 sup|F| read back
    # from the certificate; M bounds |c''| by differences on a fine grid
    F = make_fourier_forcing(1.0, 1, [Fn], [])
    cert = verify_bound_set(BoundSetSpec(a, b, 1), G, F, samples_per_face=4)
    r = np.linspace(0.0, a, bounds._CONE_RADII)
    K0, B, one_minus = _cone_radial(r, G, b)
    M = 8.0 * (np.min(K0 + B - F.sup_norm * one_minus)
               - cert.min_margin_delta) / (r[1] - r[0]) ** 2
    assert M == pytest.approx(4 * b * b + 3 * a * G / (1 - a * a) ** 1.5
                              + 2 * F.sup_norm, rel=1e-6)
    r, h = np.linspace(0.0, a, 20_001, retstep=True)
    K0, B, one_minus = _cone_radial(r, G, b)
    c = K0 + B - F.sup_norm * one_minus
    assert np.max(np.abs(c[2:] - 2.0 * c[1:-1] + c[:-2])) / h ** 2 <= M


@pytest.mark.parametrize("dim", [1, 2], ids=["line", "plane"])
def test_closed_form_witnesses_leave_the_trap_on_both_sides(dim):
    # the closed-form faces run no arcs at verification; their witnesses are
    # confirmed here by two-sided arcs of 1e-3 periods.  From the cylinder's
    # worst witness (p = 0, x along F(t*), t* where |F| peaks on the grid)
    # both arcs end outside |x| = a, as both arcs from a vertex |p| = b end
    # outside the cone.  The line cone's witness at its argmin radius
    # crosses: forward it leaves the trap, backward it comes from inside,
    # and its mirror (x, -p) crosses the other way
    if dim == 1:
        spec, F = _line_certify_spec(), F1
    else:
        spec, F = BoundSetSpec(compute_a(9.81, F4.sup_norm), 5.6, 2), F4
    cert = verify_bound_set(spec, 9.81, F, samples_per_face=8)
    cfg, dt = IntegratorConfig(), 1e-3 * F.period
    t_grid = (np.arange(16) + 0.5) / 16 * F.period
    w = cert.worst_gamma[0]
    assert w["t"] == t_grid[np.argmax(np.linalg.norm(F.eval(t_grid), axis=1))]
    cylinder = {"face": "gamma", "t": w["t"], "lam": 1.0, "x": np.array(w["x"]),
                "p": np.array(w["p"]), "exact_gate": True, "gate": 0.0,
                "curv": w["margin"]}
    assert bounds._spot_check(cylinder, spec, 9.81, F, cfg, dt)
    p = spec.b * np.eye(dim)[-1]
    assert bounds._spot_check(_vertex_sample(w["t"], p), spec, 9.81, F, cfg, dt)
    if dim == 1:
        w = cert.worst_delta[0]
        r = np.linspace(0.0, spec.a, bounds._CONE_RADII)
        K0, B, one_minus = _cone_radial(r, 9.81, spec.b)
        j = np.argmin(K0 + B - F.sup_norm * one_minus)
        assert w["t"] == cylinder["t"] and abs(w["x"][0]) == r[max(j, 1)]
        for sign in (1.0, -1.0):
            cone = {"face": "delta", "t": w["t"], "lam": 1.0,
                    "x": np.array(w["x"]), "p": sign * np.array(w["p"]),
                    "exact_gate": False, "curv": 0.0,
                    "gate": sign * np.sign(w["x"][0]) * w["margin"]}
            assert bounds._spot_check(cone, spec, 9.81, F, cfg, dt)


def _exact_cone_threshold(a, Fn, G=9.81):
    """The least ``b`` with ``c(r) >= 0`` on a dense grid of ``[0, a]``."""
    r = np.linspace(0.0, a, 200_001)
    need = (Fn * (1 - r * r) - r * G * np.sqrt(1 - r * r)) * (1 + r) / (1 - r)
    return math.sqrt(max(float(np.max(need)), 0.0)), r


@pytest.mark.parametrize("seed", range(3))
def test_line_never_verifies_a_trap_with_a_negative_closed_form(seed):
    # random Fourier forcings near the exact threshold b*: a verified trap
    # has c(r) > 0 on a dense grid, and a negative one is always refuted
    rng = np.random.default_rng(seed)
    for _ in range(8):
        k = int(rng.integers(1, 4))
        coeffs = rng.normal(size=(2, k)) * rng.uniform(0.5, 10.0) / np.arange(1, k + 1)
        F = make_fourier_forcing(rng.uniform(0.5, 2.0), 1, *coeffs.tolist())
        a = compute_a(9.81, F.sup_norm)
        b_star, r = _exact_cone_threshold(a, F.sup_norm)
        b = rng.uniform(0.95, 1.05) * b_star
        c = (b * b * (1 - r) / (1 + r) + r * 9.81 * np.sqrt(1 - r * r)
             - F.sup_norm * (1 - r * r))
        cert = verify_bound_set(BoundSetSpec(a, b, 1), 9.81, F,
                                samples_per_face=4, seed=seed)
        assert cert.min_margin_delta <= np.min(c)
        if np.min(c) < 0.0:
            assert not cert.verified
            assert any(f["face"] == "cone" for f in cert.failures)


def test_line_certificate_is_the_same_for_every_seed(tmp_path):
    # a line verification draws nothing from its random stream: seeds 0-3
    # write the same certificate but for its "seed"
    texts = set()
    for seed in range(4):
        cert = verify_bound_set(_line_certify_spec(), 9.81, F1,
                                samples_per_face=8, seed=seed)
        save_certificate_json(cert, tmp_path / "certificate.json")
        text = (tmp_path / "certificate.json").read_text()
        texts.add(text.replace(f'"seed": {seed}\n', ""))
    assert len(texts) == 1


def test_verify_deterministic_given_seed():
    spec = BoundSetSpec(a=0.5, b=2.0, dim=1)
    c1 = verify_bound_set(spec, 9.81, F1, samples_per_face=6, seed=3)
    c2 = verify_bound_set(spec, 9.81, F1, samples_per_face=6, seed=3)
    assert c1.min_margin_gamma == c2.min_margin_gamma
    assert c1.min_margin_delta == c2.min_margin_delta
    d1, d2 = certificate_to_dict(c1), certificate_to_dict(c2)
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_verify_density_stability_linear():
    a = compute_a(9.81, 2.0)
    b = compute_b_linear(a, 2.0)
    spec = BoundSetSpec(a, b, 1)
    c1 = verify_bound_set(spec, 9.81, F1, samples_per_face=8)
    c2 = verify_bound_set(spec, 9.81, F1, samples_per_face=16)
    assert c1.verified and c2.verified


# 1-D certificates: verified, corner_ok, boundary samples, gamma and delta
# gate counts, min_margin_gamma, min_margin_delta.  Both margins are closed
# forms in sup |F|: the cylinder's a sqrt(1 - a^2) a_margin, and the cone's
# c(r) enclosed on [0, a]; each face pools one witness per grid time, and the
# boundary samples are those witnesses.  No spot check runs.  Inputs: the
# benchmark's ``certify`` linear config (a, b from the sampled sup |F|,
# 32 samples per face, seed 1), its twin refuted with b = 1, and the config
# of demos/bound_set_certificate.py (a, b from |F| = 2, 16 per face, seed 0).
LINEAR_CERTIFICATES = {
    "certify": (True, True, 128, 64, 64,
                2.056384041007539, 7.930707687005328),
    "refute": (False, False, 128, 64, 64,
               2.056384041007539, -1.0016506507460003),
    "demo": (True, True, 64, 32, 32,
             2.0558744143717473, 7.926827221926628),
    "demo_refuted": (False, False, 64, 32, 32,
                     2.0558744143717473, -1.0016505909647686),
}


def test_linear_certificates_match_reference_values():
    a_c = compute_a(9.81, F1.sup_norm)
    a_d = compute_a(9.81, 2.0)
    runs = {"certify": (a_c, compute_b_linear(a_c, F1.sup_norm), 32, 1),
            "refute": (a_c, 1.0, 32, 1),
            "demo": (a_d, compute_b_linear(a_d, 2.0), 16, 0),
            "demo_refuted": (a_d, 1.0, 16, 0)}
    for name, (a, b, spf, seed) in runs.items():
        cert = verify_bound_set(BoundSetSpec(a, b, 1), 9.81, F1,
                                samples_per_face=spf, seed=seed)
        *exact, delta = LINEAR_CERTIFICATES[name]
        assert (cert.verified, cert.corner_ok, cert.boundary_samples,
                cert.gamma_gate_count, cert.delta_gate_count,
                cert.min_margin_gamma) == tuple(exact), name
        assert cert.spot_checks == {"attempted": 0, "passed": 0,
                                    "failures": []}, name
        assert abs(cert.min_margin_delta - delta) <= 1e-9 * abs(delta), name


def test_lambda_free_kernels_run_once_per_verification(monkeypatch):
    # each face computes its lam-free terms once: the cylinder's witnesses
    # in one call, and the cone's K0, B for all of its radii, in the plane
    # for every cell of the disk of forcing values at once
    calls = {}

    def counted(name, kernel):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return kernel(*args, **kwargs)
        return wrapper

    names = ("_cylinder_quantities", "_cone_radial")
    for name in names:
        monkeypatch.setattr(bounds, name, counted(name, getattr(bounds, name)))
    a1 = compute_a(9.81, 2.0)
    a2 = compute_a(9.81, 1.5)
    for spec, F in ((BoundSetSpec(a1, compute_b_linear(a1, 2.0), 1), F1),
                    (BoundSetSpec(a2, 5.0, 2), F2)):
        calls.clear()
        verify_bound_set(spec, 9.81, F, samples_per_face=6)
        assert calls == {"_cylinder_quantities": 1, "_cone_radial": 1}, spec


def test_certificate_json_roundtrip(tmp_path):
    spec = BoundSetSpec(a=0.5, b=2.0, dim=1)
    cert = verify_bound_set(spec, 9.81, F1, samples_per_face=6)
    out = tmp_path / "certificate.json"
    save_certificate_json(cert, out)
    loaded = json.loads(out.read_text())
    assert loaded["verified"] == cert.verified
    assert loaded["spec"]["a"] == 0.5
    assert loaded["spec"]["b"] == 2.0
    assert "min_margin_gamma" in loaded and "min_margin_delta" in loaded


# -- degree and containment ----------------------------------------------

def test_degree_signs():
    assert degree_of_autonomous_field(9.81, 1) == -1
    assert degree_of_autonomous_field(9.81, 2) == 1
    assert degree_of_autonomous_field(0.3, 1) == -1
    assert degree_of_autonomous_field(0.3, 2) == 1


def test_orbit_containment():
    params = ModelParams(G=9.81, lam=1.0, dim=1)
    traj = evolve(0.0, 1.0, PhaseState(0.01, 0.0), params, F1)
    spec = BoundSetSpec(a=0.6, b=4.25, dim=1)
    report = orbit_containment(traj, spec)
    assert report["contained"]
    assert report["max_x_norm"] <= 0.6
    tight = orbit_containment(traj, BoundSetSpec(a=0.005, b=4.25, dim=1))
    assert not tight["contained"]


def test_spec_validation():
    with pytest.raises(ValueError):
        BoundSetSpec(a=1.5, b=1.0, dim=1)
    with pytest.raises(ValueError):
        BoundSetSpec(a=0.5, b=-1.0, dim=1)
    with pytest.raises(ValueError):
        BoundSetSpec(a=0.5, b=1.0, dim=3)
    with pytest.raises(ValueError):
        verify_bound_set(BoundSetSpec(a=0.5, b=2.0, dim=1), 9.81, F1,
                         samples_per_face=0)


def test_spot_check_arcs_step_on_the_path_knots(monkeypatch):
    # 128 knots of the carriage path 0.02 sin(2 pi t): an arc of 1e-3 that
    # starts 4e-4 past a knot crosses it backward, one that starts 4e-4
    # before a knot crosses it forward; either arc ends a step on it
    ts = np.linspace(0.0, 1.0, 129)
    F, G = ingest_path(PathSamples(ts, 0.02 * np.sin(2 * math.pi * ts)), 9.81)
    spec = BoundSetSpec(0.5, 2.0, 1)
    arcs = []

    def recorded(*args, **kwargs):
        kwargs["breaks"] = list(kwargs["breaks"])  # drawn lazily, so listed here
        traj = integrate_field(*args, **kwargs)
        arcs.append((kwargs["breaks"], traj.t_nodes.tolist()))
        return traj

    monkeypatch.setattr(bounds, "integrate_field", recorded)
    knot = 5 / 128
    for t0, crossing in ((knot + 4e-4, "backward"), (knot - 4e-4, "forward")):
        sample = {"face": "gamma", "t": t0, "lam": 1.0, "x": np.asarray([0.5]),
                  "p": np.asarray([0.3]), "exact_gate": False, "gate": 0.15,
                  "curv": 0.0}
        arcs.clear()
        assert bounds._spot_check(sample, spec, G, F, IntegratorConfig(), 1e-3)
        (fwd_breaks, fwd_nodes), (bwd_breaks, bwd_nodes) = arcs
        if crossing == "backward":
            assert fwd_breaks == [] and bwd_breaks == [t0 - knot]
        else:
            assert fwd_breaks == [knot] and bwd_breaks == []
        assert set(fwd_breaks) <= set(fwd_nodes) and set(bwd_breaks) <= set(bwd_nodes)


def test_planar_spot_arcs_take_one_step_and_thirteen_field_reads(monkeypatch):
    # the circle at its benchmark slope, 6 samples per face and seed 1: 50
    # cells, 100 arcs, each one accepted step of 13 field evaluations (the
    # start, the start step's probe and 11 more stages); each arc starts
    # from a list of floats, and the gauge reads its last node as floats
    evals, arcs = [], []

    def counted(*args, **kwargs):
        field = make_field(*args, **kwargs)

        def fun(t, y):
            evals.append(t)
            return field(t, y)
        return fun

    def recorded(fun, t0, t1, y0, *args, **kwargs):
        traj = integrate_field(fun, t0, t1, y0, *args, **kwargs)
        arcs.append((type(y0), traj.n_accepted, traj.n_rejected, vars(traj).keys()))
        return traj

    monkeypatch.setattr(bounds, "make_field", counted)
    monkeypatch.setattr(bounds, "integrate_field", recorded)
    a = compute_a(9.81, F2.sup_norm)
    cert = verify_bound_set(BoundSetSpec(a, PLANAR_SLOPES["circle"], 2), 9.81, F2,
                            samples_per_face=6, seed=1)
    assert cert.verified and cert.spot_checks["attempted"] == 50
    assert [arc[:3] for arc in arcs] == [(list, 1, 0)] * 100
    assert not any({"_t", "_y", "_h", "_rows", "_ready"} & arc[3] for arc in arcs)
    assert len(evals) == 1300

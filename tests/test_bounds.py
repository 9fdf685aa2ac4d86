from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from upright import bounds
from upright.bounds import (BoundSetSpec, _cone_gate_roots, _cone_gate_terms,
                            _cone_quantities, _cylinder_quantities,
                            certificate_to_dict, compute_a_linear,
                            compute_a_planar, compute_b_linear,
                            compute_b_planar, degree_of_autonomous_field,
                            exit_cone_check, orbit_containment,
                            save_certificate_json, verify_bound_set)
from upright.dynamics import ModelParams, PhaseState, make_field
from upright.errors import BoundVerificationError
from upright.forcing import make_fourier_forcing
from upright.integrator import evolve

F1 = make_fourier_forcing(1.0, 1, [2.0], [])
F2 = make_fourier_forcing(1.0, 2, [(1.5, 0.0)], [(0.0, 1.5)])
Z1 = make_fourier_forcing(1.0, 1, [0.0], [])
Z2 = make_fourier_forcing(1.0, 2, [(0.0, 0.0)], [])


# -- closed-form constants ----------------------------------------------

def test_a_linear_unforced():
    assert compute_a_linear(9.81, 0.0, 0.5) == pytest.approx(0.5)


def test_a_linear_threshold_values():
    # a* = F/sqrt(G^2+F^2); the returned radius interpolates toward 1
    a = compute_a_linear(1.0, 1.0, 0.5)
    a_star = (a - 0.5) / 0.5
    assert a_star == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    a = compute_a_linear(9.81, 2.0, 0.5)
    a_star = (a - 0.5) / 0.5
    assert a_star == pytest.approx(2.0 / math.sqrt(9.81 ** 2 + 4.0), abs=1e-15)
    assert a_star == pytest.approx(0.19978, abs=5e-5)


@settings(max_examples=50, deadline=None)
@given(G=st.floats(0.1, 50.0), Fn=st.floats(0.0, 20.0),
       m=st.floats(0.05, 0.95))
def test_a_linear_properties(G, Fn, m):
    a = compute_a_linear(G, Fn, m)
    assert 0.0 < a < 1.0
    a_star = (a - m) / (1.0 - m)
    # the threshold radius balances gravity against the forcing exactly
    assert G * a_star == pytest.approx(Fn * math.sqrt(1.0 - a_star ** 2),
                                       rel=1e-12, abs=1e-12)


def test_b_linear_threshold_values():
    # thresholds: sqrt((1+a) F/(1-a)); margin inflates multiplicatively
    assert compute_b_linear(0.8, 1.0, 0.5) == pytest.approx(3.0 * 1.5, rel=1e-15)
    assert compute_b_linear(0.5, 4.0, 0.5) \
        == pytest.approx(3.4641016151377544 * 1.5, rel=1e-14)
    # unforced case returns the margin itself as a floor
    assert compute_b_linear(0.5, 0.0, 0.25) == 0.25


def test_a_planar_against_root_finder():
    for G, Fn in ((1.0, 1.0), (9.81, 1.5), (5.0, 3.0)):
        a = compute_a_planar(G, Fn, 0.5)
        a_star = (a - 0.5) / 0.5
        h = lambda s: G * s * math.sqrt(1 + s) - (1 + s) * Fn * math.sqrt(1 - s)
        ref = brentq(h, 1e-9, 1.0 - 1e-9, xtol=1e-13)
        assert a_star == pytest.approx(ref, abs=1e-10)


def test_a_planar_unforced_and_monotone():
    assert compute_a_planar(9.81, 0.0, 0.5) == pytest.approx(0.5)
    prev = 0.0
    for Fn in (0.5, 1.0, 2.0, 4.0):
        a = compute_a_planar(9.81, Fn, 0.5)
        assert a > prev
        prev = a


def test_b_planar_start_respects_quartic_bound():
    # with a=0.5 and |F| about 1 the quartic constraint needs b >= 128^(1/4)
    F_unit = make_fourier_forcing(1.0, 2, [(1.0, 0.0)], [(0.0, 1.0)])
    b, _ = compute_b_planar(0.5, F_unit, 9.81, samples_per_face=6)
    assert b >= (16.0 / 0.125) ** 0.25
    assert b * b > F_unit.sup_norm


def test_b_planar_certificate_and_cap(monkeypatch):
    a = compute_a_planar(9.81, 1.5, 0.5)
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
    _, curv = _cylinder_quantities([0.0], [[0.9]], [[0.0]], 0.0, Z1, 1.0)
    v = float(curv[0])
    assert v == pytest.approx(0.81 * math.sqrt(0.19), rel=1e-13)
    assert v == pytest.approx(0.3530708144267946, rel=1e-13)


def test_curvature_cylinder_positive_unforced():
    for th in np.linspace(0.0, 2 * math.pi, 7):
        x = 0.6 * np.array([math.cos(th), math.sin(th)])
        _, curv = _cylinder_quantities([0.0], [x], [np.zeros(2)], 0.0, Z2, 9.81)
        assert curv[0] > 0.0


def test_curvature_cylinder_lambda_monotone_in_forcing_sign():
    # the forcing contribution is -lam (1-|x|^2) x.F, so pushing lam to 1
    # lowers the margin exactly when x.F > 0
    a = 0.6
    x = np.array([a, 0.0])
    p = np.zeros(2)
    Fc = make_fourier_forcing(1.0, 2, [(1.5, 0.0)], [])  # x.F(0) > 0
    (v0,), (v1,) = (_cylinder_quantities([0.0], [x], [p], lam, Fc, 9.81)[1]
                    for lam in (0.0, 1.0))
    assert v1 < v0
    # x.F(0) < 0, worst case is lam=0
    (w0,), (w1,) = (_cylinder_quantities([0.0], [-x], [p], lam, Fc, 9.81)[1]
                    for lam in (0.0, 1.0))
    assert w1 > w0


def test_curvature_cone_unforced_orthogonal_sample():
    # face point with x.p = 0: gate holds trivially, value must be positive
    b = 3.0
    x = np.array([0.2, 0.0])
    p_mag = b * (1.0 - 0.2)
    gate, curv = _cone_quantities([0.0], [x], [[0.0, p_mag]], 0.0, Z2, 9.81, b)
    assert gate[0] == 0.0
    assert curv[0] > 0.0


def test_exit_cone_check_analytic():
    Fn = F2.sup_norm
    grid = np.linspace(0.0, 1.0, 21)
    b_hi = math.sqrt(2.0 * Fn)
    b_lo = math.sqrt(0.5 * Fn)
    assert exit_cone_check(0.0, np.array([0.0, b_hi]), F2, grid)
    assert not exit_cone_check(0.0, np.array([0.0, b_lo]), F2, grid)
    assert exit_cone_check(0.0, np.array([0.5, 0.0]), Z2, grid)


def test_exit_cone_check_with_integration():
    Fn = F2.sup_norm
    grid = np.linspace(0.0, 1.0, 21)
    p = np.array([0.0, math.sqrt(4.0 * Fn)])
    assert exit_cone_check(0.3, p, F2, grid, G=9.81)


# -- closed-form planar cone gates ---------------------------------------

F4 = make_fourier_forcing(
    1.0, 2, [(1.0, 0.2), (0.3, 0.1), (0.1, 0.2), (0.05, 0.05)],
    [(0.1, 1.0), (0.2, 0.3), (0.1, 0.1), (0.05, 0.02)])


def _cone_gate(t, theta, r, psi, lam, F, b, G=9.81):
    x = r[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    p = (b * (1.0 - r))[:, None] * np.stack([np.cos(psi), np.sin(psi)], axis=1)
    return _cone_quantities(t, x, p, lam, F, G, b, want_curvature=False)[0]


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


def _check_gate_roots(t, theta, r, lam, F, b):
    """Closed-form roots: every scanned root, true gate points, at most 6."""
    K0, K1, B, f_perp = _cone_gate_terms(theta, r, F.eval(t), 9.81, b)
    cells, psi = _cone_gate_roots(theta, K0 - lam * K1, B, lam * f_perp)
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
    return _cone_gate_terms(theta, r, np.zeros((1, 2)), 9.81, b)[2][0]


def _constant_forcing(theta, r, b, K, L):
    """A constant forcing that gives one cell the gate terms K and L at lam = 1."""
    K0 = _cone_gate_terms(theta, r, np.zeros((1, 2)), 9.81, b)[0][0]
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
    a = compute_a_linear(9.81, 2.0, 0.5)
    b = compute_b_linear(a, 2.0, 0.5)
    cert = verify_bound_set(BoundSetSpec(a, b, 1), 9.81, F1, samples_per_face=8)
    assert cert.verified
    assert cert.spot_checks["attempted"] == 50
    assert cert.spot_checks["passed"] == 50
    assert cert.thresholds["invariants_ok"]


def test_verify_detects_undersized_cone():
    # with b^2 below |F| even the cone vertex stops repelling; the
    # certificate must fail and name offending face samples
    a = compute_a_linear(9.81, 2.0, 0.5)
    cert = verify_bound_set(BoundSetSpec(a, 1.0, 1), 9.81, F1,
                            samples_per_face=8)
    assert not cert.verified
    assert not cert.corner_ok
    assert len(cert.failures) > 0
    assert cert.min_margin_delta < 0
    worst = cert.worst_delta[0]
    assert worst["lam"] == 1.0  # forcing extremes live at the grid endpoint
    assert not cert.thresholds["invariants_ok"]


def test_verify_planar_config():
    a = compute_a_planar(9.81, 1.5, 0.5)
    b, _ = compute_b_planar(a, F2, 9.81, samples_per_face=6)
    cert = verify_bound_set(BoundSetSpec(a, b, 2), 9.81, F2, samples_per_face=6)
    assert cert.verified
    assert cert.gamma_gate_count > 0 and cert.delta_gate_count > 0
    # gate-passing samples obey the velocity-alignment estimate
    assert len(cert.xtp_abs) == len(cert.xtp_bound) > 0
    assert np.all(cert.xtp_abs <= cert.xtp_bound + 1e-9)


def test_verify_deterministic_given_seed():
    spec = BoundSetSpec(a=0.5, b=2.0, dim=1)
    c1 = verify_bound_set(spec, 9.81, F1, samples_per_face=6, seed=3)
    c2 = verify_bound_set(spec, 9.81, F1, samples_per_face=6, seed=3)
    assert c1.min_margin_gamma == c2.min_margin_gamma
    assert c1.min_margin_delta == c2.min_margin_delta
    d1, d2 = certificate_to_dict(c1), certificate_to_dict(c2)
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_verify_density_stability_linear():
    a = compute_a_linear(9.81, 2.0, 0.5)
    b = compute_b_linear(a, 2.0, 0.5)
    spec = BoundSetSpec(a, b, 1)
    c1 = verify_bound_set(spec, 9.81, F1, samples_per_face=8)
    c2 = verify_bound_set(spec, 9.81, F1, samples_per_face=16)
    assert c1.verified and c2.verified


def test_verify_lambda_grid_contains_endpoints():
    spec = BoundSetSpec(a=0.5, b=2.0, dim=1)
    cert = verify_bound_set(spec, 9.81, F1, samples_per_face=6)
    grid = np.asarray(cert.lambda_grid)
    assert grid[0] == 0.0 and grid[-1] == 1.0 and len(grid) == 21


# 1-D certificates as the per-scale verifier computed them, before the cone
# gate became g0 + lam g1: verified, corner_ok, boundary samples, gamma and
# delta gate counts, min_margin_gamma, min_margin_delta.  Inputs: the
# benchmark's ``certify`` linear config (a, b from the sampled sup |F|,
# 32 samples per face, seed 1), its twin refuted with b = 1, and the config
# of demos/bound_set_certificate.py (a, b from |F| = 2, 16 per face, seed 0).
LINEAR_CERTIFICATES = {
    "certify": (True, True, 524288, 2688, 349440,
                2.0574163000705328, 7.932731780020939),
    "refute": (False, False, 524288, 2688, 349440,
               2.0574163000705328, -0.9728440159359384),
    "demo": (True, True, 133120, 1344, 88704,
             2.061400024358217, 7.936341612622172),
    "demo_refuted": (False, False, 133120, 1344, 88704,
                     2.061400024358217, -0.9330854656279305),
}


def test_linear_certificates_match_reference_values():
    a_c = compute_a_linear(9.81, F1.sup_norm, 0.5)
    a_d = compute_a_linear(9.81, 2.0, 0.5)
    runs = {"certify": (a_c, compute_b_linear(a_c, F1.sup_norm, 0.5), 32, 1),
            "refute": (a_c, 1.0, 32, 1),
            "demo": (a_d, compute_b_linear(a_d, 2.0, 0.5), 16, 0),
            "demo_refuted": (a_d, 1.0, 16, 0)}
    for name, (a, b, spf, seed) in runs.items():
        cert = verify_bound_set(BoundSetSpec(a, b, 1), 9.81, F1,
                                samples_per_face=spf,
                                lambda_grid=np.linspace(0.0, 1.0, 21), seed=seed)
        *exact, delta = LINEAR_CERTIFICATES[name]
        assert (cert.verified, cert.corner_ok, cert.boundary_samples,
                cert.gamma_gate_count, cert.delta_gate_count,
                cert.min_margin_gamma) == tuple(exact), name
        assert cert.spot_checks == {"attempted": 50, "passed": 50,
                                    "failures": []}, name
        assert abs(cert.min_margin_delta - delta) <= 1e-9 * abs(delta), name


def test_lambda_free_kernels_run_once_per_verification(monkeypatch):
    # each face computes its samples' lam-free terms once; a grid of 21
    # scales must call these kernels exactly as often as a grid of 3
    calls = {}

    def counted(name, kernel):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return kernel(*args, **kwargs)
        return wrapper

    for name in ("_cylinder_terms", "_cone_branch_terms", "_cone_gate_terms"):
        monkeypatch.setattr(bounds, name, counted(name, getattr(bounds, name)))
    a1 = compute_a_linear(9.81, 2.0, 0.5)
    a2 = compute_a_planar(9.81, 1.5, 0.5)
    for spec, F, cone in ((BoundSetSpec(a1, compute_b_linear(a1, 2.0, 0.5), 1),
                           F1, "_cone_branch_terms"),
                          (BoundSetSpec(a2, 5.0, 2), F2, "_cone_gate_terms")):
        seen = []
        for n_lam in (3, 21):
            calls.clear()
            verify_bound_set(spec, 9.81, F, samples_per_face=6,
                             lambda_grid=np.linspace(0.0, 1.0, n_lam))
            seen.append(dict(calls))
        assert seen[0] == seen[1], (spec.dim, seen)
        assert seen[0]["_cylinder_terms"] > 0 and seen[0][cone] > 0, seen


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

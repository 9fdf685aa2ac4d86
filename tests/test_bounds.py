from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from upright.bounds import (BoundSetSpec, certificate_to_dict,
                            compute_a_linear, compute_a_planar,
                            compute_b_linear, compute_b_planar,
                            curvature_check_m, curvature_check_n,
                            degree_of_autonomous_field, exit_cone_check,
                            orbit_containment, save_certificate_json,
                            verify_bound_set)
from upright.dynamics import ModelParams, PhaseState, make_field
from upright.errors import BoundVerificationError, InvalidSampleError
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
    b = compute_b_planar(0.5, F_unit, 9.81, samples_per_face=6)
    assert b >= (16.0 / 0.125) ** 0.25
    assert b * b > F_unit.sup_norm


def test_b_planar_certificate_and_cap():
    a = compute_a_planar(9.81, 1.5, 0.5)
    b, cert = compute_b_planar(a, F2, 9.81, samples_per_face=6,
                               return_certificate=True)
    assert cert.verified
    assert cert.spec.b == b
    with pytest.raises(BoundVerificationError):
        compute_b_planar(a, F2, 9.81, b_cap=2.0, samples_per_face=6)


def test_b_planar_unforced_floor():
    b = compute_b_planar(0.5, Z2, 9.81, samples_per_face=6)
    assert b == pytest.approx(1.0)


# -- pointwise checks ----------------------------------------------------

def test_curvature_cylinder_hand_value():
    # d=1, p=0, x=a, unforced: curvature is G a^2 sqrt(1-a^2)
    params = ModelParams(G=1.0, lam=0.0, dim=1)
    v = curvature_check_m(0.0, PhaseState(0.9, 0.0), params, Z1, 0.9)
    assert v == pytest.approx(0.81 * math.sqrt(0.19), rel=1e-13)
    assert v == pytest.approx(0.3530708144267946, rel=1e-13)


def test_curvature_cylinder_positive_unforced():
    params = ModelParams(G=9.81, lam=0.0, dim=2)
    for th in np.linspace(0.0, 2 * math.pi, 7):
        x = 0.6 * np.array([math.cos(th), math.sin(th)])
        v = curvature_check_m(0.0, PhaseState(x, np.zeros(2)), params, Z2, 0.6)
        assert v > 0.0


def test_curvature_cylinder_lambda_monotone_in_forcing_sign():
    # the forcing contribution is -lam (1-|x|^2) x.F, so pushing lam to 1
    # lowers the margin exactly when x.F > 0
    a = 0.6
    x = np.array([a, 0.0])
    s = PhaseState(x, np.zeros(2))
    Fc = make_fourier_forcing(1.0, 2, [(1.5, 0.0)], [])  # x.F(0) > 0
    v0 = curvature_check_m(0.0, s, ModelParams(G=9.81, lam=0.0, dim=2), Fc, a)
    v1 = curvature_check_m(0.0, s, ModelParams(G=9.81, lam=1.0, dim=2), Fc, a)
    assert v1 < v0
    s_neg = PhaseState(-x, np.zeros(2))  # x.F(0) < 0, worst case is lam=0
    w0 = curvature_check_m(0.0, s_neg, ModelParams(G=9.81, lam=0.0, dim=2), Fc, a)
    w1 = curvature_check_m(0.0, s_neg, ModelParams(G=9.81, lam=1.0, dim=2), Fc, a)
    assert w1 > w0


def test_curvature_cylinder_rejects_bad_samples():
    params = ModelParams(G=9.81, lam=0.0, dim=1)
    with pytest.raises(InvalidSampleError):
        curvature_check_m(0.0, PhaseState(0.5, 0.0), params, Z1, 0.6)
    with pytest.raises(InvalidSampleError):
        # gate is x.p = 0.6*1.0, far from zero
        curvature_check_m(0.0, PhaseState(0.6, 1.0), params, Z1, 0.6)


def test_curvature_cone_vertex_rejected():
    params = ModelParams(G=9.81, lam=0.0, dim=2)
    with pytest.raises(InvalidSampleError):
        curvature_check_n(0.0, PhaseState(np.zeros(2), np.array([0.0, 2.0])),
                          params, Z2, 2.0)


def test_curvature_cone_unforced_orthogonal_sample():
    # face point with x.p = 0: gate holds trivially, value must be positive
    b = 3.0
    x = np.array([0.2, 0.0])
    p_mag = b * (1.0 - 0.2)
    s = PhaseState(x, np.array([0.0, p_mag]))
    params = ModelParams(G=9.81, lam=0.0, dim=2)
    v = curvature_check_n(0.0, s, params, Z2, b)
    assert v > 0.0


def test_curvature_cone_requires_face_membership():
    params = ModelParams(G=9.81, lam=0.0, dim=2)
    s = PhaseState(np.array([0.2, 0.0]), np.array([0.0, 1.0]))  # n_b != 0
    with pytest.raises(InvalidSampleError):
        curvature_check_n(0.0, s, params, Z2, 3.0)


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
    b = compute_b_planar(a, F2, 9.81, samples_per_face=6)
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

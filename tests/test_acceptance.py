"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line (visible under ``pytest -s``) and
enforces the advertised tolerance and runtime for one headline capability:
degree signs, unforced and forced periodic orbits in both dimensions,
bound-set certificates with density stability, the velocity-alignment
estimate on cone gates, Jacobian cross-validation against the matrix
exponential, the finite-journey bisection, and the integrator order.
"""
from __future__ import annotations

import functools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from numpy import cosh, sinh, sqrt
from scipy.integrate import quad
from scipy.linalg import expm

from upright import poincare
from upright.bounds import (BoundSetSpec, compute_a, compute_b_linear,
                            compute_b_planar, orbit_containment,
                            save_certificate_json, verify_bound_set)
from upright.cli import main
from upright.dynamics import ModelParams, PhaseState
from upright.forcing import make_fourier_forcing
from upright.integrator import IntegratorConfig, evolve
from upright.poincare import continue_in_lambda, poincare_jacobian, poincare_map
from upright.whitney import FallClass, JourneySpec, bisect_survivor

G_EARTH = 9.81
TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)

F_LIN = make_fourier_forcing(1.0, 1, [2.0], [])
F_PLA = make_fourier_forcing(1.0, 2, [(1.5, 0.0)], [(0.0, 1.5)])
Z_LIN = make_fourier_forcing(1.0, 1, [0.0], [])
Z_PLA = make_fourier_forcing(1.0, 2, [(0.0, 0.0)], [])
DEMO_OUTPUT = Path(__file__).resolve().parents[1] / "demos" / "output"


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL: {label}")
                raise
            print(f"PASS: {label}")
        return wrapper
    return deco


def continue_tight(params, F):
    """Continuation under TIGHT steps, Newton converged to 1e-12."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poincare, "_NEWTON_TOL", 1e-12)
        return continue_in_lambda(params, F, TIGHT)


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


@pytest.fixture(scope="session")
def linear_orbit():
    params = ModelParams(G=G_EARTH, lam=0.0, dim=1)
    result, elapsed = timed(continue_tight, params, F_LIN)
    return result, elapsed


@pytest.fixture(scope="session")
def planar_orbit():
    params = ModelParams(G=G_EARTH, lam=0.0, dim=2)
    result, elapsed = timed(continue_tight, params, F_PLA)
    return result, elapsed


@pytest.fixture(scope="session")
def linear_constants():
    a = compute_a(G_EARTH, 2.0, 0.5)
    b = compute_b_linear(a, 2.0, 0.5)
    return a, b


@pytest.fixture(scope="session")
def planar_constants():
    a = compute_a(G_EARTH, 1.5, 0.5)
    b, _ = compute_b_planar(a, F_PLA, G_EARTH, samples_per_face=8)
    return a, b


@pytest.fixture(scope="session")
def planar_certificate(planar_constants):
    a, b = planar_constants
    return verify_bound_set(BoundSetSpec(a, b, 2), G_EARTH, F_PLA,
                            samples_per_face=16)


@criterion("degree signs -1 (linear) and +1 (planar) in under 1 s")
def test_degree_signs(tmp_path, capsys):
    t0 = time.perf_counter()
    for problem, expected in (("linear", -1), ("planar", 1)):
        cfg = tmp_path / f"{problem}.json"
        cfg.write_text(json.dumps({"problem": problem}))
        out = tmp_path / problem
        assert main(["degree", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "result.json").read_text())["degree"] == expected
    elapsed = time.perf_counter() - t0
    text = capsys.readouterr().out
    assert "degree = -1" in text and "degree = +1" in text
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


@criterion("unforced continuation returns the origin to 1e-12 in both dims")
def test_unforced_fixed_points():
    t0 = time.perf_counter()
    for dim, Z in ((1, Z_LIN), (2, Z_PLA)):
        params = ModelParams(G=G_EARTH, lam=0.0, dim=dim)
        result = continue_tight(params, Z)
        assert np.linalg.norm(result.fixed_point.flat()) < 1e-12
        assert result.residual < 1e-12
    assert time.perf_counter() - t0 < 5.0


@criterion("linear periodic orbit: convergence, closure over 3 periods, "
           "containment (< 60 s)")
def test_linear_periodic_orbit(linear_orbit, linear_constants):
    result, elapsed = linear_orbit
    a, b = linear_constants
    z = result.fixed_point
    params = ModelParams(G=G_EARTH, lam=1.0, dim=1)
    Pz = poincare_map(z, params, F_LIN, TIGHT)
    assert np.linalg.norm(Pz.flat() - z.flat()) < 1e-8
    traj = evolve(0.0, 3.0, z, params, F_LIN, TIGHT)
    for k in (1.0, 2.0, 3.0):
        assert np.linalg.norm(traj.dense_array([k])[0] - z.flat()) < 3e-8
    report = orbit_containment(traj, BoundSetSpec(a, b, 1))
    assert report["contained"], report
    assert elapsed < 60.0, f"continuation took {elapsed:.1f}s"


@criterion("planar periodic orbit: convergence, closure, containment, "
           "quarter-turn equivariance (< 5 min)")
def test_planar_periodic_orbit(planar_orbit, planar_constants):
    result, elapsed = planar_orbit
    a, b = planar_constants
    z = result.fixed_point
    params = ModelParams(G=G_EARTH, lam=1.0, dim=2)
    Pz = poincare_map(z, params, F_PLA, TIGHT)
    assert np.linalg.norm(Pz.flat() - z.flat()) < 1e-8
    traj = evolve(0.0, 3.0, z, params, F_PLA, TIGHT)
    for k in (1.0, 2.0, 3.0):
        assert np.linalg.norm(traj.dense_array([k])[0] - z.flat()) < 3e-8
    report = orbit_containment(traj, BoundSetSpec(a, b, 2))
    assert report["contained"], report

    Q = np.array([[0.0, -1.0], [1.0, 0.0]])
    FQ = make_fourier_forcing(1.0, 2, [Q @ np.array([1.5, 0.0])],
                              [Q @ np.array([0.0, 1.5])])
    result_q, elapsed_q = timed(
        continue_tight, ModelParams(G=G_EARTH, lam=0.0, dim=2), FQ)
    R = np.zeros((4, 4))
    R[:2, :2] = Q
    R[2:, 2:] = Q
    assert np.linalg.norm(result_q.fixed_point.flat() - R @ z.flat()) < 1e-6
    assert elapsed + elapsed_q < 300.0


@criterion("orbit demos reproduce demos/output/orbit_{linear,planar}.csv "
           "to 1e-10")
def test_orbit_demos_reproduce_committed_csv(tmp_path):
    # the configs and sampling of demos/periodic_orbit_{linear,planar}.py
    for name, dim, F in (("orbit_linear.csv", 1, F_LIN),
                         ("orbit_planar.csv", 2, F_PLA)):
        result = continue_in_lambda(ModelParams(G=G_EARTH, lam=0.0, dim=dim), F)
        result.orbit.to_csv(tmp_path / name, n_samples=501)
        committed = (DEMO_OUTPUT / name).read_text().splitlines()
        rerun = (tmp_path / name).read_text().splitlines()
        assert rerun[0] == committed[0]
        assert len(rerun) == len(committed) == 502
        ref = np.loadtxt(committed[1:], delimiter=",")
        new = np.loadtxt(rerun[1:], delimiter=",")
        assert np.max(np.abs(new - ref)) < 1e-10, name


@criterion("the certificate demo reproduces "
           "demos/output/certificate_{pass,fail}.json byte for byte")
def test_certificate_demo_reproduces_committed_json(tmp_path):
    # the config of demos/bound_set_certificate.py
    a = compute_a(G_EARTH, 2.0, margin=0.5)
    b = compute_b_linear(a, 2.0, margin=0.5)
    for name, slope in (("certificate_pass.json", b),
                        ("certificate_fail.json", 1.0)):
        cert = verify_bound_set(BoundSetSpec(a, slope, 1), G_EARTH, F_LIN,
                                samples_per_face=16)
        save_certificate_json(cert, tmp_path / name)
        assert (tmp_path / name).read_bytes() == (DEMO_OUTPUT / name).read_bytes(), name


@criterion("bound certificates verified at default and doubled density "
           "with margins within 10%")
def test_certificates_density_stable(linear_constants, planar_constants,
                                     planar_certificate):
    a1, b1 = linear_constants
    a2, b2 = planar_constants
    runs = {
        ("linear", 16): verify_bound_set(BoundSetSpec(a1, b1, 1), G_EARTH,
                                         F_LIN, samples_per_face=16),
        ("linear", 32): verify_bound_set(BoundSetSpec(a1, b1, 1), G_EARTH,
                                         F_LIN, samples_per_face=32),
        ("planar", 16): planar_certificate,
        ("planar", 32): verify_bound_set(BoundSetSpec(a2, b2, 2), G_EARTH,
                                         F_PLA, samples_per_face=32),
    }
    for cert in runs.values():
        assert cert.verified
        assert cert.min_margin_gamma > 0.0
        assert cert.min_margin_delta > 0.0
        assert cert.corner_ok
    for problem in ("linear", "planar"):
        base, dense = runs[(problem, 16)], runs[(problem, 32)]
        for field in ("min_margin_gamma", "min_margin_delta"):
            m1, m2 = getattr(base, field), getattr(dense, field)
            assert abs(m2 - m1) <= 0.10 * abs(m1), (problem, field, m1, m2)


@criterion("cone gate samples obey |x.p| <= 4|F||x|/b + 1e-9")
def test_velocity_alignment_on_gates(planar_certificate):
    cert = planar_certificate
    assert cert.xtp_abs.size > 100
    assert np.all(cert.xtp_abs <= cert.xtp_bound + 1e-9)


# a, b, min_margin_gamma and min_margin_delta of three planar certificates
# as the 32-angle scan plus bisection located the cone gates: circular and
# four-harmonic forcing (the benchmark's ``certify`` inputs) at 6 samples
# per face and seed 1, and the constants of the ``planar_certificate``
# fixture (b at 8 samples per face, the certificate at 16).  ``a`` is the
# cylinder radius of that time, a root found by scan and bisection; the
# closed form of ``compute_a`` differs from it by rounding only.  The gamma
# column is the cylinder's closed form ``a sqrt(1 - a^2) a_margin``, below
# the sampled gate minimum the scan found (2.081234, 2.077206, 2.080274).
# The delta column is the cone's least margin over the disk of forcing
# values with F' at its worst, below the scan's sampled minimum (42.936869,
# 43.761040, 42.920549): at r = a, f = sup|F| along x, s = pi/2.
SCANNED_GATE_CERTIFICATES = {
    "circle": (0.5756875158306229, 4.895909838375161, 2.0801728300743396,
               42.898122435491),
    "four_harmonics": (0.5921084515564417, 5.57902769511731,
                       2.0646063982244867, 40.702895688276485),
    "fixture": (0.5755742408625792, 4.894929803842235, 2.0793869356565997,
                42.89948446486489),
}


@criterion("planar certificates keep the verdicts and margins found when "
           "cone gates were scanned")
def test_planar_certificates_match_scanned_gates(planar_certificate):
    four = make_fourier_forcing(
        1.0, 2, [(1.0, 0.2), (0.3, 0.1), (0.1, 0.2), (0.05, 0.05)],
        [(0.1, 1.0), (0.2, 0.3), (0.1, 0.1), (0.05, 0.02)])
    inputs = {"circle": (F_PLA, F_PLA.sup_norm, 6, 1),
              "four_harmonics": (four, four.sup_norm, 6, 1),
              "fixture": (F_PLA, 1.5, 8, 0)}
    certs = {}
    for name, (F, F_norm, spf, seed) in inputs.items():
        a_ref = SCANNED_GATE_CERTIFICATES[name][0]
        assert abs(compute_a(G_EARTH, F_norm, 0.5) - a_ref) <= 1e-12, name
        b, cert = compute_b_planar(a_ref, F, G_EARTH, samples_per_face=spf,
                                   seed=seed)
        if name == "fixture":
            cert = verify_bound_set(BoundSetSpec(a_ref, b, 2), G_EARTH, F,
                                    samples_per_face=16)
        certs[name] = (b, cert)
    for name, (b, cert) in certs.items():
        _, b_ref, gamma_ref, delta_ref = SCANNED_GATE_CERTIFICATES[name]
        assert b == b_ref, name
        assert cert.verified, name
        assert cert.min_margin_gamma == gamma_ref, name
        assert abs(cert.min_margin_delta - delta_ref) <= 1e-9 * delta_ref, name
        assert cert.spot_checks == {"attempted": 50, "passed": 50,
                                    "failures": []}, name
    # at the closed-form radius the fixture keeps its verdict, its spot
    # checks and both margins to 1e-9
    _, _, gamma_ref, delta_ref = SCANNED_GATE_CERTIFICATES["fixture"]
    cert = planar_certificate
    assert cert.verified
    assert abs(cert.min_margin_gamma - gamma_ref) <= 1e-9 * gamma_ref
    assert abs(cert.min_margin_delta - delta_ref) <= 1e-9 * delta_ref
    assert cert.spot_checks == {"attempted": 50, "passed": 50, "failures": []}


@criterion("period-map Jacobians: finite differences vs variational to "
           "1e-4, both vs matrix exponential to 1e-6")
def test_jacobian_cross_validation(linear_orbit, planar_orbit):
    for (result, _), dim, F in ((linear_orbit, 1, F_LIN),
                                (planar_orbit, 2, F_PLA)):
        params = ModelParams(G=G_EARTH, lam=1.0, dim=dim)
        z = result.fixed_point
        J_fd = poincare_jacobian(z, params, F, TIGHT, mode="finite_difference")
        J_var = poincare_jacobian(z, params, F, TIGHT, mode="variational")
        scale = np.maximum(np.abs(J_var), 1.0)
        assert np.max(np.abs(J_fd - J_var) / scale) < 1e-4

    # autonomous linearization at the origin: the period map IS expm(A)
    params0 = ModelParams(G=1.0, lam=0.0, dim=1)
    origin = PhaseState(0.0, 0.0)
    ref = expm(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert ref[0, 0] == pytest.approx(math.cosh(1.0), rel=1e-15)
    assert ref[0, 1] == pytest.approx(math.sinh(1.0), rel=1e-15)
    for mode in ("finite_difference", "variational"):
        J = poincare_jacobian(origin, params0, Z_LIN, TIGHT, mode=mode)
        assert np.max(np.abs(J - ref)) < 1e-6, mode


@criterion("finite-journey bisection: bracket invariant at every step and "
           "a non-falling midpoint at rel_tol 1e-12 (< 60 s)")
def test_whitney_journey():
    F = make_fourier_forcing(2 * math.pi, 1, [0.0], [0.5])
    journey = JourneySpec(F=F, t_end=10.0, G=G_EARTH)
    result, elapsed = timed(bisect_survivor, journey, TIGHT, depth=60)
    assert result.endpoint_classes == (FallClass.FALLS_NEGATIVE,
                                       FallClass.FALLS_POSITIVE)
    steps = result.transcript
    assert steps[0].left == -0.999 and steps[0].right == 0.999
    for prev, cur in zip(steps, steps[1:]):
        assert prev.mid == 0.5 * (prev.left + prev.right)
        if prev.outcome is FallClass.FALLS_NEGATIVE:
            assert (cur.left, cur.right) == (prev.mid, prev.right)
        else:
            assert (cur.left, cur.right) == (prev.left, prev.mid)
    x_star = result.best
    traj = evolve(0.0, 10.0, PhaseState(x_star, 0.0),
                  ModelParams(G=G_EARTH, lam=1.0, dim=1), F, TIGHT)
    assert traj.fall_event is None
    ts = np.linspace(0.0, 10.0, 4001)
    assert np.max(np.abs(traj.dense_array(ts)[:, 0])) < 0.999
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


@criterion("tolerance tightening by 1e-2 cuts the terminal error at least "
           "16-fold against the matrix-exponential oracle")
def test_integrator_order_against_linearization():
    # Reference: the linearized flow expm(t A) from x0 = 1e-3.  The true
    # solution differs by the cubic remainder r with
    # |r(t)| <= A^3 (cosh^3(t)/2 + cosh(t) sinh^2(t)) (1 + eps), and through
    # the Duhamel formula the terminal gap is at most
    #   B = (1+eps) A^3 int_0^1 sqrt(cosh 2(1-s)) (cosh^3 s / 2
    #       + cosh s sinh^2 s) ds,
    # so measured errors pin the numerical error to within B either way.
    A = 1e-3
    I, quad_err = quad(
        lambda s: sqrt(cosh(2 * (1 - s)))
        * (0.5 * cosh(s) ** 3 + cosh(s) * sinh(s) ** 2), 0.0, 1.0)
    assert quad_err < 1e-12
    B = 1.05 * 1.001 ** 3 * I * A ** 3

    params = ModelParams(G=1.0, lam=0.0, dim=1)
    z0 = PhaseState(A, 0.0)
    ref = expm(np.array([[0.0, 1.0], [1.0, 0.0]])) @ np.array([A, 0.0])

    def terminal_error(rel):
        cfg = IntegratorConfig(rel_tol=rel, abs_tol=rel * 1e-4)
        traj = evolve(0.0, 1.0, z0, params, Z_LIN, cfg)
        return float(np.linalg.norm(traj.states[-1] - ref))

    # the budget itself is checked against an ultra-tight run
    assert terminal_error(1e-13) <= B
    e_base = terminal_error(3e-3)
    e_tight = terminal_error(3e-5)
    assert e_base - B >= 16.0 * (e_tight + B), (e_base, e_tight, B)

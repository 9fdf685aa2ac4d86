from __future__ import annotations

import json
import logging
import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from oracles import linear_scalar_rhs, rk4_scalar
from upright import integrator, poincare
from upright.dynamics import ModelParams, PhaseState, make_field
from upright.errors import ContinuationStuckError, FallError
from upright.forcing import PathSamples, ingest_path, make_fourier_forcing
from upright.integrator import IntegratorConfig, evolve, integrate_field
from upright.poincare import (_NEWTON_TOL, PeriodicOrbitResult, _finish,
                              _newton, _period_pass, continue_in_lambda,
                              poincare_jacobian, poincare_map, result_to_dict,
                              save_result_json)

TWO_PI = 2.0 * math.pi
COSH1 = 1.5430806348152437
SINH1 = 1.1752011936438014

Z1 = make_fourier_forcing(1.0, 1, [0.0], [])
Z2 = make_fourier_forcing(1.0, 2, [(0.0, 0.0)], [])
F_SMALL = make_fourier_forcing(1.0, 1, [0.05], [])
F_LIN = make_fourier_forcing(1.0, 1, [2.0], [])
F_CIRCLE = make_fourier_forcing(1.0, 2, [(1.5, 0.0)], [(0.0, 1.5)])
F_FALLS = make_fourier_forcing(3.0, 1, [8.0], [])
TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


def refine(z0, params, F):
    """Newton on the period map from ``z0``, then the converged pass's orbit
    and residual and the monodromy, as continuation finishes."""
    cfg = IntegratorConfig()
    z, residual, run = _newton(z0, params, F, cfg)
    return _finish(z, residual, run, [(params.lam, z.flat().copy(), residual)],
                   params, F, cfg)


def test_poincare_map_fixes_origin():
    params = ModelParams(G=9.81, lam=0.0, dim=1)
    out = poincare_map(PhaseState(0.0, 0.0), params, Z1)
    assert np.allclose(out.flat(), [0.0, 0.0], atol=1e-14)


def test_poincare_map_matches_linearization_near_origin():
    params = ModelParams(G=1.0, lam=0.0, dim=1)
    z = np.array([1e-6, 0.0])
    out = poincare_map(PhaseState.from_flat(z), params, Z1).flat()
    ref = expm(np.array([[0.0, 1.0], [1.0, 0.0]])) @ z
    assert np.linalg.norm(out - ref) < 1e-3 * np.linalg.norm(ref)


def test_poincare_map_raises_on_fall():
    params = ModelParams(G=9.81, lam=0.0, dim=1)
    with pytest.raises(FallError) as exc:
        poincare_map(PhaseState(0.9, 2.0), params, Z1)
    assert 0.0 < exc.value.time < 1.0


def test_autonomous_flow_commutes_with_period_map():
    params = ModelParams(G=1.0, lam=0.0, dim=1)
    cfg = IntegratorConfig()
    z = PhaseState(0.01, 0.0)
    s = 0.3
    phi_s = evolve(0.0, s, z, params, Z1, cfg).end_state()
    left = poincare_map(phi_s, params, Z1, cfg).flat()
    Pz = poincare_map(z, params, Z1, cfg)
    right = evolve(0.0, s, Pz, params, Z1, cfg).end_state().flat()
    assert np.allclose(left, right, atol=1e-9)


@pytest.mark.parametrize("mode", ["finite_difference", "variational"])
def test_jacobian_is_matrix_exponential_at_zero_forcing(mode):
    # a 1e-6 entrywise match needs the map itself at ~1e-13, else the
    # central-difference noise floor abs_tol/fd_step dominates
    params = ModelParams(G=1.0, lam=0.0, dim=1)
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    J = poincare_jacobian(PhaseState(0.0, 0.0), params, Z1, cfg, mode=mode)
    expect = np.array([[COSH1, SINH1], [SINH1, COSH1]])
    assert np.max(np.abs(J - expect)) < 1e-6


def test_jacobian_planar_block_structure():
    params = ModelParams(G=1.0, lam=0.0, dim=2)
    z = PhaseState(np.zeros(2), np.zeros(2))
    J = poincare_jacobian(z, params, Z2, mode="variational")
    expect = np.zeros((4, 4))
    expect[0, 0] = expect[1, 1] = expect[2, 2] = expect[3, 3] = COSH1
    expect[0, 2] = expect[1, 3] = expect[2, 0] = expect[3, 1] = SINH1
    assert np.max(np.abs(J - expect)) < 1e-6


def test_jacobian_modes_agree_on_random_states():
    F = make_fourier_forcing(1.0, 1, [0.5], [])
    params = ModelParams(G=9.81, lam=0.5, dim=1)
    rng = np.random.default_rng(21)
    for _ in range(5):
        z = PhaseState(rng.uniform(-0.02, 0.02), rng.uniform(-0.05, 0.05))
        cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
        J_fd = poincare_jacobian(z, params, F, cfg, mode="finite_difference")
        J_var = poincare_jacobian(z, params, F, cfg, mode="variational")
        assert np.max(np.abs(J_fd - J_var) / (np.abs(J_var) + 1.0)) < 1e-4


@pytest.mark.parametrize("cfg", [IntegratorConfig(), TIGHT], ids=["default", "tight"])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("dim, F", [(1, F_LIN), (2, F_CIRCLE)], ids=["line", "plane"])
def test_newton_pass_state_rows_are_the_period_map(dim, F, lam, cfg):
    # the state rows of Newton's fused pass take the steps of the plain map:
    # one plain-float step at every width, so they equal it bit for bit
    params = ModelParams(G=9.81, lam=lam, dim=dim)
    rng = np.random.default_rng(7)
    verdicts = set()
    for _ in range(8):
        z = PhaseState(rng.uniform(-0.2, 0.2, dim), rng.uniform(-0.5, 0.5, dim))
        try:
            expect = poincare_map(z, params, F, cfg).flat()
        except FallError:
            with pytest.raises(FallError):
                _period_pass(z, params, F, cfg, n_err=2 * dim)
            verdicts.add("fell")
            continue
        Pz, _, _ = _period_pass(z, params, F, cfg, n_err=2 * dim)
        assert np.array_equal(Pz, expect)
        verdicts.add("stayed")
    assert verdicts == {"fell", "stayed"}


@pytest.mark.parametrize("dim, F", [(1, F_LIN), (2, F_CIRCLE)], ids=["line", "plane"])
def test_newton_pass_jacobian_matches_finite_differences(dim, F):
    params = ModelParams(G=9.81, lam=0.5, dim=dim)
    rng = np.random.default_rng(21)
    for _ in range(3):
        z = PhaseState(rng.uniform(-0.02, 0.02, dim), rng.uniform(-0.05, 0.05, dim))
        _, DP, _ = _period_pass(z, params, F, TIGHT, n_err=2 * dim)
        J_fd = poincare_jacobian(z, params, F, TIGHT, mode="finite_difference")
        assert np.max(np.abs(J_fd - DP) / (np.abs(DP) + 1.0)) < 1e-4


def test_continuation_runs_one_integration_per_newton_step(monkeypatch):
    # reference linear problem at default tolerances: finite-difference
    # Jacobians made this 77 integrations
    calls = []
    for mod in (integrator, poincare):
        def counted(*args, _inner=mod.integrate_field, **kwargs):
            calls.append(None)
            return _inner(*args, **kwargs)
        monkeypatch.setattr(mod, "integrate_field", counted)
    continue_in_lambda(ModelParams(G=9.81, lam=0.0, dim=1), F_LIN)
    assert 0 < len(calls) <= 30


@pytest.mark.parametrize("dim, F", [(1, F_LIN), (2, F_CIRCLE)], ids=["line", "plane"])
def test_continuation_integrates_once_after_its_last_newton_run(monkeypatch, dim, F):
    # the orbit is the state part of the pass that converged at lam = 1;
    # only the monodromy's full-control pass follows it
    calls = {"evolve": 0, "integrate_field": 0}

    def counted(name, inner):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(poincare, "evolve", counted("evolve", poincare.evolve))
    for mod in (integrator, poincare):
        monkeypatch.setattr(mod, "integrate_field",
                            counted("integrate_field", mod.integrate_field))
    at_last = {}

    def newton(*args, _inner=poincare._newton, **kwargs):
        out = _inner(*args, **kwargs)
        at_last.update(calls)
        return out

    monkeypatch.setattr(poincare, "_newton", newton)
    continue_in_lambda(ModelParams(G=9.81, lam=0.0, dim=dim), F)
    after = {name: calls[name] - at_last[name] for name in calls}
    assert after == {"evolve": 0, "integrate_field": 1}


def _path_64():
    ts = np.linspace(0.0, 1.0, 65)
    xs = 0.02 * np.sin(TWO_PI * ts)
    xs[-1] = xs[0]
    return ingest_path(PathSamples(times=ts, positions=xs), gravity=9.81)[0]


@pytest.mark.parametrize("dim, make_F", [(1, lambda: F_LIN), (2, lambda: F_CIRCLE),
                                         (1, _path_64)],
                         ids=["line", "plane", "path"])
def test_orbit_is_the_run_of_evolve_from_the_fixed_point(dim, make_F):
    # the orbit comes from the Newton pass, not from a second integration,
    # yet it is evolve's run: nodes, states, steps and dense output
    F = make_F()
    result = continue_in_lambda(ModelParams(G=9.81, lam=0.0, dim=dim), F)
    z = result.fixed_point
    ref = evolve(0.0, F.period, z, ModelParams(G=9.81, lam=1.0, dim=dim), F)
    orbit = result.orbit
    assert np.array_equal(orbit.t_nodes, ref.t_nodes)
    assert np.array_equal(orbit.states, ref.states)
    assert (orbit.n_accepted, orbit.n_rejected) == (ref.n_accepted, ref.n_rejected)
    assert orbit.fall_event is None and ref.fall_event is None
    ts = np.linspace(0.0, F.period, 2048)
    assert np.array_equal(orbit.dense_array(ts), ref.dense_array(ts))
    assert result.residual == float(np.linalg.norm(ref.end_state().flat() - z.flat()))


def test_continuation_logs_every_lambda_attempt(caplog):
    caplog.set_level(logging.DEBUG, logger="upright.poincare")
    F = make_fourier_forcing(1.5, 1, [2.0], [])
    result = continue_in_lambda(ModelParams(G=9.81, lam=0.0, dim=1), F)
    # linear T=3, cosine amplitude 8: the rod falls from every start at lam=0
    with pytest.raises(ContinuationStuckError):
        continue_in_lambda(ModelParams(G=9.81, lam=0.0, dim=1), F_FALLS)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "upright.poincare"]
    converged = [line for line in lines if " converged: " in line]
    assert len(converged) == len(result.lambda_path) - 1
    assert any(" fell: " in line for line in lines)
    for line in lines:
        assert line.startswith("lam=")
        assert "Newton iterations, residual " in line and "cond(DP - I) " in line
        assert ", start residual " in line


def test_continuation_gives_up_after_its_attempt_budget(monkeypatch):
    # linear T=3, cosine amplitude 8: every trial rod falls at lam=0, and
    # the budget ends the halving before the step gets below its minimum
    calls = []

    def counted(*args, _inner=poincare._newton, **kwargs):
        calls.append(None)
        return _inner(*args, **kwargs)

    monkeypatch.setattr(poincare, "_newton", counted)
    monkeypatch.setattr(poincare, "_MAX_ATTEMPTS", 5)
    start = time.perf_counter()
    with pytest.raises(ContinuationStuckError, match="in 5 attempts") as info:
        continue_in_lambda(ModelParams(G=9.81, lam=0.0, dim=1), F_FALLS)
    assert len(calls) == 5
    assert info.value.last_lambda < 1.0
    assert time.perf_counter() - start < 30.0


def test_secant_predictor_cuts_the_stress_continuation(monkeypatch):
    # line T=1.5, cosine amplitude 2: Newton started from the last converged
    # point needs 53 period passes here, 3 of its attempts falling
    calls = []

    def counted(*args, _inner=poincare._period_pass, **kwargs):
        calls.append(None)
        return _inner(*args, **kwargs)

    monkeypatch.setattr(poincare, "_period_pass", counted)
    F = make_fourier_forcing(1.5, 1, [2.0], [])
    result = continue_in_lambda(ModelParams(G=9.81, lam=0.0, dim=1), F)
    assert result.lambda_path[-1][0] == 1.0
    assert len(calls) <= 25


def test_planar_continuation_reaches_full_forcing_at_period_3():
    # multipliers near 1.2e4: Newton converges only from starts close to
    # the branch (the line's T=3 cell runs through the CLI in test_cli.py)
    F = make_fourier_forcing(3.0, 2, [(0.5, 0.0)], [(0.0, 0.5)])
    result = continue_in_lambda(ModelParams(G=9.81, lam=0.0, dim=2), F)
    assert result.lambda_path[-1][0] == 1.0
    assert result.residual <= _NEWTON_TOL
    assert result.liouville_defect <= 1e-7


@pytest.mark.parametrize("dim, F", [(1, F_LIN), (2, F_CIRCLE)], ids=["line", "plane"])
def test_fused_pass_keeps_the_liouville_identity_on_arcs(dim, F):
    # the field's divergence is d/dt ln(1 - |x|^2), so along any arc
    # det M(t) = (1 - |x(t)|^2) / (1 - |x(0)|^2)
    params = ModelParams(G=9.81, lam=0.7, dim=dim)
    n = 2 * dim
    fun = make_field(params, F, variational=True)
    rng = np.random.default_rng(5)
    for _ in range(3):
        z = np.concatenate([rng.uniform(-0.1, 0.1, dim),
                            rng.uniform(-0.3, 0.3, dim)])
        Y0 = np.concatenate([z, np.eye(n).ravel()])
        traj = integrate_field(fun, 0.0, 0.4, Y0, TIGHT, dim)
        assert traj.fall_event is None
        x0 = float(z[:dim] @ z[:dim])
        for Y in traj.states[1:]:
            x = Y[:dim]
            det = np.linalg.det(Y[n:].reshape(n, n))
            assert det == pytest.approx((1.0 - x @ x) / (1.0 - x0), rel=1e-11)


def test_newton_converges_to_origin():
    params = ModelParams(G=1.0, lam=0.0, dim=1)
    result = refine(PhaseState(1e-3, 0.0), params, Z1)
    assert isinstance(result, PeriodicOrbitResult)
    assert result.residual < 1e-10
    assert np.linalg.norm(result.fixed_point.flat()) < 1e-10
    # monodromy comes along for free
    expect = np.array([[COSH1, SINH1], [SINH1, COSH1]])
    assert np.max(np.abs(result.monodromy - expect)) < 1e-6


def test_newton_is_idempotent_at_a_fixed_point():
    params = ModelParams(G=9.81, lam=1.0, dim=1)
    first = continue_in_lambda(ModelParams(G=9.81, lam=0.0, dim=1), F_SMALL)
    again = refine(first.fixed_point, params, F_SMALL)
    shift = np.linalg.norm(again.fixed_point.flat() - first.fixed_point.flat())
    assert shift <= _NEWTON_TOL


def test_unforced_continuation_is_a_single_step():
    result = continue_in_lambda(ModelParams(G=9.81, lam=0.0, dim=1), Z1)
    assert len(result.lambda_path) == 2
    assert result.lambda_path[-1][0] == 1.0
    assert result.residual < 1e-12
    assert np.linalg.norm(result.fixed_point.flat()) < 1e-12


def test_continuation_small_forcing_orbit():
    result = continue_in_lambda(ModelParams(G=9.81, lam=0.0, dim=1), F_SMALL)
    assert result.residual < 1e-9
    # the forced orbit stays within the forcing scale
    ts = np.linspace(0.0, 1.0, 200)
    xs = result.orbit.dense_array(ts)[:, 0]
    assert np.max(np.abs(xs)) < 0.05
    # lambda path is monotone with residuals recorded
    lams = [node[0] for node in result.lambda_path]
    assert lams == sorted(lams) and lams[0] == 0.0 and lams[-1] == 1.0
    assert all(node[2] < 1e-9 for node in result.lambda_path)


def test_found_orbit_agrees_with_fixed_step_reintegration():
    # independent check of the periodic orbit: classic RK4 at step 1e-4,
    # whose own error is checked against the same run at half the step
    result = continue_in_lambda(ModelParams(G=9.81, lam=0.0, dim=1), F_SMALL)
    z = result.fixed_point.flat()
    fun = linear_scalar_rhs(9.81, 1.0,
                            lambda t: 0.05 * math.cos(TWO_PI * t))
    x1, p1 = rk4_scalar(fun, 0.0, 1.0, z[0], z[1], h=1e-4)
    x2, p2 = rk4_scalar(fun, 0.0, 1.0, z[0], z[1], h=5e-5)
    assert abs(x2 - x1) <= 1e-11 and abs(p2 - p1) <= 1e-11
    assert abs(x1 - z[0]) < 1e-8
    assert abs(p1 - z[1]) < 1e-8


def test_orbit_endpoints_match_fixed_point():
    result = continue_in_lambda(ModelParams(G=9.81, lam=0.0, dim=1), F_SMALL)
    z = result.fixed_point.flat()
    start, end = result.orbit.dense_array([0.0, 1.0])
    assert np.allclose(start, z, atol=1e-12)
    assert np.linalg.norm(end - z) <= result.residual + 1e-10


def test_small_amplitude_response_scales_linearly():
    norms = []
    for amp in (0.2, 0.1, 0.05):
        F = make_fourier_forcing(1.0, 1, [amp], [])
        result = continue_in_lambda(ModelParams(G=9.81, lam=0.0, dim=1), F)
        norms.append(np.linalg.norm(result.fixed_point.flat()))
    assert norms[0] / norms[1] == pytest.approx(2.0, rel=0.2)
    assert norms[1] / norms[2] == pytest.approx(2.0, rel=0.2)


def test_monodromy_sign_consistency():
    # sign det(M - I) at lam=0 equals the degree of the autonomous field
    params = ModelParams(G=1.0, lam=0.0, dim=1)
    result = refine(PhaseState(0.0, 0.0), params, Z1)
    d = np.linalg.det(result.monodromy - np.eye(2))
    oracle = np.linalg.det(expm(np.array([[0.0, 1.0], [1.0, 0.0]])) - np.eye(2))
    assert math.copysign(1.0, d) == math.copysign(1.0, oracle) == -1.0


def test_result_json_roundtrip(tmp_path):
    result = continue_in_lambda(ModelParams(G=9.81, lam=0.0, dim=1), F_SMALL)
    d = result_to_dict(result)
    assert set(d) >= {"fixed_point", "residual", "lambda_path", "monodromy",
                      "floquet_multipliers", "liouville_defect"}
    assert d["liouville_defect"] == abs(np.linalg.det(result.monodromy) - 1.0)
    assert all(set(n) == {"lam", "state", "residual"} for n in d["lambda_path"])
    out = tmp_path / "result.json"
    save_result_json(result, out)
    loaded = json.loads(out.read_text())
    assert loaded["fixed_point"] == d["fixed_point"]
    assert loaded["residual"] == result.residual

from __future__ import annotations

import itertools
import json
import logging
import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from oracles import linear_scalar_rhs, rk4_scalar
from upright import integrator, poincare
from upright.dynamics import ModelParams, PhaseState, make_field
from upright.errors import (ContinuationStuckError, FallError,
                            IllConditionedError, NewtonConvergenceError)
from upright.forcing import PathSamples, ingest_path, make_fourier_forcing
from upright.integrator import IntegratorConfig, evolve, integrate_field
from upright.poincare import (_LAMBDA_STEP_MIN, _NEWTON_TOL, _STALL_ADVANCE, _STALL_RUNS,
                              PeriodicOrbitResult, _finish, _linear_response, _newton,
                              _period_pass, _predict, continue_in_lambda,
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
# line T=8, cosine amplitude 8: the rod falls from every start at lam=0
F_STUCK = make_fourier_forcing(8.0, 1, [8.0], [])
TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


def refine(z0, params, F):
    """Newton on the period map from ``z0``, then the converged pass's orbit
    and residual and the monodromy, as continuation finishes."""
    cfg = IntegratorConfig()
    z, residual, run = _newton(z0, params, F, cfg, "the test's start")
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
    # line T=1.5, cosine amplitude 8: the first step fails, and the path
    # runs through lam = 0.5 and 0.75
    F = make_fourier_forcing(1.5, 1, [8.0], [])
    result = continue_in_lambda(ModelParams(G=9.81, lam=0.0, dim=1), F)
    with pytest.raises(ContinuationStuckError):
        continue_in_lambda(ModelParams(G=9.81, lam=0.0, dim=1), F_STUCK)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "upright.poincare"]
    converged = [line for line in lines if " converged: " in line]
    assert len(converged) == len(result.lambda_path) - 1 == 3
    assert any(" fell: " in line for line in lines)
    origins = {line.rsplit(" from ", 1)[1] for line in lines}
    assert origins == {"the linear response", "the secant predictor"}
    for line in lines:
        assert line.startswith("lam=")
        assert "Newton iterations, residual " in line and "cond(DP - I) " in line
        assert ", start residual " in line


def test_continuation_gives_up_on_the_step_floor(monkeypatch):
    # no Newton run converges (13 fall, the 14th stalls): the step halves
    # from 1 and falls below _LAMBDA_STEP_MIN after 14 runs
    calls = []

    def counted(*args, _inner=poincare._newton, **kwargs):
        calls.append(None)
        return _inner(*args, **kwargs)

    monkeypatch.setattr(poincare, "_newton", counted)
    start = time.perf_counter()
    with pytest.raises(ContinuationStuckError, match="stalled at lam=0 with step below "
                       "0.0001") as info:
        continue_in_lambda(ModelParams(G=9.81, lam=0.0, dim=1), F_STUCK)
    assert len(calls) == 14 and 2.0 ** -14 < _LAMBDA_STEP_MIN < 2.0 ** -13
    assert info.value.last_lambda == 0.0 and info.value.last_result is None
    assert time.perf_counter() - start < 30.0


def _stubbed_continuation(pattern, reach):
    """The lam of the last fixed point after each Newton run of a line
    continuation whose runs are stubbed to the cycled ``pattern``: a
    success lands at ``lam_try``, unless that lies more than ``reach`` past
    the last fixed point, where it falls."""
    outcomes = itertools.cycle(pattern)
    lams = [0.0]

    def stub(z0, params, F, cfg, origin):
        lam_try = params.lam
        kind = next(outcomes)
        lams.append(lams[-1])
        if kind == "solved" and lam_try - lams[-1] <= reach:
            lams[-1] = lam_try
            return z0, 0.0, None
        if kind == "stalled":
            raise NewtonConvergenceError("stub", residual=1.0, iterations=25)
        if kind == "ill-conditioned":
            raise IllConditionedError("stub", condition=1e13)
        raise FallError("stub", time=0.0)

    with mock.patch.object(poincare, "_newton", stub), \
            mock.patch.object(poincare, "_finish", lambda z, res, run, path, *rest: path):
        try:
            path = continue_in_lambda(ModelParams(G=9.81, lam=0.0, dim=1), F_LIN)
        except ContinuationStuckError as exc:
            assert exc.last_lambda == lams[-1] < 1.0
        else:
            assert path[-1][0] == lams[-1] == 1.0
    return lams[1:]


@settings(max_examples=100, deadline=None)
@given(pattern=st.lists(st.sampled_from(["solved", "fell", "stalled", "ill-conditioned"]),
                        min_size=1, max_size=30),
       reach=st.floats(-4.0, 0.0).map(lambda e: 10.0 ** e))
def test_continuation_ends_within_its_run_bound(pattern, reach):
    # whatever each Newton run does, the step floor or the stall window
    # ends the continuation within _STALL_RUNS / _STALL_ADVANCE = 500 runs
    assert len(_stubbed_continuation(pattern, reach)) <= _STALL_RUNS / _STALL_ADVANCE == 500


def test_a_crawl_at_the_stall_rate_nears_the_run_bound():
    # successes up to 0.00502 past the last fixed point advance lam by
    # about 0.1 in every 50 runs: lam = 1 after 444 runs, within the bound
    lams = _stubbed_continuation(["solved"], 0.00502)
    assert len(lams) == 444 and lams[-1] == 1.0


def test_continuation_stops_a_crawl(monkeypatch):
    # line T=5, cosine amplitude 8: Newton converges only on tiny lam steps,
    # so lam creeps; the stall stop ends it after 50-60 of the 500 runs it allows
    calls = []

    def counted(*args, _inner=poincare._newton, **kwargs):
        calls.append(None)
        return _inner(*args, **kwargs)

    monkeypatch.setattr(poincare, "_newton", counted)
    F = make_fourier_forcing(5.0, 1, [8.0], [])
    with pytest.raises(ContinuationStuckError, match="stalled at lam=.*the last 50 Newton "
                       "runs advanced lam by .*, less than 0.1") as info:
        continue_in_lambda(ModelParams(G=9.81, lam=0.0, dim=1), F)
    assert _STALL_RUNS <= len(calls) <= 60
    assert 0.0 < info.value.last_lambda < _STALL_ADVANCE


def test_secant_predictor_cuts_the_stress_continuation(monkeypatch):
    # line T=1.5, cosine amplitude 2, continued with the first step failed:
    # the tangent to lam = 0.5, then the secant to 1, 7 period passes in all
    _outcomes(monkeypatch, fail_first=True)
    calls = []

    def counted(*args, _inner=poincare._period_pass, **kwargs):
        calls.append(None)
        return _inner(*args, **kwargs)

    monkeypatch.setattr(poincare, "_period_pass", counted)
    F = make_fourier_forcing(1.5, 1, [2.0], [])
    result = continue_in_lambda(ModelParams(G=9.81, lam=0.0, dim=1), F)
    assert len(result.lambda_path) > 2 and result.lambda_path[-1][0] == 1.0
    assert len(calls) <= 10


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


@pytest.mark.parametrize("lam", [0.3, 1.0])
@pytest.mark.parametrize("T", [0.5, 1.0, 3.0])
def test_linear_response_is_the_closed_form(T, lam):
    # x'' = G x - lam F: A cos wt gives x = lam A cos wt / (G + w^2), and
    # A sin wt its quarter-period shift, in each component of the plane;
    # the 128th cosine mode is the samples' Nyquist mode
    G, A, w = 9.81, 2.0, TWO_PI / T
    amp = lam * A / (G + w * w)
    for cos, sin, dim, x, p in [
            ([A], [], 1, [amp], [0.0]),
            ([], [A], 1, [0.0], [amp * w]),
            ([(A, 0.0)], [(0.0, A)], 2, [amp, 0.0], [0.0, amp * w]),
            ([0.0] * 127 + [A], [], 1, [lam * A / (G + (128 * w) ** 2)], [0.0])]:
        F = make_fourier_forcing(T, dim, cos, sin)
        z = _linear_response(ModelParams(G=G, lam=lam, dim=dim), F)
        assert np.max(np.abs(z.x - x)) <= 1e-14
        assert np.max(np.abs(z.p - p)) <= 1e-14


def test_linear_response_reads_a_path_signal():
    # a 128-knot spline through a two-mode path: finite, and within the
    # spline's error of the response to the path's exact acceleration
    ts = np.linspace(0.0, 1.0, 129)
    xs = np.stack([0.02 * np.sin(TWO_PI * ts), 0.01 * np.cos(2 * TWO_PI * ts)], axis=1)
    xs[-1] = xs[0]
    F, G = ingest_path(PathSamples(times=ts, positions=xs), gravity=9.81)
    params = ModelParams(G=G, lam=1.0, dim=2)
    z = _linear_response(params, F).flat()
    exact = make_fourier_forcing(1.0, 2, [(0.0, 0.0), (0.0, -0.01 * (2 * TWO_PI) ** 2)],
                                 [(-0.02 * TWO_PI ** 2, 0.0)])
    assert np.all(np.isfinite(z))
    assert np.max(np.abs(z - _linear_response(params, exact).flat())) <= 1e-5


def _outcomes(monkeypatch, fail_first=False):
    """Record each ``_newton`` run of a continuation as ``(lam, start,
    origin, error type or None)``.  With ``fail_first`` the first run falls
    without integrating, so that the continuation goes on from lam = 0."""
    runs = []

    def recorded(z0, params, F, cfg, origin, _inner=poincare._newton):
        try:
            if fail_first and not runs:
                raise FallError("the first run falls", time=0.0)
            out = _inner(z0, params, F, cfg, origin)
        except (FallError, NewtonConvergenceError, IllConditionedError) as exc:
            runs.append((params.lam, z0.flat(), origin, type(exc)))
            raise
        runs.append((params.lam, z0.flat(), origin, None))
        return out

    monkeypatch.setattr(poincare, "_newton", recorded)
    return runs


@pytest.mark.parametrize("dim, F", [(1, F_LIN), (2, F_CIRCLE)], ids=["line", "plane"])
def test_reference_orbit_is_one_newton_run_at_full_forcing(monkeypatch, dim, F):
    runs = _outcomes(monkeypatch)
    params = ModelParams(G=9.81, lam=0.0, dim=dim)
    result = continue_in_lambda(params, F)
    [(lam, start, origin, error)] = runs
    assert (lam, origin, error) == (1.0, "the linear response", None)
    assert np.array_equal(start, _linear_response(params.with_lam(1.0), F).flat())
    (lam0, z0, r0), (lam1, z1, r1) = result.lambda_path
    assert (lam0, r0, lam1, r1) == (0.0, 0.0, 1.0, result.residual)
    assert np.array_equal(z0, np.zeros(2 * dim))
    assert np.array_equal(z1, result.fixed_point.flat())
    assert result.residual <= _NEWTON_TOL


def test_a_falling_linear_response_falls_back_to_continuation(monkeypatch):
    # a failed step from lam = 0 is halved, and Newton starts at half the
    # linear response; with two fixed points on the path, at their secant
    runs = _outcomes(monkeypatch, fail_first=True)
    params = ModelParams(G=9.81, lam=0.0, dim=1)
    result = continue_in_lambda(params, F_LIN)
    tangent = _linear_response(params.with_lam(1.0), F_LIN).flat()
    (lam0, z0, origin0, error0), (lam1, z1, origin1, _) = runs[:2]
    assert (lam0, origin0, error0) == (1.0, "the linear response", FallError)
    assert np.array_equal(z0, tangent)
    assert (lam1, origin1) == (0.5, "the linear response")
    assert np.array_equal(z1, 0.5 * tangent)
    assert all(origin == "the secant predictor" for _, _, origin, _ in runs[2:])
    assert [lam for lam, _, _ in result.lambda_path] == [0.0, 0.5, 1.0]


def test_predictor_falls_back_to_the_last_fixed_point():
    # a start that is not finite, or leans the rod past the fall threshold,
    # is replaced by the last point of the path (dyadic values: exact sums)
    path = [(0.0, np.zeros(2), 0.0)]
    for tangent in ([np.nan, 0.0], [0.0, np.inf], [2.0, 0.0]):
        z, origin = _predict(path, 0.5, np.array(tangent))
        assert origin == "the last fixed point" and np.array_equal(z.flat(), [0.0, 0.0])
    z, origin = _predict(path, 0.5, np.array([0.25, 0.5]))
    assert origin == "the linear response" and np.array_equal(z.flat(), [0.125, 0.25])
    path.append((0.5, np.array([0.125, -0.25]), 0.0))
    z, origin = _predict(path, 0.75, np.array([np.nan, np.nan]))
    assert origin == "the secant predictor" and np.array_equal(z.flat(), [0.1875, -0.375])
    # the secant through (0.5, 0.125) and (0.625, 0.875) reaches 1.625 at 0.75
    path.append((0.625, np.array([0.875, 0.0]), 0.0))
    z, origin = _predict(path, 0.75, np.zeros(2))
    assert origin == "the last fixed point" and np.array_equal(z.flat(), [0.875, 0.0])


@pytest.mark.parametrize("T", [1.0, 3.0])
@pytest.mark.parametrize("A", [0.5, 2.0])
@pytest.mark.parametrize("family", ["line", "plane", "mixed"])
def test_direct_and_continued_fixed_points_agree(monkeypatch, family, A, T):
    # an atlas subset: G = 9.81, line A cos wt, plane circle of radius A,
    # line A cos wt + (A/2) sin 2wt
    dim, cos, sin = {"line": (1, [A], []),
                     "plane": (2, [(A, 0.0)], [(0.0, A)]),
                     "mixed": (1, [A], [0.0, A / 2])}[family]
    F = make_fourier_forcing(T, dim, cos, sin)
    params = ModelParams(G=9.81, lam=0.0, dim=dim)
    direct = continue_in_lambda(params, F)
    _outcomes(monkeypatch, fail_first=True)
    continued = continue_in_lambda(params, F)
    assert len(continued.lambda_path) > 2
    shift = np.max(np.abs(direct.fixed_point.flat() - continued.fixed_point.flat()))
    assert shift <= 1e-9


# cells of the regime atlas (G = 9.81) whose first step fails, each with a
# ceiling on its Newton runs, the count it took when the ceiling was set;
# A = 8 at T = 3 takes 150-195 runs (the line's runs in test_cli.py)
@pytest.mark.parametrize("family, A, T, runs", [
    ("line", 2.0, 3.0, 15), ("plane", 2.0, 3.0, 15), ("mixed", 2.0, 3.0, 20),
    ("line", 8.0, 1.5, 5), ("mixed", 8.0, 1.5, 5),
    ("line", 8.0, 2.0, 15), ("plane", 8.0, 2.0, 15), ("mixed", 8.0, 2.0, 20)])
def test_continued_cells_solve_within_their_newton_runs(monkeypatch, family, A, T, runs):
    dim, cos, sin = {"line": (1, [A], []),
                     "plane": (2, [(A, 0.0)], [(0.0, A)]),
                     "mixed": (1, [A], [0.0, A / 2])}[family]
    F = make_fourier_forcing(T, dim, cos, sin)
    record = _outcomes(monkeypatch)
    result = continue_in_lambda(ModelParams(G=9.81, lam=0.0, dim=dim), F)
    assert len(result.lambda_path) > 2 and result.lambda_path[-1][0] == 1.0
    assert result.residual <= _NEWTON_TOL
    assert result.liouville_defect <= 1e-7
    assert len(record) <= runs


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

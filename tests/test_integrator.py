from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import linear_scalar_rhs, rhs_linear, rk4_integrate, rk4_until_fall
from upright import integrator
from upright.dynamics import ModelParams, PhaseState, make_field
from upright.errors import StepBudgetError
from upright.forcing import make_fourier_forcing
from upright.integrator import (EventKind, IntegratorConfig, Trajectory,
                                evolve, integrate_field)

TWO_PI = 2.0 * math.pi

F1 = make_fourier_forcing(1.0, 1, [2.0], [])
Z1 = make_fourier_forcing(1.0, 1, [0.0], [])


def test_equilibrium_stays_put():
    params = ModelParams(G=9.81, lam=1.0, dim=1)
    traj = evolve(0.0, 5.0, PhaseState(0.0, 0.0), params, Z1)
    assert traj.events == []
    assert np.allclose(traj.end_state().flat(), [0.0, 0.0], atol=1e-13)
    assert np.allclose(traj.dense_eval(2.34).flat(), [0.0, 0.0], atol=1e-13)


def test_unstable_equilibrium_fall_against_rk4():
    params = ModelParams(G=1.0, lam=0.0, dim=1)
    cfg = IntegratorConfig()
    traj = evolve(0.0, 20.0, PhaseState(0.1, 0.0), params, Z1, cfg)
    ev = traj.fall_event
    assert ev is not None and ev.kind is EventKind.FALL_POSITIVE

    fun = lambda t, y: rhs_linear(t, y, 1.0, 0.0, lambda _: 0.0)
    fell, t_fall, _ = rk4_until_fall(fun, 0.0, 20.0, [0.1, 0.0], 1,
                                     cfg.fall_threshold, h=1e-4)
    assert fell
    assert ev.time == pytest.approx(t_fall, abs=1e-5)

    # x grows monotonically along the way
    ts = np.linspace(0.0, ev.time * 0.999, 200)
    xs = traj.dense_array(ts)[:, 0]
    assert np.all(np.diff(xs) > 0)


def test_states_match_rk4_before_fall():
    params = ModelParams(G=9.81, lam=1.0, dim=1)
    traj = evolve(0.0, 1.0, PhaseState(0.1, 0.0), params, F1)
    assert traj.fall_event is None
    fun = lambda t, y: rhs_linear(t, y, 9.81, 1.0,
                                  lambda s: 2.0 * math.cos(TWO_PI * s))
    for t in (0.25, 0.5, 0.75, 1.0):
        ref = rk4_integrate(fun, 0.0, t, [0.1, 0.0], h=1e-4)
        assert np.allclose(traj.dense_eval(t).flat(), ref, rtol=1e-7, atol=1e-8)


def test_semigroup_property():
    params = ModelParams(G=9.81, lam=1.0, dim=1)
    cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11)
    z = PhaseState(0.1, 0.0)
    whole = evolve(0.0, 1.0, z, params, F1, cfg).end_state()
    mid = evolve(0.0, 0.5, z, params, F1, cfg).end_state()
    two_leg = evolve(0.5, 1.0, mid, params, F1, cfg).end_state()
    # both routes agree to ten times the local tolerance scale
    assert np.allclose(whole.flat(), two_leg.flat(), atol=1e-8)


def test_dense_eval_interpolates_nodes():
    params = ModelParams(G=9.81, lam=1.0, dim=1)
    traj = evolve(0.0, 1.0, PhaseState(0.05, 0.1), params, F1)
    for i in range(0, len(traj.t_nodes), 5):
        t = traj.t_nodes[i]
        assert np.allclose(traj.dense_eval(float(t)).flat(), traj.states[i],
                           rtol=1e-12, atol=1e-12)


def test_dense_array_matches_dense_eval():
    params = ModelParams(G=9.81, lam=1.0, dim=1)
    traj = evolve(0.0, 1.0, PhaseState(0.05, 0.1), params, F1)
    ts = np.linspace(0.0, 1.0, 37)
    block = traj.dense_array(ts)
    for i, t in enumerate(ts):
        assert np.allclose(block[i], traj.dense_eval(float(t)).flat(),
                           atol=1e-14)


def test_fall_event_is_localized_on_threshold():
    params = ModelParams(G=1.0, lam=0.0, dim=1)
    cfg = IntegratorConfig()
    traj = evolve(0.0, 20.0, PhaseState(0.1, 0.0), params, Z1, cfg)
    ev = traj.fall_event
    x_at_event = abs(traj.dense_eval(ev.time).x.item())
    # |x| sits on the threshold to localization accuracy
    assert x_at_event == pytest.approx(cfg.fall_threshold, abs=1e-9)
    assert ev.time == traj.t_nodes[-1]


def test_negative_fall_direction():
    params = ModelParams(G=1.0, lam=0.0, dim=1)
    traj = evolve(0.0, 20.0, PhaseState(-0.1, 0.0), params, Z1)
    assert traj.fall_event.kind is EventKind.FALL_NEGATIVE


def test_planar_fall_kind():
    Z2 = make_fourier_forcing(1.0, 2, [(0.0, 0.0)], [])
    params = ModelParams(G=1.0, lam=0.0, dim=2)
    s = PhaseState(np.array([0.1, 0.05]), np.zeros(2))
    traj = evolve(0.0, 20.0, s, params, Z2)
    assert traj.fall_event.kind is EventKind.FALL_PLANAR


def test_boundary_event_gets_a_list_and_stops_the_run():
    seen = set()

    def boundary(t, y):
        seen.add(type(y))
        return y[0] * y[0] + y[1] * y[1] - 0.25

    params = ModelParams(G=1.0, lam=0.0, dim=1)
    traj = evolve(0.0, 20.0, PhaseState(0.1, 0.0), params, Z1, boundary=boundary)
    assert seen == {list}
    assert traj.fall_event is None
    (ev,) = traj.events
    assert ev.kind is EventKind.BOUNDARY_EXIT
    assert ev.time == traj.t_end < 20.0
    assert ev.state[0] ** 2 + ev.state[1] ** 2 == pytest.approx(0.25, abs=1e-9)


def test_reversibility():
    params = ModelParams(G=9.81, lam=1.0, dim=1)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
    fun = make_field(params, F1)
    y0 = np.array([0.1, 0.0])
    fwd = integrate_field(fun, 0.0, 1.0, y0, cfg)
    y1 = fwd.states[-1]

    def fun_rev(s, y):
        return [-v for v in fun(1.0 - s, y)]

    back = integrate_field(fun_rev, 0.0, 1.0, y1, cfg)
    assert np.allclose(back.states[-1], y0, atol=1e-8)


def test_step_budget_error():
    params = ModelParams(G=9.81, lam=1.0, dim=1)
    cfg = IntegratorConfig(max_steps=5)
    with pytest.raises(StepBudgetError):
        evolve(0.0, 10.0, PhaseState(0.1, 0.0), params, F1, cfg)


def test_initial_state_on_threshold_rejected():
    params = ModelParams(G=9.81, lam=1.0, dim=1)
    cfg = IntegratorConfig()
    with pytest.raises(ValueError):
        evolve(0.0, 1.0, PhaseState(cfg.fall_threshold, 0.0), params, F1, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(fall_threshold=1.5)


# flowing z over [0, T] and over [T, 2T] must land on the same state

def test_shift_periodicity_autonomous_zero():
    params = ModelParams(G=9.81, lam=0.0, dim=1)
    z = PhaseState(0.0, 0.0)
    a = evolve(0.0, 1.0, z, params, Z1)
    b = evolve(1.0, 2.0, z, params, Z1)
    assert a.fall_event is None and b.fall_event is None
    assert float(np.linalg.norm(a.states[-1] - b.states[-1])) == 0.0


def test_shift_periodicity_forced():
    params = ModelParams(G=9.81, lam=1.0, dim=1)
    cfg = IntegratorConfig()
    z = PhaseState(0.05, 0.0)
    a = evolve(0.0, 1.0, z, params, F1, cfg)
    b = evolve(1.0, 2.0, z, params, F1, cfg)
    assert a.fall_event is None and b.fall_event is None
    d = float(np.linalg.norm(a.states[-1] - b.states[-1]))
    assert d < 100.0 * cfg.rel_tol * (1.0 + float(np.linalg.norm(z.flat())))


def test_trajectory_csv_export(tmp_path):
    params = ModelParams(G=9.81, lam=1.0, dim=1)
    traj = evolve(0.0, 0.5, PhaseState(0.1, 0.0), params, F1)
    out = tmp_path / "traj.csv"
    traj.to_csv(out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,x1,p1,y"
    row = [float(v) for v in lines[1].split(",")]
    assert row[0] == 0.0 and row[1] == 0.1 and row[2] == 0.0
    assert row[3] == pytest.approx(math.sqrt(1.0 - 0.01), rel=1e-15)
    # every stored node appears
    assert len(lines) == 1 + len(traj.t_nodes)


def test_trajectory_csv_planar_header(tmp_path):
    F2 = make_fourier_forcing(1.0, 2, [(0.5, 0.0)], [])
    params = ModelParams(G=9.81, lam=1.0, dim=2)
    traj = evolve(0.0, 0.3, PhaseState(np.zeros(2), np.zeros(2)), params, F2)
    out = tmp_path / "traj2.csv"
    traj.to_csv(out)
    assert out.read_text().split("\n", 1)[0] == "t,x1,x2,p1,p2,y"


def test_integrate_field_tight_tolerance_error_decay():
    # smoke version of the order check on an exactly known flow: the
    # harmonic oscillator integrated one period
    def fun(t, y):
        return np.array([y[1], -y[0]])

    y0 = np.array([1.0, 0.0])
    errs = []
    for rtol in (1e-5, 1e-7):
        cfg = IntegratorConfig(rel_tol=rtol, abs_tol=rtol * 1e-3)
        traj = integrate_field(fun, 0.0, TWO_PI, y0, cfg)
        errs.append(float(np.linalg.norm(traj.states[-1] - y0)))
    assert errs[1] < errs[0] / 16.0


# -- the field contract: lists in, any float sequence out -----------------

def _rise(thr):
    return [(EventKind.FALL_POSITIVE, lambda t, y: y[0] * y[0] + y[1] * y[1] - thr)]


@pytest.mark.parametrize("dim, variational", [(1, False), (2, False), (2, True)])
def test_field_returning_array_or_list_gives_identical_runs(dim, variational):
    # widths 2 and 4 take the plain-float step, 20 (the planar variational
    # system) the array step
    F = F1 if dim == 1 else make_fourier_forcing(1.0, 2, [(1.5, 0.0)], [(0.0, 1.5)])
    params = ModelParams(G=9.81, lam=1.0, dim=dim)
    listed = make_field(params, F, variational=variational)

    def arrayed(t, y):
        assert type(y) is list
        return np.asarray(listed(t, y))

    n = 2 * dim
    y0 = np.zeros(n)
    y0[0] = 0.2
    if variational:
        y0 = np.concatenate([y0, np.eye(n).ravel()])
    m = y0.size
    cfg = IntegratorConfig()
    runs = [integrate_field(fun, 0.0, 3.0, y0, cfg, _rise(0.81), n_err=n)
            for fun in (listed, arrayed)]
    a, b = runs
    assert a.fall_event is not None and a.n_accepted > 10
    assert np.array_equal(a.t_nodes, b.t_nodes)
    assert np.array_equal(a.states, b.states)
    assert [ev.time for ev in a.events] == [ev.time for ev in b.events]
    assert np.array_equal(a.fall_event.state, b.fall_event.state)
    ts = np.linspace(0.0, a.t_end, 11)
    assert np.array_equal(a.dense_array(ts), b.dense_array(ts))
    for traj in runs:
        assert traj.states.dtype == float and traj.states.shape == (len(traj.t_nodes), m)
        assert traj.t_nodes.dtype == float and traj.t_nodes.ndim == 1
        ev = traj.fall_event
        assert isinstance(ev.state, np.ndarray)
        assert ev.state.dtype == float and ev.state.shape == (m,)
        assert ev.state[0] ** 2 + ev.state[1] ** 2 == pytest.approx(0.81, abs=1e-9)
        block = traj.dense_array(ts)
        assert block.dtype == float and block.shape == (ts.size, m)
        assert np.array_equal(block[0], y0)


@pytest.mark.parametrize("dim, variational", [(1, False), (2, False), (2, True)])
def test_float_step_and_array_step_agree(dim, variational, monkeypatch):
    # the same tableau summed in another order.  The error estimate is a
    # difference of O(1) terms, so rounding moves the step sizes (by up to
    # 1e-6 relative here) and the nodes; the end state and the interpolant
    # at fixed times stay equal to rounding (measured <= 7e-15)
    F = F1 if dim == 1 else make_fourier_forcing(1.0, 2, [(1.5, 0.0)], [(0.0, 1.5)])
    params = ModelParams(G=9.81, lam=1.0, dim=dim)
    fun = make_field(params, F, variational=variational)
    n = 2 * dim
    y0 = np.zeros(n)
    y0[0] = 0.05
    if variational:
        y0 = np.concatenate([y0, np.eye(n).ravel()])
    runs = []
    for width in (y0.size, 0):  # plain floats, then numpy
        monkeypatch.setattr(integrator, "_FLOAT_WIDTH", width)
        runs.append(integrate_field(fun, 0.0, 1.0, y0, IntegratorConfig()))
    a, b = runs
    assert a.fall_event is None and b.fall_event is None
    assert (a.n_accepted, a.n_rejected) == (b.n_accepted, b.n_rejected)
    scale = np.max(np.abs(a.states), axis=0) + 1.0
    assert np.max(np.abs(a.states[-1] - b.states[-1]) / scale) < 1e-13
    ts = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(a.dense_array(ts) - b.dense_array(ts)) / scale) < 1e-13

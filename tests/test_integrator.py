from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np
import pytest

from oracles import linear_scalar_rhs, rhs_linear, rk4_integrate, rk4_until_fall
from upright.dynamics import GUARD, ModelParams, PhaseState, make_field
from upright.errors import SingularityError, StepBudgetError
from upright.forcing import PathSamples, ingest_path, make_fourier_forcing
from upright.integrator import (FALL_THRESHOLD, EventKind, IntegratorConfig,
                                Trajectory, _dense_state, evolve,
                                integrate_field)

TWO_PI = 2.0 * math.pi

F1 = make_fourier_forcing(1.0, 1, [2.0], [])
Z1 = make_fourier_forcing(1.0, 1, [0.0], [])
F2 = make_fourier_forcing(1.0, 2, [(1.5, 0.0)], [(0.0, 1.5)])


def test_equilibrium_stays_put():
    params = ModelParams(G=9.81, lam=1.0, dim=1)
    traj = evolve(0.0, 5.0, PhaseState(0.0, 0.0), params, Z1)
    assert traj.fall_event is None
    assert np.allclose(traj.end_state().flat(), [0.0, 0.0], atol=1e-13)
    assert np.allclose(traj.dense_array([2.34])[0], [0.0, 0.0], atol=1e-13)


def test_unstable_equilibrium_fall_against_rk4():
    params = ModelParams(G=1.0, lam=0.0, dim=1)
    cfg = IntegratorConfig()
    traj = evolve(0.0, 20.0, PhaseState(0.1, 0.0), params, Z1, cfg)
    ev = traj.fall_event
    assert ev is not None and ev.kind is EventKind.FALL_POSITIVE

    fun = lambda t, y: rhs_linear(t, y, 1.0, 0.0, lambda _: 0.0)
    fell, t_fall, _ = rk4_until_fall(fun, 0.0, 20.0, [0.1, 0.0], 1,
                                     FALL_THRESHOLD, h=1e-4)
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
        assert np.allclose(traj.dense_array([t])[0], ref, rtol=1e-7, atol=1e-8)


def test_semigroup_property():
    params = ModelParams(G=9.81, lam=1.0, dim=1)
    cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11)
    z = PhaseState(0.1, 0.0)
    whole = evolve(0.0, 1.0, z, params, F1, cfg).end_state()
    mid = evolve(0.0, 0.5, z, params, F1, cfg).end_state()
    two_leg = evolve(0.5, 1.0, mid, params, F1, cfg).end_state()
    # both routes agree to ten times the local tolerance scale
    assert np.allclose(whole.flat(), two_leg.flat(), atol=1e-8)


def test_dense_array_interpolates_nodes():
    params = ModelParams(G=9.81, lam=1.0, dim=1)
    traj = evolve(0.0, 1.0, PhaseState(0.05, 0.1), params, F1)
    for i in range(0, len(traj.t_nodes), 5):
        t = traj.t_nodes[i]
        assert np.allclose(traj.dense_array([t])[0], traj.states[i],
                           rtol=1e-12, atol=1e-12)


def test_dense_array_matches_pointwise_evaluation():
    # a block of times spans many steps; each row must be what the step's
    # interpolant gives at that time alone
    params = ModelParams(G=9.81, lam=1.0, dim=1)
    traj = evolve(0.0, 1.0, PhaseState(0.05, 0.1), params, F1)
    ts = np.linspace(0.0, 1.0, 37)
    block = traj.dense_array(ts)
    for i, t in enumerate(ts):
        assert np.array_equal(block[i], traj.dense_array([t])[0])


def test_dense_array_checks_the_range_of_a_run_without_steps():
    # a run that falls at t0, and one over an empty window, have no step;
    # they are defined at t0 alone
    fell = integrate_field(lambda t, y: [1.0], 2.0, 3.0, [FALL_THRESHOLD], IntegratorConfig(),
                           fall_dim=1)
    empty = integrate_field(lambda t, y: [1.0], 2.0, 2.0, [0.5], IntegratorConfig())
    assert fell.fall_event.time == 2.0 and fell.n_accepted == empty.n_accepted == 0
    for traj, y0 in ((fell, FALL_THRESHOLD), (empty, 0.5)):
        assert np.array_equal(traj.dense_array([2.0, 2.0]), [[y0], [y0]])
        for ts in ([7.0], [2.0, 1.0], [2.0 + 1e-12]):
            with pytest.raises(ValueError, match="outside the integration interval"):
                traj.dense_array(ts)


def _pointwise(traj, t):
    """The fall locator's interpolant, in plain floats, on the step holding ``t``."""
    i = min(max(bisect_right(traj.t_nodes.tolist(), t) - 1, 0), len(traj._seg_K) - 1)
    t_left, h = float(traj.t_nodes[i]), float(traj._h[i])
    return _dense_state(traj.states[i].tolist(), h, traj._seg_K[i], (t - t_left) / h)


def _path_run():
    T, n = 0.25, 32
    ts = np.linspace(0.0, T, n + 1)
    F, G = ingest_path(PathSamples(ts, 0.002 * np.sin(2 * math.pi * ts / T)), 9.81)
    return evolve(0.0, 0.9, PhaseState(0.1, 0.0), ModelParams(G=G, lam=1.0, dim=1), F)


def _leading_run():
    params = ModelParams(G=9.81, lam=1.0, dim=2)
    Y0 = np.concatenate([[0.2, 0.1, 0.0, 0.0], np.eye(4).ravel()])
    fused = integrate_field(make_field(params, F2, variational=True), 0.0, 3.0, Y0,
                            IntegratorConfig(), 2, 4)
    return fused.leading(4)


@pytest.mark.parametrize("make_run", [
    lambda: evolve(0.0, 1.0, PhaseState(0.05, 0.1), ModelParams(G=9.81, lam=1.0, dim=1), F1),
    lambda: evolve(0.0, 3.0, PhaseState(np.array([0.1, 0.05]), np.zeros(2)),
                   ModelParams(G=9.81, lam=1.0, dim=2), F2),
    _path_run,
    _leading_run,
], ids=["line", "plane", "path", "leading"])
def test_dense_array_is_the_fall_locators_interpolant(make_run):
    # one interpolant: every sample, at nodes and knots too, is what
    # _dense_state gives in plain floats on its step, bit for bit
    traj = make_run()
    ts = np.concatenate([np.linspace(traj.t0, traj.t_end, 301), traj.t_nodes[::7]])
    block = traj.dense_array(ts)
    for t, row in zip(ts.tolist(), block):
        assert row.tolist() == _pointwise(traj, t)


def test_every_fall_state_lies_on_the_dense_output():
    # rest releases at lambda = 1 on the line (2 cos 2 pi t) and in the
    # plane (circle of acceleration 1.5): the located fall is a point of
    # dense_array, exactly (24 falls)
    for dim, F in ((1, F1), (2, F2)):
        params = ModelParams(G=9.81, lam=1.0, dim=dim)
        for x0 in np.linspace(0.05, 0.6, 12):
            x = np.full(dim, x0 / dim)
            traj = evolve(0.0, 5.0, PhaseState(x, np.zeros(dim)), params, F)
            ev = traj.fall_event
            assert ev is not None
            assert np.array_equal(ev.state, traj.dense_array([ev.time])[0])


def test_fall_event_is_localized_on_threshold():
    params = ModelParams(G=1.0, lam=0.0, dim=1)
    cfg = IntegratorConfig()
    traj = evolve(0.0, 20.0, PhaseState(0.1, 0.0), params, Z1, cfg)
    ev = traj.fall_event
    x_at_event = abs(traj.dense_array([ev.time])[0, 0])
    # |x| sits on the threshold to localization accuracy
    assert x_at_event == pytest.approx(FALL_THRESHOLD, abs=1e-9)
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
        evolve(0.0, 1.0, PhaseState(FALL_THRESHOLD, 0.0), params, F1, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=-1.0)


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


@pytest.mark.parametrize("dim", [1, 2], ids=["line", "plane"])
def test_leading_components_of_a_fused_run_are_the_state_run(dim):
    # under step control on the state rows, the state part of a state and
    # variational run is evolve's run, up to and including the fall
    F = F1 if dim == 1 else F2
    params = ModelParams(G=9.81, lam=1.0, dim=dim)
    n = 2 * dim
    s0 = PhaseState(np.full(dim, 0.2), np.zeros(dim))
    Y0 = np.concatenate([s0.flat(), np.eye(n).ravel()])
    fused = integrate_field(make_field(params, F, variational=True), 0.0, 3.0, Y0,
                            IntegratorConfig(), dim, n)
    run = fused.leading(n)
    ref = evolve(0.0, 3.0, s0, params, F)
    assert ref.fall_event is not None
    assert np.array_equal(run.t_nodes, ref.t_nodes)
    assert np.array_equal(run.states, ref.states)
    assert (run.n_accepted, run.n_rejected) == (ref.n_accepted, ref.n_rejected)
    assert run.fall_event.kind is ref.fall_event.kind
    assert run.fall_event.time == ref.fall_event.time
    assert np.array_equal(run.fall_event.state, ref.fall_event.state)
    ts = np.linspace(0.0, ref.t_end, 257)
    assert np.array_equal(run.dense_array(ts), ref.dense_array(ts))


# -- the field contract: lists in, any float sequence out -----------------

@pytest.mark.parametrize("dim, variational", [(1, False), (2, False), (2, True)])
def test_field_returning_array_or_list_gives_identical_runs(dim, variational):
    # widths 2, 4 and 20 (the planar variational system) all take the
    # plain-float step, which reads any float sequence the field returns
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
    runs = [integrate_field(fun, 0.0, 3.0, y0, cfg, fall_dim=dim, n_err=n)
            for fun in (listed, arrayed)]
    a, b = runs
    assert a.fall_event is not None and a.n_accepted > 10
    assert np.array_equal(a.t_nodes, b.t_nodes)
    assert np.array_equal(a.states, b.states)
    assert a.fall_event.time == b.fall_event.time
    assert np.array_equal(a.fall_event.state, b.fall_event.state)
    ts = np.linspace(0.0, a.t_end, 11)
    assert np.array_equal(a.dense_array(ts), b.dense_array(ts))
    for traj in runs:
        assert traj.states.dtype == float and traj.states.shape == (len(traj.t_nodes), m)
        assert traj.t_nodes.dtype == float and traj.t_nodes.ndim == 1
        ev = traj.fall_event
        assert isinstance(ev.state, np.ndarray)
        assert ev.state.dtype == float and ev.state.shape == (m,)
        assert np.linalg.norm(ev.state[:dim]) == pytest.approx(FALL_THRESHOLD,
                                                               abs=1e-9)
        block = traj.dense_array(ts)
        assert block.dtype == float and block.shape == (ts.size, m)
        assert np.array_equal(block[0], y0)


# -- trial steps past the guard are halved ---------------------------------

def test_step_next_to_guard_halves_down_to_the_step_floor():
    # |x| = 1 - 1e-9 lies between the fall threshold and GUARD.  Unwatched
    # and moving outwards, the rod's trial steps end past GUARD and are
    # halved down to the step floor, where the driver gives up
    params = ModelParams(G=9.81, lam=1.0, dim=2)
    y0 = [1.0 - 1e-9, 0.0, 1.0, 0.0]
    field = make_field(params, F2)
    halved = []

    def fun(t, y):
        try:
            return field(t, y)
        except SingularityError:
            halved.append(t)
            raise

    with pytest.raises(SingularityError, match="within one minimal step") as err:
        integrate_field(fun, 0.0, 0.1, y0, IntegratorConfig())
    assert len(halved) >= 2
    # the error carries the time of the singular stage
    assert err.value.time in halved


def test_step_that_overshoots_guard_halves_then_locates_its_fall():
    # y' = 1 from 0.5, singular from GUARD on: growing steps overshoot the
    # guard and are halved until one ends between the threshold and GUARD
    halved = []

    def fun(t, y):
        if y[0] >= GUARD:
            halved.append(t)
            raise SingularityError("past the guard", time=t)
        return [1.0]

    for y0 in (0.5, -0.2):
        traj = integrate_field(fun, 0.0, 2.0, [y0], IntegratorConfig(), fall_dim=1)
        assert traj.fall_event.time == pytest.approx(FALL_THRESHOLD - y0, abs=1e-12)
        assert traj.fall_event.state[0] == pytest.approx(FALL_THRESHOLD, abs=1e-12)
    assert halved


# -- steps end on the forcing's breakpoints ---------------------------------

def test_path_knots_are_step_nodes():
    # carriage path 0.002 sin(2 pi t / T) sampled at 32 knots per period
    # T = 0.25: over 3.6 periods every knot + kT is a node of the run
    T, n = 0.25, 32
    ts = np.linspace(0.0, T, n + 1)
    F, G = ingest_path(PathSamples(ts, 0.002 * np.sin(2 * math.pi * ts / T)), 9.81)
    assert make_fourier_forcing(1.0, 1, [2.0], []).breakpoints == ()
    assert F.breakpoints == tuple(ts[:-1].tolist())
    t_end = 0.9
    knots = [b + k * T for k in range(4) for b in F.breakpoints if 0.0 < b + k * T < t_end]
    assert len(knots) == 31 + 32 + 32 + 20
    assert F.breaks_between(0.0, t_end) == knots
    traj = evolve(0.0, t_end, PhaseState(0.0, 0.0), ModelParams(G=G, lam=1.0, dim=1), F)
    assert traj.fall_event is None and traj.t_end == t_end
    assert set(knots) <= set(traj.t_nodes.tolist())

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right

import numpy as np
import pytest

from oracles import linear_scalar_rhs, rhs_linear, rk4_integrate, rk4_until_fall
from upright import integrator
from upright.dynamics import (ANGLE_CHART_SCALE, DIRECTION_CHART_SCALE, GUARD, ModelParams,
                              PhaseState, angle_field, direction_field, make_field)
from upright.errors import SingularityError, StepBudgetError
from upright.forcing import PathSamples, ingest_path, make_fourier_forcing
from upright.integrator import (_A, _BHH, _C, _D, _E5, FALL_THRESHOLD,
                                EventKind, IntegratorConfig, _check_start, _dense_state,
                                _EXPONENT, _fall_gauge, _interpolant,
                                _locate_fall, _starter, _stepper, evolve, integrate_field)
from upright.poincare import poincare_map
from upright.whitney import JourneySpec, bisect_survivor, planar_survivor_grid

TWO_PI = 2.0 * math.pi

F1 = make_fourier_forcing(1.0, 1, [2.0], [])
Z1 = make_fourier_forcing(1.0, 1, [0.0], [])
F2 = make_fourier_forcing(1.0, 2, [(1.5, 0.0)], [(0.0, 1.5)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [[1e300], [1e300, -1e300], [1e308, 1e308]])
def test_a_huge_start_is_refused_without_an_overflow(x):
    # np.linalg.norm squared x and overflowed in numpy
    dim = len(x)
    with pytest.raises(ValueError, match="already at the fall threshold"):
        _check_start(PhaseState(x, [0.0] * dim), ModelParams(G=9.81, lam=1.0, dim=dim))


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
    i = min(max(bisect_right(traj.t_nodes.tolist(), t) - 1, 0), len(traj._h) - 1)
    t_left, h = float(traj.t_nodes[i]), float(traj._h[i])
    traj.dense_array([t])  # builds the run's interpolant rows
    return _dense_state(traj._rows[:, i, :traj.states.shape[1]].tolist(), (t - t_left) / h)


def _path_run():
    T, n = 0.25, 32
    ts = np.linspace(0.0, T, n + 1)
    F, G = ingest_path(PathSamples(ts, 0.002 * np.sin(2 * math.pi * ts / T)), 9.81)
    return evolve(0.0, 0.9, PhaseState(0.1, 0.0), ModelParams(G=G, lam=1.0, dim=1), F)


def _fused_run():
    params = ModelParams(G=9.81, lam=1.0, dim=2)
    Y0 = np.concatenate([[0.2, 0.1, 0.0, 0.0], np.eye(4).ravel()])
    return integrate_field(make_field(params, F2, variational=True), 0.0, 3.0, Y0,
                           IntegratorConfig(), 2, 4)


def _leading_run():
    return _fused_run().leading(4)


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


def _locate_fall_full_rows(gauge, t_left, h, rows, t_right):
    """The reference fall locator: every bisection step forms the full state."""
    a, b = t_left, t_right
    width_goal = 1e-13 * (1.0 + abs(t_right))
    for _ in range(200):
        if b - a <= width_goal:
            break
        mid = 0.5 * (a + b)
        if gauge(_dense_state(rows, (mid - t_left) / h)) >= 0.0:
            b = mid
        else:
            a = mid
    return b, _dense_state(rows, (b - t_left) / h)


def _direction_start(x0):
    x = [x0, -0.5 * x0]
    r2 = x[0] ** 2 + x[1] ** 2
    return [DIRECTION_CHART_SCALE * r2 / (1.0 + math.sqrt(1.0 - r2)), *x, 0.0, 0.0, 0.0]


_FALLS = {
    # name: (field, fall_dim, n_err, start from a release offset)
    "line": (make_field(ModelParams(9.81, 1.0, 1), F1), 1, None, lambda x0: [x0, 0.0]),
    "plane": (make_field(ModelParams(9.81, 1.0, 2), F2), 2, None,
              lambda x0: [x0, -0.5 * x0, 0.0, 0.0]),
    "plane-variational": (make_field(ModelParams(9.81, 1.0, 2), F2, True), 2, 4,
                          lambda x0: [x0, -0.5 * x0, 0.0, 0.0, *np.eye(4).ravel()]),
    "angle": (angle_field(ModelParams(9.81, 1.0, 1), F1), 1, None,
              lambda x0: [ANGLE_CHART_SCALE * math.asin(x0), 0.0]),
    "direction": (direction_field(ModelParams(9.81, 1.0, 2), F2), 1, None,
                  _direction_start),
}


@pytest.mark.parametrize("name", list(_FALLS))
def test_gauge_only_fall_bisection_is_the_full_row_one_bit_for_bit(name):
    # the interpolant is formed per component, so bisecting on the gauge's
    # components alone lands on the same time and state as on every row
    fun, fall_dim, n_err, start = _FALLS[name]
    gauge = _fall_gauge(fall_dim)
    for x0 in np.linspace(-0.6, 0.6, 9).tolist():
        traj = integrate_field(fun, 0.0, 5.0, start(x0), IntegratorConfig(), fall_dim, n_err)
        ev = traj.fall_event
        assert ev is not None
        t_left, h = float(traj.t_nodes[-2]), float(traj._h[-1])
        rows = traj._rows[:, -1].tolist()
        want = _locate_fall_full_rows(gauge, t_left, h, rows, t_left + h)
        assert _locate_fall(fall_dim, t_left, h, rows, t_left + h) == want
        assert (ev.time, ev.state.tolist()) == want


# the Horner basis of ``_dense_state``: y + theta (a + s (b + theta (c + ..)))
_NODES = np.linspace(0.0, 1.0, 8)
_HORNER = np.stack([_NODES ** ((j + 1) // 2) * (1.0 - _NODES) ** (j // 2) for j in range(8)],
                   axis=1)


def test_fall_bisection_is_the_dense_state_one_on_random_falls():
    # seeded falls on the line and in the plane, over a spread of h and
    # t_left, whose gauge crosses zero nearly flat (rho = thr + c3 (theta -
    # theta0)^3 + c1 (theta - theta0), c1 down to 1e-12 c3): there rounding
    # decides many of the last midpoints, so a last-bit change in theta moves
    # the root in about a quarter of them
    rng = np.random.default_rng(34)
    for trial in range(300):
        fall_dim = 1 + trial % 2
        width = (2, 4, 6)[trial % 3] if fall_dim == 1 else (4, 2, 20)[trial % 3]
        theta0 = rng.uniform(0.05, 0.95)
        c3 = 10.0 ** rng.uniform(-1.0, 1.0)
        c1 = c3 * 10.0 ** rng.uniform(-12.0, 0.0)
        rho = FALL_THRESHOLD + c3 * (_NODES - theta0) ** 3 + c1 * (_NODES - theta0)
        if fall_dim == 1:
            direction = [rng.choice([-1.0, 1.0])]
        else:
            angle = rng.uniform(0.0, 2.0 * math.pi)
            direction = [math.cos(angle), math.sin(angle)]
        rows = rng.normal(scale=0.1, size=(8, width))
        for i, d in enumerate(direction):
            rows[:, i] = np.linalg.solve(_HORNER, d * rho)
        rows = rows.tolist()
        t_left = float(rng.uniform(-20.0, 20.0)) if trial % 4 else 0.0
        h = float(10.0 ** rng.uniform(-5.0, 0.5))
        want = _locate_fall_full_rows(_fall_gauge(fall_dim), t_left, h, rows, t_left + h)
        assert _locate_fall(fall_dim, t_left, h, rows, t_left + h) == want


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


@pytest.mark.parametrize("x, p", [(math.nan, 0.0), (0.1, math.nan),
                                  (math.inf, 0.0), (0.0, -math.inf)])
def test_non_finite_start_rejected(x, p):
    params = ModelParams(G=9.81, lam=1.0, dim=1)
    with pytest.raises(ValueError, match="not finite"):
        evolve(0.0, 1.0, PhaseState(x, p), params, F1)
    with pytest.raises(ValueError, match="not finite"):
        poincare_map(PhaseState(x, p), params, F1)


def test_non_finite_error_estimate_halves_then_raises():
    # a field that turns NaN at t > 0.5: each step across it has a NaN
    # error estimate and is halved like a singular stage; at the step floor
    # next to t = 0.5 the driver gives up, long before the step budget
    def fun(t, y):
        return [math.nan if t > 0.5 else 1.0]

    with pytest.raises(SingularityError, match="estimate not finite") as err:
        integrate_field(fun, 0.0, 1.0, [0.0], IntegratorConfig(max_steps=200),
                        fall_dim=1)
    assert abs(err.value.time - 0.5) <= 1e-12
    # a NaN start is refused before any step
    with pytest.raises(ValueError, match="not finite"):
        integrate_field(lambda t, y: [1.0], 0.0, 1.0, [math.nan],
                        IntegratorConfig(max_steps=5))


@pytest.mark.parametrize("start", [[math.inf], [0.1, -math.inf], [math.nan, 0.0]])
@pytest.mark.parametrize("fall_dim", [0, 1])
def test_integrate_field_refuses_a_non_finite_start(start, fall_dim):
    # a field that is finite there would carry an infinite start to t1 with
    # an error norm of 0, for the error scale atol + rtol |y| is infinite
    with pytest.raises(ValueError, match="not finite"):
        integrate_field(lambda t, y: [1.0] * len(y), 0.0, 1.0, start,
                        IntegratorConfig(), fall_dim=fall_dim)


def test_a_huge_field_does_not_underflow_the_first_step():
    # 0.01 d0 / d1 underflows to 0 where the scaled field is ~1e309; the
    # first step's difference quotient then divided by 0.  The step floor
    # keeps it defined, and the run reaches t1 with the exact state
    traj = integrate_field(lambda t, y: [1e300], 0.0, 1.0, [1.0],
                           IntegratorConfig())
    # exact up to the rounding of the weighted stage sum, 7e-16 relative
    assert traj.t_nodes[-1] == 1.0
    assert traj.states[-1].tolist() == [pytest.approx(1e300, rel=4 * 2.0 ** -52)]


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
    # |x| = 1 - 1e-7 lies between the fall threshold and GUARD.  Unwatched
    # and moving outwards, the rod's trial steps end past GUARD and are
    # halved down to the step floor, where the driver gives up
    params = ModelParams(G=9.81, lam=1.0, dim=2)
    y0 = [1.0 - 1e-7, 0.0, 1.0, 0.0]
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


def test_a_rejected_step_at_the_step_floor_ends_the_run():
    # from |x| = 1 - 1e-10, unwatched and moving outwards, the error test
    # fails even at the step floor, where the same trial step would come
    # back until the budget of a million attempts ran out
    field = make_field(ModelParams(G=9.81, lam=1.0, dim=2), F2)
    calls = []

    def fun(t, y):
        calls.append(t)
        return field(t, y)

    with pytest.raises(StepBudgetError, match="step size underflow"):
        integrate_field(fun, 0.0, 0.1, [1.0 - 1e-10, 0.0, 1.0, 0.0], IntegratorConfig())
    assert len(calls) < 100_000


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
    assert list(F.breaks_between(0.0, t_end)) == knots
    traj = evolve(0.0, t_end, PhaseState(0.0, 0.0), ModelParams(G=G, lam=1.0, dim=1), F)
    assert traj.fall_event is None and traj.t_end == t_end
    assert set(knots) <= set(traj.t_nodes.tolist())


# -- the generated step is the loop step, bit for bit ----------------------

def _weighted(weights, stages, i):
    """``sum_j weights[j] stages[j][i]`` over the nonzero weights, left to right."""
    total = None
    for w, k in zip(weights, stages):
        if w:
            total = w * k[i] if total is None else total + w * k[i]
    return total


def _step_floats(fun, t, h, y, k1, n, atol, rtol):
    """The reference trial step: the stage sums as loops over the tableau."""
    comps = range(len(y))
    K = [k1]
    for j in range(1, 12):
        K.append(fun(t + _C[j] * h, [y[i] + h * _weighted(_A[j], K, i) for i in comps]))
    r = [_weighted(_A[12], K, i) for i in comps]
    y_new = [v + h * ri for v, ri in zip(y, r)]
    err5 = err3 = 0.0
    for i in range(min(n, len(y))):
        v, w = abs(y[i]), abs(y_new[i])
        scale = atol + rtol * (v if v > w else w)
        q = _weighted(_E5, K, i) / scale
        err5 += q * q
        q = (r[i] - _weighted(_BHH, K, i)) / scale
        err3 += q * q
    den = err5 + 0.01 * err3
    return y_new, tuple(K), h * err5 / math.sqrt((den if den > 0.0 else 1.0) * n)


def test_tableau_is_dop853_bit_for_bit():
    # scipy carries the coefficients of Hairer's DOP853; scipy is a test
    # dependency only
    ref = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    assert len(_C) == len(_A) == 16
    assert list(_C) == ref.C.tolist()
    for j in range(16):
        assert list(_A[j]) == ref.A[j, :j].tolist()
    assert list(_A[12]) == ref.B.tolist()
    assert list(_E5) == ref.E5.tolist()
    assert [b - bhh for b, bhh in zip(_A[12], _BHH)] + [0.0] == ref.E3.tolist()
    assert [list(row) for row in _D] == ref.D.tolist()


_PLANE = make_fourier_forcing(1.0, 2, [(1.5, -0.4), (0.3, 0.2)], [(0.0, 1.5)],
                              constant=(0.1, -0.2))
_LINE = make_fourier_forcing(2 * math.pi, 1, [0.3], [0.5, -0.25], constant=0.05)
_STEP_FIELDS = {
    # name: (state width, widths under step control, field)
    "scalar": (1, (1,), lambda t, y: [math.sin(3.0 * t) - y[0] ** 3]),
    "line": (2, (2,), make_field(ModelParams(9.81, 1.0, 1), _LINE)),
    "angle": (2, (2,), angle_field(ModelParams(9.81, 0.7, 1), _LINE)),
    "plane": (4, (4,), make_field(ModelParams(9.81, 1.0, 2), _PLANE)),
    "line-variational": (6, (2, 6), make_field(ModelParams(9.81, 1.0, 1), _LINE, True)),
    "direction": (6, (6,), direction_field(ModelParams(9.81, 0.8, 2), _PLANE)),
    "plane-variational": (20, (4, 20), make_field(ModelParams(9.81, 1.0, 2), _PLANE, True)),
}


@pytest.mark.parametrize("name", list(_STEP_FIELDS))
def test_generated_step_equals_the_loop_step_bit_for_bit(name):
    # widths 1, 2, 4, 6 and 20, with step control on every component and,
    # for the variational systems, on the state alone, from seeded states
    # and step sizes that both accept and reject
    width, controlled, fun = _STEP_FIELDS[name]
    rng = np.random.default_rng(width)
    for n in controlled:
        step = _stepper(width, n)()
        accepted = 0
        for _ in range(40):
            y = rng.uniform(-0.5, 0.5, width).tolist()
            t = float(rng.uniform(-3.0, 3.0))
            h = float(10.0 ** rng.uniform(-4.0, -0.5))
            k1 = fun(t, y)
            got = step(fun, t, h, y, k1, 1e-11, 1e-9)
            want = _step_floats(fun, t, h, y, k1, n, 1e-11, 1e-9)
            assert got[0] == want[0]
            assert all(a == b for a, b in zip(got[1], want[1], strict=True))
            assert got[2] == want[2]
            accepted += got[2] <= 1.0
        assert 0 < accepted < 40


def test_one_step_error_shrinks_by_two_to_the_ninth():
    # order 8: halving h divides the local error by 2^9.  The oscillator
    # (cos t, -sin t) reads the weights, the quadrature of e^t the nodes too
    def fun(t, y):
        return [y[1], -y[0], math.exp(t)]

    def exact(t):
        return [math.cos(t), -math.sin(t), math.exp(t)]

    step = _stepper(3, 3)()

    def error(t0, h):
        y = exact(t0)
        y_new = step(fun, t0, h, y, fun(t0, y), 1e-11, 1e-9)[0]
        return max(abs(a - b) for a, b in zip(y_new, exact(t0 + h)))

    for t0 in (0.0, 0.4, 0.8, 1.2):
        assert error(t0, 0.25) > 1e-13
        assert error(t0, 0.5) / error(t0, 0.25) == pytest.approx(2.0 ** 9, rel=0.2)


_SCIPY_FIELDS = {
    # the fields of the step counts in ROADMAP.md's Baseline: name: (field,
    # start, end time)
    "line-variational": (make_field(ModelParams(9.81, 1.0, 1), F1, True),
                         [0.05, 0.0, 1.0, 0.0, 0.0, 1.0], 1.0),
    "plane-variational": (make_field(ModelParams(9.81, 1.0, 2), F2, True),
                          [0.05, 0.02, 0.0, 0.0, *np.eye(4).ravel()], 1.0),
    "angle": (angle_field(ModelParams(9.81, 1.0, 1),
                          make_fourier_forcing(TWO_PI, 1, [], [0.5])), [0.01, 0.0], 4.0),
}


@pytest.mark.parametrize("rel_tol", [1e-9, 1e-12])
@pytest.mark.parametrize("name", list(_SCIPY_FIELDS))
def test_accepted_steps_match_scipys_dop853(name, rel_tol):
    # the same pair and controller take within 15 % of the steps that
    # scipy's DOP853 takes, at abs_tol = rel_tol / 100
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    fun, y0, t1 = _SCIPY_FIELDS[name]
    run = integrate_field(fun, 0.0, t1, y0, IntegratorConfig(rel_tol, rel_tol / 100))
    ref = solve_ivp(lambda t, y: fun(t, y.tolist()), (0.0, t1), y0, method="DOP853",
                    rtol=rel_tol, atol=rel_tol / 100)
    assert ref.success
    assert run.n_accepted == pytest.approx(len(ref.t) - 1, rel=0.15)


@pytest.mark.parametrize("width", [1, 2, 6])
def test_generated_step_rejects_a_stage_of_the_wrong_length(width):
    # a loop over zip would truncate a short or long stage silently
    for wrong in (width - 1, width + 1):
        def fun(t, y):
            return [0.5] * (width if t == 0.0 else wrong)

        with pytest.raises(ValueError):
            _stepper(width, width)()(fun, 0.0, 0.1, [0.1] * width, fun(0.0, None),
                                     1e-11, 1e-9)


def test_a_fall_dimension_beyond_the_plane_is_rejected():
    fun = lambda t, y: [0.0, 0.0, 0.0]
    for fall_dim in (-1, 3):
        with pytest.raises(ValueError, match="fall_dim"):
            integrate_field(fun, 0.0, 1.0, [0.0, 0.0, 0.0], IntegratorConfig(),
                            fall_dim=fall_dim)


# -- the generated interpolant rows and fall bisection are the loop forms ---

def _dense_rows(fun, t, h, y, K, y_new):
    """The reference rows that ``_dense_state`` reads: the 3 extra stages and
    every sum as loops over the tableau, in plain floats or on arrays of
    steps, each a list of one array."""
    K = list(K)
    comps = range(len(y))
    for c, row in zip(_C[13:], _A[13:]):
        K.append(fun(t + c * h, [y[i] + h * _weighted(row, K, i) for i in comps]))
    cols = []
    for i in comps:
        dy = y_new[i] - y[i]
        cols.append([y[i], dy, h * K[0][i] - dy, 2.0 * dy - h * (K[12][i] + K[0][i]),
                     *(h * _weighted(row, K, i) for row in _D)])
    return [list(row) for row in zip(*cols)]


@pytest.mark.parametrize("name", list(_STEP_FIELDS))
def test_generated_rows_equal_the_loop_rows_bit_for_bit(name):
    # widths 1, 2, 4, 6 and 20 in plain floats, on trial steps from seeded
    # states and step sizes
    width, _, fun = _STEP_FIELDS[name]
    rng = np.random.default_rng(width + 1)
    for _ in range(20):
        y = rng.uniform(-0.5, 0.5, width).tolist()
        t = float(rng.uniform(-3.0, 3.0))
        h = float(10.0 ** rng.uniform(-4.0, -0.5))
        y_new, K, _ = _stepper(width, width)()(fun, t, h, y, fun(t, y), 1e-11, 1e-9)
        K = (*K, fun(t + h, y_new))
        got = _interpolant(width)(fun, t, h, y, K, y_new)
        assert got == _dense_rows(fun, t, h, y, K, y_new)
        assert len(got) == 8 and all(len(row) == width for row in got)


@pytest.mark.parametrize("make_run", [_path_run, _leading_run], ids=["path", "leading"])
def test_dense_array_rows_equal_the_loop_rows_bit_for_bit(make_run, monkeypatch):
    # width 1 on arrays: each component is one (steps, width) array
    ours, ref = make_run(), make_run()
    ours.dense_array(ours.t_nodes)
    monkeypatch.setattr(integrator, "_interpolant", lambda width: _dense_rows)
    ref.dense_array(ref.t_nodes)
    assert np.array_equal(ours._rows, ref._rows)


_GRID_JOURNEY = JourneySpec(F=F2, t_end=3.0, G=9.81)
_LINE_JOURNEY = JourneySpec(F=make_fourier_forcing(TWO_PI, 1, [0.0], [0.5]), t_end=4.0,
                            G=9.81)


def test_journeys_are_the_loop_forms_bit_for_bit(monkeypatch):
    # the benchmark's planar grid and a line bisection's transcript, with the
    # generated rows and bisection, then with the loop forms patched back in
    def outputs():
        grid = planar_survivor_grid(_GRID_JOURNEY, grid_radius=0.9, n=9)
        search = bisect_survivor(_LINE_JOURNEY, depth=30)
        return grid["fall_times"].tobytes(), search.transcript, search.survivor

    ours = outputs()
    monkeypatch.setattr(integrator, "_interpolant", lambda width: _dense_rows)
    monkeypatch.setattr(integrator, "_locate_fall",
                        lambda fall_dim, t_left, h, rows, t_right: _locate_fall_full_rows(
                            _fall_gauge(fall_dim), t_left, h, rows, t_right))
    assert outputs() == ours


def test_the_interpolant_compiles_once_per_width():
    planar_survivor_grid(_GRID_JOURNEY, grid_radius=0.9, n=5)
    bisect_survivor(_LINE_JOURNEY, depth=10)
    misses = _interpolant.cache_info().misses
    planar_survivor_grid(_GRID_JOURNEY, grid_radius=0.9, n=5)
    bisect_survivor(_LINE_JOURNEY, depth=10)
    info = _interpolant.cache_info()
    assert info.misses == misses == info.currsize
    assert info.hits > 0


# -- the generated start step is the loop heuristic, bit for bit -----------

def _rms(values, scales, n) -> float:
    """Root mean square of ``values / scales`` over the first ``n`` entries."""
    total = 0.0
    for v, s in zip(values[:n], scales):
        q = v / s
        total += q * q
    return math.sqrt(total / n)


def _initial_step(fun, t0, y0, f0, t1, atol, rtol, n_err):
    """The reference start step: Hairer-Norsett-Wanner's two-evaluation
    heuristic as loops, on the first ``n_err`` components."""
    n = len(y0) if n_err is None else n_err
    sc = [atol + rtol * abs(v) for v in y0[:n]]
    d0, d1 = _rms(y0, sc, n), _rms(f0, sc, n)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(max(h0, 1e-14 * (1.0 + abs(t0))), abs(t1 - t0))
    try:
        f1 = fun(t0 + h0, [v + h0 * f for v, f in zip(y0, f0)])
        d2 = _rms([a - b for a, b in zip(f1[:n], f0)], sc, n) / h0
    except SingularityError:
        d2 = math.inf
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _EXPONENT
    return min(100 * h0, h1, abs(t1 - t0))


def _singular_after(t_cut, fun):
    """``fun``, singular at every time after ``t_cut``: at the start step's
    probe point when ``t_cut`` is the start."""
    def field(t, y):
        if t > t_cut:
            raise SingularityError("singular past the start", t, y)
        return fun(t, y)
    return field


@pytest.mark.parametrize("name", list(_STEP_FIELDS))
def test_generated_start_step_equals_the_loop_heuristic_bit_for_bit(name):
    # widths 1, 2, 4, 6 and 20, n_err None and, for the variational systems,
    # the state's 2 dim; seeded starts (some at rest), windows down to 1e-6
    # that clip the step and tolerances, every seventh field singular at
    # the probe point
    width, controlled, fun = _STEP_FIELDS[name]
    rng = np.random.default_rng(width + 2)
    for n_err in (None, *controlled):
        start = _starter(width, width if n_err is None else n_err)
        for k in range(200):
            y = [0.0] * width if k % 10 == 0 else rng.uniform(-0.5, 0.5, width).tolist()
            t0 = float(rng.uniform(-3.0, 3.0))
            t1 = t0 + float(10.0 ** rng.uniform(-6.0, 1.0))
            atol, rtol = (float(v) for v in 10.0 ** rng.uniform(-13.0, -6.0, 2))
            field = _singular_after(t0, fun) if k % 7 == 0 else fun
            f0 = fun(t0, y)
            got = start(field, t0, y, f0, t1, atol, rtol)
            assert got == _initial_step(field, t0, y, f0, t1, atol, rtol, n_err)
            assert type(got) is float and got >= 0.0


@pytest.mark.parametrize("width", [1, 2, 4, 6, 20])
def test_generated_start_step_corners_are_the_loop_ones(width):
    # a field at rest (max(d1, d2) <= 1e-15), a huge field whose h0
    # underflows to 0 below the floor, and one singular at the probe point;
    # the last two start at 0 (d1 or d2 is inf), where the stepping loop's
    # floor rules
    y = [1.0] * width
    fields = {"rest": lambda t, y: [0.0] * len(y), "huge": lambda t, y: [1e300] * len(y),
              "singular": _singular_after(0.5, lambda t, y: [1.0] * len(y))}
    for name, fun in fields.items():
        f0 = fun(0.5, y)
        for n_err in (None, 1):
            got = _starter(width, width if n_err is None else n_err)(
                fun, 0.5, y, f0, 2.0, 1e-11, 1e-9)
            assert got == _initial_step(fun, 0.5, y, f0, 2.0, 1e-11, 1e-9, n_err)
            assert (got == 0.0) is (name != "rest")


# -- a run's arrays are built on first read --------------------------------

_LAZY = ("_t", "_y", "_h", "_rows")


# sha256 (first 16 hex digits) of t_nodes, states and 101 dense samples,
# as the arrays were when every run built them at once
_RUN_DIGESTS = {
    "line": ("e5c6317d37a76b70", lambda: evolve(
        0.0, 1.0, PhaseState(0.05, 0.1), ModelParams(G=9.81, lam=1.0, dim=1), F1)),
    "plane": ("5af56b9e68185dce", lambda: evolve(
        0.0, 3.0, PhaseState(np.array([0.1, 0.05]), np.zeros(2)),
        ModelParams(G=9.81, lam=1.0, dim=2), F2)),
    "path": ("140f62bcdd568f92", _path_run),
    "fused": ("6b0d2d52a4726f15", _fused_run),
    "leading": ("54367fc2e78a8f12", _leading_run),
}


@pytest.mark.parametrize("name", list(_RUN_DIGESTS))
def test_lazily_built_arrays_are_the_eager_ones_bit_for_bit(name):
    want, make_run = _RUN_DIGESTS[name]
    for dense_first in (False, True):
        traj = make_run()
        ts = np.linspace(traj.t0, traj.t_end, 101)
        dense = traj.dense_array(ts) if dense_first else None
        arrays = [traj.t_nodes, traj.states]
        arrays.append(dense if dense_first else traj.dense_array(ts))
        digest = hashlib.sha256()
        for a in arrays:
            digest.update(a.tobytes())
        assert digest.hexdigest()[:16] == want


@pytest.mark.parametrize("fall", [True, False], ids=["falls", "survives"])
def test_a_run_read_for_its_fall_and_last_node_builds_no_arrays(fall):
    # what the journey grid, the period map and the spot arcs read
    s0 = PhaseState(np.array([0.1, 0.05]) if fall else np.zeros(2), np.zeros(2))
    traj = evolve(0.0, 3.0, s0, ModelParams(G=9.81, lam=1.0 if fall else 0.0, dim=2), F2)
    assert (traj.fall_event is not None) is fall and traj.n_accepted > 0
    end = traj.end_state()
    assert traj.y_end == end.flat().tolist()
    assert not set(_LAZY) & vars(traj).keys()
    assert traj.states[-1].tolist() == traj.y_end
    assert {"_y"} == set(_LAZY) & vars(traj).keys()


def test_a_run_whose_one_step_is_its_fall_reads_its_fall_rows():
    # no step is left to build in one pass: the fall step's rows serve alone
    traj = integrate_field(lambda t, y: [10.0], 0.0, 1.0, [0.99], IntegratorConfig(),
                           fall_dim=1)
    ev = traj.fall_event
    assert traj.n_accepted == len(traj.t_nodes) - 1 == 1
    got = traj.dense_array([0.0, ev.time])
    assert got.tolist() == [[0.99], ev.state.tolist()]
    assert ev.state[0] == pytest.approx(FALL_THRESHOLD, abs=1e-12)


def test_a_leading_run_reads_the_same_before_and_after_its_full_run():
    # a view builds its own rows on every component, or keeps the full
    # run's if they were built first: the samples are the same either way
    view_first, full_first = _fused_run(), _fused_run()
    assert view_first.fall_event is not None
    ts = np.linspace(0.0, view_first.t_end, 9)
    before = view_first.leading(4).dense_array(ts)
    full = view_first.dense_array(ts)
    full_first.dense_array(ts)
    after = full_first.leading(4).dense_array(ts)
    assert np.array_equal(before, full[:, :4]) and np.array_equal(after, before)


# -- the start is converted to floats once --------------------------------

def test_any_float_sequence_start_gives_the_same_run():
    # a list of ints, a tuple, an ndarray and numpy scalars: the field sees a
    # list of Python floats, and every float of the run is the same
    seen = []
    field = make_field(ModelParams(G=9.81, lam=1.0, dim=1), F1)

    def recorded(t, y):
        seen.append(y)
        return field(t, y)

    def run(y0):
        return integrate_field(recorded, 0.0, 2.0, y0, IntegratorConfig(), fall_dim=1)

    for ref, starts in (([0.0, 1.0], [[0, 1]]),
                        ([0.25, -0.5], [(0.25, -0.5), np.array([0.25, -0.5]),
                                        [np.float64(0.25), np.float64(-0.5)]])):
        want = run(ref)
        for y0 in starts:
            seen.clear()
            got = run(y0)
            assert all(type(v) is float for y in seen for v in y)
            assert np.array_equal(got.t_nodes, want.t_nodes)
            assert np.array_equal(got.states, want.states)
            assert got.fall_event.time == want.fall_event.time
            assert (got.n_accepted, got.n_rejected) == (want.n_accepted, want.n_rejected)


@pytest.mark.parametrize("y0", [[[0.1, 0.2], [0.3]], [[0.1], 0.2], ["x", 0.0],
                                [None, 0.0], ([0.1, 0.2], [0.3]), ("x", 0.0)])
def test_a_ragged_or_non_numeric_start_raises(y0):
    with pytest.raises((TypeError, ValueError)):
        integrate_field(lambda t, y: [0.0] * len(y), 0.0, 1.0, y0, IntegratorConfig())

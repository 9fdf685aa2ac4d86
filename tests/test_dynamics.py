from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import jacobian as oracle_jacobian
from oracles import rhs_linear as oracle_linear
from oracles import rhs_planar as oracle_planar
from oracles import unresolved_planar_residual
from upright.dynamics import (ANGLE_CHART_SCALE, DIRECTION_CHART_SCALE, FALL_THRESHOLD,
                              GUARD, ModelParams, PhaseState, angle_field, direction_field,
                              jacobian, make_field)
from upright.errors import SingularityError
from upright.forcing import PathSamples, ingest_path, make_fourier_forcing

TWO_PI = 2.0 * math.pi

F1 = make_fourier_forcing(1.0, 1, [2.0], [])
F2 = make_fourier_forcing(1.0, 2, [(1.5, 0.0)], [(0.0, 1.5)])
Z1 = make_fourier_forcing(1.0, 1, [0.0], [])
Z2 = make_fourier_forcing(1.0, 2, [(0.0, 0.0)], [])
f1 = lambda t: np.array([2.0 * math.cos(TWO_PI * t)])
f2 = lambda t: np.array([1.5 * math.cos(TWO_PI * t), 1.5 * math.sin(TWO_PI * t)])


def _rand_state(rng, dim, r_max=0.9, p_max=2.0):
    if dim == 1:
        x = np.array([rng.uniform(-r_max, r_max)])
    else:
        r = rng.uniform(0.0, r_max)
        th = rng.uniform(0.0, TWO_PI)
        x = r * np.array([math.cos(th), math.sin(th)])
    p = rng.uniform(-p_max, p_max, size=dim)
    return PhaseState(x, p)


def rhs(t, s, params, F):
    """(dx/dt, dp/dt) of the compiled field at ``s``."""
    out = np.asarray(make_field(params, F)(t, s.flat()))
    return out[:s.dim], out[s.dim:]


# -- right-hand sides ---------------------------------------------------

def test_linear_at_origin_constant_push():
    Fc = make_fourier_forcing(1.0, 1, [3.0], [])
    # at x=0 only the direct forcing term survives: pdot = -c at t=0
    params = ModelParams(G=9.81, lam=1.0, dim=1)
    xdot, pdot = rhs(0.0, PhaseState(0.0, 0.0), params, Fc)
    assert xdot.item() == 0.0
    assert pdot.item() == pytest.approx(-3.0, abs=1e-14)


def test_linear_hand_value():
    params = ModelParams(G=1.0, lam=0.0, dim=1)
    _, pdot = rhs(0.0, PhaseState(0.5, 0.0), params, Z1)
    assert pdot.item() == pytest.approx(0.4330127018922193, abs=1e-15)


def test_planar_hand_value():
    params = ModelParams(G=1.0, lam=0.0, dim=2)
    s = PhaseState(np.array([0.6, 0.0]), np.array([0.0, 0.5]))
    xdot, pdot = rhs(0.0, s, params, Z2)
    # R = sqrt(0.64) - 0 - 0.25 = 0.55, pdot = R*x
    assert np.allclose(xdot, [0.0, 0.5])
    assert pdot[0] == pytest.approx(0.33, abs=1e-15)
    assert pdot[1] == pytest.approx(0.0, abs=0.0)


def test_planar_at_origin_constant_push():
    Fc = make_fourier_forcing(1.0, 2, [(0.7, -0.2)], [])
    params = ModelParams(G=9.81, lam=1.0, dim=2)
    _, pdot = rhs(0.0, PhaseState(np.zeros(2), np.zeros(2)), params, Fc)
    assert np.allclose(pdot, [-0.7, 0.2], atol=1e-14)


def test_linear_matches_independent_transcription():
    rng = np.random.default_rng(11)
    params = ModelParams(G=9.81, lam=0.7, dim=1)
    f = lambda t: 2.0 * math.cos(TWO_PI * t)
    for _ in range(50):
        s = _rand_state(rng, 1)
        t = rng.uniform(0.0, 1.0)
        xdot, pdot = rhs(t, s, params, F1)
        ref = oracle_linear(t, s.flat(), 9.81, 0.7, f)
        assert np.allclose([xdot.item(), pdot.item()], ref, rtol=1e-13, atol=1e-13)


def test_planar_matches_independent_transcription():
    rng = np.random.default_rng(12)
    params = ModelParams(G=9.81, lam=0.4, dim=2)
    for _ in range(50):
        s = _rand_state(rng, 2)
        t = rng.uniform(0.0, 1.0)
        xdot, pdot = rhs(t, s, params, F2)
        ref = oracle_planar(t, s.flat(), 9.81, 0.4, f2)
        assert np.allclose(np.concatenate([xdot, pdot]), ref, rtol=1e-13, atol=1e-13)


def test_planar_reduces_to_linear_on_the_axis():
    rng = np.random.default_rng(13)
    Fx = make_fourier_forcing(1.0, 2, [(2.0, 0.0)], [])
    p1 = ModelParams(G=9.81, lam=1.0, dim=1)
    p2 = ModelParams(G=9.81, lam=1.0, dim=2)
    for _ in range(25):
        x = rng.uniform(-0.9, 0.9)
        p = rng.uniform(-2.0, 2.0)
        t = rng.uniform(0.0, 1.0)
        _, pdot1 = rhs(t, PhaseState(x, p), p1, F1)
        _, pdot2 = rhs(t, PhaseState(np.array([x, 0.0]), np.array([p, 0.0])), p2, Fx)
        assert pdot2[1] == 0.0
        assert pdot2[0] == pytest.approx(pdot1.item(), rel=1e-13, abs=1e-13)


def test_unresolved_planar_system_residual():
    # the resolved acceleration must satisfy the pre-elimination system
    rng = np.random.default_rng(14)
    for _ in range(50):
        y = np.concatenate([0.9 * rng.uniform(-0.7, 0.7, 2), rng.uniform(-2, 2, 2)])
        if np.linalg.norm(y[:2]) >= 0.95:
            continue
        res = unresolved_planar_residual(rng.uniform(0, 1), y, 9.81, 0.8, f2)
        assert res < 1e-12


def test_lambda_zero_is_time_independent():
    params = ModelParams(G=9.81, lam=0.0, dim=1)
    s = PhaseState(0.3, -0.4)
    a = rhs(0.1, s, params, F1)
    b = rhs(0.9, s, params, F1)
    assert a[0].item() == b[0].item() and a[1].item() == b[1].item()


def test_linear_odd_symmetry():
    params = ModelParams(G=9.81, lam=1.0, dim=1)
    Fneg = make_fourier_forcing(1.0, 1, [-2.0], [])
    rng = np.random.default_rng(15)
    for _ in range(20):
        x = rng.uniform(-0.9, 0.9)
        p = rng.uniform(-2.0, 2.0)
        t = rng.uniform(0.0, 1.0)
        a = rhs(t, PhaseState(-x, -p), params, Fneg)
        b = rhs(t, PhaseState(x, p), params, F1)
        assert a[0].item() == -b[0].item()
        assert a[1].item() == -b[1].item()


def test_rotation_equivariance():
    th = 0.77
    Q = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    c = np.array([[1.5, 0.0]])
    s_ = np.array([[0.0, 1.5]])
    FQ = make_fourier_forcing(1.0, 2, c @ Q.T, s_ @ Q.T)
    params = ModelParams(G=9.81, lam=1.0, dim=2)
    rng = np.random.default_rng(16)
    for _ in range(20):
        st = _rand_state(rng, 2)
        t = rng.uniform(0.0, 1.0)
        _, pdot = rhs(t, st, params, F2)
        _, pdot_rot = rhs(t, PhaseState(Q @ st.x, Q @ st.p), params, FQ)
        assert np.allclose(pdot_rot, Q @ pdot, rtol=1e-12, atol=1e-12)


def test_singularity_guard():
    params = ModelParams(G=9.81, lam=1.0, dim=1)
    with pytest.raises(SingularityError):
        rhs(0.0, PhaseState(GUARD, 0.0), params, F1)
    with pytest.raises(SingularityError):
        rhs(0.0, PhaseState(np.array([0.8, 0.6]), np.zeros(2)),
            ModelParams(G=9.81, lam=1.0, dim=2), F2)


def test_r_decreases_with_speed():
    params = ModelParams(G=9.81, lam=0.0, dim=2)
    x = np.array([0.2, 0.1])
    prev = math.inf
    for speed in (0.0, 0.5, 1.0, 2.0):
        _, pdot = rhs(0.0, PhaseState(x, np.array([0.0, speed])), params, Z2)
        # with this x and p the coupling term (x^T p)^2 also grows, so R
        # strictly decreases; read R off pdot = R*x
        R = pdot[0] / x[0]
        assert R < prev
        prev = R


def test_make_field_matches_rhs():
    rng = np.random.default_rng(17)
    params = ModelParams(G=9.81, lam=0.9, dim=2)
    fun = make_field(params, F2)
    for _ in range(20):
        s = _rand_state(rng, 2)
        t = rng.uniform(0.0, 1.0)
        assert np.allclose(fun(t, s.flat()), oracle_planar(t, s.flat(), 9.81, 0.9, f2),
                           rtol=1e-14, atol=1e-14)


# -- Jacobians ----------------------------------------------------------

def test_jacobian_linear_origin():
    params = ModelParams(G=9.81, lam=0.3, dim=1)
    J = jacobian(0.0, PhaseState(0.0, 0.0), params, F1)
    assert np.allclose(J, [[0.0, 1.0], [9.81, 0.0]], atol=1e-12)


def test_jacobian_planar_origin():
    params = ModelParams(G=9.81, lam=0.0, dim=2)
    J = jacobian(0.0, PhaseState(np.zeros(2), np.zeros(2)), params, Z2)
    expect = np.array([[0, 0, 1, 0],
                       [0, 0, 0, 1],
                       [9.81, 0, 0, 0],
                       [0, 9.81, 0, 0]], dtype=float)
    assert np.allclose(J, expect, atol=1e-12)


def _fd_jacobian(t, s, params, F, h=1e-6):
    fun = make_field(params, F)
    y0 = s.flat()
    n = y0.size
    J = np.empty((n, n))
    for j in range(n):
        yp, ym = y0.copy(), y0.copy()
        yp[j] += h
        ym[j] -= h
        J[:, j] = (np.asarray(fun(t, yp)) - np.asarray(fun(t, ym))) / (2.0 * h)
    return J


@pytest.mark.parametrize("dim", [1, 2])
def test_jacobian_matches_central_differences(dim):
    rng = np.random.default_rng(18 + dim)
    F = F1 if dim == 1 else F2
    params = ModelParams(G=9.81, lam=0.8, dim=dim)
    for _ in range(100):
        s = _rand_state(rng, dim, r_max=0.85)
        t = rng.uniform(0.0, 1.0)
        J = jacobian(t, s, params, F)
        J_fd = _fd_jacobian(t, s, params, F)
        scale = np.abs(J_fd) + 1.0
        assert np.max(np.abs(J - J_fd) / scale) < 1e-5


@pytest.mark.parametrize("dim", [1, 2])
def test_variational_field_is_the_field_and_its_jacobian(dim):
    rng = np.random.default_rng(40 + dim)
    F, f = (F1, f1) if dim == 1 else (F2, f2)
    params = ModelParams(G=9.81, lam=0.8, dim=dim)
    n = 2 * dim
    plain = make_field(params, F)
    fused = make_field(params, F, variational=True)
    for _ in range(100):
        s = _rand_state(rng, dim, r_max=0.85)
        t = rng.uniform(0.0, 1.0)
        M = rng.normal(size=(n, n))
        out = np.asarray(fused(t, np.concatenate([s.flat(), M.ravel()])))
        # the same expressions as the plain field, so equal to the bit
        assert np.array_equal(out[:n], plain(t, s.flat()))
        J = oracle_jacobian(t, s.flat(), 9.81, 0.8, f)
        expect = J @ M
        scale = np.abs(J) @ np.abs(M) + 1.0
        assert np.max(np.abs(out[n:].reshape(n, n) - expect) / scale) < 1e-13


def _sine_path():
    ts = np.linspace(0.0, 1.0, 33)
    F, _ = ingest_path(PathSamples(times=ts, positions=0.02 * np.sin(TWO_PI * ts)),
                       gravity=9.81)
    return F


@pytest.mark.parametrize("make_F", [
    lambda: make_fourier_forcing(1.0, 1, [2.0], [0.5], constant=0.3),
    _sine_path,
], ids=["fourier", "path"])
def test_angle_chart_is_the_line_rod(make_F):
    # x = sin th, p = w cos th: x'' = cos th th'' - sin th w^2 is the line
    # field's acceleration, up to rounding in the terms it sums; |x| <= 0.99
    # keeps the x chart's own rounding in 1 - x^2 below that.  The state is
    # the stretched [c th, c w], and c th reaches the fall with sin th.
    c = ANGLE_CHART_SCALE
    assert c * math.asin(FALL_THRESHOLD) == pytest.approx(FALL_THRESHOLD, rel=1e-15)
    F = make_F()
    rng = np.random.default_rng(11)
    reach = math.asin(0.99)
    for _ in range(200):
        th, w = rng.uniform(-reach, reach), rng.uniform(-5.0, 5.0)
        t, lam = rng.uniform(-2.0, 2.0), rng.uniform(0.0, 1.0)
        params = ModelParams(G=9.81, lam=lam, dim=1)
        v, a = angle_field(params, F)(t, [c * th, c * w])
        assert v == c * w
        got = math.cos(th) * (a / c) - math.sin(th) * w * w
        want = make_field(params, F)(t, [math.sin(th), w * math.cos(th)])[1]
        size = (9.81 * abs(math.sin(th) * math.cos(th)) + w * w * abs(math.sin(th))
                + lam * abs(F.eval_scalar(t)[0]) * math.cos(th) ** 2)
        assert abs(got - want) <= 1e-13 * size


def test_angle_chart_is_the_lines_only():
    with pytest.raises(ValueError, match="dim must be 1"):
        angle_field(ModelParams(G=9.81, lam=1.0, dim=2), F2)


def _circle_path():
    ts = np.linspace(0.0, 1.0, 49)
    positions = 0.04 * np.column_stack([np.cos(TWO_PI * ts), np.sin(TWO_PI * ts)])
    F, _ = ingest_path(PathSamples(times=ts, positions=positions), gravity=9.81)
    return F


@pytest.mark.parametrize("make_F", [
    lambda: make_fourier_forcing(1.0, 2, [(1.5, 0.0)], [(0.0, 1.5)], constant=[0.1, -0.2]),
    _circle_path,
], ids=["fourier", "path"])
def test_direction_chart_is_the_planar_rod(make_F):
    # u = (x, y) with y = sqrt(1 - |x|^2) and y' = -x.p / y: the chart's x''
    # is the plane field's acceleration, up to rounding in the terms it
    # sums; |x| <= 0.99 keeps the x chart's own rounding in 1 - |x|^2 below
    # that.  The state is [c (1 - y), x, y', p], and c (1 - y) reaches the
    # fall with |x|.
    c = DIRECTION_CHART_SCALE
    assert c * (1.0 - math.sqrt(1.0 - FALL_THRESHOLD ** 2)) == pytest.approx(
        FALL_THRESHOLD, rel=1e-15)
    F = make_F()
    rng = np.random.default_rng(13)
    for _ in range(200):
        r, ang = rng.uniform(0.0, 0.99), rng.uniform(0.0, TWO_PI)
        x = [r * math.cos(ang), r * math.sin(ang)]
        p = rng.uniform(-5.0, 5.0, 2).tolist()
        t, lam = rng.uniform(-2.0, 2.0), rng.uniform(0.0, 1.0)
        params = ModelParams(G=9.81, lam=lam, dim=2)
        r2 = x[0] ** 2 + x[1] ** 2
        y = math.sqrt(1.0 - r2)
        xp = x[0] * p[0] + x[1] * p[1]
        out = direction_field(params, F)(t, [c * (1.0 - y), *x, -xp / y, *p])
        assert out[1:3] == p
        assert out[0] == pytest.approx(c * xp / y, rel=1e-14)
        want = make_field(params, F)(t, [*x, *p])[2:]
        f = F.eval_scalar(t)
        xf = x[0] * f[0] + x[1] * f[1]
        sizes = []
        for i in range(2):
            size = ((9.81 * y + xp * xp / (1.0 - r2) + p[0] ** 2 + p[1] ** 2) * abs(x[i])
                    + lam * (abs(xf * x[i]) + abs(f[i])))
            assert abs(out[4 + i] - want[i]) <= 1e-13 * size
            sizes.append(size)
        # y'' = -(|p|^2 + x.x'') / y - (x.p)^2 / y^3, from y y' = -x.p
        xa = x[0] * want[0] + x[1] * want[1]
        vertical = -(p[0] ** 2 + p[1] ** 2 + xa) / y - xp * xp / y ** 3
        size = ((p[0] ** 2 + p[1] ** 2 + abs(x[0]) * sizes[0] + abs(x[1]) * sizes[1]) / y
                + xp * xp / y ** 3)
        assert abs(out[3] - vertical) <= 1e-13 * size


def test_direction_chart_is_the_planes_only():
    with pytest.raises(ValueError, match="dim must be 2"):
        direction_field(ModelParams(G=9.81, lam=1.0, dim=1), F1)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(G=-1.0, lam=0.0, dim=1)
    with pytest.raises(ValueError):
        ModelParams(G=9.81, lam=1.5, dim=1)
    with pytest.raises(ValueError):
        ModelParams(G=9.81, lam=0.0, dim=3)


@pytest.mark.parametrize("make_F", [
    lambda: F1,
    lambda: F2,
    lambda: make_fourier_forcing(1.0, 1, [2.0], [0.5], constant=0.3),
    lambda: make_fourier_forcing(1.0, 2, [(1.5, 0.0)], [(0.0, 1.5)],
                                 constant=[0.1, -0.2]),
    _sine_path,
], ids=["line", "plane", "line-constant", "plane-constant", "path"])
def test_scalar_forcing_and_compiled_fields_give_python_floats(make_F):
    # the integrator's stage sums run on what the field returns; numpy
    # scalars there, from the forcing or from the parameters, make every
    # step slower
    F = make_F()
    for t in (0.0, 0.37, -1.2, 5.5):
        assert all(type(v) is float for v in F.eval_scalar(t))
    d = F.dim
    for G, lam in ((9.81, 0.5), (np.float64(9.81), np.float64(0.5))):
        params = ModelParams(G=G, lam=lam, dim=d)
        assert type(params.G) is float and type(params.lam) is float
        for variational in (False, True):
            y = [0.1] * d + [0.2] * d
            if variational:
                y += np.eye(2 * d).ravel().tolist()
            out = make_field(params, F, variational=variational)(0.37, y)
            assert len(out) == len(y)
            assert all(type(v) is float for v in out), (G, variational)
        chart, y = ((angle_field, [0.1, 0.2]) if d == 1
                    else (direction_field, [0.01, 0.1, 0.1, -0.05, 0.2, 0.2]))
        out = chart(params, F)(0.37, y)
        assert len(out) == len(y)
        assert all(type(v) is float for v in out), (G, chart)

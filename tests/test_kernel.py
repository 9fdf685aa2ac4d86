"""The chart fields and the forcing's scalar path as source lines: each is
compiled from its lines, and the integrator's step splices the same lines
into its stages, the called step's floats bit for bit."""
from __future__ import annotations

import math
import struct

import numpy as np
import pytest

from upright import integrator, kernel, whitney
from upright.dynamics import (ANGLE_CHART_SCALE, DIRECTION_CHART_SCALE, ModelParams,
                              angle_field, direction_field)
from upright.forcing import PathSamples, PeriodicSignal, ingest_path, make_fourier_forcing
from upright.integrator import IntegratorConfig, _stepper, integrate_field
from upright.kernel import Source
from upright.whitney import JourneySpec, bisect_survivor, planar_survivor_grid

TWO_PI = 2.0 * math.pi


def _bits(values) -> bytes:
    values = list(values)
    return struct.pack(f"{len(values)}d", *values)


def _path(dim):
    """The 64-knot carriage path of the journey benchmark, ``-0.5 sin t`` on
    the line, the circle of radius 1.5 in the plane."""
    ts = np.linspace(0.0, TWO_PI, 65)
    if dim == 1:
        pos = -0.5 * np.sin(ts)
    else:
        pos = np.column_stack([-1.5 * np.cos(ts), -1.5 * np.sin(ts)])
    return ingest_path(PathSamples(ts, pos), 9.81)[0]


def _hand_built(dim):
    """A signal built from plain functions: it has no source lines."""
    amp = 0.5 if dim == 1 else 1.5

    def value(u):
        cols = [np.sin(u)] if dim == 1 else [np.cos(u), np.sin(u)]
        return amp * np.stack(cols, axis=-1)

    def derivative(u):
        cols = [np.cos(u)] if dim == 1 else [-np.sin(u), np.cos(u)]
        return amp * np.stack(cols, axis=-1)

    if dim == 1:
        def scalar(t):
            return (amp * math.sin(t),)
    else:
        def scalar(t):
            return (amp * math.cos(t), amp * math.sin(t))

    return PeriodicSignal(TWO_PI, dim, value, derivative, amp, amp, scalar)


_FORCINGS = {
    # name: (line forcing, plane forcing)
    "fourier-1": (make_fourier_forcing(TWO_PI, 1, [], [0.5]),
                  make_fourier_forcing(1.0, 2, [(1.5, 0.0)], [(0.0, 1.5)])),
    "fourier-4": (make_fourier_forcing(TWO_PI, 1, [0.3, 0.0, -0.2, 0.1],
                                       [0.5, 0.25, 0.0, -0.05], constant=0.05),
                  make_fourier_forcing(1.0, 2, [(1.5, -0.4), (0.3, 0.2), (0.0, 0.1), (0.05, 0.0)],
                                       [(0.0, 1.5), (0.2, -0.1), (0.1, 0.0), (-0.05, 0.02)],
                                       constant=(0.1, -0.2))),
    "spline-64": (_path(1), _path(2)),
    "sourceless": (_hand_built(1), _hand_built(2)),
}


def _chart(dim, F, lam=0.8):
    chart = angle_field if dim == 1 else direction_field
    return chart(ModelParams(9.81, lam, dim), F)


def _called(field):
    """``field`` without its source: the step calls it at every stage."""
    return lambda t, y: field(t, y)


def test_signals_with_lines_carry_them_and_others_call_eval_scalar():
    for name, pair in _FORCINGS.items():
        for F in pair:
            src, values = F.scalar_kernel
            assert len(src.consts) == len(values) and len(src.result) == F.dim
            assert (src.consts == ("eval_scalar",)) is (name == "sourceless")
    F = _FORCINGS["sourceless"][0]
    assert F.scalar_kernel[1] == (F.eval_scalar,)


# -- the compiled chart fields are the closures they replaced ---------------

def _angle_closure(params, F):
    """The reference angle chart: the closure that calls ``eval_scalar``."""
    scale = ANGLE_CHART_SCALE
    G, lam, eval_scalar = scale * params.G, scale * params.lam, F.eval_scalar

    def field(t, y):
        phi, v = y
        theta = phi / scale
        return [v, G * math.sin(theta) - lam * eval_scalar(t)[0] * math.cos(theta)]

    return field


def _direction_closure(params, F):
    """The reference direction chart: the closure that calls ``eval_scalar``."""
    scale, G, lam, eval_scalar = DIRECTION_CHART_SCALE, params.G, params.lam, F.eval_scalar

    def field(t, s):
        q, x0, x1, w, p0, p1 = s
        y = 1.0 - q / scale
        f0, f1 = eval_scalar(t)
        g0 = lam * f0
        g1 = lam * f1
        k = g0 * x0 + g1 * x1 + G * y - (p0 * p0 + p1 * p1 + w * w)
        return [-scale * w, p0, p1, k * y - G, k * x0 - g0, k * x1 - g1]

    return field


@pytest.mark.parametrize("name", list(_FORCINGS))
@pytest.mark.parametrize("dim", [1, 2])
def test_chart_fields_are_the_closures_bit_for_bit(dim, name):
    F = _FORCINGS[name][dim - 1]
    rng = np.random.default_rng(dim)
    for _ in range(200):
        params = ModelParams(9.81, float(rng.uniform(0.0, 1.0)), dim)
        closure = (_angle_closure if dim == 1 else _direction_closure)(params, F)
        field = _chart(dim, F, params.lam)
        y = rng.uniform(-1.0, 1.0, 4 * dim - 2).tolist()
        t = float(rng.uniform(-20.0, 20.0))
        got = field(t, y)
        assert type(got) is list
        assert _bits(got) == _bits(closure(t, y))


# -- the spliced step is the called step, bit for bit ----------------------

def _assert_same_steps(field, source, values, width, seed):
    """The spliced and the called step from seeded states and step sizes
    that both accept and reject: ``y_new``, every stage and ``err_norm``."""
    called = _stepper(width, width)()
    spliced = _stepper(width, width, source)(*values)
    rng = np.random.default_rng(seed)
    accepted = 0
    for _ in range(40):
        y = rng.uniform(-0.5, 0.5, width).tolist()
        t = float(rng.uniform(-7.0, 7.0))
        h = float(10.0 ** rng.uniform(-4.0, -0.3))
        k1 = field(t, y)
        got = spliced(field, t, h, y, k1, 1e-11, 1e-9)
        want = called(field, t, h, y, k1, 1e-11, 1e-9)
        assert _bits(got[0]) == _bits(want[0])
        assert len(got[1]) == len(want[1]) == 12
        for a, b in zip(got[1], want[1]):
            assert type(a) is list and _bits(a) == _bits(b)
        assert _bits([got[2]]) == _bits([want[2]])
        accepted += got[2] <= 1.0
    assert 0 < accepted < 40


@pytest.mark.parametrize("name", list(_FORCINGS))
@pytest.mark.parametrize("dim", [1, 2])
def test_spliced_step_is_the_called_step_bit_for_bit(dim, name):
    # both charts under Fourier forcings of 1 and 4 modes, the 64-knot
    # spline, and a signal with no source, whose value the step calls for
    field = _chart(dim, _FORCINGS[name][dim - 1])
    source, values = field.kernel
    _assert_same_steps(field, source, values, 4 * dim - 2, dim)


# every name of the step's own source: the stage letters' components, the
# state, the new state, the 8th-order sums, the error sums' temporaries and
# the arguments, builtins and functions it reads
_STEP_NAMES = ([f"{letter}{i}" for letter in integrator._STAGE for i in (0, 1)]
               + ["y0", "y1", "u0", "u1", "r0", "r1", "k1", "k2", "k12", "v", "w", "s", "q",
                  "t", "h", "y", "fun", "atol", "rtol", "err5", "err3", "den", "sqrt",
                  "inf", "abs", "step", "bind", "fn"])


def _shadowing_field():
    """A width-2 field whose arguments, constants and locals are the names
    of the step's own source: a clash would change what either reads."""
    args, consts = ("h", "k1", "y0"), ("atol", "rtol", "sqrt", "abs")
    lines = ["s = atol * k1 + rtol * y0 + 0.25 * h"]
    prev = "s"
    for name in _STEP_NAMES:
        if name not in args + consts + ("s",):
            lines.append(f"{name} = 0.75 * {prev} - rtol * y0 + atol * sqrt(abs(k1) + 1.0)")
            prev = name
    src = Source(args, tuple(lines), ("y0 - 0.5 * " + prev, f"{prev} * k1 - h"), consts)
    values = (0.3, -1.1, math.sqrt, abs)

    def reference(t, y):
        k1, y0 = y
        s = 0.3 * k1 + -1.1 * y0 + 0.25 * t
        for _ in range(len(lines) - 1):
            s = 0.75 * s - -1.1 * y0 + 0.3 * math.sqrt(abs(k1) + 1.0)
        return [y0 - 0.5 * s, s * k1 - t]

    return src, values, reference


def test_a_field_that_shadows_every_name_of_the_step_splices_in_unchanged():
    src, values, reference = _shadowing_field()
    field = kernel.function(src, values)
    rng = np.random.default_rng(5)
    for _ in range(20):
        t, y = float(rng.uniform(-2.0, 2.0)), rng.uniform(-1.0, 1.0, 2).tolist()
        assert _bits(field(t, y)) == _bits(reference(t, y))
    _assert_same_steps(field, src, values, 2, 5)
    _assert_same_steps(reference, src, values, 2, 5)
    run = integrate_field(field, 0.0, 1.0, [0.1, 0.2], IntegratorConfig())
    ref = integrate_field(reference, 0.0, 1.0, [0.1, 0.2], IntegratorConfig())
    assert _bits(run.t_nodes) == _bits(ref.t_nodes)
    assert run.states.tobytes() == ref.states.tobytes()


def test_a_source_of_the_wrong_width_is_refused():
    field = _chart(1, _FORCINGS["fourier-1"][0])
    with pytest.raises(ValueError, match="a field of 2 components on a state of 6"):
        _stepper(6, 6, field.kernel[0])


# -- whole runs: the bisection and the grid, spliced and called -------------

@pytest.mark.parametrize("name, cfg", [("fourier-1", IntegratorConfig(1e-12, 1e-14)),
                                       ("fourier-4", None), ("spline-64", None),
                                       ("sourceless", None)])
def test_bisection_transcript_is_the_called_steps(name, cfg, monkeypatch):
    journey = JourneySpec(F=_FORCINGS[name][0], t_end=4.0, G=9.81)
    spliced = bisect_survivor(journey, cfg, depth=60)
    monkeypatch.setattr(whitney, "angle_field", lambda p, F: _called(angle_field(p, F)))
    called = bisect_survivor(journey, cfg, depth=60)
    assert len(spliced.transcript) >= 14
    assert spliced.transcript == called.transcript
    assert _bits(s.fall_time for s in spliced.transcript) == _bits(
        s.fall_time for s in called.transcript)
    assert _bits([spliced.lower, spliced.upper]) == _bits([called.lower, called.upper])


@pytest.mark.parametrize("name", ["fourier-1", "spline-64", "sourceless"])
def test_grid_fall_times_are_the_called_steps(name, monkeypatch):
    journey = JourneySpec(F=_FORCINGS[name][1], t_end=3.0, G=9.81)
    spliced = planar_survivor_grid(journey, grid_radius=0.9, n=5)
    monkeypatch.setattr(whitney, "direction_field",
                        lambda p, F: _called(direction_field(p, F)))
    called = planar_survivor_grid(journey, grid_radius=0.9, n=5)
    assert np.isfinite(spliced["fall_times"]).sum() >= 12
    assert spliced["fall_times"].tobytes() == called["fall_times"].tobytes()


# -- compiles are counted ---------------------------------------------------

def _compiles():
    return _stepper.cache_info().misses, kernel._binder.cache_info().misses


def test_a_bisection_compiles_no_kernel_per_release():
    # a second forcing of the same mode count, under another G: every
    # release binds its field's values to the kernels compiled before
    first = JourneySpec(F=make_fourier_forcing(TWO_PI, 1, [0.1], [0.5]), t_end=4.0, G=9.81)
    bisect_survivor(first, depth=60)
    before = _compiles()
    second = JourneySpec(F=make_fourier_forcing(3.0, 1, [-0.2], [0.7]), t_end=4.0, G=7.5)
    result = bisect_survivor(second, depth=60)
    assert len(result.transcript) >= 14
    assert _compiles() == before


def test_a_hundred_angle_fields_on_one_forcing_compile_one_kernel():
    # 13 modes, a source no other test compiles: the forcing's evaluator,
    # then one field and one step for the hundred fields
    before = _compiles()
    F = make_fourier_forcing(1.0, 1, [0.01 * k for k in range(13)], [0.02] * 13)
    assert _compiles() == (before[0], before[1] + 1)
    for k in range(100):
        field = angle_field(ModelParams(9.0 + 0.01 * k, 1.0, 1), F)
        integrate_field(field, 0.0, 0.5, [0.1, 0.0], IntegratorConfig(), fall_dim=1)
    assert _compiles() == (before[0] + 1, before[1] + 2)

from __future__ import annotations

import bisect
import inspect
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from upright import cli, forcing
from upright.errors import InsufficientDataError
from upright.forcing import (PathSamples, ingest_path, make_fourier_forcing,
                             read_path_csv)

TWO_PI = 2.0 * math.pi


def test_zero_signal():
    F = make_fourier_forcing(1.0, 1, [0.0], [])
    assert F.period == 1.0
    assert F.dim == 1
    assert F.sup_norm == 0.0
    assert F.sup_norm_derivative == 0.0
    for t in (0.0, 0.3, -7.9, 123.456):
        assert F.eval(t).item() == pytest.approx(0.0, abs=0.0)


def test_single_cosine_mode_values():
    F = make_fourier_forcing(1.0, 1, [2.0], [])
    assert F.eval(0.0).item() == pytest.approx(2.0, abs=1e-15)
    # 2 cos(pi) = -2
    assert F.eval(0.5).item() == pytest.approx(-2.0, abs=1e-14)
    assert F.eval(0.25).item() == pytest.approx(0.0, abs=1e-14)
    # analytic maximum is 2; the declared bound must not be below it
    assert 2.0 <= F.sup_norm <= 2.0 * 1.02


def test_unit_circle_forcing():
    F = make_fourier_forcing(TWO_PI, 2, [(1.0, 0.0)], [(0.0, 1.0)])
    t = 1.234
    v = F.eval(t)
    assert v.shape == (2,)
    assert v[0] == pytest.approx(math.cos(t), abs=1e-14)
    assert v[1] == pytest.approx(math.sin(t), abs=1e-14)
    # |F(t)| = 1 identically
    assert 1.0 <= F.sup_norm <= 1.02
    assert 1.0 <= F.sup_norm_derivative <= 1.02


def test_derivative_matches_central_difference():
    F = make_fourier_forcing(1.0, 2, [(2.0, 0.5), (0.0, -1.0)],
                             [(0.3, 0.0), (1.0, 0.25)])
    h = 1e-6
    rng = np.random.default_rng(7)
    for t in rng.uniform(-3.0, 3.0, size=25):
        fd = (F.eval(t + h) - F.eval(t - h)) / (2.0 * h)
        assert np.allclose(F.eval_derivative(t), fd, rtol=1e-7, atol=1e-6)


def test_periodicity_at_random_times():
    F = make_fourier_forcing(1.0, 1, [1.0, 0.0, 0.4], [0.0, 0.7])
    rng = np.random.default_rng(0)
    ts = rng.uniform(-50.0, 50.0, size=1000)
    tol = 1e-10 * (1.0 + F.sup_norm)
    for t in ts:
        assert abs(F.eval(t + F.period).item() - F.eval(t).item()) < tol


def test_vectorized_eval_matches_scalar():
    F = make_fourier_forcing(2.0, 2, [(1.0, -0.5)], [(0.2, 0.9)])
    ts = np.linspace(-1.0, 3.0, 17)
    block = F.eval(ts)
    assert block.shape == (17, 2)
    for i, t in enumerate(ts):
        assert np.allclose(block[i], F.eval(float(t)), atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    c1=st.floats(-3, 3, allow_nan=False),
    s1=st.floats(-3, 3, allow_nan=False),
    s2=st.floats(-3, 3, allow_nan=False),
    t=st.floats(-20, 20, allow_nan=False),
)
def test_sup_norm_is_a_true_upper_bound(c1, s1, s2, t):
    # the declared norm must dominate |F(t)| everywhere, not just on grids
    F = make_fourier_forcing(1.0, 1, [c1], [s1, s2])
    assert abs(F.eval(t).item()) <= F.sup_norm + 1e-12
    assert abs(F.eval_derivative(t).item()) <= F.sup_norm_derivative + 1e-12


def _loop_scalar(F, cosine, sine, constant):
    """The reference scalar forcing: ``_reduce_scalar``, then a loop over the
    modes adding ``c_k cos(w_k u) + s_k sin(w_k u)`` to the constant."""
    dim = F.dim
    c = np.asarray(cosine, dtype=float).reshape(len(cosine), dim)
    s = np.asarray(sine, dtype=float).reshape(len(sine), dim)
    omega = 2.0 * math.pi * np.arange(1, len(cosine) + 1) / F.period
    modes = list(zip(omega.tolist(), c.tolist(), s.tolist()))

    def value(t):
        u = F._reduce_scalar(t)
        out = list(np.asarray(constant, dtype=float).reshape(dim).tolist())
        for w, ck, sk in modes:
            cw = math.cos(w * u)
            sw = math.sin(w * u)
            for i in range(dim):
                out[i] += ck[i] * cw + sk[i] * sw
        return tuple(out)

    return value


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("T", [1.0, 2.0 * math.pi, 0.37])
def test_fourier_scalar_value_equals_the_mode_loop_bit_for_bit(dim, T):
    # four harmonics and a constant; random times in [-5T, 5T], the
    # signed zeros, a negative hair, the period's neighbours and multiples
    rng = np.random.default_rng(dim)
    cosine = rng.uniform(-2.0, 2.0, (4, dim)).tolist()
    sine = rng.uniform(-2.0, 2.0, (4, dim)).tolist()
    constant = rng.uniform(-1.0, 1.0, dim).tolist()
    F = make_fourier_forcing(T, dim, cosine, sine, constant=constant)
    ref = _loop_scalar(F, cosine, sine, constant)
    times = (rng.uniform(-5.0 * T, 5.0 * T, 500).tolist()
             + [0.0, -0.0, -1e-17, T, math.nextafter(T, 0.0), -T]
             + [k * T for k in range(-5, 6)])
    for t in times:
        got = F.eval_scalar(t)
        assert type(got) is tuple and len(got) == dim
        assert [v.hex() for v in got] == [v.hex() for v in ref(t)]
        assert np.array_equal(F.eval(t), got)


@pytest.mark.parametrize("constant", [False, True])
@pytest.mark.parametrize("modes", [1, 4])
@pytest.mark.parametrize("dim", [1, 2])
def test_fourier_source_lines_are_the_mode_loop_bit_for_bit(dim, modes, constant):
    # the evaluator compiled from its lines per mode count, against the
    # loop form it replaced: one zero coefficient, with and without a
    # constant; negative times, signed zeros, and times a hair below a
    # multiple of the period, where the reduction rounds to the period
    rng = np.random.default_rng(10 * dim + modes)
    T = 0.37 * modes
    cosine = rng.uniform(-2.0, 2.0, (modes, dim))
    sine = rng.uniform(-2.0, 2.0, (modes, dim))
    sine[-1, 0] = 0.0
    const = rng.uniform(-1.0, 1.0, dim).tolist() if constant else [0.0] * dim
    F = make_fourier_forcing(T, dim, cosine.tolist(), sine.tolist(),
                             constant=const if constant else None)
    ref = _loop_scalar(F, cosine.tolist(), sine.tolist(), const)
    times = (rng.uniform(-9.0 * T, 9.0 * T, 400).tolist() + [0.0, -0.0, -1e-300]
             + [math.nextafter(k * T, -math.inf) for k in range(-6, 7)]
             + [k * T for k in range(-6, 7)])
    for t in times:
        got = F.eval_scalar(t)
        assert type(got) is tuple and len(got) == dim
        assert struct.pack(f"{dim}d", *got) == struct.pack(f"{dim}d", *ref(t))


# -- path ingestion ----------------------------------------------------

def _sine_path(n: int, amplitude: float = 0.05, period: float = 1.0):
    ts = np.linspace(0.0, period, n + 1)
    xs = amplitude * np.sin(TWO_PI * ts / period)
    xs[-1] = xs[0]
    return PathSamples(times=ts, positions=xs)


@pytest.mark.parametrize("dim, cosine", [(1, [1e300]), (2, [(1e200, 0.0)]),
                                         (1, [0.0, 1e307])])
def test_coefficients_whose_bounds_overflow_are_refused(dim, cosine):
    # the sup norms square the coefficients: past ~1e154 they are not finite,
    # which is refused without a numpy warning (warnings are errors here)
    with pytest.raises(ValueError, match="overflow"):
        make_fourier_forcing(1.0, dim, cosine, [])
    F = make_fourier_forcing(1.0, 1, [1e150], [])
    assert math.isfinite(F.sup_norm) and math.isfinite(F.sup_norm_derivative)


def test_path_samples_validation():
    with pytest.raises(InsufficientDataError):
        PathSamples(times=np.linspace(0, 1, 5), positions=np.zeros(5))
    bad_t = np.array([0.0, 0.2, 0.1, 0.4, 0.5, 0.6, 0.8, 1.0])
    with pytest.raises(ValueError):
        PathSamples(times=bad_t, positions=np.zeros(8))
    open_pos = np.linspace(0.0, 1.0, 9)  # endpoints differ by 1
    with pytest.raises(ValueError):
        PathSamples(times=np.linspace(0, 1, 9), positions=open_pos)
    ts = np.linspace(0.0, 1.0, 9)
    for times, xs in ((np.append(ts[:-1], math.inf), np.zeros(9)),
                      (ts, np.where(ts == 0.5, math.nan, 0.0)),
                      (ts, np.where(ts == 0.5, -math.inf, 0.0))):
        with pytest.raises(ValueError, match="finite"):
            PathSamples(times=times, positions=xs)


def test_path_sizes_past_the_float_range_are_refused_unwarned():
    # the closure gap is measured in Python floats, and a spline whose
    # curvature, rate or sup norms overflow is refused (warnings are errors)
    ts = np.linspace(0.0, 1.0, 17)
    ends = np.zeros(17)
    ends[0], ends[-1] = -1.5e308, 1.5e308
    with pytest.raises(ValueError, match="differ by inf"):
        PathSamples(times=ts, positions=ends)
    sine = 0.05 * np.sin(TWO_PI * ts)
    sine[-1] = sine[0]
    for positions, rod_length in ((1e300 * sine, 1.0), (sine, 1e-305)):
        samples = PathSamples(times=ts, positions=positions, rod_length=rod_length)
        with pytest.raises(ValueError, match="path too large"):
            ingest_path(samples, gravity=9.81)


def test_constant_path_gives_zero_forcing():
    ts = np.linspace(0.0, 2.0, 33)
    samples = PathSamples(times=ts, positions=np.full(33, 0.7))
    F, G = ingest_path(samples, gravity=9.81)
    assert G == pytest.approx(9.81)
    grid = np.linspace(0.0, 2.0, 50)
    assert np.max(np.abs(F.eval(grid))) < 1e-12
    assert F.sup_norm < 1e-12


def test_sine_path_second_derivative():
    A = 0.05
    F, G = ingest_path(_sine_path(256, A), gravity=9.81)
    assert G == pytest.approx(9.81)
    scale = A * TWO_PI ** 2
    ts = np.linspace(0.0, 1.0, 257)
    exact = -scale * np.sin(TWO_PI * ts)
    err = np.max(np.abs(F.eval(ts).ravel() - exact))
    assert err < 1e-4 * scale


def test_sine_path_quadratic_convergence():
    A = 0.05
    scale = A * TWO_PI ** 2
    errs = []
    for n in (128, 256, 512):
        F, _ = ingest_path(_sine_path(n, A), gravity=9.81)
        ts = np.linspace(0.0, 1.0, n + 1)
        exact = -scale * np.sin(TWO_PI * ts)
        errs.append(np.max(np.abs(F.eval(ts).ravel() - exact)))
    # halving h should shrink the knot error by about 4
    assert errs[0] / errs[1] > 2.5
    assert errs[1] / errs[2] > 2.5


def test_rod_length_rescaling():
    ts = np.linspace(0.0, 1.0, 65)
    xs = 0.1 * np.sin(TWO_PI * ts)
    xs[-1] = xs[0]
    samples = PathSamples(times=ts, positions=xs, rod_length=2.0)
    F, G = ingest_path(samples, gravity=9.81)
    assert G == pytest.approx(4.905)
    F1, _ = ingest_path(PathSamples(times=ts, positions=xs), gravity=9.81)
    t = 0.37
    assert F.eval(t).item() == pytest.approx(0.5 * F1.eval(t).item(), rel=1e-12)


def test_ingested_signal_is_periodic():
    F, _ = ingest_path(_sine_path(128), gravity=9.81)
    rng = np.random.default_rng(3)
    for t in rng.uniform(-5.0, 5.0, size=100):
        assert abs(F.eval(t + 1.0).item() - F.eval(t).item()) \
            < 1e-10 * (1.0 + F.sup_norm)


def _probed_path(dim, n):
    """A path on ``n`` random non-uniform knots, its seeded generator, its
    signal, and probe times: random, the knots, the period's ends, signed
    zeros and tiny negatives, and many periods away."""
    rng = np.random.default_rng(20 + dim)
    # knot gaps within a factor 19 of each other: 4,097 uniformly drawn
    # knots come within 1e-8 of each other, and there scipy's own periodic
    # solve strays about 1e-12 from an extended-precision one
    gaps = rng.uniform(0.1, 1.9, n - 1)
    ts = 0.3 + 1.7 * np.concatenate([[0.0], np.cumsum(gaps)]) / gaps.sum()
    pos = rng.normal(scale=0.05, size=(n, dim))
    pos[-1] = pos[0]
    ell = 0.8
    F, _ = ingest_path(PathSamples(times=ts, positions=pos, rod_length=ell),
                       gravity=9.81)
    P = F.period
    knots = ts - ts[0]
    probes = np.concatenate([
        rng.uniform(0.0, P, 2000),
        knots,
        [math.nextafter(P, 0.0), P, 0.0, -0.0, -1e-300, -1e-17],
        rng.uniform(-5.0 * P, 0.0, 200),
        rng.uniform(P, 5.0 * P, 200),
        knots - 3.0 * P,
        knots + 2.0 * P,
    ])
    return rng, knots, pos, ell, F, probes


@pytest.mark.parametrize("dim, n", [
    pytest.param(1, 41, id="1"),
    pytest.param(2, 41, id="2"),
    pytest.param(1, 4097, id="1-4097-knots"),
    pytest.param(2, 4097, id="2-4097-knots"),
])
def test_ingested_scalar_value_equals_the_spline_exactly(dim, n):
    # eval and eval_scalar pick the same piece and form M_k + rate_k (u - t_k)
    # alike, on arrays and in plain floats: they must agree to the bit.
    # scipy's CubicSpline is the reference for F, dF/dt and both sup norms.
    rng, knots, pos, ell, F, probes = _probed_path(dim, n)
    P = F.period
    block = F.eval(probes)
    scalar = np.asarray([F.eval_scalar(float(t)) for t in probes])
    assert block.shape == scalar.shape == (probes.size, dim)
    assert np.array_equal(block, scalar)

    spline = CubicSpline(knots, pos, axis=0, bc_type="periodic")
    inside = rng.uniform(0.0, P, 2000)
    mids = 0.5 * (knots[1:] + knots[:-1])  # dF/dt is constant per piece

    def rel(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    assert rel(F.eval(np.concatenate([inside, knots])),
               spline(np.concatenate([inside, knots]), 2) / ell) <= 1e-12
    d3 = spline(mids, 3) / ell
    assert rel(F.eval_derivative(mids), d3) <= 1e-12
    sup = np.max(np.linalg.norm(spline(knots, 2), axis=1)) / ell
    sup_d = np.max(np.linalg.norm(d3, axis=1))
    assert abs(F.sup_norm - sup) <= 1e-12 * sup
    assert abs(F.sup_norm_derivative - sup_d) <= 1e-12 * sup_d



# -- the scalar path and the spline fit against their list forms ------------

def _rows_curvature(h, rhs):
    """The reference periodic spline solve: Thomas' sweeps as numpy row
    operations, then the Sherman-Morrison correction."""
    diag = 2.0 * (h + np.roll(h, 1))
    gamma = -diag[0]
    diag[0] -= gamma
    diag[-1] -= h[-1] * h[-1] / gamma
    b = np.column_stack([rhs, np.zeros(len(h))])
    b[0, -1], b[-1, -1] = gamma, h[-1]
    for k in range(1, len(h)):
        w = h[k - 1] / diag[k - 1]
        diag[k] -= w * h[k - 1]
        b[k] -= w * b[k - 1]
    b[-1] /= diag[-1]
    for k in range(len(h) - 2, -1, -1):
        b[k] = (b[k] - h[k] * b[k + 1]) / diag[k]
    vb = b[0] + h[-1] / gamma * b[-1]
    return b[:, :-1] - np.outer(b[:, -1], vb[:-1] / (1.0 + vb[-1]))


def _listed_scalar(F):
    """The reference scalar path of a path signal: one list comprehension
    over the dimensions, on the fit that the signal's array path reads."""
    fit = inspect.getclosurevars(F._value_fn).nonlocals
    period = F.period
    knot_list, curv_list, rate_list = (fit[k].tolist() for k in ("knots", "curv", "rate"))
    inner_list = knot_list[1:-1]

    def value_scalar(t):
        u = math.fmod(t, period)
        if u < 0.0:
            u += period
        u = u % period
        k = bisect.bisect_right(inner_list, u)
        s = u - knot_list[k]
        return tuple([m + r * s for m, r in zip(curv_list[k], rate_list[k])])

    return value_scalar


@pytest.mark.parametrize("dim", [1, 2])
def test_scalar_path_is_the_list_form_byte_for_byte(dim):
    # same piece, same floats and the same sign of every zero: bytes, not ==
    *_, F, probes = _probed_path(dim, 41)
    listed = _listed_scalar(F)
    for t in probes.tolist():
        got = F.eval_scalar(t)
        assert type(got) is tuple and {type(v) for v in got} == {float}
        assert struct.pack(f"{dim}d", *got) == struct.pack(f"{dim}d", *listed(t))


@pytest.mark.parametrize("dim, n", [(1, 41), (2, 41), (1, 4097), (2, 4097)])
def test_float_sweeps_are_the_row_sweeps_bit_for_bit(dim, n):
    rng = np.random.default_rng(n + dim)
    h = np.diff(np.sort(rng.uniform(0.0, 3.0, n)))
    rhs = rng.normal(size=(n - 1, dim))
    got = forcing._periodic_spline_curvature(h, rhs)
    assert got.shape == (n - 1, dim)
    assert got.tobytes() == _rows_curvature(h, rhs).tobytes()


def _write_path(path, n, positions):
    rows = ["t,f1" if len(positions(0.0)) == 1 else "t,f1,f2"]
    for k in range(n + 1):
        t = TWO_PI * k / n
        rows.append(",".join(f"{v:.17g}" for v in (t, *positions(t))))
    path.write_text("\n".join(rows) + "\n")


def _path_command_bytes(tmp_path, name):
    """The files that whitney-search on the 64-knot path of -0.5 sin t and
    verify-bounds on a 128-knot planar circle path write, by name."""
    line, plane = tmp_path / "line.csv", tmp_path / "plane.csv"
    _write_path(line, 64, lambda t: [-0.5 * math.sin(t)])
    _write_path(plane, 128, lambda t: [-1.5 * math.cos(t), -1.5 * math.sin(t)])
    runs = {"whitney-search": ({"problem": "linear",
                                "forcing": {"type": "path_csv", "path": str(line)},
                                "journey": {"t_end": 4.0, "depth": 60}},
                               ("result.json", "transcript.csv")),
            "verify-bounds": ({"problem": "planar",
                               "forcing": {"type": "path_csv", "path": str(plane)},
                               "bounds": {"samples_per_face": 4}},
                              ("certificate.json",))}
    out = {}
    for command, (cfg, files) in runs.items():
        cfg_file = tmp_path / f"{name}-{command}.json"
        cfg_file.write_text(json.dumps(cfg))
        where = tmp_path / name / command
        assert cli.main([command, "--config", str(cfg_file), "--out", str(where)]) == 0
        out.update({f: (where / f).read_bytes() for f in files})
    return out


def test_path_commands_write_the_list_forms_bytes(tmp_path, monkeypatch):
    # end to end: a line journey and a planar certificate, whose spot arcs
    # read the two-dimensional evaluator, with the list forms put back
    ours = _path_command_bytes(tmp_path, "ours")

    def listed_ingest(samples, gravity):
        F, G = ingest_path(samples, gravity)
        F._scalar_value_fn = _listed_scalar(F)
        return F, G

    monkeypatch.setattr(forcing, "_periodic_spline_curvature", _rows_curvature)
    monkeypatch.setattr(cli, "ingest_path", listed_ingest)
    assert _path_command_bytes(tmp_path, "listed") == ours

def test_read_path_csv_roundtrip(tmp_path):
    ts = np.linspace(0.0, 1.0, 33)
    xs = 0.02 * np.sin(TWO_PI * ts)
    xs[-1] = xs[0]
    path = tmp_path / "path.csv"
    lines = ["t,f1"] + [f"{t:.17g},{x:.17g}" for t, x in zip(ts, xs)]
    path.write_text("\n".join(lines) + "\n")
    samples = read_path_csv(path)
    assert samples.dim == 1
    assert np.allclose(samples.times, ts)
    assert np.allclose(samples.positions.ravel(), xs)


def test_read_path_csv_planar_and_header_check(tmp_path):
    ts = np.linspace(0.0, 1.0, 17)
    path = tmp_path / "path2.csv"
    rows = ["t,f1,f2"]
    for t in ts:
        rows.append(f"{t:.17g},{0.01 * math.cos(TWO_PI * t):.17g},"
                    f"{0.01 * math.sin(TWO_PI * t):.17g}")
    path.write_text("\n".join(rows) + "\n")
    samples = read_path_csv(path)
    assert samples.dim == 2

    bad = tmp_path / "bad.csv"
    bad.write_text("time,x\n0,0\n1,0\n")
    with pytest.raises(ValueError):
        read_path_csv(bad)

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

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


# -- path ingestion ----------------------------------------------------

def _sine_path(n: int, amplitude: float = 0.05, period: float = 1.0):
    ts = np.linspace(0.0, period, n + 1)
    xs = amplitude * np.sin(TWO_PI * ts / period)
    xs[-1] = xs[0]
    return PathSamples(times=ts, positions=xs)


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

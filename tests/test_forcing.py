from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import upright
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


def test_package_import_leaves_scipy_interpolate_unloaded():
    # only ingest_path needs the spline; every CLI run pays the package import
    src = str(Path(upright.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, upright; "
            "print('scipy.interpolate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"

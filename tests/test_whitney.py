from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest

from oracles import linear_scalar_rhs, rk4_until_fall
from upright.errors import BracketError
from upright import cli, whitney
from upright.forcing import (PeriodicSignal, ingest_path, make_fourier_forcing,
                             read_path_csv)
from upright.integrator import FALL_THRESHOLD, IntegratorConfig, evolve
from upright.dynamics import ModelParams, PhaseState
from upright.whitney import (FallClass, JourneySpec, _classify_with_time,
                             bisect_survivor, planar_survivor_grid,
                             transcript_to_csv)

# the reference journey used throughout: half-strength sine push for ten
# seconds under earth-like gravity ratio
F_SIN = make_fourier_forcing(2 * math.pi, 1, [0.0], [0.5])
JOURNEY = JourneySpec(F=F_SIN, t_end=10.0, G=9.81)

F_PLANAR = make_fourier_forcing(1.0, 2, [(1.5, 0.0)], [(0.0, 1.5)])


TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


def classify(x0, journey):
    """Fate of the rod released at rest from ``x0`` over the journey."""
    return _classify_with_time(x0, journey, IntegratorConfig())[0]


@pytest.fixture(scope="module")
def search():
    return bisect_survivor(JOURNEY, depth=60)


@pytest.fixture(scope="module")
def tight_search():
    return bisect_survivor(JOURNEY, TIGHT, depth=60)


def test_classify_extremes_and_rest():
    assert classify(-0.999, JOURNEY) is FallClass.FALLS_NEGATIVE
    assert classify(0.999, JOURNEY) is FallClass.FALLS_POSITIVE


def test_classify_matches_fixed_step_oracle():
    # fall side and approximate fall time agree with a plain RK4 run
    for x0 in (-0.9, -0.3, 0.45, 0.9):
        fun = linear_scalar_rhs(9.81, 1.0, lambda t: 0.5 * math.sin(t))
        vec = lambda t, y: np.asarray(fun(t, y))
        fell, t_fall, y = rk4_until_fall(vec, 0.0, 10.0, np.asarray([x0, 0.0]),
                                         xdim=1, threshold=1.0 - 1e-6, h=2e-4)
        got = classify(x0, JOURNEY)
        assert fell
        expected = FallClass.FALLS_POSITIVE if y[0] > 0 else FallClass.FALLS_NEGATIVE
        assert got is expected


def test_classify_validates_inputs():
    with pytest.raises(ValueError):
        classify(1.0, JOURNEY)
    with pytest.raises(ValueError, match="1-d journey"):
        bisect_survivor(JourneySpec(F=F_PLANAR, t_end=1.0, G=9.81))
    with pytest.raises(ValueError, match="depth"):
        bisect_survivor(JOURNEY, depth=0)


def test_journey_validation():
    with pytest.raises(ValueError):
        JourneySpec(F=F_SIN, t_end=0.0, G=9.81)
    with pytest.raises(ValueError):
        JourneySpec(F=F_SIN, t_end=1.0, G=-1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_journey_rejects_non_finite_window_and_gravity(bad):
    # a nan window takes no step, so every start would "survive" it
    with pytest.raises(ValueError, match="t_end"):
        JourneySpec(F=F_SIN, t_end=bad, G=9.81)
    with pytest.raises(ValueError, match="G must"):
        JourneySpec(F=F_SIN, t_end=1.0, G=bad)


def test_unforced_journey_finds_equilibrium_immediately():
    Z = make_fourier_forcing(1.0, 1, [0.0], [])
    res = bisect_survivor(JourneySpec(F=Z, t_end=5.0, G=9.81))
    # the very first midpoint of [-0.999, 0.999] is the upright equilibrium
    assert res.survivor == 0.0
    assert len(res.transcript) == 1
    assert res.best == 0.0


def test_survivor_found_for_reference_journey(search):
    res = search
    assert res.endpoint_classes == (FallClass.FALLS_NEGATIVE,
                                    FallClass.FALLS_POSITIVE)
    assert res.survivor is not None
    assert res.lower <= res.survivor <= res.upper
    assert classify(res.survivor, JOURNEY) is FallClass.SURVIVES
    assert res.width < 1e-10
    assert res.best == res.survivor


def test_survivor_stable_under_tolerance_tightening(search, tight_search):
    assert tight_search.survivor is not None
    assert abs(tight_search.survivor - search.survivor) < 1e-9


def test_transcript_bracket_invariant(search):
    steps = search.transcript
    assert steps[0].left == -0.999 and steps[0].right == 0.999
    for prev, cur in zip(steps, steps[1:]):
        assert cur.step == prev.step + 1
        assert prev.mid == 0.5 * (prev.left + prev.right)
        # exactly one end moves, and it moves to the previous midpoint
        if prev.outcome is FallClass.FALLS_NEGATIVE:
            assert (cur.left, cur.right) == (prev.mid, prev.right)
        else:
            assert (cur.left, cur.right) == (prev.left, prev.mid)
        assert cur.right - cur.left <= 0.55 * (prev.right - prev.left)
    assert steps[-1].outcome is FallClass.SURVIVES
    assert math.isnan(steps[-1].fall_time)
    for s in steps[:-1]:
        assert s.fall_time > 0.0


def test_midpoints_survive_longer_and_longer(search):
    times = [s.fall_time for s in search.transcript
             if not math.isnan(s.fall_time)]
    assert len(times) > 10
    assert max(times[-5:]) > max(times[:5])
    assert max(times) > 0.9 * JOURNEY.t_end


def test_transcript_replay(search):
    steps = search.transcript
    for s in (steps[0], steps[len(steps) // 2], steps[-1]):
        assert classify(s.mid, JOURNEY) is s.outcome


def test_survivor_trajectory_stays_clear_of_the_rails(tight_search):
    # the surviving start is meaningful at the precision that produced it,
    # so the search and the replay must share a tolerance
    params = ModelParams(G=9.81, lam=1.0, dim=1)
    traj = evolve(0.0, 10.0, PhaseState(tight_search.survivor, 0.0), params,
                  F_SIN, TIGHT)
    assert traj.fall_event is None
    ts = np.linspace(0.0, 10.0, 4001)
    xs = traj.dense_array(ts)[:, 0]
    assert np.max(np.abs(xs)) < 0.999


def test_bracket_error_when_push_overwhelms_gravity():
    # a strong one-sided push with nearly no gravity drives both extreme
    # starts over the same rail, so no sign change exists to bisect on
    Fc = make_fourier_forcing(1.0, 1, [], [], constant=[-5.0])
    weak = JourneySpec(F=Fc, t_end=20.0, G=0.01)
    assert classify(-0.999, weak) is FallClass.FALLS_POSITIVE
    assert classify(0.999, weak) is FallClass.FALLS_POSITIVE
    with pytest.raises(BracketError) as exc_info:
        bisect_survivor(weak, depth=10)
    err = exc_info.value
    assert err.left_class is FallClass.FALLS_POSITIVE
    assert err.right_class is FallClass.FALLS_POSITIVE


def test_bisection_stops_once_the_float_bracket_is_exhausted():
    # no float start survives t_end = 16: after 60 halvings the bracket's
    # midpoint is one of its ends, and a further step would repeat it
    res = bisect_survivor(JourneySpec(F=F_SIN, t_end=16.0, G=9.81), depth=120)
    mids = [s.mid for s in res.transcript]
    assert res.survivor is None
    assert len(mids) == len(set(mids)) == 60
    assert 0.5 * (res.lower + res.upper) in (res.lower, res.upper)


def test_transcript_csv_format(search, tmp_path):
    out = tmp_path / "journey.csv"
    transcript_to_csv(search, out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "l", "r", "mid", "class", "fall_time"]
    assert len(rows) == 1 + len(search.transcript)
    first = rows[1]
    assert int(first[0]) == 1
    assert float(first[1]) == -0.999 and float(first[2]) == 0.999
    assert first[4] in {c.value for c in FallClass}
    assert rows[-1][4] == "survives"
    assert math.isnan(float(rows[-1][5]))


def test_planar_survivor_grid_smoke():
    j = JourneySpec(F=F_PLANAR, t_end=1.0, G=9.81)
    report = planar_survivor_grid(j, grid_radius=0.5, n=3)
    assert report["fall_times"].shape == (3, 3)
    assert report["survived"].shape == (3, 3)
    # survivors carry nan fall times, fallers a time inside the window
    ft = report["fall_times"]
    sv = report["survived"]
    assert np.all(np.isnan(ft[sv]))
    assert np.all((ft[~sv] >= 0.0) & (ft[~sv] <= 1.0))
    assert np.array_equal(report["coords"], np.linspace(-0.5, 0.5, 3))


def test_planar_grid_rejects_scalar_journey():
    with pytest.raises(ValueError):
        planar_survivor_grid(JOURNEY, n=3)


def test_planar_grid_starts_at_the_fall_threshold_fall_at_zero():
    # (0.9999999, 0) lies between the fall threshold and |x| = 1, the
    # corners beyond |x| = 1: all of them fall at t = 0
    j = JourneySpec(F=F_PLANAR, t_end=0.5, G=9.81)
    report = planar_survivor_grid(j, grid_radius=0.9999999, n=3)
    ft = report["fall_times"]
    edge = np.ones((3, 3), dtype=bool)
    edge[1, 1] = False
    assert np.all(ft[edge] == 0.0)
    assert not report["survived"][edge].any()
    assert report["survived"][1, 1] and math.isnan(ft[1, 1])


def test_planar_grid_takes_a_float_count():
    j = JourneySpec(F=F_PLANAR, t_end=0.5, G=9.81)
    report = planar_survivor_grid(j, grid_radius=0.5, n=3.0)
    ref = planar_survivor_grid(j, grid_radius=0.5, n=3)
    assert report["fall_times"].shape == (3, 3)
    assert report["survived"].dtype == bool
    assert np.array_equal(report["fall_times"], ref["fall_times"], equal_nan=True)


# -- path-forced journeys: the knots are step nodes ---------------------------

def _path_forcing(tmp_path, n, period, positions):
    """Ingest ``positions(t) -> row`` sampled at ``n`` knots via a CSV."""
    ts = np.linspace(0.0, period, n + 1)
    rows = [np.atleast_1d(positions(t)) for t in ts]
    header = "t," + ",".join(f"f{i + 1}" for i in range(rows[0].size))
    lines = [header] + [",".join(f"{v:.17g}" for v in (t, *row))
                        for t, row in zip(ts, rows)]
    path = tmp_path / "path.csv"
    path.write_text("\n".join(lines) + "\n")
    return ingest_path(read_path_csv(path), 9.81)


def _count_steps(monkeypatch) -> list:
    """Record ``(accepted, rejected)`` of every classification's run."""
    counts = []
    integrate = whitney.integrate_field

    def counted(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        counts.append((traj.n_accepted, traj.n_rejected))
        return traj

    monkeypatch.setattr(whitney, "integrate_field", counted)
    return counts


def test_path_bisection_rejects_few_steps(tmp_path, monkeypatch):
    # the 64-knot carriage path -0.5 sin t, whose acceleration is F_SIN:
    # steps that straddled its knots were rejected 30 % of the time
    F, G = _path_forcing(tmp_path, 64, 2 * math.pi, lambda t: -0.5 * math.sin(t))
    counts = _count_steps(monkeypatch)
    result = bisect_survivor(JourneySpec(F=F, t_end=4.0, G=G))
    assert result.width < 1e-3 and len(counts) >= 10
    accepted, rejected = np.sum(counts, axis=0)
    assert rejected < 0.05 * (accepted + rejected)


# -- the angle chart: classifications agree with evolve's x chart -------------

@pytest.fixture(scope="module")
def agreement_forcings(tmp_path_factory):
    path, G_path = _path_forcing(tmp_path_factory.mktemp("path"), 64, 2 * math.pi,
                                 lambda t: -0.5 * math.sin(t))
    return {"sine": (F_SIN, 9.81),
            "cosine": (make_fourier_forcing(3.0, 1, [8.0], []), 9.81),
            "path": (path, G_path)}


@pytest.mark.parametrize("t_end", [1.0, 4.0])
@pytest.mark.parametrize("forcing", ["sine", "cosine", "path"])
def test_classification_agrees_with_evolve(agreement_forcings, forcing, t_end):
    F, G = agreement_forcings[forcing]
    journey = JourneySpec(F=F, t_end=t_end, G=G)
    params = ModelParams(G=G, lam=1.0, dim=1)
    rng = np.random.default_rng(23)
    kinds = {"fall_negative": FallClass.FALLS_NEGATIVE,
             "fall_positive": FallClass.FALLS_POSITIVE}
    for x0 in (-0.999, 0.999, *rng.uniform(-0.999, 0.999, 12)):
        outcome, fall_time = _classify_with_time(x0, journey, TIGHT)
        ev = evolve(0.0, t_end, PhaseState(x0, 0.0), params, F, TIGHT).fall_event
        if ev is None:
            assert outcome is FallClass.SURVIVES and math.isnan(fall_time)
        else:
            assert outcome is kinds[ev.kind.value]
            assert abs(fall_time - ev.time) <= 1e-10, (x0, fall_time, ev.time)


def test_classification_keeps_evolves_start_checks():
    params = ModelParams(G=9.81, lam=1.0, dim=1)
    for x0 in (FALL_THRESHOLD, -FALL_THRESHOLD, 0.9999999, 1.0, -1.5, math.nan):
        with pytest.raises(ValueError) as refused:
            evolve(0.0, 1.0, PhaseState(x0, 0.0), params, F_SIN)
        with pytest.raises(ValueError, match="fall threshold|not finite") as err:
            _classify_with_time(x0, JOURNEY, None)
        assert str(err.value) == str(refused.value)
    # no config is the default config
    for x0 in (-0.999, 0.3):
        assert (_classify_with_time(x0, JOURNEY, None)
                == _classify_with_time(x0, JOURNEY, IntegratorConfig()))


def test_bisection_takes_half_the_steps_of_evolve(monkeypatch):
    # the benchmark's journey: in x the field stiffens toward the fall and
    # the steps shrink there; the angle chart is regular (1,575 accepted
    # steps through evolve, 542 through the chart)
    journey = JourneySpec(F=F_SIN, t_end=4.0, G=9.81)
    counts = _count_steps(monkeypatch)
    result = bisect_survivor(journey, TIGHT)
    starts = [-0.999, 0.999, *(s.mid for s in result.transcript)]
    assert len(counts) == len(starts) >= 10
    params = ModelParams(G=9.81, lam=1.0, dim=1)
    x_chart = sum(evolve(0.0, journey.t_end, PhaseState(x0, 0.0), params, F_SIN,
                         TIGHT).n_accepted for x0 in starts)
    assert sum(acc for acc, _ in counts) <= 0.5 * x_chart
    # the chart's survivor survives in x too, as the journey demo replays it
    assert evolve(0.0, journey.t_end, PhaseState(result.best, 0.0), params, F_SIN,
                  TIGHT).fall_event is None


def _assert_grid_matches_evolve(journey, grid_radius, n):
    """The grid's verdicts are ``evolve``'s at the default tolerances, and
    at rel tol 1e-12 its fall times are too, to 1e-10; returns the default
    report.  Each start is stepped in the direction chart, ``evolve`` steps
    it in ``x``, so the two agree to the integration error."""
    params = ModelParams(G=journey.G, lam=1.0, dim=2)
    reports = []
    for cfg in (IntegratorConfig(), TIGHT):
        report = planar_survivor_grid(journey, grid_radius=grid_radius, n=n, cfg=cfg)
        for i, a in enumerate(report["coords"]):
            for j, b in enumerate(report["coords"]):
                if math.hypot(a, b) >= FALL_THRESHOLD:
                    continue
                ev = evolve(0.0, journey.t_end, PhaseState([a, b], [0.0, 0.0]), params,
                            journey.F, cfg).fall_event
                assert report["survived"][i, j] == (ev is None), (a, b)
                if ev is not None and cfg is TIGHT:
                    assert abs(report["fall_times"][i, j] - ev.time) <= 1e-10, (a, b)
        reports.append(report)
    return reports[0]


@pytest.mark.parametrize("t_end", [3.0, 0.5])
def test_planar_grid_matches_evolve(t_end):
    # the benchmark's grid: the 61 rest starts inside the disk of a 9x9 grid
    # on [-0.9, 0.9]^2 under the circle of acceleration 1.5; every one falls
    # by t = 3, some survive t = 0.5
    report = _assert_grid_matches_evolve(JourneySpec(F=F_PLANAR, t_end=t_end, G=9.81),
                                         0.9, 9)
    assert np.isnan(report["fall_times"]).any() == (t_end < 1.0)


def test_planar_grid_takes_half_the_steps_of_evolve(monkeypatch):
    # in x the field's 1 / (1 - |x|^2) terms stiffen toward the fall, and
    # 66 % of evolve's steps end beyond |x| = 0.99; the direction chart is
    # regular (1,984 accepted steps through evolve, 585 through the chart)
    journey = JourneySpec(F=F_PLANAR, t_end=3.0, G=9.81)
    counts = _count_steps(monkeypatch)
    report = planar_survivor_grid(journey, grid_radius=0.9, n=9)
    params = ModelParams(G=9.81, lam=1.0, dim=2)
    starts = [(a, b) for a in report["coords"] for b in report["coords"]
              if math.hypot(a, b) < FALL_THRESHOLD]
    assert len(counts) == len(starts) == 61
    x_chart = sum(evolve(0.0, journey.t_end, PhaseState([a, b], [0.0, 0.0]), params,
                         F_PLANAR).n_accepted for a, b in starts)
    assert sum(acc for acc, _ in counts) <= 0.5 * x_chart


def test_path_forced_grid_matches_evolve(tmp_path):
    # a circular carriage path of acceleration 1.5 at 48 knots per period;
    # over 1.25 periods the starts near the middle survive
    A = 1.5 / (2 * math.pi) ** 2
    F, G = _path_forcing(tmp_path, 48, 1.0, lambda t: (A * math.cos(2 * math.pi * t),
                                                       A * math.sin(2 * math.pi * t)))
    assert len(F.breakpoints) == 48 and F.dim == 2
    report = _assert_grid_matches_evolve(JourneySpec(F=F, t_end=1.25, G=G), 0.1, 5)
    survived = report["survived"]
    assert survived.any() and not survived.all()


def test_a_long_journey_draws_only_the_knots_its_runs_reach(tmp_path, monkeypatch):
    # whitney-search on the 64-knot path of -0.5 sin t: every release falls
    # before t = 14, so t_end 1e5 writes the bytes of t_end 100 and draws
    # the same knots, not the 1.6e6 knots up to t_end per release
    path = tmp_path / "path.csv"
    rows = ["t,f1"] + [f"{t:.17g},{-0.5 * math.sin(t):.17g}"
                       for t in (2.0 * math.pi * k / 64 for k in range(65))]
    path.write_text("\n".join(rows) + "\n")
    drawn = []
    lazy = PeriodicSignal.breaks_between

    def counted(self, t0, t1):
        for s in lazy(self, t0, t1):
            drawn.append(s)
            yield s

    monkeypatch.setattr(PeriodicSignal, "breaks_between", counted)
    runs = {}
    for t_end in (100.0, 1e5):
        drawn.clear()
        cfg = tmp_path / f"{t_end:g}.json"
        cfg.write_text(json.dumps({"problem": "linear",
                                   "forcing": {"type": "path_csv", "path": str(path)},
                                   "journey": {"t_end": t_end, "depth": 60}}))
        out = tmp_path / f"out-{t_end:g}"
        assert cli.main(["whitney-search", "--config", str(cfg), "--out", str(out)]) == 0
        files = {f: (out / f).read_bytes() for f in ("result.json", "transcript.csv")}
        runs[t_end] = files, len(drawn), max(drawn)
    (short, n_short, last_short), (long, n_long, last_long) = runs[100.0], runs[1e5]
    assert long == short
    assert n_long == n_short and last_long == last_short
    # each release, the bracket's ends and every midpoint, draws the knots
    # up to one past its fall
    releases = 2 + short["transcript.csv"].count(b"\n") - 1
    assert releases == 62
    assert last_short < 14.0
    assert n_short <= releases * (64 * 14.0 / (2.0 * math.pi) + 1)

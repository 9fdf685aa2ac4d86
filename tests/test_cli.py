from __future__ import annotations

import csv
import importlib
import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import upright
from upright import cli, poincare
from upright.cli import DEFAULT_CONFIG, load_config, main


def write_config(tmp_path, name="config.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(overrides))
    return path


def run(tmp_path, command, extra=(), **overrides):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg), "--out", str(out), *extra])
    return rc, out


# -- degree ---------------------------------------------------------------

def test_degree_linear(tmp_path, capsys):
    rc, out = run(tmp_path, "degree", problem="linear")
    assert rc == 0
    assert "degree = -1" in capsys.readouterr().out
    data = json.loads((out / "result.json").read_text())
    assert data == {"problem": "linear", "degree": -1}


def test_degree_planar(tmp_path, capsys):
    rc, out = run(tmp_path, "degree", problem="planar")
    assert rc == 0
    assert "degree = +1" in capsys.readouterr().out
    assert json.loads((out / "result.json").read_text())["degree"] == 1


# -- simulate -------------------------------------------------------------

def test_simulate_fall(tmp_path, capsys):
    rc, out = run(tmp_path, "simulate", problem="linear",
                  initial_state={"x": [0.5], "p": [0.0]}, duration=2.0)
    assert rc == 0
    data = json.loads((out / "result.json").read_text())
    assert data["fell"] is True
    assert data["fall_kind"] == "fall_positive"
    assert 0.0 < data["fall_time"] < 2.0
    with open(out / "trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x1", "p1", "y"]
    assert len(rows) > 2
    assert "fell at t =" in capsys.readouterr().out


def test_simulate_planar_csv_columns(tmp_path):
    rc, out = run(tmp_path, "simulate", problem="planar",
                  initial_state={"x": [0.0, 0.0], "p": [0.0, 0.0]},
                  duration=1.0,
                  forcing={"cosine": [[0.3, 0.0]], "sine": [[0.0, 0.3]]})
    assert rc == 0
    with open(out / "trajectory.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["t", "x1", "x2", "p1", "p2", "y"]
    assert json.loads((out / "result.json").read_text())["fell"] is False


def test_simulate_rejects_wrong_state_size(tmp_path):
    rc, _ = run(tmp_path, "simulate", problem="planar",
                initial_state={"x": [0.0], "p": [0.0]})
    assert rc == 1


# -- verify-bounds ----------------------------------------------------------

def test_verify_bounds_linear(tmp_path, capsys):
    rc, out = run(tmp_path, "verify-bounds", problem="linear",
                  forcing={"cosine": [2.0]}, bounds={"samples_per_face": 8})
    assert rc == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verified"] is True
    assert cert["min_margin_gamma"] > 0 and cert["min_margin_delta"] > 0
    text = capsys.readouterr().out
    assert "verified = True" in text
    assert "a = " in text and "b = " in text


def test_verify_bounds_failure_exit_code(tmp_path, capsys):
    # a cone slope of 1 is below the sup norm of this forcing; the vertex
    # no longer repels and verification must fail loudly
    rc, out = run(tmp_path, "verify-bounds", problem="linear",
                  forcing={"cosine": [2.0]},
                  bounds={"samples_per_face": 8, "b_override": 1.0})
    assert rc == 2
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verified"] is False
    assert len(cert["failures"]) > 0
    assert "verified = False" in capsys.readouterr().out


@pytest.mark.parametrize("a", [1.0, 1.5])
def test_verify_bounds_planar_radius_outside_the_unit_interval_exit_1(
        tmp_path, caplog, a):
    # the planar slope search is refused before it divides by (1 - a)^3
    rc, _ = run(tmp_path, "verify-bounds", problem="planar",
                forcing={"cosine": [[1.5, 0.0]], "sine": [[0.0, 1.5]]},
                bounds={"samples_per_face": 4, "a_override": a})
    assert rc == 1
    assert "invalid configuration" in caplog.text and "(0,1)" in caplog.text



@pytest.mark.parametrize("key, value", [("a_override", 1e-110), ("a_override", 1e-300),
                                        ("b_override", 1e-160), ("b_override", 1e-200)])
def test_verify_bounds_planar_cone_cubes_that_underflow_exit_1(tmp_path, caplog, key, value):
    # the planar cone divides by |x|^3 and |p|^3, which underflowed to 0:
    # NaN curvatures, a RuntimeWarning, and a cone margin reported as inf.
    # The set is refused before any sampling (warnings are errors here)
    rc, out = run(tmp_path, "verify-bounds", problem="planar",
                  forcing={"cosine": [[1.5, 0.0]], "sine": [[0.0, 1.5]]},
                  bounds={"samples_per_face": 4, key: value})
    assert rc == 1
    assert "invalid configuration: the planar cone's least radius" in caplog.text
    assert "underflows when cubed" in caplog.text
    assert not (out / "certificate.json").exists()


@pytest.mark.parametrize("gravity, b", [(1e170, 1e-30), (1e120, 1e-100)])
def test_verify_bounds_planar_cone_whose_curvature_overflows_exit_1(tmp_path, caplog,
                                                                   gravity, b):
    # the curvature guard bounded |p|^2 acc^2 but not acc^2 / |p|, where
    # |p| >= b (1 - a): numpy overflowed at acc * acc (gravity 1e170) and in
    # a divide (1e120), and a spot arc blew up (exit 5).  The set is refused
    # before any sampling (warnings are errors here)
    rc, out = run(tmp_path, "verify-bounds", problem="planar", gravity=gravity,
                  forcing={"cosine": [[1.5, 0.0]], "sine": [[0.0, 1.5]]},
                  bounds={"samples_per_face": 4, "b_override": b})
    assert rc == 1
    assert "invalid configuration: the cone's curvature overflows" in caplog.text
    assert not (out / "certificate.json").exists()


def test_verify_bounds_planar_tiny_cone_slope_fails_with_finite_margins(tmp_path):
    # b = 1e-100 still cubes to a normal float: the set is checked, fails,
    # and every margin is a float
    rc, out = run(tmp_path, "verify-bounds", problem="planar",
                  forcing={"cosine": [[1.5, 0.0]], "sine": [[0.0, 1.5]]},
                  bounds={"samples_per_face": 4, "b_override": 1e-100})
    assert rc == 2
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verified"] is False
    assert math.isfinite(cert["min_margin_gamma"]) and math.isfinite(cert["min_margin_delta"])


@pytest.mark.parametrize("command", ["verify-bounds", "solve-periodic"])
def test_forcing_too_large_for_gravity_exit_1(tmp_path, caplog, command):
    # at sup|F| = 1e12 against gravity 9.81 the cylinder radius rounds to 1;
    # the refusal names the two inputs, not the derived radius
    rc, out = run(tmp_path, command, problem="linear", forcing={"cosine": [1e12]})
    assert rc == 1
    assert "invalid configuration: sup|F| = 1.00077e+12 is too large against " \
           "gravity 9.81: the cylinder radius rounds to 1" in caplog.text
    assert not (out / "certificate.json").exists()

def test_verify_bounds_spot_checks_skip_arcs_through_the_cone_vertex(tmp_path):
    # at this seed and b = 50, three planar cone spot samples at |x| = 0.0115,
    # |p| = 49.4 have two-sided arcs crossing x = 0, where the cone gauge has
    # a kink; such samples say nothing about the crossing direction and are
    # not checked
    rc, out = run(tmp_path, "verify-bounds", ("--seed", "5"), problem="planar",
                  forcing={"cosine": [[1.5, 0.0]], "sine": [[0.0, 1.5]]},
                  bounds={"samples_per_face": 4, "b_override": 50})
    assert rc == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verified"] is True
    assert cert["spot_checks"]["passed"] == cert["spot_checks"]["attempted"] > 0


def test_verify_bounds_steep_cone_vertex_arcs_end_at_the_fall(tmp_path, capsys):
    # at b = 1000 a vertex arc would reach the fall threshold within its
    # window (test_bounds confirms that it ends there, outside the cone);
    # the verifier itself reads the vertex as b^2 > sup|F|, and it exits
    rc, out = run(tmp_path, "verify-bounds", problem="linear", period=2.0,
                  gravity=1.0, forcing={"cosine": [1.0]},
                  bounds={"b_override": 1000})
    assert rc == 0
    assert json.loads((out / "certificate.json").read_text())["corner_ok"] is True
    assert "verified = True" in capsys.readouterr().out


def test_verify_bounds_reruns_byte_stable(tmp_path):
    cfg = write_config(tmp_path, problem="linear",
                       forcing={"cosine": [2.0]},
                       bounds={"samples_per_face": 8})
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        rc = main(["verify-bounds", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        outs.append((out / "certificate.json").read_bytes())
    assert outs[0] == outs[1]


# -- solve-periodic ---------------------------------------------------------

def test_solve_periodic_linear(tmp_path, capsys, caplog):
    rc, out = run(tmp_path, "solve-periodic", problem="linear",
                  forcing={"cosine": [2.0]}, bounds={"samples_per_face": 8})
    assert rc == 0
    assert not [r for r in caplog.records if r.levelname == "WARNING"]
    result = json.loads((out / "result.json").read_text())
    assert result["residual"] < 1e-10
    assert result["containment"]["contained"] is True
    assert result["liouville_defect"] <= 1e-7
    # one Newton run at full forcing, from the linear response
    path = result["lambda_path"]
    assert [node["lam"] for node in path] == [0.0, 1.0]
    assert path[1]["state"] == result["fixed_point"]
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verified"] is True
    with open(out / "orbit.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x1", "p1", "y"]
    assert len(rows) == 1 + 1001
    text = capsys.readouterr().out
    assert "fixed point:" in text and "contained = True" in text


def test_solve_periodic_stops_on_unverified_bounds(tmp_path):
    rc, out = run(tmp_path, "solve-periodic", problem="linear",
                  forcing={"cosine": [2.0]},
                  bounds={"samples_per_face": 8, "b_override": 1.0})
    assert rc == 2
    assert (out / "certificate.json").exists()
    assert not (out / "result.json").exists()


def test_solve_periodic_continuation_failure(tmp_path, monkeypatch):
    # an unreachable Newton tolerance stalls the lambda march below its
    # minimum step, which is a distinct failure from bad bounds
    monkeypatch.setattr(poincare, "_NEWTON_TOL", 1e-16)
    monkeypatch.setattr(poincare, "_NEWTON_MAX_ITERS", 1)
    rc, out = run(tmp_path, "solve-periodic", problem="linear",
                  forcing={"cosine": [2.0]},
                  bounds={"samples_per_face": 8})
    assert rc == 3
    assert (out / "certificate.json").exists()


def test_solve_periodic_step_floor_exits_3(tmp_path, caplog):
    # line T=8, cosine amplitude 8: the trap verifies, but no Newton run
    # converges (13 fall, the 14th stalls), so the lam step halves from 1
    # and the step floor ends the run after 14 runs
    with caplog.at_level(logging.DEBUG, logger="upright.poincare"):
        rc, out = run(tmp_path, "solve-periodic", problem="linear", period=8.0,
                      forcing={"cosine": [8.0]},
                      bounds={"samples_per_face": 8})
    assert json.loads((out / "certificate.json").read_text())["verified"] is True
    assert rc == 3
    assert "continuation stalled at lam=0 with step below 0.0001" in caplog.text
    assert sum(r.getMessage().startswith("lam=") for r in caplog.records
               if r.name == "upright.poincare") == 14
    assert (out / "certificate.json").exists()
    assert not (out / "result.json").exists()


def test_solve_periodic_warns_of_an_unresolved_monodromy(tmp_path, caplog):
    # line T=5, cosine amplitude 0.5: Newton converges, but multipliers near
    # 6e6 leave |det M - 1| near 3e-3; the run still succeeds.  cond(M) is
    # near 1e14, so eps cond(M) exceeds the defect: the warning names it
    rc, out = run(tmp_path, "solve-periodic", problem="linear", period=5.0,
                  forcing={"cosine": [0.5]},
                  bounds={"samples_per_face": 8})
    assert rc == 0
    result = json.loads((out / "result.json").read_text())
    defect = result["liouville_defect"]
    assert defect > 1e-6
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1 and "Liouville defect" in warnings[0]
    assert f"{defect:.3g}" in warnings[0]
    cond = np.linalg.cond(np.array(result["monodromy"]))
    assert np.finfo(float).eps * cond > defect
    assert f"cond(M) = {cond:.3g}" in warnings[0]
    assert f"eps cond(M) = {np.finfo(float).eps * cond:.2g}" in warnings[0]


def test_solve_periodic_period_3(tmp_path):
    # multipliers near 1.2e4: Newton converges only from starts close to
    # the branch
    rc, out = run(tmp_path, "solve-periodic", problem="linear", period=3.0,
                  forcing={"cosine": [2.0]},
                  bounds={"samples_per_face": 8})
    assert rc == 0
    result = json.loads((out / "result.json").read_text())
    assert result["lambda_path"][-1]["lam"] == 1.0
    assert result["residual"] <= poincare._NEWTON_TOL
    assert result["containment"]["contained"] is True
    assert result["liouville_defect"] <= 1e-7


def test_solve_periodic_period_3_at_amplitude_8(tmp_path):
    # multipliers near 1.2e4 and a lean of 0.49: Newton falls from the
    # linear response at full forcing, and the path along the tangent and
    # its secants takes 150 Newton runs to get there
    rc, out = run(tmp_path, "solve-periodic", problem="linear", period=3.0,
                  forcing={"cosine": [8.0]},
                  bounds={"samples_per_face": 8})
    assert rc == 0
    result = json.loads((out / "result.json").read_text())
    assert result["lambda_path"][-1]["lam"] == 1.0
    assert result["residual"] <= poincare._NEWTON_TOL
    assert result["containment"]["contained"] is True
    assert result["liouville_defect"] <= 1e-6
    assert abs(result["fixed_point"][0] - 0.4930989383609449) <= 1e-9


def test_solve_periodic_planar(tmp_path):
    rc, out = run(tmp_path, "solve-periodic", problem="planar",
                  forcing={"cosine": [[1.5, 0.0]], "sine": [[0.0, 1.5]]},
                  bounds={"samples_per_face": 8})
    assert rc == 0
    result = json.loads((out / "result.json").read_text())
    assert result["residual"] < 1e-10
    assert len(result["fixed_point"]) == 4
    assert len(result["monodromy"]) == 4
    with open(out / "orbit.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["t", "x1", "x2", "p1", "p2", "y"]


def _quiet_and_verbose(tmp_path, **overrides):
    """``solve-periodic`` on ``overrides`` in a subprocess, without and with
    ``--verbose``: per run, the attempt lines on standard error and the bytes
    of ``result.json`` and ``certificate.json``."""
    cfg = write_config(tmp_path, **overrides)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(upright.__file__).resolve().parents[1]),
                    env.get("PYTHONPATH")) if p)
    runs = {}
    for name, extra in (("quiet", []), ("verbose", ["--verbose"])):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "upright.cli", "solve-periodic",
             "--config", str(cfg), "--out", str(out), *extra],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        attempts = [line for line in proc.stderr.splitlines()
                    if line.startswith("DEBUG upright.poincare: lam=")]
        artifacts = [(out / f).read_bytes()
                     for f in ("result.json", "certificate.json")]
        runs[name] = (attempts, artifacts)
    assert runs["quiet"][0] == []
    assert runs["quiet"][1] == runs["verbose"][1]
    return runs


def test_solve_periodic_verbose_streams_attempts_only_to_the_log(tmp_path):
    runs = _quiet_and_verbose(tmp_path, problem="linear", forcing={"cosine": [2.0]},
                              bounds={"samples_per_face": 8})
    attempts = runs["verbose"][0]
    result = json.loads(runs["verbose"][1][0])
    assert sum(" converged: " in line for line in attempts) == \
        len(result["lambda_path"]) - 1
    assert len(attempts) == 1
    assert attempts[0].startswith("DEBUG upright.poincare: lam=1 converged: ")
    assert attempts[0].endswith(" from the linear response")


def test_solve_periodic_verbose_names_each_start(tmp_path):
    # line T=1.5, cosine amplitude 8: the first step falls, and the path
    # runs through lam = 0.5 and 0.75
    runs = _quiet_and_verbose(tmp_path, problem="linear", period=1.5,
                              forcing={"cosine": [8.0]},
                              bounds={"samples_per_face": 8})
    attempts = runs["verbose"][0]
    assert [line.split(": ", 1)[1].split(" ", 2)[:2] for line in attempts] == [
        ["lam=1", "fell:"], ["lam=0.5", "converged:"], ["lam=1", "fell:"],
        ["lam=0.75", "converged:"], ["lam=1", "converged:"]]
    assert [line.rsplit(" from ", 1)[1] for line in attempts] == \
        ["the linear response"] * 2 + ["the secant predictor"] * 3
    assert len(json.loads(runs["verbose"][1][0])["lambda_path"]) == 4


# -- whitney-search -----------------------------------------------------------

def test_whitney_search(tmp_path, capsys):
    rc, out = run(tmp_path, "whitney-search", problem="linear",
                  period=2 * math.pi, forcing={"sine": [0.5]},
                  journey={"t_end": 10.0, "depth": 60})
    assert rc == 0
    result = json.loads((out / "result.json").read_text())
    assert result["survivor"] is not None
    assert result["lower"] <= result["survivor"] <= result["upper"]
    assert result["width"] < 1e-10
    assert result["endpoint_classes"] == ["falls_negative", "falls_positive"]
    with open(out / "transcript.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "l", "r", "mid", "class", "fall_time"]
    assert len(rows) == 1 + result["steps"]
    assert "survivor:" in capsys.readouterr().out


def test_whitney_search_rejects_planar(tmp_path):
    rc, _ = run(tmp_path, "whitney-search", problem="planar",
                forcing={"cosine": [[0.5, 0.0]]})
    assert rc == 1


def test_whitney_search_no_bracket(tmp_path):
    rc, out = run(tmp_path, "whitney-search", problem="linear",
                  gravity=0.01, forcing={"constant": [-5.0]},
                  journey={"t_end": 20.0, "depth": 10})
    assert rc == 4
    assert not (out / "transcript.csv").exists()


# -- step budget --------------------------------------------------------------

@pytest.mark.parametrize("command",
                         ["simulate", "whitney-search", "solve-periodic"])
def test_step_budget_exhaustion_exits_5(tmp_path, caplog, command):
    # five step attempts cannot finish any integration these runs need
    rc, out = run(tmp_path, command, problem="linear",
                  forcing={"cosine": [2.0]}, integrator={"max_steps": 5},
                  bounds={"samples_per_face": 8})
    assert rc == 5
    assert "step budget exhausted" in caplog.text
    assert not (out / "result.json").exists()


# -- config handling ----------------------------------------------------------

def test_config_unknown_key(tmp_path, caplog):
    for overrides in (
            {"grvity": 9.81},
            # Newton no longer takes finite-difference Jacobians
            {"continuation": {"fd_step": 1e-7}},
            # method settings that are module constants now
            {"integrator": {"max_step": 0.1}},
            {"integrator": {"fall_threshold": 0.99}},
            {"continuation": {"lambda_step_init": 0.1}},
            {"continuation": {"lambda_step_min": 1e-4}},
            {"continuation": {"newton_tol": 1e-10}},
            {"continuation": {"newton_max_iters": 25}},
            {"bounds": {"a_margin": 0.5}},
            {"bounds": {"b_margin": 0.5}},
            {"bounds": {"lambda_grid_size": 21}}):
        caplog.clear()
        rc, _ = run(tmp_path, "degree", problem="linear", **overrides)
        assert rc == 1, overrides
        assert "unknown config key" in caplog.text, overrides


def test_config_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["degree", "--config", str(bad)]) == 1


def test_config_missing_file(tmp_path):
    assert main(["degree", "--config", str(tmp_path / "absent.json")]) == 1


def test_config_bad_values(tmp_path):
    rc, _ = run(tmp_path, "degree", problem="diagonal")
    assert rc == 1
    rc, _ = run(tmp_path, "degree", problem="linear", gravity=-3.0)
    assert rc == 1
    rc, _ = run(tmp_path, "simulate", problem="linear", integrator={"max_steps": 0})
    assert rc == 1
    rc, _ = run(tmp_path, "whitney-search", problem="linear", journey={"depth": 0})
    assert rc == 1


@pytest.mark.parametrize("command, overrides", [
    ("simulate", {"forcing": 3}),
    ("simulate", {"integrator": None}),
    ("whitney-search", {"journey": {"depth": None}}),
    ("simulate", {"duration": None}),
    ("verify-bounds", {"bounds": {"samples_per_face": None}}),
    ("verify-bounds", {"bounds": {"b_override": "1.0"}}),
    ("simulate", {"gravity": True}),
    ("simulate", {"integrator": {"max_steps": math.inf}}),
    ("degree", {"out_dir": 3}),
], ids=["forcing-not-object", "integrator-null", "depth-null", "duration-null",
        "samples-null", "override-string", "gravity-bool", "max-steps-infinite",
        "out-dir-number"])
def test_config_wrong_types_exit_1(tmp_path, caplog, command, overrides):
    rc, _ = run(tmp_path, command, **overrides)
    assert rc == 1
    assert "config error" in caplog.text


@pytest.mark.parametrize("command, section, key, value", [
    ("verify-bounds", "bounds", "samples_per_face", 4.9),
    ("whitney-search", "journey", "depth", 2.7),
    ("simulate", "integrator", "max_steps", 1.5),
], ids=["samples-per-face", "depth", "max-steps"])
def test_integer_settings_reject_fractions(tmp_path, caplog, command, section,
                                           key, value):
    # a fraction is an error, not truncated; an integral float such as 1e3
    # takes its default's type
    rc, out = run(tmp_path, command, problem="linear", **{section: {key: value}})
    assert rc == 1
    assert f"{section}.{key} must be an integer, got {value}" in caplog.text
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("overrides", [
    {"forcing": {"cosine": [math.inf]}},
    {"forcing": {"sine": [math.nan]}},
    {"forcing": {"constant": [-math.inf]}},
    {"gravity": math.inf},
    {"period": math.nan},
    {"duration": math.inf},
    {"initial_state": {"x": [math.nan], "p": [0.0]}},
], ids=["cosine-inf", "sine-nan", "constant-inf", "gravity-inf", "period-nan",
        "duration-inf", "initial-x-nan"])
def test_non_finite_numbers_exit_1(tmp_path, caplog, overrides):
    # JSON's 1e400 parses as inf, and Python's json reads Infinity and NaN
    rc, out = run(tmp_path, "simulate", problem="linear", **overrides)
    assert rc == 1
    assert "finite" in caplog.text
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("command, overrides", [
    ("whitney-search", {"forcing": {"cosine": [1e300]}}),
    ("simulate", {"forcing": {"cosine": [1e300]}}),
    ("simulate", {"initial_state": {"x": [0.1], "p": [1e300]}}),
    ("simulate", {"initial_state": {"x": [0.0], "p": [1e154]}}),
    ("verify-bounds", {"gravity": 1e300}),
], ids=["search-cosine", "simulate-cosine", "simulate-p", "simulate-p-at-rest",
        "verify-gravity"])
def test_values_at_the_float_limit_end_in_a_typed_failure(tmp_path, command,
                                                          overrides):
    # a field of ~1e300 underflowed the first step size to 0 and the run
    # ended in ZeroDivisionError; coefficients whose sup norm bounds
    # overflow made numpy warn, and so did the line cone's spot samples
    # under gravity 1e300.  Each now exits with a code of _FAILURES, and
    # the suite's warnings-as-errors shows that numpy stays quiet
    rc, out = run(tmp_path, command, problem="linear", duration=1.0,
                  journey={"t_end": 1.0, "depth": 4}, **overrides)
    assert rc in {code for code, _ in cli._FAILURES.values()}
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("gravity", [1e50, 1e300])
def test_planar_verify_bounds_at_a_huge_gravity_ends_in_a_typed_failure(
        tmp_path, capsys, gravity):
    # the gate cubic's monic coefficients overflowed from gravity ~1e50 on,
    # and at 1e300 the run printed verified = True with an infinite cone
    # margin.  The roots are found at any scale now; at 1e50 a spot-check
    # arc fails, and at 1e300 the cone's curvature, quadratic in the rod's
    # acceleration, is no float and the run is refused.  The suite's
    # warnings-as-errors shows that numpy stays quiet
    rc, out = run(tmp_path, "verify-bounds", problem="planar", gravity=gravity)
    assert rc in {code for code, _ in cli._FAILURES.values()}
    assert "verified = True" not in capsys.readouterr().out
    assert not (out / "result.json").exists()
    cert = out / "certificate.json"
    assert not cert.exists() or not json.loads(cert.read_text())["verified"]


@pytest.mark.parametrize("problem", ["linear", "planar"])
def test_verify_bounds_at_a_huge_cone_slope_ends_in_a_typed_failure(
        tmp_path, capsys, caplog, problem):
    # on the line, b^2 overflowed to inf in the cone's closed form and the
    # run printed verified = True with an infinite cone margin; a cone
    # whose curvature is no float is refused in both dimensions
    rc, out = run(tmp_path, "verify-bounds", problem=problem,
                  bounds={"b_override": 1e300})
    assert rc == 1
    assert "cone's curvature overflows" in caplog.text
    assert "verified = True" not in capsys.readouterr().out
    assert not (out / "certificate.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["verify-bounds", "solve-periodic"])
@pytest.mark.parametrize("problem, cosine", [("linear", [2.0]),
                                             ("planar", [[2.0, 0.0]])])
def test_a_huge_rod_length_ends_in_a_result_or_a_typed_failure(
        tmp_path, command, problem, cosine):
    # rod_length 1e300 scales G and sup|F| to ~1e-300, and compute_a's
    # G^2 + sup|F|^2 underflowed to 0: ZeroDivisionError
    rc, _ = run(tmp_path, command, problem=problem, rod_length=1e300,
                forcing={"cosine": cosine}, bounds={"samples_per_face": 8})
    assert rc in {0} | {code for code, _ in cli._FAILURES.values()}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, overrides, message", [
    ("degree", {"rod_length": 1e-12, "forcing": {"cosine": [1e300]}},
     "divided by rod_length 1e-12 overflow"),
    ("verify-bounds", {"rod_length": 1e-12, "forcing": {"sine": [-1e300]}},
     "divided by rod_length 1e-12 overflow"),
    ("simulate", {"initial_state": {"x": [1e300], "p": [0.0]}},
     "already at the fall threshold"),
], ids=["scaled-coefficient", "scaled-sine", "simulate-x"])
def test_numpy_overflows_end_in_a_config_error(tmp_path, caplog, command,
                                               overrides, message):
    # numpy overflowed dividing a coefficient of 1e300 by rod_length 1e-12,
    # and squaring x = 1e300 inside np.linalg.norm; with warnings as errors
    # both ended in a traceback
    rc, out = run(tmp_path, command, problem="linear", **overrides)
    assert rc == 1
    assert message in caplog.text
    assert not (out / "result.json").exists()


def test_output_directory_that_cannot_be_created_exits_1(tmp_path, caplog):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    rc = main(["degree", "--config", str(write_config(tmp_path)),
               "--out", str(blocker)])
    assert rc == 1
    assert "cannot write output" in caplog.text


def test_config_numbers_take_the_type_of_their_default(tmp_path):
    cfg = load_config(write_config(tmp_path, gravity=10, duration=2,
                                   integrator={"max_steps": 1e3},
                                   bounds={"a_override": 1}))
    assert cfg["gravity"] == 10.0 and isinstance(cfg["gravity"], float)
    assert isinstance(cfg["duration"], float)
    assert cfg["integrator"]["max_steps"] == 1000
    assert isinstance(cfg["integrator"]["max_steps"], int)
    assert isinstance(cfg["bounds"]["a_override"], float)
    assert cfg["bounds"]["b_override"] is None


def test_readme_schema_matches_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Full schema with defaults:")[1]
    block = block.split("```json")[1].split("```")[0]
    assert json.loads(re.sub(r"//.*", "", block)) == DEFAULT_CONFIG


def test_readme_constants_table_matches_the_library():
    # each `module.NAME` of the table exists with the value shown; a bare
    # `_NAME` after it in the same row is of the same module
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| constant | value | meaning |\n| --- | --- | --- |\n")[1]
    checked = []
    for row in table.split("\n\n")[0].splitlines():
        names, values = (re.findall(r"`([^`]+)`", cell) for cell in row.split("|")[1:3])
        if "." not in names[0]:
            continue
        for name, value in zip(names, values, strict=True):
            if "." in name:
                module, name = name.split(".")
            shown = eval(value, {"__builtins__": {}})
            assert getattr(importlib.import_module(f"upright.{module}"), name) == shown, name
            checked.append(name)
    # every constant that ends a continuation or a Newton run, and the trap's
    assert {"_LAMBDA_STEP_MIN", "_STALL_RUNS", "_STALL_ADVANCE", "_NEWTON_TOL",
            "_NEWTON_MAX_ITERS", "_TRAP_MARGIN"} <= set(checked)


def test_config_defaults_fill_in(tmp_path):
    path = write_config(tmp_path, problem="planar")
    cfg = load_config(path)
    assert cfg["gravity"] == DEFAULT_CONFIG["gravity"]
    assert cfg["integrator"]["rel_tol"] == DEFAULT_CONFIG["integrator"]["rel_tol"]
    assert cfg["problem"] == "planar"


def test_config_nested_merge_keeps_siblings(tmp_path):
    path = write_config(tmp_path, integrator={"rel_tol": 1e-6})
    cfg = load_config(path)
    assert cfg["integrator"]["rel_tol"] == 1e-6
    assert cfg["integrator"]["abs_tol"] == DEFAULT_CONFIG["integrator"]["abs_tol"]


def _sine_path_forcing(tmp_path, dim=1):
    """A 128-knot carriage path as a forcing config: x(t) = 0.02 sin(2 pi t)
    on the line, and the circle of acceleration 1.5 in the plane."""
    n = 128
    A = 1.5 / (2 * math.pi) ** 2
    rows = ["t,f1" if dim == 1 else "t,f1,f2"]
    for k in range(n + 1):
        t = k / n
        w = 2 * math.pi * t
        pos = [0.02 * math.sin(w)] if dim == 1 else [A * math.cos(w), A * math.sin(w)]
        rows.append(",".join(f"{v:.17g}" for v in (t, *pos)))
    path_file = tmp_path / "path.csv"
    path_file.write_text("\n".join(rows) + "\n")
    return {"type": "path_csv", "path": str(path_file)}


def test_forcing_from_path_file(tmp_path):
    # the path's second derivative drives the rod, ingested from a plain
    # CSV of (t, position) samples
    rc, out = run(tmp_path, "simulate", problem="linear",
                  forcing=_sine_path_forcing(tmp_path),
                  initial_state={"x": [0.0], "p": [0.0]}, duration=1.0)
    assert rc == 0
    assert json.loads((out / "result.json").read_text())["fell"] is False


@pytest.mark.parametrize("problem, dim", [("linear", 1), ("planar", 2)])
def test_solve_periodic_on_a_path_converges(tmp_path, problem, dim):
    # with the knots as step nodes the period map is smooth in z, so Newton
    # reaches its tolerance; steps across the knots left noise above it
    rc, out = run(tmp_path, "solve-periodic", problem=problem,
                  forcing=_sine_path_forcing(tmp_path, dim),
                  bounds={"samples_per_face": 4})
    assert rc == 0
    result = json.loads((out / "result.json").read_text())
    assert result["residual"] <= 1e-10
    assert result["liouville_defect"] <= 1e-7
    assert result["containment"]["contained"] is True
    assert result["lambda_path"][-1]["lam"] == 1.0


def test_verify_bounds_on_a_path(tmp_path):
    rc, out = run(tmp_path, "verify-bounds", problem="linear",
                  forcing=_sine_path_forcing(tmp_path))
    assert rc == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verified"] is True
    # the line's faces are closed forms in sup|F|: no arc is integrated
    assert cert["spot_checks"] == {"attempted": 0, "passed": 0, "failures": []}


def test_forcing_path_dimension_mismatch(tmp_path):
    rows = ["t,f1"] + [f"{k/16:.17g},0.0" for k in range(17)]
    path_file = tmp_path / "path.csv"
    path_file.write_text("\n".join(rows) + "\n")
    rc, _ = run(tmp_path, "simulate", problem="planar",
                forcing={"type": "path_csv", "path": str(path_file)},
                initial_state={"x": [0.0, 0.0], "p": [0.0, 0.0]})
    assert rc == 1


@pytest.mark.parametrize("command", ["simulate", "verify-bounds"])
def test_forcing_path_missing_file(tmp_path, caplog, command):
    missing = tmp_path / "absent.csv"
    rc, _ = run(tmp_path, command, problem="linear",
                forcing={"type": "path_csv", "path": str(missing)})
    assert rc == 1
    assert str(missing) in caplog.text


def test_forcing_path_empty_file(tmp_path, caplog):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    rc, _ = run(tmp_path, "simulate", problem="linear",
                forcing={"type": "path_csv", "path": str(empty)})
    assert rc == 1
    assert "expected header" in caplog.text


@pytest.mark.parametrize("row, column, text", [
    (5, 1, "nan"), (5, 1, "inf"), (16, 0, "inf")])
def test_forcing_path_non_finite_samples_exit_1(tmp_path, caplog, row, column,
                                                text):
    # a nan or inf in the samples is refused before any spline is fitted
    rows = [[f"{k / 16:.17g}", f"{0.01 * math.sin(2 * math.pi * k / 16):.17g}"]
            for k in range(17)]
    rows[row][column] = text
    path_file = tmp_path / "path.csv"
    path_file.write_text("\n".join(["t,f1"] + [",".join(r) for r in rows]) + "\n")
    rc, _ = run(tmp_path, "simulate", problem="linear",
                forcing={"type": "path_csv", "path": str(path_file)})
    assert rc == 1
    assert "invalid configuration" in caplog.text and "finite" in caplog.text


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("last_row, message", [
    ("open", "path endpoints differ by 2.449e+284"),
    ("closed", "path too large")], ids=["open", "closed"])
def test_a_path_of_size_1e300_exits_1(tmp_path, caplog, last_row, message):
    # the closure gap of an open path, and the spline's sup norms of a
    # closed one, overflowed in numpy: a RuntimeWarning traceback with
    # warnings as errors
    rows = [[k / 16, 1e300 * math.sin(2 * math.pi * k / 16)] for k in range(17)]
    if last_row == "closed":
        rows[-1][1] = rows[0][1]
    path_file = tmp_path / "path.csv"
    path_file.write_text("\n".join(["t,f1"] + [f"{t!r},{f!r}" for t, f in rows]) + "\n")
    rc, out = run(tmp_path, "verify-bounds", problem="linear",
                  forcing={"type": "path_csv", "path": str(path_file)})
    assert rc == 1
    assert message in caplog.text
    assert not (out / "certificate.json").exists()


# refuses scipy and its submodules, as an interpreter without scipy would,
# and notes each attempt, so a caught ImportError cannot hide one; then runs
# every argv given as JSON through cli.main and prints the exit codes
_WITHOUT_SCIPY = """
import json, sys

attempts = []


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            attempts.append(name)
            raise ImportError(f"import of {name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
from upright.cli import main

print(json.dumps([[main(argv) for argv in json.loads(sys.argv[1])], attempts]))
"""


def test_solve_periodic_loads_no_scipy(tmp_path):
    # scipy is a test dependency only: importing the integrator's tableau
    # from it would cost every run its import time and memory
    cfg = write_config(tmp_path, problem="linear", forcing={"cosine": [2.0]},
                       bounds={"samples_per_face": 4})
    code = ("import sys; from upright.cli import main; "
            f"rc = main(['solve-periodic', '--config', {str(cfg)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]); "
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(upright.__file__).resolve().parents[1]),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_every_command_runs_with_scipy_import_blocked(tmp_path):
    # the runtime needs numpy alone, the sampled path's spline included
    path = _sine_path_forcing(tmp_path)
    runs = [
        ("solve-periodic", dict(forcing=path, bounds={"samples_per_face": 4})),
        ("verify-bounds", dict(forcing=path, bounds={"samples_per_face": 4})),
        ("whitney-search", dict(forcing=path, journey={"t_end": 3.0, "depth": 30})),
        ("simulate", dict(forcing=path, duration=1.0)),
        ("degree", {}),
        ("solve-periodic", dict(forcing={"cosine": [2.0]},
                                bounds={"samples_per_face": 4})),
    ]
    argvs = []
    for i, (command, overrides) in enumerate(runs):
        cfg = write_config(tmp_path, f"config{i}.json", problem="linear",
                           **overrides)
        argvs.append([command, "--config", str(cfg), "--out", str(tmp_path / f"out{i}")])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(upright.__file__).resolve().parents[1]),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0] * len(runs), []]


def test_forcing_unknown_type(tmp_path):
    rc, _ = run(tmp_path, "simulate", problem="linear",
                forcing={"type": "telepathy"})
    assert rc == 1

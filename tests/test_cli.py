from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import upright
from upright import poincare
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


def test_verify_bounds_spot_checks_skip_arcs_through_the_cone_vertex(tmp_path):
    # at this seed a cone-face spot sample at x = 0.00227, p = 4.234 has a
    # two-sided arc crossing x = 0, where the cone gauge has a kink; such
    # samples say nothing about the crossing direction and are not checked
    rc, out = run(tmp_path, "verify-bounds", ("--seed", "502"), problem="linear",
                  forcing={"cosine": [2.0]}, bounds={"samples_per_face": 32})
    assert rc == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verified"] is True
    assert cert["spot_checks"]["passed"] == cert["spot_checks"]["attempted"] > 0


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

def test_solve_periodic_linear(tmp_path, capsys):
    rc, out = run(tmp_path, "solve-periodic", problem="linear",
                  forcing={"cosine": [2.0]}, bounds={"samples_per_face": 8})
    assert rc == 0
    result = json.loads((out / "result.json").read_text())
    assert result["residual"] < 1e-10
    assert result["containment"]["contained"] is True
    path = result["lambda_path"]
    assert path[0]["lam"] == 0.0 and path[-1]["lam"] == 1.0
    lams = [node["lam"] for node in path]
    assert lams == sorted(lams)
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


def test_solve_periodic_continuation_failure(tmp_path):
    # an unreachable Newton tolerance stalls the lambda march below its
    # minimum step, which is a distinct failure from bad bounds
    rc, out = run(tmp_path, "solve-periodic", problem="linear",
                  forcing={"cosine": [2.0]},
                  bounds={"samples_per_face": 8},
                  continuation={"newton_tol": 1e-16, "newton_max_iters": 1})
    assert rc == 3
    assert (out / "certificate.json").exists()


def test_solve_periodic_attempt_budget_exits_3(tmp_path, caplog, monkeypatch):
    monkeypatch.setattr(poincare, "_MAX_ATTEMPTS", 5)
    rc, out = run(tmp_path, "solve-periodic", problem="linear", period=3.0,
                  forcing={"cosine": [2.0]},
                  bounds={"samples_per_face": 8})
    assert rc == 3
    assert "in 5 attempts" in caplog.text
    assert (out / "certificate.json").exists()
    assert not (out / "result.json").exists()


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


def test_solve_periodic_verbose_streams_attempts_only_to_the_log(tmp_path):
    cfg = write_config(tmp_path, problem="linear", forcing={"cosine": [2.0]},
                       bounds={"samples_per_face": 8})
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
    attempts = runs["verbose"][0]
    result = json.loads(runs["verbose"][1][0])
    assert sum(" converged: " in line for line in attempts) == \
        len(result["lambda_path"]) - 1
    assert runs["quiet"][1] == runs["verbose"][1]


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


# -- config handling ----------------------------------------------------------

def test_config_unknown_key(tmp_path):
    rc, _ = run(tmp_path, "degree", problem="linear", grvity=9.81)
    assert rc == 1
    # Newton no longer takes finite-difference Jacobians
    rc, _ = run(tmp_path, "degree", problem="linear",
                continuation={"fd_step": 1e-7})
    assert rc == 1


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


def test_forcing_from_path_file(tmp_path):
    # carriage path x(t) = 0.02 sin(2 pi t); its second derivative drives
    # the rod, ingested from a plain CSV of (t, position) samples
    rows = ["t,f1"]
    n = 128
    for k in range(n + 1):
        t = k / n
        rows.append(f"{t:.17g},{0.02 * math.sin(2 * math.pi * t):.17g}")
    path_file = tmp_path / "path.csv"
    path_file.write_text("\n".join(rows) + "\n")
    rc, out = run(tmp_path, "simulate", problem="linear",
                  forcing={"type": "path_csv", "path": str(path_file)},
                  initial_state={"x": [0.0], "p": [0.0]}, duration=1.0)
    assert rc == 0
    assert json.loads((out / "result.json").read_text())["fell"] is False


def test_forcing_path_dimension_mismatch(tmp_path):
    rows = ["t,f1"] + [f"{k/16:.17g},0.0" for k in range(17)]
    path_file = tmp_path / "path.csv"
    path_file.write_text("\n".join(rows) + "\n")
    rc, _ = run(tmp_path, "simulate", problem="planar",
                forcing={"type": "path_csv", "path": str(path_file)},
                initial_state={"x": [0.0, 0.0], "p": [0.0, 0.0]})
    assert rc == 1


def test_forcing_unknown_type(tmp_path):
    rc, _ = run(tmp_path, "simulate", problem="linear",
                forcing={"type": "telepathy"})
    assert rc == 1

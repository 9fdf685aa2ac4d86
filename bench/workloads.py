"""The benchmark's workloads: inputs, operations and their correctness checks.

Each workload is three operations, named after the end-to-end metric that
times them (``linear_s``, ``planar_s``, ``stress_s``).  An operation goes
through a public entry point of the package, the CLI's ``main`` or
``whitney.planar_survivor_grid``, and every answer is checked against
``oracle`` (which shares no code with the package) or against a property
the method must have.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

G = 9.81
TIGHT = {"rel_tol": 1e-12, "abs_tol": 1e-14}
CIRCLE = {"cosine": [[1.5, 0.0]], "sine": [[0.0, 1.5]]}
FOUR_HARMONICS = {
    "cosine": [[1.0, 0.2], [0.3, 0.1], [0.1, 0.2], [0.05, 0.05]],
    "sine": [[0.1, 1.0], [0.2, 0.3], [0.1, 0.1], [0.05, 0.02]],
}
FALL_THRESHOLD = 1.0 - 1e-6  # the CLI's default integrator.fall_threshold
DEFAULT_REL_TOL = 1e-9  # the CLI's default integrator.rel_tol
JOURNEY_T_END = 4.0
PATH_KNOTS = 64
GRID_N = 9
GRID_T_END = 3.0
GRID_LANES_CHECKED = 12
# Oracle RK4 steps per unit time, and how far its fall times may lie from
# the program's.  At these steps the observed differences stay below a tenth
# of each tolerance (bench/README.md, "Correctness checks").
ORBIT_STEPS = 2000  # per period
JOURNEY_STEPS, JOURNEY_FALL_TOL = 2000, 1e-4
GRID_STEPS, GRID_FALL_TOL = 4000, 1e-5

# Which layers each workload drives; "light" means a handful of calls.
LAYERS = {
    "orbit": {"forcing": "scalar", "dynamics": "main", "integrator": "main",
              "poincare": "main", "bounds": "light", "whitney": "bypassed"},
    "certify": {"forcing": "array (scalar light)", "dynamics": "light",
                "integrator": "light", "poincare": "bypassed",
                "bounds": "main", "whitney": "bypassed"},
    "journey": {"forcing": "scalar", "dynamics": "main", "integrator": "main",
                "poincare": "bypassed", "bounds": "bypassed",
                "whitney": "main"},
}

CONFIGS = {
    "orbit": {
        "linear_s": {"problem": "linear", "forcing": {"cosine": [2.0]}},
        "planar_s": {"problem": "planar", "forcing": CIRCLE,
                     "bounds": {"samples_per_face": 4}},
        "stress_s": {"problem": "linear", "period": 1.5,
                     "forcing": {"cosine": [2.0]}},
    },
    "certify": {
        "linear_s": {"problem": "linear", "forcing": {"cosine": [2.0]},
                     "bounds": {"samples_per_face": 32}},
        "refute": {"problem": "linear", "forcing": {"cosine": [2.0]},
                   "bounds": {"samples_per_face": 32, "b_override": 1.0}},
        "planar_s": {"problem": "planar", "forcing": CIRCLE,
                     "bounds": {"samples_per_face": 6}},
        "stress_s": {"problem": "planar", "forcing": FOUR_HARMONICS,
                     "bounds": {"samples_per_face": 6}},
    },
    "journey": {
        "linear_s": {"problem": "linear", "period": 2.0 * math.pi,
                     "forcing": {"sine": [0.5]}, "integrator": TIGHT,
                     "journey": {"t_end": JOURNEY_T_END, "depth": 60}},
        "stress_s": {"problem": "linear",
                     "forcing": {"type": "path_csv", "path": None},
                     "journey": {"t_end": JOURNEY_T_END, "depth": 60}},
    },
}


@dataclass
class Op:
    """One timed operation.  ``run`` returns what ``check`` inspects."""

    metric: str  # end-to-end metric this operation's time feeds
    name: str
    run: Callable[[], object]
    expect_rc: int | None = None  # CLI exit code; None for library calls


@dataclass
class Workload:
    name: str
    ops: list
    check: Callable[[dict], list]  # outcomes by op name -> problems found
    layers: dict = field(default_factory=dict)


def _oracle_forcing(cfg: dict) -> oracle.Fourier:
    dim = 1 if cfg["problem"] == "linear" else 2
    f = cfg["forcing"]
    return oracle.Fourier(cfg.get("period", 1.0), dim, f.get("cosine", []),
                          f.get("sine", []))


def _cli_op(cli, metric, name, command, cfg_path, out, seed, expect_rc):
    argv = [command, "--config", str(cfg_path), "--out", str(out),
            "--seed", str(seed)]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        return {"rc": rc, "out": out}

    return Op(metric, name, run, expect_rc)


def write_path_csv(path: Path, knots: int) -> None:
    """One period of the carriage path ``-0.5 sin t``, whose acceleration is
    the Fourier journey's forcing ``0.5 sin t``."""
    rows = ["t,f1"]
    for k in range(knots + 1):
        t = 2.0 * math.pi * k / knots
        rows.append(f"{t:.17g},{-0.5 * math.sin(t):.17g}")
    path.write_text("\n".join(rows) + "\n")


def setup(name: str, work: Path, seed: int, scale: float = 1.0) -> Workload:
    """Import the package, write configs and inputs, build forcings.

    ``scale`` < 1 shrinks the inputs for the benchmark's self-test.
    """
    from upright import cli, whitney
    from upright.forcing import make_fourier_forcing
    from upright.integrator import IntegratorConfig

    work.mkdir(parents=True, exist_ok=True)
    configs = json.loads(json.dumps(CONFIGS.get(name, {})))
    if scale != 1.0:
        _shrink(configs, scale)
    if name == "journey":
        path = work / "path.csv"
        write_path_csv(path, PATH_KNOTS)
        configs["stress_s"]["forcing"]["path"] = str(path)
    cfg_paths = {}
    for op, cfg in configs.items():
        cfg_paths[op] = work / f"{op}.json"
        cfg_paths[op].write_text(json.dumps(cfg, indent=1))

    def cli_op(metric, op, command, expect_rc=0):
        return _cli_op(cli, metric, op, command, cfg_paths[op], work / op,
                       seed, expect_rc)

    if name == "orbit":
        ops = [cli_op(m, m, "solve-periodic")
               for m in ("linear_s", "planar_s", "stress_s")]
        return Workload(name, ops, lambda out: check_orbit(out, configs),
                        LAYERS[name])
    if name == "certify":
        ops = [cli_op("linear_s", "linear_s", "verify-bounds"),
               cli_op("linear_s", "refute", "verify-bounds", expect_rc=2),
               cli_op("planar_s", "planar_s", "verify-bounds"),
               cli_op("stress_s", "stress_s", "verify-bounds")]
        return Workload(name, ops, lambda out: check_certify(out, configs),
                        LAYERS[name])
    if name == "journey":
        n = max(3, int(round(GRID_N * scale)))
        F = make_fourier_forcing(1.0, 2, CIRCLE["cosine"], CIRCLE["sine"])
        spec = whitney.JourneySpec(F=F, t_end=GRID_T_END * scale, G=G)
        icfg = IntegratorConfig()

        def grid():
            return whitney.planar_survivor_grid(spec, grid_radius=0.9, n=n,
                                                cfg=icfg)

        ops = [cli_op("linear_s", "linear_s", "whitney-search"),
               Op("planar_s", "planar_s", grid),
               cli_op("stress_s", "stress_s", "whitney-search")]
        return Workload(
            name, ops, lambda out: check_journey(out, configs, spec.t_end, seed),
            LAYERS[name])
    raise KeyError(f"unknown workload {name!r}; choose from {sorted(LAYERS)}")


def _shrink(configs: dict, scale: float) -> None:
    for cfg in configs.values():
        b = cfg.get("bounds")
        if b:
            b["samples_per_face"] = max(4, int(b["samples_per_face"] * scale))
        j = cfg.get("journey")
        if j:
            j["t_end"] = j["t_end"] * scale


# -- checks -----------------------------------------------------------------

def _load(out: Path, name: str):
    return json.loads((out / name).read_text())


def check_orbit(outcomes: dict, configs: dict) -> list:
    """Oracle maps each fixed point to itself; orbits stay in their traps."""
    problems = []
    for op, cfg in configs.items():
        out = outcomes[op]["out"]
        res = _load(out, "result.json")
        cert = _load(out, "certificate.json")
        # the program's own step error bounds how well its orbit closes
        tol = 100.0 * cfg.get("integrator", {}).get("rel_tol", DEFAULT_REL_TOL)
        if not cert["verified"]:
            problems.append(f"orbit/{op}: trap certificate not verified")
        if not res.get("containment", {}).get("contained"):
            problems.append(f"orbit/{op}: program reports orbit outside its trap")
        F = _oracle_forcing(cfg)
        z = np.asarray(res["fixed_point"], dtype=float)
        d = z.size // 2
        orbit = oracle.sample_orbit(z, F.period, ORBIT_STEPS, G, F)
        defect = float(np.linalg.norm(orbit[-1] - z))
        if not defect <= tol:
            problems.append(f"orbit/{op}: oracle period-map defect {defect:.3e} > {tol:g}")
        a, b = cert["spec"]["a"], cert["spec"]["b"]
        xn = np.linalg.norm(orbit[:, :d], axis=1)
        pn = np.linalg.norm(orbit[:, d:], axis=1)
        if np.max(xn) > a or np.max(b * xn + pn - b) > 0.0:
            problems.append(f"orbit/{op}: oracle orbit leaves the trap (a={a}, b={b})")
        if op == "planar_s":
            spread = float((np.max(xn) - np.min(xn)) / np.mean(xn))
            if not spread <= 1e-6:
                problems.append(f"orbit/{op}: |x(t)| varies by {spread:.3e} under circular forcing")
    return problems


def check_certify(outcomes: dict, configs: dict) -> list:
    """Verdicts as stated; refutation and worst margins recomputed."""
    problems = []
    for op, cfg in configs.items():
        cert = _load(outcomes[op]["out"], "certificate.json")
        F = _oracle_forcing(cfg)
        sup_lo, sup_hi = F.sup_norm_bounds()
        b = cert["spec"]["b"]
        if op == "refute":
            if cert["verified"] or cert["corner_ok"]:
                problems.append("certify/refute: undersized cone was not refuted at the vertex")
            if not b * b <= sup_lo:
                problems.append(f"certify/refute: b^2 = {b * b:g} exceeds sup|F| >= {sup_lo:g}, "
                                "so the refutation is unfounded")
            if not any(f.get("face") == "vertex" for f in cert["failures"]):
                problems.append("certify/refute: no vertex failure reported")
            continue
        if not cert["verified"]:
            problems.append(f"certify/{op}: trap not verified")
        if not b * b > sup_hi:
            problems.append(f"certify/{op}: b^2 = {b * b:g} does not exceed sup|F| <= {sup_hi:g}")
        worst = [w for w in cert["worst_samples"]["gamma"]
                 if w["kind"] == "cylinder-gate"]
        if not worst:
            problems.append(f"certify/{op}: no cylinder margins reported")
        for w in worst:
            m = oracle.cylinder_curvature(w["t"], w["x"], w["p"], G, w["lam"], F)
            if not (m > 0.0 and abs(m - w["margin"]) <= 1e-9 * (1.0 + abs(m))):
                problems.append(f"certify/{op}: cylinder margin {w['margin']!r} at "
                                f"t={w['t']:.6g} recomputes to {m!r}")
    return problems


def _transcript(out: Path) -> list:
    with open(out / "transcript.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [{"l": float(r["l"]), "r": float(r["r"]), "mid": float(r["mid"]),
             "class": r["class"], "fall_time": float(r["fall_time"])}
            for r in rows]


def _check_bracket(label: str, res: dict, rows: list) -> list:
    """Each step halves the bracket and keeps its falling ends."""
    problems = []
    if res["endpoint_classes"] != ["falls_negative", "falls_positive"]:
        problems.append(f"{label}: initial ends are {res['endpoint_classes']}")
    l, r = -0.999, 0.999
    for k, row in enumerate(rows, 1):
        slack = 4.0 * math.ulp(max(abs(l), abs(r), 1e-300))
        if row["l"] != l or row["r"] != r or abs(row["mid"] - 0.5 * (l + r)) > slack:
            problems.append(f"{label}: step {k} does not bisect [{l!r}, {r!r}]")
            break
        if row["class"] == "falls_negative":
            l = row["mid"]
        elif row["class"] == "falls_positive":
            r = row["mid"]
    if res["survivor"] is None and (res["lower"] != l or res["upper"] != r):
        problems.append(f"{label}: final bracket is not the last step's")
    return problems


def check_journey(outcomes: dict, configs: dict, grid_t_end: float,
                  seed: int) -> list:
    """Oracle replays the survivor, the bracket and seeded grid lanes."""
    problems = []
    lin_cfg = configs["linear_s"]
    t_end = lin_cfg["journey"]["t_end"]
    F = _oracle_forcing(lin_cfg)
    n_steps = int(round(t_end * JOURNEY_STEPS))

    lin = _load(outcomes["linear_s"]["out"], "result.json")
    rows = _transcript(outcomes["linear_s"]["out"])
    problems += _check_bracket("journey/linear_s", lin, rows)
    if lin["survivor"] is None:
        problems.append("journey/linear_s: no surviving start found")
    # lane 0 the survivor, lanes 1-2 the final bracket, then every midpoint
    starts = [lin["best"], lin["lower"], lin["upper"]]
    falling = [row for row in rows if row["class"] != "survives"]
    starts += [row["mid"] for row in falling]
    y0 = np.column_stack([starts, np.zeros(len(starts))])
    y, fall, max_r = oracle.flow(y0, 0.0, t_end, n_steps, G, 1.0, F,
                                 threshold=FALL_THRESHOLD)
    if not (math.isnan(fall[0]) and max_r[0] < FALL_THRESHOLD):
        problems.append(f"journey/linear_s: oracle sees the survivor fall at t={fall[0]:.6g}")
    if lin["survivor"] is None:
        if not (y[1, 0] < 0.0 and y[2, 0] > 0.0):
            problems.append("journey/linear_s: oracle does not confirm the final bracket's ends")
    for k, row in enumerate(falling, 3):
        side = "falls_positive" if y[k, 0] > 0.0 else "falls_negative"
        if side != row["class"] or not abs(fall[k] - row["fall_time"]) <= JOURNEY_FALL_TOL:
            problems.append(f"journey/linear_s: start {row['mid']!r} {row['class']} at "
                            f"t={row['fall_time']:.9g}; oracle: {side} at t={fall[k]:.9g}")

    # the path-forced bracket must reach the Fourier survivor: the 64-knot
    # spline's acceleration is off by at most h^2 max|f''''| / 12 ~ 4e-4,
    # which moves the survivor by about that over G
    path = _load(outcomes["stress_s"]["out"], "result.json")
    problems += _check_bracket("journey/stress_s", path,
                               _transcript(outcomes["stress_s"]["out"]))
    h = 2.0 * math.pi / PATH_KNOTS
    allowed = h * h * 0.5 / 12.0 / G
    gap = max(0.0, path["lower"] - lin["best"], lin["best"] - path["upper"])
    if not gap <= allowed:
        problems.append(f"journey/stress_s: path bracket [{path['lower']!r}, {path['upper']!r}] "
                        f"lies {gap:.3e} from the Fourier survivor (allowed {allowed:.3e})")

    # seeded grid lanes against the oracle
    grid = outcomes["planar_s"]
    coords = grid["coords"]
    n = coords.size
    inside = [(i, j) for i in range(n) for j in range(n)
              if math.hypot(coords[i], coords[j]) < 1.0]
    lanes = random.Random(seed).sample(inside, min(GRID_LANES_CHECKED, len(inside)))
    Fp = oracle.Fourier(1.0, 2, CIRCLE["cosine"], CIRCLE["sine"])
    y0 = np.asarray([[coords[i], coords[j], 0.0, 0.0] for i, j in lanes])
    _, fall, _ = oracle.flow(y0, 0.0, grid_t_end, int(round(grid_t_end * GRID_STEPS)),
                             G, 1.0, Fp, threshold=FALL_THRESHOLD)
    for k, (i, j) in enumerate(lanes):
        got = grid["fall_times"][i, j]
        same = (math.isnan(got) and math.isnan(fall[k])) or abs(got - fall[k]) <= GRID_FALL_TOL
        if not same or bool(grid["survived"][i, j]) != math.isnan(fall[k]):
            problems.append(f"journey/planar_s: lane ({coords[i]:.3f}, {coords[j]:.3f}) "
                            f"falls at {got!r}; oracle: {fall[k]!r}")
    return problems

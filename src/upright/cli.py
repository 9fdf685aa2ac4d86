"""Command-line front end: config in, CSV/JSON artifacts out.

Subcommands
-----------
solve-periodic   bound constants + verification + continuation to lam = 1
verify-bounds    bound constants + verification only
whitney-search   bisection for a non-falling start over a finite journey
simulate         one integration from a given initial state
degree           sign of the autonomous Jacobian determinant at the origin

Every run is driven by one JSON config file (see ``DEFAULT_CONFIG``);
missing keys take defaults, so a minimal config can be a few lines.  All
numeric output uses 17 significant digits and no timestamps, making reruns
byte-stable.

Exit codes: 0 success, 1 config error, 2 bound verification failure,
3 continuation failure, 4 no bisection bracket.
"""
from __future__ import annotations

import argparse
import copy
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from .bounds import (BoundSetSpec, compute_a_linear, compute_a_planar,
                     compute_b_linear, compute_b_planar,
                     degree_of_autonomous_field, orbit_containment,
                     save_certificate_json, verify_bound_set)
from .dynamics import ModelParams, PhaseState
from .errors import (BoundVerificationError, BracketError,
                     ContinuationStuckError, FallError, UprightError)
from .forcing import ingest_path, make_fourier_forcing, read_path_csv
from .integrator import IntegratorConfig, evolve
from .poincare import (ContinuationConfig, continue_in_lambda, result_to_dict,
                       save_result_json)
from .whitney import JourneySpec, bisect_survivor, transcript_to_csv

__all__ = ["main", "entry", "DEFAULT_CONFIG", "load_config"]

log = logging.getLogger("upright")

DEFAULT_CONFIG = {
    "problem": "linear",
    "gravity": 9.81,
    "rod_length": 1.0,
    "period": 1.0,
    "forcing": {
        "type": "fourier",
        "cosine": [],
        "sine": [],
        "constant": None,
        # for type "path_csv":
        "path": None,
    },
    "integrator": {
        "rel_tol": 1e-9,
        "abs_tol": 1e-11,
        "max_step": math.inf,
        "fall_threshold": 1.0 - 1e-6,
        "max_steps": 1_000_000,
    },
    "continuation": {
        "lambda_step_init": 0.1,
        "lambda_step_min": 1e-4,
        "newton_tol": 1e-10,
        "newton_max_iters": 25,
    },
    "bounds": {
        "a_margin": 0.5,
        "b_margin": 0.5,
        "lambda_grid_size": 21,
        "samples_per_face": 16,
        "a_override": None,
        "b_override": None,
    },
    "journey": {
        "t_end": 10.0,
        "depth": 60,
    },
    "initial_state": {
        "x": [0.0],
        "p": [0.0],
    },
    "duration": 10.0,
    "out_dir": ".",
}


class ConfigError(UprightError, ValueError):
    pass


def _merge(defaults: dict, user: dict, path: str = "") -> dict:
    out = copy.deepcopy(defaults)
    for key, value in user.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key: {path + key!r}")
        if isinstance(defaults[key], dict) and isinstance(value, dict):
            out[key] = _merge(defaults[key], value, path + key + ".")
        else:
            out[key] = value
    return out


def load_config(path) -> dict:
    """Read a JSON config file and fill defaults for all missing keys."""
    with open(path) as fh:
        try:
            user = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = _merge(DEFAULT_CONFIG, user)
    if cfg["problem"] not in ("linear", "planar"):
        raise ConfigError(f"problem must be 'linear' or 'planar', got {cfg['problem']!r}")
    for key in ("gravity", "rod_length", "period"):
        if not (isinstance(cfg[key], (int, float)) and cfg[key] > 0):
            raise ConfigError(f"{key} must be a positive number")
    return cfg


def _build_model(cfg: dict):
    """Turn a config into (G, F signal, dim)."""
    dim = 1 if cfg["problem"] == "linear" else 2
    ell = float(cfg["rod_length"])
    fspec = cfg["forcing"]
    kind = fspec.get("type", "fourier")
    if kind == "fourier":
        # coefficients describe the carriage acceleration; the equations
        # use it divided by rod length
        def scale(coeffs):
            if not coeffs:
                return []
            return [np.asarray(c, dtype=float) / ell for c in np.atleast_1d(coeffs)] \
                if dim == 1 else [np.asarray(c, dtype=float) / ell for c in coeffs]

        constant = fspec.get("constant")
        if constant is not None:
            constant = np.asarray(constant, dtype=float) / ell
        F = make_fourier_forcing(float(cfg["period"]), dim,
                                 scale(fspec.get("cosine") or []),
                                 scale(fspec.get("sine") or []),
                                 constant=constant)
        G = float(cfg["gravity"]) / ell
    elif kind == "path_csv":
        if not fspec.get("path"):
            raise ConfigError("forcing.path is required for type 'path_csv'")
        samples = read_path_csv(fspec["path"], rod_length=ell)
        if samples.dim != dim:
            raise ConfigError(
                f"path file has {samples.dim} position column(s) but problem "
                f"is {cfg['problem']}")
        F, G = ingest_path(samples, float(cfg["gravity"]))
    else:
        raise ConfigError(f"unknown forcing type: {kind!r}")
    return G, F, dim


def _integrator_config(cfg: dict) -> IntegratorConfig:
    icfg = cfg["integrator"]
    return IntegratorConfig(
        rel_tol=float(icfg["rel_tol"]),
        abs_tol=float(icfg["abs_tol"]),
        max_step=float(icfg["max_step"]),
        fall_threshold=float(icfg["fall_threshold"]),
        max_steps=int(icfg["max_steps"]),
    )


def _continuation_config(cfg: dict) -> ContinuationConfig:
    ccfg = cfg["continuation"]
    return ContinuationConfig(
        lambda_step_init=float(ccfg["lambda_step_init"]),
        lambda_step_min=float(ccfg["lambda_step_min"]),
        newton_tol=float(ccfg["newton_tol"]),
        newton_max_iters=int(ccfg["newton_max_iters"]),
    )


def _out_dir(cfg: dict, args) -> Path:
    out = Path(args.out) if args.out else Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _certify(cfg: dict, G: float, F, dim: int, icfg: IntegratorConfig,
             seed: int, out: Path):
    """Bound constants and their certificate, saved as ``certificate.json``.

    Returns the trap spec and its certificate, or ``None`` when no planar
    ``b`` passed verification.
    """
    bcfg = cfg["bounds"]
    spf = int(bcfg["samples_per_face"])
    lam_grid = np.linspace(0.0, 1.0, int(bcfg["lambda_grid_size"]))
    if bcfg["a_override"] is not None:
        a = float(bcfg["a_override"])
    elif dim == 1:
        a = compute_a_linear(G, F.sup_norm, float(bcfg["a_margin"]))
    else:
        a = compute_a_planar(G, F.sup_norm, float(bcfg["a_margin"]))
    cert = None
    if bcfg["b_override"] is not None:
        b = float(bcfg["b_override"])
    elif dim == 1:
        b = compute_b_linear(a, F.sup_norm, float(bcfg["b_margin"]))
    else:
        try:
            b, cert = compute_b_planar(a, F, G, lam_grid, icfg,
                                       samples_per_face=spf, seed=seed)
        except BoundVerificationError as exc:
            log.error("bound escalation failed: %s", exc)
            if exc.certificate is not None:
                save_certificate_json(exc.certificate, out / "certificate.json")
            return None
    spec = BoundSetSpec(a=a, b=b, dim=dim)
    if cert is None:
        cert = verify_bound_set(spec, G, F, icfg, samples_per_face=spf,
                                lambda_grid=lam_grid, seed=seed)
    save_certificate_json(cert, out / "certificate.json")
    return spec, cert


def cmd_verify_bounds(cfg: dict, args) -> int:
    G, F, dim = _build_model(cfg)
    certified = _certify(cfg, G, F, dim, _integrator_config(cfg), args.seed,
                         _out_dir(cfg, args))
    if certified is None:
        return 2
    spec, cert = certified
    print(f"a = {spec.a:.17g}")
    print(f"b = {spec.b:.17g}")
    print(f"verified = {cert.verified}")
    print(f"min margins: cylinder {cert.min_margin_gamma:.6g}, "
          f"cone {cert.min_margin_delta:.6g}, vertex ok {cert.corner_ok}")
    return 0 if cert.verified else 2


def cmd_solve_periodic(cfg: dict, args) -> int:
    G, F, dim = _build_model(cfg)
    icfg = _integrator_config(cfg)
    ccfg = _continuation_config(cfg)
    out = _out_dir(cfg, args)
    certified = _certify(cfg, G, F, dim, icfg, args.seed, out)
    if certified is None:
        return 2
    spec, cert = certified
    if not cert.verified:
        log.error("bound set (a=%.6g, b=%.6g) failed verification", spec.a, spec.b)
        return 2
    params0 = ModelParams(G=G, lam=0.0, dim=dim)
    try:
        result = continue_in_lambda(params0, F, icfg, ccfg)
    except (ContinuationStuckError, FallError) as exc:
        log.error("continuation failed: %s", exc)
        return 3
    result.containment = orbit_containment(result.orbit, spec)
    result.orbit.to_csv(out / "orbit.csv", n_samples=1001)
    save_result_json(result, out / "result.json")
    print(f"fixed point: {result.fixed_point.flat().tolist()}")
    print(f"residual = {result.residual:.17g}")
    print(f"contained = {result.containment['contained']}")
    return 0


def cmd_whitney(cfg: dict, args) -> int:
    if cfg["problem"] != "linear":
        log.error("whitney-search bisects a scalar start; set problem=linear")
        return 1
    G, F, _ = _build_model(cfg)
    icfg = _integrator_config(cfg)
    out = _out_dir(cfg, args)
    journey = JourneySpec(F=F, t_end=float(cfg["journey"]["t_end"]), G=G)
    try:
        result = bisect_survivor(journey, icfg, depth=int(cfg["journey"]["depth"]))
    except BracketError as exc:
        log.error("no bracket: %s", exc)
        return 4
    transcript_to_csv(result, out / "transcript.csv")
    summary = {
        "lower": result.lower,
        "upper": result.upper,
        "width": result.width,
        "survivor": result.survivor,
        "best": result.best,
        "steps": len(result.transcript),
        "endpoint_classes": [c.value for c in result.endpoint_classes],
    }
    with open(out / "result.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"bracket: [{result.lower:.17g}, {result.upper:.17g}]")
    print(f"survivor: {result.survivor}")
    return 0


def cmd_simulate(cfg: dict, args) -> int:
    G, F, dim = _build_model(cfg)
    icfg = _integrator_config(cfg)
    out = _out_dir(cfg, args)
    x = np.asarray(cfg["initial_state"]["x"], dtype=float)
    p = np.asarray(cfg["initial_state"]["p"], dtype=float)
    if x.shape != (dim,) or p.shape != (dim,):
        log.error("initial_state must have %d component(s) per field", dim)
        return 1
    state = PhaseState(x, p)
    params = ModelParams(G=G, lam=1.0, dim=dim)
    traj = evolve(0.0, float(cfg["duration"]), state, params, F, icfg)
    traj.to_csv(out / "trajectory.csv")
    ev = traj.fall_event
    summary = {
        "fell": ev is not None,
        "fall_time": None if ev is None else ev.time,
        "fall_kind": None if ev is None else ev.kind.value,
        "t_end": traj.t_end,
        "end_state": traj.states[-1].tolist(),
        "steps_accepted": traj.n_accepted,
        "steps_rejected": traj.n_rejected,
    }
    with open(out / "result.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    if ev is None:
        print(f"no fall in [0, {traj.t_end:.17g}]")
    else:
        print(f"fell at t = {ev.time:.17g} ({ev.kind.value})")
    return 0


def cmd_degree(cfg: dict, args) -> int:
    G, _, dim = _build_model(cfg)
    deg = degree_of_autonomous_field(G, dim)
    out = _out_dir(cfg, args)
    with open(out / "result.json", "w") as fh:
        json.dump({"problem": cfg["problem"], "degree": deg}, fh, indent=2)
        fh.write("\n")
    print(f"degree = {deg:+d}")
    return 0


_COMMANDS = {
    "solve-periodic": cmd_solve_periodic,
    "verify-bounds": cmd_verify_bounds,
    "whitney-search": cmd_whitney,
    "simulate": cmd_simulate,
    "degree": cmd_degree,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="upright",
        description="Periodic orbits and non-falling motions of an inverted "
                    "rod on a moving carriage.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=0,
                        help="jitter seed for boundary sampling")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = load_config(args.config)
    except (OSError, ConfigError) as exc:
        log.error("config error: %s", exc)
        return 1
    try:
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, ValueError) as exc:
        log.error("invalid configuration: %s", exc)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

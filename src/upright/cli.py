"""Command-line front end: config in, CSV/JSON artifacts out.

Subcommands
-----------
solve-periodic   bound constants + verification + continuation to lam = 1
verify-bounds    bound constants + verification only
whitney-search   bisection for a non-falling start over a finite journey
simulate         one integration from a given initial state
degree           sign of the autonomous Jacobian determinant at the origin

Every run is driven by one JSON config file (see ``DEFAULT_CONFIG``);
missing keys take defaults, so a minimal config can be a few lines.  An
unknown key, a section that is not an object or a number that is not a
finite JSON number is a config error.  Method settings that no run changes
(fall threshold, continuation steps, Newton tolerance, trap margins, lam
grid) are library constants.  All numeric output uses 17 significant digits and
no timestamps, making reruns byte-stable.

Exit codes (``_FAILURES``): 0 success, 1 config error or an output
directory that cannot be created, 2 bound verification failure,
3 continuation failure, 4 no bisection bracket, 5 integrator step budget
(``integrator.max_steps``) exhausted or a field singular within one minimal
step.
"""
from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from .bounds import (BoundSetSpec, compute_a, compute_b_linear,
                     compute_b_planar, degree_of_autonomous_field,
                     orbit_containment, save_certificate_json,
                     verify_bound_set)
from .dynamics import ModelParams, PhaseState
from .errors import (BoundVerificationError, BracketError,
                     ContinuationStuckError, FallError, SingularityError,
                     StepBudgetError, UprightError)
from .forcing import ingest_path, make_fourier_forcing, read_path_csv
from .integrator import IntegratorConfig, evolve
from .poincare import continue_in_lambda, save_result_json
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
    "integrator": dataclasses.asdict(IntegratorConfig()),
    "bounds": {
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


# settings whose default is null but that take a number when set
_OPTIONAL_NUMBERS = ("bounds.a_override", "bounds.b_override")


class ConfigError(UprightError, ValueError):
    pass


def _merge(defaults: dict, user: dict, path: str = "") -> dict:
    """``defaults`` updated by ``user``: sections must be objects, strings
    strings, numbers numbers (not bools), each taking its default's type."""
    out = copy.deepcopy(defaults)
    for key, value in user.items():
        name = path + key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {name!r}")
        default = defaults[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{name} must be a JSON object, got {value!r}")
            value = _merge(default, value, name + ".")
        elif isinstance(default, str) and not isinstance(value, str):
            raise ConfigError(f"{name} must be a string, got {value!r}")
        elif isinstance(default, (int, float)) or (name in _OPTIONAL_NUMBERS
                                                   and value is not None):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
            if isinstance(default, int) and value != int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            try:
                value = float(value) if default is None else type(default)(value)
            except (OverflowError, ValueError) as exc:
                raise ConfigError(f"{name}: {exc}") from exc
        out[key] = value
    return out


def load_config(path) -> dict:
    """Read a JSON config file and fill defaults for all missing keys."""
    try:
        with open(path) as fh:
            user = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = _merge(DEFAULT_CONFIG, user)
    if cfg["problem"] not in ("linear", "planar"):
        raise ConfigError(f"problem must be 'linear' or 'planar', got {cfg['problem']!r}")
    for key in ("gravity", "rod_length", "period"):
        if not cfg[key] > 0:
            raise ConfigError(f"{key} must be a positive number")
    return cfg


def _build_model(cfg: dict):
    """Turn a config into (G, F signal, dim)."""
    dim = 1 if cfg["problem"] == "linear" else 2
    ell = cfg["rod_length"]
    fspec = cfg["forcing"]
    kind = fspec["type"]
    if kind == "fourier":
        # coefficients describe the carriage acceleration; the equations
        # use it divided by rod length
        def scale(c):
            return np.atleast_1d(np.asarray(c, dtype=float)) / ell

        constant = fspec["constant"]
        F = make_fourier_forcing(
            cfg["period"], dim, scale(fspec["cosine"] or []),
            scale(fspec["sine"] or []),
            constant=None if constant is None else scale(constant))
        G = cfg["gravity"] / ell
    elif kind == "path_csv":
        path = fspec["path"]
        if not (isinstance(path, str) and path):
            raise ConfigError("forcing.path is required for type 'path_csv'")
        try:
            samples = read_path_csv(path, rod_length=ell)
        except OSError as exc:
            raise ConfigError(f"cannot read forcing.path {path!r}: "
                              f"{exc.strerror or exc}") from exc
        if samples.dim != dim:
            raise ConfigError(
                f"path file has {samples.dim} position column(s) but problem "
                f"is {cfg['problem']}")
        F, G = ingest_path(samples, cfg["gravity"])
    else:
        raise ConfigError(f"unknown forcing type: {kind!r}")
    return G, F, dim


def _out_dir(cfg: dict, args) -> Path:
    out = Path(args.out) if args.out else Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_result_json(summary: dict, out: Path) -> None:
    """The subcommand's summary as ``result.json``, two-space indented."""
    with open(out / "result.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")


def _certify(cfg: dict, G: float, F, dim: int, icfg: IntegratorConfig,
             seed: int, out: Path):
    """Bound constants and their certificate, saved as ``certificate.json``.

    Returns the trap spec and its certificate.  When no planar ``b`` passes
    verification, saves the last failed certificate and re-raises the
    ``BoundVerificationError``.
    """
    bcfg = cfg["bounds"]
    spf = bcfg["samples_per_face"]
    a = bcfg["a_override"]
    if a is None:
        a = compute_a(G, F.sup_norm)
    cert = None
    b = bcfg["b_override"]
    if b is None and dim == 1:
        b = compute_b_linear(a, F.sup_norm)
    elif b is None:
        try:
            b, cert = compute_b_planar(a, F, G, icfg,
                                       samples_per_face=spf, seed=seed)
        except BoundVerificationError as exc:
            if exc.certificate is not None:
                save_certificate_json(exc.certificate, out / "certificate.json")
            raise
    spec = BoundSetSpec(a=a, b=b, dim=dim)
    if cert is None:
        cert = verify_bound_set(spec, G, F, icfg, samples_per_face=spf,
                                seed=seed)
    save_certificate_json(cert, out / "certificate.json")
    return spec, cert


def _require_verified(spec: BoundSetSpec, cert) -> None:
    if not cert.verified:
        raise BoundVerificationError(
            f"bound set (a={spec.a:.6g}, b={spec.b:.6g}) failed verification",
            certificate=cert)


def cmd_verify_bounds(cfg: dict, args) -> None:
    G, F, dim = _build_model(cfg)
    spec, cert = _certify(cfg, G, F, dim, IntegratorConfig(**cfg["integrator"]),
                          args.seed, _out_dir(cfg, args))
    print(f"a = {spec.a:.17g}")
    print(f"b = {spec.b:.17g}")
    print(f"verified = {cert.verified}")
    print(f"min margins: cylinder {cert.min_margin_gamma:.6g}, "
          f"cone {cert.min_margin_delta:.6g}, vertex ok {cert.corner_ok}")
    _require_verified(spec, cert)


def cmd_solve_periodic(cfg: dict, args) -> None:
    G, F, dim = _build_model(cfg)
    icfg = IntegratorConfig(**cfg["integrator"])
    out = _out_dir(cfg, args)
    spec, cert = _certify(cfg, G, F, dim, icfg, args.seed, out)
    _require_verified(spec, cert)
    params0 = ModelParams(G=G, lam=0.0, dim=dim)
    result = continue_in_lambda(params0, F, icfg)
    result.containment = orbit_containment(result.orbit, spec)
    result.orbit.to_csv(out / "orbit.csv", n_samples=1001)
    save_result_json(result, out / "result.json")
    print(f"fixed point: {result.fixed_point.flat().tolist()}")
    print(f"residual = {result.residual:.17g}")
    print(f"contained = {result.containment['contained']}")


def cmd_whitney(cfg: dict, args) -> None:
    if cfg["problem"] != "linear":
        raise ConfigError("whitney-search bisects a scalar start; set problem=linear")
    G, F, _ = _build_model(cfg)
    icfg = IntegratorConfig(**cfg["integrator"])
    out = _out_dir(cfg, args)
    journey = JourneySpec(F=F, t_end=cfg["journey"]["t_end"], G=G)
    result = bisect_survivor(journey, icfg, depth=cfg["journey"]["depth"])
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
    _write_result_json(summary, out)
    print(f"bracket: [{result.lower:.17g}, {result.upper:.17g}]")
    print(f"survivor: {result.survivor}")


def cmd_simulate(cfg: dict, args) -> None:
    G, F, dim = _build_model(cfg)
    icfg = IntegratorConfig(**cfg["integrator"])
    out = _out_dir(cfg, args)
    x = np.asarray(cfg["initial_state"]["x"], dtype=float)
    p = np.asarray(cfg["initial_state"]["p"], dtype=float)
    if (x.shape != (dim,) or p.shape != (dim,)
            or not np.all(np.isfinite([x, p]))):
        raise ConfigError(f"initial_state needs {dim} finite number(s) per field")
    state = PhaseState(x, p)
    params = ModelParams(G=G, lam=1.0, dim=dim)
    traj = evolve(0.0, cfg["duration"], state, params, F, icfg)
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
    _write_result_json(summary, out)
    if ev is None:
        print(f"no fall in [0, {traj.t_end:.17g}]")
    else:
        print(f"fell at t = {ev.time:.17g} ({ev.kind.value})")


def cmd_degree(cfg: dict, args) -> None:
    G, _, dim = _build_model(cfg)
    deg = degree_of_autonomous_field(G, dim)
    _write_result_json({"problem": cfg["problem"], "degree": deg},
                       _out_dir(cfg, args))
    print(f"degree = {deg:+d}")


_COMMANDS = {
    "solve-periodic": cmd_solve_periodic,
    "verify-bounds": cmd_verify_bounds,
    "whitney-search": cmd_whitney,
    "simulate": cmd_simulate,
    "degree": cmd_degree,
}

# the exit code and log prefix of each failure a run may end in; the first
# matching type wins, so a subclass comes before its base.  Any other
# exception is a bug and surfaces as a traceback.
_FAILURES = {
    ConfigError: (1, "config error"),
    ValueError: (1, "invalid configuration"),
    OSError: (1, "cannot write output"),
    BoundVerificationError: (2, "bound verification failed"),
    ContinuationStuckError: (3, "continuation failed"),
    FallError: (3, "continuation failed"),
    BracketError: (4, "survivor search failed"),
    StepBudgetError: (5, "integrator step budget exhausted"),
    SingularityError: (5, "integration failed"),
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
                        help="seed of the planar cone's spot-check draw")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        _COMMANDS[args.command](load_config(args.config), args)
    except tuple(_FAILURES) as exc:
        code, prefix = next(failure for kind, failure in _FAILURES.items()
                            if isinstance(exc, kind))
        log.error("%s: %s", prefix, exc)
        return code
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

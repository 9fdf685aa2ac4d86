"""Period maps, Newton refinement, and continuation in the forcing scale.

A T-periodic solution of the rod equations is a fixed point of the period
map ``P(z) = flow from time 0 to T started at z``.  At forcing scale
``lam = 0`` the upright rest state is such a fixed point; the
continuation driver walks ``lam`` from 0 to 1, carrying the fixed point
along by a predictor-corrector scheme, and returns the periodic orbit of
the fully driven equation together with its monodromy matrix.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

# ``jacobian`` is not called here; bench/spans.py counts calls to
# ``poincare.jacobian``, so the name stays an attribute of this module.
from .dynamics import ModelParams, PhaseState, jacobian, make_field
from .errors import (ContinuationStuckError, FallError, IllConditionedError,
                     NewtonConvergenceError)
from .forcing import PeriodicSignal
from .integrator import (IntegratorConfig, Trajectory, _check_start,
                         _fall_events, evolve, integrate_field)

log = logging.getLogger(__name__)

# Newton runs that ``continue_in_lambda`` may spend before it gives up.  The
# reference continuations (cosine amplitude 2 on the line at T = 1 and 1.5,
# the circular stirring of amplitude 1.5 in the plane) take 5 to 11.  On the
# line at T = 3, where single shooting crawls, 400 runs end at lam = 0.104.
_MAX_ATTEMPTS = 400

__all__ = [
    "ContinuationConfig",
    "PeriodicOrbitResult",
    "poincare_map",
    "poincare_jacobian",
    "newton_correct",
    "continue_in_lambda",
    "result_to_dict",
    "save_result_json",
]


@dataclass(frozen=True)
class ContinuationConfig:
    """Settings for Newton refinement and the walk in ``lam``."""

    lambda_step_init: float = 0.1
    lambda_step_min: float = 1e-4
    newton_tol: float = 1e-10
    newton_max_iters: int = 25

    def __post_init__(self):
        if not (0 < self.lambda_step_min <= self.lambda_step_init <= 1):
            raise ValueError("need 0 < lambda_step_min <= lambda_step_init <= 1")
        if self.newton_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class PeriodicOrbitResult:
    """A refined fixed point of the period map and its certificates."""

    fixed_point: PhaseState
    residual: float
    lambda_path: list
    orbit: Trajectory
    monodromy: np.ndarray
    containment: dict | None = None

    @property
    def floquet_multipliers(self) -> np.ndarray:
        return np.linalg.eigvals(self.monodromy)


def _raise_if_fell(traj: Trajectory) -> None:
    ev = traj.fall_event
    if ev is not None:
        raise FallError(f"rod fell at t={ev.time:.6g} during the period map",
                        time=ev.time, kind=ev.kind)


def poincare_map(z: PhaseState, params: ModelParams, F: PeriodicSignal,
                 cfg: IntegratorConfig | None = None) -> PhaseState:
    """One application of the period map.  Raises ``FallError`` on a fall."""
    cfg = cfg or IntegratorConfig()
    traj = evolve(0.0, F.period, z, params, F, cfg)
    _raise_if_fell(traj)
    return traj.end_state()


def _period_pass(z: PhaseState, params: ModelParams, F: PeriodicSignal,
                 cfg: IntegratorConfig, n_err: int | None):
    """``(P(z), DP(z))`` from one integration over a period.

    The state is integrated together with its flow derivative ``M``
    (``dM/dt = J(t, y) M``, ``M(0) = I``).  With ``n_err = 2 * dim`` step
    control measures the state rows only, so they take the steps of
    ``poincare_map(z)`` and agree with it to rounding, and ``M`` is the
    derivative of that discrete map.  With ``n_err = None`` ``M`` is under
    step control too; only that resolves ``M`` where the state itself
    barely moves, as at a rest point of the unforced rod.  Raises
    ``FallError`` on a fall.
    """
    _check_start(z, params, cfg)
    n = 2 * params.dim
    fun = make_field(params, F, variational=True)
    Y0 = np.concatenate([z.flat(), np.eye(n).ravel()])
    traj = integrate_field(fun, 0.0, F.period, Y0, cfg,
                           _fall_events(params.dim, cfg.fall_threshold),
                           n_err=n_err)
    _raise_if_fell(traj)
    end = traj.states[-1]
    return end[:n], end[n:].reshape(n, n)


def poincare_jacobian(z: PhaseState, params: ModelParams, F: PeriodicSignal,
                      cfg: IntegratorConfig | None = None,
                      mode: str = "finite_difference",
                      fd_step: float = 1e-7) -> np.ndarray:
    """Derivative of the period map at ``z``.

    ``finite_difference`` uses central differences of the map itself;
    ``variational`` integrates the linearized equations alongside the
    orbit.  The two agree to the step/tolerance error and the variational
    matrix at a fixed point is the monodromy matrix of the orbit.
    """
    cfg = cfg or IntegratorConfig()
    if mode == "variational":
        return _period_pass(z, params, F, cfg, n_err=None)[1]
    if mode != "finite_difference":
        raise ValueError(f"unknown jacobian mode: {mode!r}")
    n = 2 * params.dim
    z0 = z.flat()
    J = np.empty((n, n))
    for j in range(n):
        h = fd_step * (1.0 + abs(float(z0[j])))
        zp = z0.copy()
        zm = z0.copy()
        zp[j] += h
        zm[j] -= h
        Pp = poincare_map(PhaseState.from_flat(zp), params, F, cfg).flat()
        Pm = poincare_map(PhaseState.from_flat(zm), params, F, cfg).flat()
        J[:, j] = (Pp - Pm) / (2.0 * h)
    return J


def _newton(z0: PhaseState, params: ModelParams, F: PeriodicSignal,
            cfg: IntegratorConfig, ccfg: ContinuationConfig):
    """Bare Newton iteration on ``P(z) - z``; returns ``(z, residual)``.

    Each iteration is one integration that yields both ``P(z)`` and
    ``DP(z)``.  Raises ``NewtonConvergenceError`` when the iteration budget
    runs out, ``IllConditionedError`` when ``DP - I`` is numerically
    singular (e.g. at a fold), and passes through ``FallError`` from the
    map itself.  Every outcome is logged at debug level.
    """
    z = z0.flat().copy()
    n = z.shape[0]
    eye = np.eye(n)
    residual = cond = math.nan
    for it in range(ccfg.newton_max_iters):
        try:
            Pz, J = _period_pass(PhaseState.from_flat(z), params, F, cfg, n_err=n)
        except FallError:
            _log_attempt(params.lam, "fell", it, residual, cond)
            raise
        res_vec = Pz - z
        residual = float(np.linalg.norm(res_vec))
        A = J - eye
        cond = float(np.linalg.cond(A))
        if residual <= ccfg.newton_tol:
            _log_attempt(params.lam, "converged", it, residual, cond)
            return PhaseState.from_flat(z), residual
        if not np.isfinite(cond) or cond > 1e12:
            _log_attempt(params.lam, "ill-conditioned", it, residual, cond)
            raise IllConditionedError(
                f"period-map Jacobian minus identity has condition {cond:.3e}",
                condition=cond)
        dz = np.linalg.solve(A, -res_vec)
        # keep the iterate strictly inside the fall threshold
        for _ in range(60):
            x_new = z[:n // 2] + dz[:n // 2]
            if float(np.linalg.norm(x_new)) < cfg.fall_threshold:
                break
            dz *= 0.5
        z = z + dz
    _log_attempt(params.lam, "Newton stalled", ccfg.newton_max_iters, residual, cond)
    raise NewtonConvergenceError(
        f"no fixed point after {ccfg.newton_max_iters} iterations "
        f"(residual {residual:.3e})", residual=residual,
        iterations=ccfg.newton_max_iters)


def _log_attempt(lam: float, outcome: str, iterations: int, residual: float,
                 cond: float) -> None:
    """One line per Newton run: the last residual and ``cond(DP - I)`` seen."""
    log.debug("lam=%.6g %s: %d Newton iterations, residual %.3e, "
              "cond(DP - I) %.3e", lam, outcome, iterations, residual, cond)


def _finish(z: PhaseState, residual: float, path: list, params: ModelParams,
            F: PeriodicSignal, cfg: IntegratorConfig) -> PeriodicOrbitResult:
    """Attach the orbit and variational monodromy to a converged point."""
    orbit = evolve(0.0, F.period, z, params, F, cfg)
    if orbit.fall_event is not None:
        raise FallError("refined fixed point fell during its own period",
                        time=orbit.fall_event.time, kind=orbit.fall_event.kind)
    Pz = orbit.end_state().flat()
    res = float(np.linalg.norm(Pz - z.flat()))
    monodromy = poincare_jacobian(z, params, F, cfg, mode="variational")
    return PeriodicOrbitResult(fixed_point=z, residual=res,
                               lambda_path=path, orbit=orbit,
                               monodromy=monodromy)


def newton_correct(z0: PhaseState, params: ModelParams, F: PeriodicSignal,
                   cfg: IntegratorConfig | None = None,
                   ccfg: ContinuationConfig | None = None) -> PeriodicOrbitResult:
    """Refine ``z0`` to a fixed point of the period map by Newton iteration.

    The converged point is re-integrated over one period to report an
    honest residual, and the variational monodromy is attached.  Raises
    ``NewtonConvergenceError`` / ``IllConditionedError`` / ``FallError``
    as in the bare iteration.
    """
    cfg = cfg or IntegratorConfig()
    ccfg = ccfg or ContinuationConfig()
    z, residual = _newton(z0, params, F, cfg, ccfg)
    path = [(params.lam, z.flat().copy(), residual)]
    return _finish(z, residual, path, params, F, cfg)


def continue_in_lambda(params_at_zero: ModelParams, F: PeriodicSignal,
                       cfg: IntegratorConfig | None = None,
                       ccfg: ContinuationConfig | None = None) -> PeriodicOrbitResult:
    """Carry the upright fixed point from ``lam = 0`` to ``lam = 1``.

    Pure predictor-corrector walk: the converged fixed point at the current
    ``lam`` seeds Newton at the next one; failures (falls, stalled Newton,
    near-singular corrections) halve the increment, successes grow it by
    half.  Raises ``ContinuationStuckError`` once the increment falls below
    ``ccfg.lambda_step_min`` or ``_MAX_ATTEMPTS`` Newton runs have not
    reached ``lam = 1``.
    """
    cfg = cfg or IntegratorConfig()
    ccfg = ccfg or ContinuationConfig()
    if params_at_zero.lam != 0.0:
        params_at_zero = params_at_zero.with_lam(0.0)

    d = params_at_zero.dim
    z = PhaseState(np.zeros(d), np.zeros(d))
    lam = 0.0
    path = [(0.0, z.flat().copy(), 0.0)]
    step = 1.0 if F.sup_norm == 0.0 else ccfg.lambda_step_init
    last_result = None
    attempts = 0

    while lam < 1.0:
        if attempts >= _MAX_ATTEMPTS:
            raise ContinuationStuckError(
                f"continuation reached only lam={lam:.6g} in {attempts} attempts "
                f"(last step {step:.3g})", last_lambda=lam, last_result=last_result)
        attempts += 1
        lam_try = min(lam + step, 1.0)
        params_try = params_at_zero.with_lam(lam_try)
        try:
            z_new, residual = _newton(z, params_try, F, cfg, ccfg)
        except (FallError, NewtonConvergenceError, IllConditionedError):
            step *= 0.5
            if step < ccfg.lambda_step_min:
                raise ContinuationStuckError(
                    f"continuation stalled at lam={lam:.6g} with step below "
                    f"{ccfg.lambda_step_min}", last_lambda=lam, last_result=last_result)
            continue
        lam = lam_try
        z = z_new
        path.append((lam, z.flat().copy(), residual))
        last_result = (lam, z)
        step = min(step * 1.5, max(1.0 - lam, step))

    return _finish(z, path[-1][2], path, params_at_zero.with_lam(1.0), F, cfg)


def result_to_dict(result: PeriodicOrbitResult) -> dict:
    mult = result.floquet_multipliers
    out = {
        "fixed_point": result.fixed_point.flat().tolist(),
        "residual": result.residual,
        "lambda_path": [
            {"lam": float(l), "state": s.tolist(), "residual": float(r)}
            for l, s, r in result.lambda_path
        ],
        "monodromy": result.monodromy.tolist(),
        "floquet_multipliers": [
            {"re": float(m.real), "im": float(m.imag)} for m in mult
        ],
    }
    if result.containment is not None:
        out["containment"] = result.containment
    return out


def save_result_json(result: PeriodicOrbitResult, path) -> None:
    with open(path, "w") as fh:
        json.dump(result_to_dict(result), fh, indent=2)
        fh.write("\n")

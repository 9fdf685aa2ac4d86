"""Period maps, Newton refinement, and continuation in the forcing scale.

A T-periodic solution of the rod equations is a fixed point of the period
map ``P(z) = flow from time 0 to T started at z``.  At ``lam = 0`` the
upright rest state is a fixed point, and the driver carries it along the
branch to ``lam = 1`` by a predictor-corrector scheme (Allgower & Georg,
*Introduction to Numerical Continuation Methods*, §2).  The branch's
tangent at ``lam = 0`` is the periodic solution of the equation linearized
at rest, Polekhin's orbit to first order in the forcing, so the first
prediction is an Euler step along it, the whole way to ``lam = 1``; later
ones are the secant through the last two fixed points.  A failed step is
halved.  It returns the orbit of the fully driven equation and its
monodromy matrix.
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
from .integrator import (FALL_THRESHOLD, IntegratorConfig, Trajectory,
                         _check_start, evolve, integrate_field)

log = logging.getLogger(__name__)

# continuation stalls once its last _STALL_RUNS Newton runs have advanced lam
# by less than _STALL_ADVANCE in all, so it spends at most 500 runs (lam at
# the start of run 50 k is at least 0.1 k).  Every atlas cell that solves
# advances at least 0.157 in any 50 runs; the T = 5 crawls stop in 50-89.
_STALL_RUNS = 50
_STALL_ADVANCE = 0.1
# the lam increment below which continuation stalls
_LAMBDA_STEP_MIN = 1e-4
# Newton's tolerance on |P(z) - z| and its iteration budget
_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITERS = 25
# relative step of the central differences in poincare_jacobian
_FD_STEP = 1e-7

__all__ = [
    "PeriodicOrbitResult",
    "poincare_map",
    "poincare_jacobian",
    "continue_in_lambda",
    "result_to_dict",
    "save_result_json",
]


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

    @property
    def liouville_defect(self) -> float:
        """``|det M - 1|``.  The field's divergence is ``d/dt ln(1 - |x|^2)``,
        so ``det M(t) = (1 - |x(t)|^2) / (1 - |x(0)|^2)`` on every arc, and 1
        over a closed orbit."""
        return abs(float(np.linalg.det(self.monodromy)) - 1.0)


def _raise_if_fell(traj: Trajectory) -> None:
    ev = traj.fall_event
    if ev is not None:
        raise FallError(f"rod fell at t={ev.time:.6g} during the period map",
                        time=ev.time, kind=ev.kind)


def poincare_map(z: PhaseState, params: ModelParams, F: PeriodicSignal,
                 cfg: IntegratorConfig | None = None) -> PhaseState:
    """One application of the period map.  Raises ``FallError`` on a fall."""
    traj = evolve(0.0, F.period, z, params, F, cfg)
    _raise_if_fell(traj)
    return traj.end_state()


def _period_pass(z: PhaseState, params: ModelParams, F: PeriodicSignal,
                 cfg: IntegratorConfig, n_err: int | None):
    """``(P(z), DP(z), run)`` from one integration ``run`` over a period.

    The state is integrated together with its flow derivative ``M``
    (``dM/dt = J(t, y) M``, ``M(0) = I``).  With ``n_err = 2 * dim`` step
    control measures the state rows only: ``run.leading(2 * dim)`` is
    ``poincare_map(z)``'s run bit for bit, and ``M`` is the derivative of
    that discrete map.  With ``n_err = None`` ``M`` is under step control
    too; only that resolves ``M`` where the state itself barely moves, as
    at a rest point of the unforced rod.  Raises ``FallError`` on a fall.
    """
    _check_start(z, params)
    n = 2 * params.dim
    fun = make_field(params, F, variational=True)
    Y0 = np.concatenate([z.flat(), np.eye(n).ravel()])
    traj = integrate_field(fun, 0.0, F.period, Y0, cfg, params.dim, n_err,
                           F.breaks_between(0.0, F.period))
    _raise_if_fell(traj)
    end = np.array(traj.y_end)
    return end[:n], end[n:].reshape(n, n), traj


def poincare_jacobian(z: PhaseState, params: ModelParams, F: PeriodicSignal,
                      cfg: IntegratorConfig | None = None,
                      mode: str = "finite_difference") -> np.ndarray:
    """Derivative of the period map at ``z``.

    ``finite_difference`` uses central differences of the map itself, with
    steps ``_FD_STEP * (1 + |z_j|)``; ``variational`` integrates the
    linearized equations alongside the orbit.  The two agree to the
    step/tolerance error and the variational matrix at a fixed point is the
    monodromy matrix of the orbit.
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
        h = _FD_STEP * (1.0 + abs(float(z0[j])))
        zp = z0.copy()
        zm = z0.copy()
        zp[j] += h
        zm[j] -= h
        Pp = poincare_map(PhaseState.from_flat(zp), params, F, cfg).flat()
        Pm = poincare_map(PhaseState.from_flat(zm), params, F, cfg).flat()
        J[:, j] = (Pp - Pm) / (2.0 * h)
    return J


def _linear_response(params: ModelParams, F: PeriodicSignal) -> PhaseState:
    """``(x(0), p(0))`` of the T-periodic solution of ``x'' = G x - lam F(t)``,
    mode by mode ``lam F_k / (G + w_k^2)``: the real DFT of 256 samples of
    ``F`` folded into one weight vector per output, exact to rounding for a
    trigonometric polynomial of fewer than 128 modes.  It may not be finite
    (``G = 0``, overflow); the caller skips non-finite starts."""
    n = 256  # a power of two
    k = np.arange(n // 2 + 1)
    w = 2.0 * math.pi / F.period * k
    with np.errstate(over="ignore", invalid="ignore"):
        # the mean and the Nyquist mode count once in the real DFT, the others twice
        gain = np.where(k % (n // 2) == 0, 1.0, 2.0) * params.lam / n / (params.G + w * w)
        # e^(2 pi i jk / n) read from its n values: jk mod n is jk & (n - 1)
        turn = np.exp(2j * math.pi / n * np.arange(n))[np.outer(np.arange(n), k) & (n - 1)]
        samples = F.eval(F.period / n * np.arange(n))
        return PhaseState(turn.real @ gain @ samples, turn.imag @ (gain * w) @ samples)


def _newton(z0: PhaseState, params: ModelParams, F: PeriodicSignal,
            cfg: IntegratorConfig, origin: str):
    """Bare Newton iteration on ``P(z) - z``; returns ``(z, residual, run)``
    with ``run`` the ``_period_pass`` from ``z`` that measured ``residual``.

    Each iteration is one integration that yields both ``P(z)`` and
    ``DP(z)``.  Raises ``NewtonConvergenceError`` when the iteration budget
    runs out, ``IllConditionedError`` when ``DP - I`` is numerically
    singular (e.g. at a fold), and passes through ``FallError`` from the
    map itself.  Every outcome is logged at debug level, with ``origin``.
    """
    z = z0.flat().copy()
    n = z.shape[0]
    eye = np.eye(n)
    residual = cond = start = math.nan
    for it in range(_NEWTON_MAX_ITERS):
        try:
            Pz, J, run = _period_pass(PhaseState.from_flat(z), params, F, cfg,
                                      n_err=n)
        except FallError:
            _log_attempt(params.lam, "fell", it, residual, cond, start, origin)
            raise
        res_vec = Pz - z
        residual = float(np.linalg.norm(res_vec))
        if it == 0:
            start = residual
        A = J - eye
        cond = float(np.linalg.cond(A))
        if residual <= _NEWTON_TOL:
            _log_attempt(params.lam, "converged", it, residual, cond, start, origin)
            return PhaseState.from_flat(z), residual, run
        if not np.isfinite(cond) or cond > 1e12:
            _log_attempt(params.lam, "ill-conditioned", it, residual, cond,
                         start, origin)
            raise IllConditionedError(
                f"period-map Jacobian minus identity has condition {cond:.3e}",
                condition=cond)
        dz = np.linalg.solve(A, -res_vec)
        # keep the iterate strictly inside the fall threshold
        for _ in range(60):
            x_new = z[:n // 2] + dz[:n // 2]
            if float(np.linalg.norm(x_new)) < FALL_THRESHOLD:
                break
            dz *= 0.5
        z = z + dz
    _log_attempt(params.lam, "Newton stalled", _NEWTON_MAX_ITERS, residual,
                 cond, start, origin)
    raise NewtonConvergenceError(
        f"no fixed point after {_NEWTON_MAX_ITERS} iterations "
        f"(residual {residual:.3e})", residual=residual,
        iterations=_NEWTON_MAX_ITERS)


def _log_attempt(lam: float, outcome: str, iterations: int, residual: float,
                 cond: float, start: float, origin: str) -> None:
    """One line per Newton run: the last residual and ``cond(DP - I)`` seen,
    and the residual ``|P(z0) - z0|`` at the start ``z0``, from ``origin``."""
    log.debug("lam=%.6g %s: %d Newton iterations, residual %.3e, "
              "cond(DP - I) %.3e, start residual %.3e from %s", lam, outcome,
              iterations, residual, cond, start, origin)


def _finish(z: PhaseState, residual: float, run: Trajectory, path: list,
            params: ModelParams, F: PeriodicSignal,
            cfg: IntegratorConfig) -> PeriodicOrbitResult:
    """Attach the orbit and monodromy to ``z``, where Newton's pass ``run``
    met ``residual``.  The orbit is ``run``'s state part; ``M`` takes a pass
    under full step control, which alone resolves it near a rest point."""
    monodromy = poincare_jacobian(z, params, F, cfg, mode="variational")
    return PeriodicOrbitResult(fixed_point=z, residual=residual,
                               lambda_path=path, orbit=run.leading(2 * z.dim),
                               monodromy=monodromy)


def _predict(path: list, lam_try: float, tangent: np.ndarray):
    """Newton's start at ``lam_try`` and where it came from: ``lam_try``
    times the ``tangent`` while ``path`` holds only ``lam = 0``, else the
    line through its last two points; the last point where that start is
    not finite or leans the rod past ``FALL_THRESHOLD``."""
    last = path[-1][1]
    if len(path) < 2:
        guess, origin = lam_try * tangent, "the linear response"
    else:
        (lam0, z0, _), (lam1, _, _) = path[-2:]
        guess = last + (lam_try - lam1) / (lam1 - lam0) * (last - z0)
        origin = "the secant predictor"
    if not (np.isfinite(guess).all()
            and math.hypot(*guess[:guess.shape[0] // 2]) < FALL_THRESHOLD):
        return PhaseState.from_flat(last), "the last fixed point"
    return PhaseState.from_flat(guess), origin


def continue_in_lambda(params_at_zero: ModelParams, F: PeriodicSignal,
                       cfg: IntegratorConfig | None = None) -> PeriodicOrbitResult:
    """The periodic orbit at ``lam = 1``, continued from the upright fixed
    point at ``lam = 0``.

    Predictor, Newton corrector (``_predict``): from ``lam = 0`` alone the
    start at ``lam_try`` is ``lam_try`` times the linear response at
    ``lam = 1`` (``_linear_response``), the branch's tangent; after that
    it is the line through the last two fixed points, extrapolated to
    ``lam_try``.  The increment starts at 1, so the first run is Newton at
    full forcing from the linear response, and a solve there gives
    ``lambda_path`` ``[(0, 0, 0), (1, z, residual)]``.  Failures (falls,
    stalled Newton, near-singular corrections) halve the increment,
    successes grow it by half.  Raises ``ContinuationStuckError`` once the
    increment falls below ``_LAMBDA_STEP_MIN``, or the last ``_STALL_RUNS``
    Newton runs have advanced ``lam`` by less than ``_STALL_ADVANCE``: after
    at most ``_STALL_RUNS / _STALL_ADVANCE`` runs.
    """
    cfg = cfg or IntegratorConfig()
    params_one = params_at_zero.with_lam(1.0)
    tangent = _linear_response(params_one, F).flat()
    path = [(0.0, np.zeros(2 * params_at_zero.dim), 0.0)]
    lam, step = 0.0, 1.0
    last_result = None
    lam_before = []  # lam at the start of each Newton run
    while lam < 1.0:
        if len(lam_before) >= _STALL_RUNS and lam - lam_before[-_STALL_RUNS] < _STALL_ADVANCE:
            raise ContinuationStuckError(
                f"continuation stalled at lam={lam:.6g}: the last {_STALL_RUNS} Newton "
                f"runs advanced lam by {lam - lam_before[-_STALL_RUNS]:.3g}, less than "
                f"{_STALL_ADVANCE}", last_lambda=lam, last_result=last_result)
        lam_before.append(lam)
        lam_try = min(lam + step, 1.0)
        start, origin = _predict(path, lam_try, tangent)
        try:
            z, residual, run = _newton(start, params_at_zero.with_lam(lam_try),
                                       F, cfg, origin)
        except (FallError, NewtonConvergenceError, IllConditionedError):
            step *= 0.5
            if step < _LAMBDA_STEP_MIN:
                raise ContinuationStuckError(
                    f"continuation stalled at lam={lam:.6g} with step below "
                    f"{_LAMBDA_STEP_MIN}", last_lambda=lam, last_result=last_result)
            continue
        lam = lam_try
        path.append((lam, z.flat().copy(), residual))
        last_result = (lam, z)
        step = min(step * 1.5, max(1.0 - lam, step))

    return _finish(z, residual, run, path, params_one, F, cfg)


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
        "liouville_defect": result.liouville_defect,
    }
    if result.containment is not None:
        out["containment"] = result.containment
    return out


def save_result_json(result: PeriodicOrbitResult, path) -> None:
    with open(path, "w") as fh:
        json.dump(result_to_dict(result), fh, indent=2)
        fh.write("\n")

"""Spans around the calls into each layer of ``upright``, for the traced run.

The benchmark wraps the package's functions from outside: every name a
module calls through its own namespace (``poincare.poincare_map``,
``bounds.integrate_field``, ...) is replaced by a wrapper that opens a span,
so nothing under ``src/`` changes.  Spans live in memory; coarse ones are
kept with their parent for the trace file, fine ones (one per field or
forcing evaluation) only feed the per-name totals.  A span's self time is
its duration minus the time covered by its child spans.
"""
from __future__ import annotations

import itertools
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """In-memory span recorder with per-name call counts and times."""

    def __init__(self):
        self.stack: list[list] = []  # open frames: [start, child_s, name, id]
        self.spans: list[tuple] = []  # kept spans: (id, parent, name, start, end)
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._ids = itertools.count()
        self._restore: list[tuple] = []

    def reset(self):
        """Forget everything recorded so far; the installed wrappers stay."""
        self.spans.clear()
        self.calls.clear()
        self.total_s.clear()
        self.self_s.clear()
        self.counts.clear()

    def inside(self, name: str) -> bool:
        return any(frame[2] == name for frame in self.stack)

    def wrap(self, name, fn, keep=True, hook=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``hook(result, error, duration, args, kwargs)`` runs after every
        call, with ``result`` None when the call raised ``error``.
        """
        stack = self.stack
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [clock(), 0.0, name, next(ids)]
            stack.append(frame)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                if stack:
                    stack[-1][1] += dur
                calls[name] += 1
                total_s[name] += dur
                self_s[name] += dur - frame[1]
                if keep:
                    parent = stack[-1][3] if stack else None
                    spans.append((frame[3], parent, name, frame[0], end))
                if hook is not None:
                    hook(result, error, dur, args, kwargs)

        return traced

    def patch(self, owner, attr, name, keep=True, hook=None):
        """Replace ``owner.attr`` by its traced version."""
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), keep, hook))

    def replace(self, owner, attr, value):
        if not hasattr(owner, attr):
            raise AttributeError(f"{owner!r} has no attribute {attr!r} to trace")
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))


def instrument(tracer: Tracer) -> Tracer:
    """Wrap the layer boundaries of the package; undo with ``uninstall``."""
    from upright import (bounds, cli, dynamics, errors, forcing, integrator,
                         poincare, whitney)

    t = tracer
    counts = t.counts

    # forcing: the scalar path serves the integrator, the array path bounds
    def array_points(result, error, dur, args, kwargs):
        counts["forcing.array_points"] += np.size(args[1])

    t.patch(forcing.PeriodicSignal, "eval_scalar", "forcing.scalar", keep=False)
    t.patch(forcing.PeriodicSignal, "eval", "forcing.array", keep=False,
            hook=array_points)
    t.patch(forcing.PeriodicSignal, "eval_derivative", "forcing.array",
            keep=False, hook=array_points)

    # dynamics: every compiled field is wrapped where it is built
    def traced_make_field(make_field):
        def make(*args, **kwargs):
            return t.wrap("dynamics.field", make_field(*args, **kwargs), keep=False)
        return make

    for mod in (dynamics, integrator, poincare, bounds):
        t.replace(mod, "make_field", traced_make_field(mod.make_field))
    t.patch(poincare, "jacobian", "dynamics.jacobian", keep=False)

    # integrator
    def integration(result, error, dur, args, kwargs):
        if result is None:
            return
        counts["integrator.steps_accepted"] += result.n_accepted
        counts["integrator.steps_rejected"] += result.n_rejected
        if result.fall_event is not None:
            counts["integrator.fall_events"] += 1
        if t.inside("bounds.verify_bound_set"):
            counts["bounds.integrations"] += 1
            counts["bounds.integration_s"] += dur

    def grid_lane(result, error, dur, args, kwargs):
        if t.inside("whitney.planar_survivor_grid"):
            counts["whitney.grid_lanes"] += 1

    for mod in (integrator, poincare, bounds):
        t.patch(mod, "integrate_field", "integrator.integrate_field",
                hook=integration)
    for mod in (poincare, cli):
        t.patch(mod, "evolve", "integrator.evolve")
    t.patch(whitney, "evolve", "integrator.evolve", hook=grid_lane)

    # poincare
    def attempt(result, error, dur, args, kwargs):
        if not t.inside("poincare.continue_in_lambda"):
            return
        counts["poincare.lambda_attempts"] += 1
        if error is None:
            counts["poincare.lambda_accepted"] += 1
        elif isinstance(error, errors.FallError):
            counts["poincare.attempt_falls"] += 1
        elif isinstance(error, (errors.NewtonConvergenceError,
                                errors.IllConditionedError)):
            counts["poincare.attempt_stalls"] += 1

    def period_jacobian(result, error, dur, args, kwargs):
        mode = kwargs.get("mode", args[4] if len(args) > 4 else "finite_difference")
        if mode == "variational":
            counts["poincare.variational_s"] += dur
        else:
            counts["poincare.fd_jacobians"] += 1
            counts["poincare.fd_jacobian_s"] += dur

    t.patch(cli, "continue_in_lambda", "poincare.continue_in_lambda")
    t.patch(poincare, "_newton", "poincare.newton", hook=attempt)
    t.patch(poincare, "poincare_map", "poincare.poincare_map")
    t.patch(poincare, "poincare_jacobian", "poincare.poincare_jacobian",
            hook=period_jacobian)
    t.patch(poincare, "_finish", "poincare.finish")

    # bounds
    def verification(result, error, dur, args, kwargs):
        if result is not None:
            counts["bounds.boundary_samples"] += result.boundary_samples

    def cone_points(result, error, dur, args, kwargs):
        counts["bounds.cone_gate_points"] += np.size(args[0])

    for mod in (cli, bounds):
        t.patch(mod, "verify_bound_set", "bounds.verify_bound_set",
                hook=verification)
    t.patch(cli, "compute_b_planar", "bounds.compute_b_planar")
    t.patch(cli, "orbit_containment", "bounds.orbit_containment")
    t.patch(bounds, "_cone_quantities", "bounds.cone_quantities", keep=False,
            hook=cone_points)
    t.patch(bounds, "_cylinder_quantities", "bounds.cylinder_quantities",
            keep=False)
    t.patch(bounds, "exit_cone_check", "bounds.exit_cone_check", keep=False)
    t.patch(bounds, "_spot_check", "bounds.spot_check")

    # whitney
    def bisection(result, error, dur, args, kwargs):
        if result is not None:
            counts["whitney.bisection_steps"] += len(result.transcript)

    t.patch(cli, "bisect_survivor", "whitney.bisect_survivor", hook=bisection)
    t.patch(whitney, "_classify_with_time", "whitney.classify")
    t.patch(whitney, "planar_survivor_grid", "whitney.planar_survivor_grid")

    # cli: the subcommand itself and the artifacts it writes
    t.patch(cli, "main", "cli.main")
    for attr in ("save_certificate_json", "save_result_json",
                 "transcript_to_csv"):
        t.patch(cli, attr, "cli.artifact")
    t.patch(integrator.Trajectory, "to_csv", "cli.artifact")
    return t


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict:
    """Per-layer metrics of everything recorded since the last reset."""
    c = t.counts
    acc = c["integrator.steps_accepted"]
    rej = c["integrator.steps_rejected"]
    field_evals = t.calls["dynamics.field"]
    verify_s = t.total_s["bounds.verify_bound_set"]
    return {
        "forcing.scalar_evals": t.calls["forcing.scalar"],
        "forcing.scalar_eval_s": t.total_s["forcing.scalar"],
        "forcing.array_points": c["forcing.array_points"],
        "forcing.array_eval_s": t.total_s["forcing.array"],
        "dynamics.field_evals": field_evals,
        "dynamics.field_s": t.self_s["dynamics.field"],
        "dynamics.jacobian_evals": t.calls["dynamics.jacobian"],
        "integrator.integrations": t.calls["integrator.integrate_field"],
        "integrator.steps_accepted": acc,
        "integrator.steps_rejected": rej,
        "integrator.accept_ratio": _ratio(acc, acc + rej),
        "integrator.evals_per_step": _ratio(field_evals, acc),
        "integrator.fall_events": c["integrator.fall_events"],
        "integrator.self_s": t.layer_self_s("integrator"),
        "poincare.period_maps": t.calls["poincare.poincare_map"],
        "poincare.lambda_attempts": c["poincare.lambda_attempts"],
        "poincare.lambda_accept_ratio": _ratio(c["poincare.lambda_accepted"],
                                               c["poincare.lambda_attempts"]),
        "poincare.attempt_falls": c["poincare.attempt_falls"],
        "poincare.attempt_stalls": c["poincare.attempt_stalls"],
        "poincare.fd_jacobians": c["poincare.fd_jacobians"],
        "poincare.fd_jacobian_s": c["poincare.fd_jacobian_s"],
        "poincare.variational_s": c["poincare.variational_s"],
        "poincare.self_s": t.layer_self_s("poincare"),
        "bounds.verifications": t.calls["bounds.verify_bound_set"],
        "bounds.boundary_samples": c["bounds.boundary_samples"],
        "bounds.samples_per_s": _ratio(c["bounds.boundary_samples"], verify_s),
        "bounds.cone_gate_points": c["bounds.cone_gate_points"],
        "bounds.integrations": c["bounds.integrations"],
        "bounds.integration_s": c["bounds.integration_s"],
        "bounds.self_s": t.layer_self_s("bounds"),
        "whitney.classifications": t.calls["whitney.classify"],
        "whitney.bisection_steps": c["whitney.bisection_steps"],
        "whitney.grid_lanes": c["whitney.grid_lanes"],
        "whitney.self_s": t.layer_self_s("whitney"),
        "cli.artifact_s": t.total_s["cli.artifact"],
        "cli.artifact_bytes": c["cli.artifact_bytes"],
    }

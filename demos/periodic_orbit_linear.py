#!/usr/bin/env python3
"""Find a periodic non-falling motion of the rod on a shaken line.

Carriage acceleration F(t) = 2 cos(2 pi t), gravity ratio G = 9.81.  The
run mirrors the full pipeline: pick trap constants (a, b), certify that
the cylinder-cone trap repels on its whole boundary, then follow the
period-map fixed point from the unforced equilibrium (lambda = 0) to the
fully forced problem (lambda = 1).  The result is a T-periodic solution
that never leans past |x| = a.
"""
from pathlib import Path

import numpy as np

from upright.bounds import (BoundSetSpec, compute_a, compute_b_linear,
                            orbit_containment, verify_bound_set)
from upright.dynamics import ModelParams
from upright.forcing import make_fourier_forcing
from upright.integrator import evolve
from upright.poincare import continue_in_lambda

OUT = Path(__file__).resolve().parent / "output"
OUT.mkdir(exist_ok=True)

G = 9.81
F = make_fourier_forcing(1.0, 1, [2.0], [])

a = compute_a(G, 2.0)
b = compute_b_linear(a, 2.0)
print(f"trap constants: a = {a:.6f}, b = {b:.6f}")

cert = verify_bound_set(BoundSetSpec(a, b, 1), G, F, samples_per_face=8)
print(f"boundary verified: {cert.verified} "
      f"(cylinder margin {cert.min_margin_gamma:.3f}, "
      f"cone margin {cert.min_margin_delta:.3f}, "
      f"{cert.boundary_samples} samples)")

result = continue_in_lambda(ModelParams(G=G, lam=0.0, dim=1), F)
z = result.fixed_point
print(f"fixed point of the period map: x = {z.x[0]:+.9f}, p = {z.p[0]:+.2e}")
print(f"|P(z) - z| = {result.residual:.3e}")
print("continuation path:")
for lam, state, res in result.lambda_path:
    print(f"  lambda = {lam:4.2f}  x(0) = {state[0]:+.6f}  residual {res:.1e}")

# the orbit is unstable (one Floquet multiplier far outside the unit
# circle), which is why no amount of releasing-and-hoping finds it
mults = np.sort(np.abs(result.floquet_multipliers))
print(f"|Floquet multipliers| = {mults[0]:.4f}, {mults[1]:.4f}")

traj = evolve(0.0, 3.0, z, ModelParams(G=G, lam=1.0, dim=1), F)
report = orbit_containment(traj, BoundSetSpec(a, b, 1))
print(f"over three periods: max |x| = {report['max_x_norm']:.4f} "
      f"(trap radius {a:.4f}), contained = {report['contained']}")

result.orbit.to_csv(OUT / "orbit_linear.csv", n_samples=501)
print(f"wrote {OUT / 'orbit_linear.csv'}")

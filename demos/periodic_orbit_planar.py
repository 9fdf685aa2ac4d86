#!/usr/bin/env python3
"""Periodic motion for a carriage stirred along a circle in the plane.

F(t) = 1.5 (cos 2 pi t, sin 2 pi t) pushes the rod around; the periodic
response leans toward the instantaneous push and circles with it.  The
problem is equivariant under rotations: stirring a quarter turn later
yields the quarter-turned orbit, which is confirmed below and is a strong
whole-pipeline consistency check (forcing, dynamics, continuation).
"""
from pathlib import Path

import numpy as np

from upright.bounds import (BoundSetSpec, compute_a, compute_b_planar,
                            orbit_containment)
from upright.dynamics import ModelParams
from upright.forcing import make_fourier_forcing
from upright.integrator import evolve
from upright.poincare import continue_in_lambda

OUT = Path(__file__).resolve().parent / "output"
OUT.mkdir(exist_ok=True)

G = 9.81
F = make_fourier_forcing(1.0, 2, [(1.5, 0.0)], [(0.0, 1.5)])

a = compute_a(G, 1.5)
b, cert = compute_b_planar(a, F, G, samples_per_face=8)
print(f"trap constants: a = {a:.6f}, b = {b:.6f} "
      f"(verified = {cert.verified})")

result = continue_in_lambda(ModelParams(G=G, lam=0.0, dim=2), F)
z = result.fixed_point.flat()
print(f"fixed point: x = ({z[0]:+.6f}, {z[1]:+.6f}), "
      f"p = ({z[2]:+.6f}, {z[3]:+.6f})")
print(f"residual = {result.residual:.3e}")

traj = evolve(0.0, 3.0, result.fixed_point,
              ModelParams(G=G, lam=1.0, dim=2), F)
report = orbit_containment(traj, BoundSetSpec(a, b, 2))
print(f"max |x| over three periods = {report['max_x_norm']:.4f} "
      f"(trap radius {a:.4f})")

# rotate the stirring by 90 degrees and solve again
Q = np.array([[0.0, -1.0], [1.0, 0.0]])
FQ = make_fourier_forcing(1.0, 2, [Q @ np.array([1.5, 0.0])],
                          [Q @ np.array([0.0, 1.5])])
result_q = continue_in_lambda(ModelParams(G=G, lam=0.0, dim=2), FQ)
R = np.zeros((4, 4))
R[:2, :2] = Q
R[2:, 2:] = Q
dev = np.linalg.norm(result_q.fixed_point.flat() - R @ z)
print(f"quarter-turn equivariance: |z_rotated - R z| = {dev:.2e}")

result.orbit.to_csv(OUT / "orbit_planar.csv", n_samples=501)
print(f"wrote {OUT / 'orbit_planar.csv'}")

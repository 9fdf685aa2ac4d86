#!/usr/bin/env python3
"""What the boundary certificate actually checks, and what failure looks like.

The trap is the intersection of a cylinder |x| <= a with a cone
b|x| + |p| <= b.  A trajectory touching the boundary must not be able to
linger: at every boundary point either the flow crosses transversally, or
(at tangencies) the gauge function curves strictly upward along the flow,
so the touching trajectory leaves immediately on both sides.  The
verifier reads the forcing only through sup|F| (and, in the plane, sup|F'|):
on the line the forcing enters both faces only through lam x.F/|x|, at most
sup|F| at every time and forcing scale lam in [0, 1], so the cylinder's
least tangency curvature is exact, the cone's margin c(r) is enclosed on a
grid of radii, and the vertex exit is the one condition b^2 > sup|F|.  Each
face also reports concrete witness points, one per grid time.  No
integration runs: the line's certificate is the same for every seed.
"""
import json
from pathlib import Path

from upright.bounds import (BoundSetSpec, compute_a, compute_b_linear,
                            save_certificate_json, verify_bound_set)
from upright.forcing import make_fourier_forcing

OUT = Path(__file__).resolve().parent / "output"
OUT.mkdir(exist_ok=True)

G = 9.81
F = make_fourier_forcing(1.0, 1, [2.0], [])
a = compute_a(G, 2.0)
b = compute_b_linear(a, 2.0)

cert = verify_bound_set(BoundSetSpec(a, b, 1), G, F, samples_per_face=16)
print(f"a = {a:.6f}, b = {b:.6f}")
print(f"verified = {cert.verified}")
print(f"boundary samples: {cert.boundary_samples}")
print(f"cylinder tangency margin: {cert.min_margin_gamma:.4f} "
      f"({cert.gamma_gate_count} witness points)")
print(f"cone margin:              {cert.min_margin_delta:.4f} "
      f"({cert.delta_gate_count} witness points)")
print(f"vertex exit condition (b^2 > |F|): {cert.corner_ok}")
save_certificate_json(cert, OUT / "certificate_pass.json")

# now shrink the cone until it stops working: with b^2 < |F| the carriage
# can push the rod out through the vertex, and the closed form refutes it
bad = verify_bound_set(BoundSetSpec(a, 1.0, 1), G, F, samples_per_face=16)
print(f"\nwith b = 1: verified = {bad.verified}, "
      f"vertex ok = {bad.corner_ok}, "
      f"worst cone margin = {bad.min_margin_delta:.4f}")
print("closed-form refutation:", json.dumps(bad.failures[0], indent=2))
save_certificate_json(bad, OUT / "certificate_fail.json")
print(f"wrote {OUT / 'certificate_pass.json'} and certificate_fail.json")

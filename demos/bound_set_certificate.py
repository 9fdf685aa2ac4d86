#!/usr/bin/env python3
"""What the boundary certificate actually checks, and what failure looks like.

The trap is the intersection of a cylinder |x| <= a with a cone
b|x| + |p| <= b.  A trajectory touching the boundary must not be able to
linger: at every boundary point either the flow crosses transversally, or
(at tangencies) the gauge function curves strictly upward along the flow,
so the touching trajectory leaves immediately on both sides.  The
verifier samples both faces, locates the tangency sets exactly, evaluates
the curvature there, and confirms a random subset of predictions by short
two-sided integrations.  On the line both faces' margins are affine in the
forcing scale, so each sample is checked at its worst end, scale 0 or 1,
which covers every scale in between: the certificate's "lambda" entry says
"interval" for both.
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
a = compute_a(G, 2.0, margin=0.5)
b = compute_b_linear(a, 2.0, margin=0.5)

cert = verify_bound_set(BoundSetSpec(a, b, 1), G, F, samples_per_face=16)
print(f"a = {a:.6f}, b = {b:.6f}")
print(f"verified = {cert.verified}")
print(f"boundary samples: {cert.boundary_samples}")
print(f"cylinder tangency margin: {cert.min_margin_gamma:.4f} "
      f"over {cert.gamma_gate_count} gate points")
print(f"cone margin:              {cert.min_margin_delta:.4f} "
      f"over {cert.delta_gate_count} branch samples")
print(f"vertex exit condition (b^2 > |F|): {cert.corner_ok}")
print(f"integration spot checks: {cert.spot_checks['passed']}"
      f"/{cert.spot_checks['attempted']}")
save_certificate_json(cert, OUT / "certificate_pass.json")

# now shrink the cone until it stops working: with b^2 < |F| the carriage
# can push the rod out through the vertex, and the samples catch it
bad = verify_bound_set(BoundSetSpec(a, 1.0, 1), G, F, samples_per_face=16)
print(f"\nwith b = 1: verified = {bad.verified}, "
      f"vertex ok = {bad.corner_ok}, "
      f"worst cone margin = {bad.min_margin_delta:.4f}")
worst = bad.worst_delta[0]
print("worst offending sample:", json.dumps(worst, indent=2))
save_certificate_json(bad, OUT / "certificate_fail.json")
print(f"wrote {OUT / 'certificate_pass.json'} and certificate_fail.json")

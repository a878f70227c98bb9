#!/usr/bin/env python3
"""Parameter studies: exact-mode scan and the a -> 1 degeneration.

First scans the integer pairs (p, q) whose discriminant 4 p^2 - 3 q^2 is a
perfect square (the cases where all family parameters are rational) and
tabulates the cycle integral with its snapped pi^4 multiple.

Then sweeps the direct parameter a toward the degenerate value 1, where the
two larger roots of the defining cubic collide and the y-interval endpoint
reaches the chart boundary.  The pointwise density carries an exact (1-a)^2
factor, which the sweep verifies at a fixed interior point.  The integrated
value behaves differently: the collapsing root produces a boundary layer
whose mass keeps the integral from vanishing at the same rate, and the
log-log fit shows the integrated exponent is far from 2 (see the decisions
discussion in README.md).
"""
import math

import numpy as np

from loopcs import metrics
from loopcs.cycles import CircleAction, a_sweep, integrate_cycle, pullback_density
from loopcs.quadrature import QuadratureSpec

print("exact-mode scan over p <= 13")
print(f"{'(p,q)':>8} {'a':>12} {'ell':>8} {'value':>18} {'pi^4 multiple':>16}")
for p in range(2, 14):
    for q in range(1, p):
        if math.gcd(p, q) != 1:
            continue
        disc = 4 * p * p - 3 * q * q
        if math.isqrt(disc) ** 2 != disc:
            continue
        params = metrics.solve_ypq(p, q)
        res = integrate_cycle(metrics.ypq_metric(params),
                              CircleAction.rotation(axis=4), 3,
                              QuadratureSpec(nodes=24))
        print(f"({p:2d},{q:2d}) {str(params.a_exact):>12} {str(params.ell_exact):>8} "
          f"{res.value:18.12f} {str(res.pi4_multiple):>16}")

print("\npointwise density as a function of a (fixed interior point, ell = 1)")
point_grid = [0.9, 0.95, 0.99, 0.995]
dens = []
for a in point_grid:
    params = metrics.ypq_params_from_a(a, ell=1.0)
    metric = metrics.ypq_metric(params)
    m0 = np.array([1.0, 1.1, 1.0, 0.05, 0.5])  # inside every a's chart box
    dens.append(abs(pullback_density(metric, CircleAction.rotation(axis=4), m0)))
slope_pt = np.polyfit(np.log1p([-a for a in point_grid]), np.log(dens), 1)[0]
for a, d in zip(point_grid, dens):
    print(f"  a = {a:6.3f}   |density| = {d:.6e}   |density|/(1-a)^2 = {d/(1-a)**2:.6f}")
print(f"  fitted pointwise exponent: {slope_pt:.4f}  (the (1-a)^2 factor is exact)")

print("\nintegrated value across the same grid (ell fixed at 1)")
sweep = a_sweep(point_grid, quad=QuadratureSpec(nodes=32))
for row in sweep.rows:
    if row.result is not None:
        print(f"  a = {row.label['a']:6.3f}   value = {row.result.value:16.6f}   "
              f"error {row.result.error_estimate:.2e}")
    else:
        print(f"  a = {row.label['a']:6.3f}   ERROR: {row.error}")
print(f"  fitted integrated exponent: {sweep.fitted_exponent:.4f}")
print("  (boundary-layer mass at the collapsing root: the integrated decay is"
      " much slower than the pointwise (1-a)^2 rate)")

print("\nthe degenerate endpoint itself is rejected:")
try:
    metrics.ypq_params_from_a(1.0)
    print("FAIL  a = 1.0 was accepted")
    raise SystemExit(1)
except Exception as exc:
    print(f"PASS  a = 1.0 rejected: {exc}")

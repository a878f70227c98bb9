#!/usr/bin/env python3
"""Curvature from second-order jets: validation walk-through.

Builds the reference metrics and the (7,3) member of the five-dimensional
Sasaki-Einstein family, computes Christoffel symbols and the Riemann tensor
via jet arithmetic, and audits every curvature identity plus the Einstein
property Ric = 4 g.  Everything here is checked against closed forms or
residuals, and the script prints PASS/FAIL per check.
"""
import numpy as np

from loopcs import geometry, metrics
from loopcs.jets import jet_variable

checks = []


def audit(name, ok, detail=""):
    checks.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  {name:<44} {detail}")


# --- jets reproduce hand-computed derivatives --------------------------------
x = jet_variable(0, 1.0, 2)
y = jet_variable(1, 2.0, 2)
f = x * x * y  # value 2, gradient (4, 1), Hessian [[4, 2], [2, 0]]
audit("jet of x^2 y at (1, 2)",
      f.value == 2.0 and np.allclose(f.grad, [4.0, 1.0])
      and np.allclose(f.hess, [[4.0, 2.0], [2.0, 0.0]]),
      f"grad={f.grad.tolist()} hess={f.hess.tolist()}")

# --- sphere Christoffel symbols against the textbook values ------------------
s2 = metrics.round_sphere(2)
gam = geometry.christoffel(s2, np.array([np.pi / 3, 1.0]))
audit("S^2 Christoffels at theta = pi/3",
      abs(gam[0, 1, 1] + np.sqrt(3) / 4) < 1e-14
      and abs(gam[1, 0, 1] - 1 / np.sqrt(3)) < 1e-14,
      f"Gamma^th_phph={gam[0,1,1]:.12f}, Gamma^ph_thph={gam[1,0,1]:.12f}")

# --- constant curvature closed form on round spheres --------------------------
rng = np.random.default_rng(0)
for n, r in ((2, 1.0), (3, 2.0), (5, 1.0)):
    m = metrics.round_sphere(n, r)
    pts = m.box.sample_interior(rng, 25)
    pack = geometry.riemann(m, pts)
    g = pack.g
    K = 1.0 / (r * r)
    closed = K * (np.einsum("...ja,...bc->...jbca", g, g)
                  - np.einsum("...jc,...ba->...jbca", g, g))
    res = np.max(np.abs(pack.riemann_down - closed)) / np.max(np.abs(closed))
    ric = np.max(np.abs(pack.ricci - (n - 1) * K * g)) / np.max(np.abs(g))
    audit(f"S^{n}(r={r:g}) constant curvature + Ricci", res < 1e-9 and ric < 1e-9,
          f"riemann residual {res:.2e}, ricci residual {ric:.2e}")

# --- identity suite across the catalog ---------------------------------------
for name in ("flat_torus3", "round_sphere5", "perturbed_torus3"):
    m = metrics.catalog(name)
    report = geometry.validate_curvature(m, m.box.sample_interior(rng, 50))
    worst_name, worst = report.worst()
    audit(f"identity suite on {name}", report.passed,
          f"worst {worst_name} = {worst:.2e}")

# --- the Sasaki-Einstein family ------------------------------------------------
params = metrics.solve_ypq(7, 3)
print(f"\n(7,3) family parameters: a = {params.a_exact}, ell = {params.ell_exact}, "
      f"y-interval = ({params.y1_exact}, {params.y2_exact})\n")
m = metrics.ypq_metric(params)
pts = m.box.sample_interior(rng, 100)
report = geometry.validate_curvature(m, pts)
for line in report.lines():
    print(line)
audit("identity suite on Y(7,3)", report.passed)
ein = metrics.einstein_residual(geometry.riemann(m, pts), metrics.EINSTEIN_CONSTANT_DIM5)
audit("Einstein property Ric = 4 g on Y(7,3)", ein < 1e-8, f"residual {ein:.2e}")

print(f"\n{sum(checks)}/{len(checks)} checks passed")
raise SystemExit(0 if all(checks) else 1)

#!/usr/bin/env python3
"""Pointwise vanishing of the degree-3 form and the mechanism behind it.

On 3-manifolds (dimension 3 mod 4) the Wodzicki-Chern-Simons integrand
vanishes identically: the lowered velocity bracket is a symmetric matrix,
the lowered curvature endomorphism is skew, and the trace of their product
dies.  This script demonstrates both halves separately and the resulting
pointwise vanishing on three different curved and flat 3-manifolds, then
shows the degree-5 integrand does NOT vanish on the Sasaki-Einstein family
while the full and reduced variants of the velocity bracket agree there.
"""
import numpy as np

from loopcs import geometry, metrics, wcs

rng = np.random.default_rng(12)
checks = []


def audit(name, ok, detail=""):
    checks.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  {name:<46} {detail}")


print("dimension 3 (mod 4): the two halves of the vanishing mechanism\n")
for name in ("round_sphere3", "flat_torus3", "perturbed_torus3"):
    m = metrics.catalog(name)
    pts = m.box.sample_interior(rng, 100)
    pack = geometry.riemann(m, pts)
    X, Y, gd = (rng.standard_normal(3) for _ in range(3))

    B = wcs.symbol_endo(pack, X, gd, "reduced")
    lowered_b = np.einsum("...ae,...eb->...ab", pack.g, B)
    sym = np.max(np.abs(lowered_b - np.swapaxes(lowered_b, -1, -2)))

    om = geometry.curvature_endo(pack, X, Y)
    lowered_o = np.einsum("...ae,...eb->...ab", pack.g, om)
    skew = np.max(np.abs(lowered_o + np.swapaxes(lowered_o, -1, -2)))

    scale = max(np.max(np.abs(lowered_b)), np.max(np.abs(lowered_o)), 1e-300)
    curv2 = max(np.max(np.abs(pack.riemann_down)) ** 2, 1e-300)
    frame = rng.standard_normal((3, 3))
    worst = max(
        float(np.max(np.abs(wcs.wcs_integrand(pack, frame, gd, v))))
        for v in ("reduced", "full"))

    audit(f"{name}: lowered bracket symmetric", sym / scale < 1e-10, f"{sym/scale:.2e}")
    audit(f"{name}: lowered curvature skew", skew / scale < 1e-10, f"{skew/scale:.2e}")
    audit(f"{name}: k=2 integrand vanishes", worst / curv2 < 1e-10,
          f"{worst/curv2:.2e} x curvature^2")

print("\ndegree 5 on the Sasaki-Einstein family: nonzero, alternating, two variants agree\n")
m = metrics.ypq_metric(metrics.solve_ypq(7, 3))
pts = m.box.sample_interior(rng, 100)
pack = geometry.riemann(m, pts)
frame = rng.standard_normal((5, 5))
gd = rng.standard_normal(5)
red = np.asarray(wcs.wcs_integrand(pack, frame, gd, "reduced"))
full = np.asarray(wcs.wcs_integrand(pack, frame, gd, "full"))
audit("degree-5 integrand nonzero", np.max(np.abs(red)) > 1e-6,
      f"max |integrand| = {np.max(np.abs(red)):.3e}")
audit("full variant = reduced variant",
      np.max(np.abs(full - red)) / np.max(np.abs(red)) < 1e-10,
      f"rel diff {np.max(np.abs(full-red))/np.max(np.abs(red)):.2e}")

swapped = frame.copy()
swapped[[1, 3]] = swapped[[3, 1]]
flipped = np.asarray(wcs.wcs_integrand(pack, swapped, gd, "reduced"))
audit("alternating under frame swaps",
      np.max(np.abs(red + flipped)) / np.max(np.abs(red)) < 1e-12)

print(f"\n{sum(checks)}/{len(checks)} checks passed")
raise SystemExit(0 if all(checks) else 1)

"""Acceptance gate: one test per criterion, one printed line per criterion.

Criteria 1 and 8 compare against the historically reported headline value
(-1849 pi^4 / 22050 for the (7,3) fiber rotation) and the degeneration
exponent 2.0 of the *integrated* cycle value.  Both comparisons fail for
this implementation, and the failure is genuine, not a tolerance issue:

* two independent computation routes (the batched jet/quadrature pipeline
  and a from-scratch exact symbolic integration) agree to all digits that
  the simplified degree-5 form, integrated over the fiber-rotation cycle
  with the documented conventions, equals -432 pi^4 / 6125 for (7,3);
* no convention constant (wedge normalization, trace scaling, cosphere
  factor, orbit speed, fiber period) connects the two numbers — their ratio
  5 * 43^2 / 6^5 is not a product of such factors, and rescaling the fiber
  period cannot help since the value scales by its square;
* the integrated a -> 1 exponent of this formula is near zero because the
  collapsing cubic root concentrates an O(1) boundary layer, although the
  pointwise density does carry an exact (1 - a)^2 factor (verified below in
  the companion checks of criterion 8).

See notes outside the package for the full forensic analysis.  All other
criteria pass.
"""
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from loopcs import cli, geometry, metrics, selftest, wcs
from loopcs.cycles import CircleAction, a_sweep, integrate_cycle, pullback_density
from loopcs.quadrature import QuadratureSpec

PI4 = math.pi**4
REPORTED_HEADLINE = -1849.0 * PI4 / 22050.0
REPORTED_FRACTION = Fraction(-1849, 22050)
THIS_IMPLEMENTATION = -432.0 * PI4 / 6125.0


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def y73():
    return metrics.ypq_metric(metrics.solve_ypq(7, 3))


@pytest.fixture(scope="module")
def headline(tmp_path_factory):
    """The criterion-1 run: CLI, default 32 nodes, symmetry mask, JSON out."""
    out = tmp_path_factory.mktemp("acc") / "headline.json"
    t0 = time.perf_counter()
    code = cli.main(["wcs", "--metric", "ypq", "--p", "7", "--q", "3",
                     "--action", "rotate:alpha", "--out", str(out)])
    wall = time.perf_counter() - t0
    assert code == 0
    return json.loads(out.read_text()), wall


def test_criterion_01_reported_headline_value(headline):
    """Fiber-rotation integral equals -1849 pi^4/22050 at 1e-6 relative."""
    data, wall = headline
    value = data["value"]
    rel = abs(value - REPORTED_HEADLINE) / abs(REPORTED_HEADLINE)
    snap = data["pi4_multiple"]
    snapped = Fraction(snap["num"], snap["den"]) if snap else None
    ok = rel <= 1e-6 and snapped == REPORTED_FRACTION and wall <= 60.0
    report(1, ok,
           f"value {value:.7f} vs reported {REPORTED_HEADLINE:.7f} "
           f"(rel dev {rel:.3e}, tol 1e-6), snap {snapped}, wall {wall:.1f}s; "
           f"this implementation reproducibly gives -432 pi^4/6125 = {THIS_IMPLEMENTATION:.7f}")
    assert ok, (
        "the faithfully implemented simplified degree-5 formula integrates to "
        f"-432 pi^4/6125 = {THIS_IMPLEMENTATION:.9f}, not the reported "
        f"-1849 pi^4/22050 = {REPORTED_HEADLINE:.9f} (ratio 7776/9245); "
        "confirmed by exact symbolic integration - see the module docstring")


def test_criterion_01_companion_internal_consistency(headline):
    """What the headline run does reproducibly deliver: the two-route value."""
    data, wall = headline
    value = data["value"]
    rel = abs(value - THIS_IMPLEMENTATION) / abs(THIS_IMPLEMENTATION)
    snap = data["pi4_multiple"]
    ok = (rel <= 1e-9
          and snap == {"num": -432, "den": 6125}
          and data["node_counts"] == [0, 64, 0, 64, 0]
          and wall <= 60.0)
    report(1, ok, f"companion: value matches the exact symbolic result "
                  f"-432 pi^4/6125 to {rel:.2e}, snap {snap}, wall {wall:.1f}s <= 60s")
    assert ok


def test_criterion_02_trivial_action_zero(y73):
    res = integrate_cycle(y73, CircleAction.trivial(), 3)
    ok = res.value == 0.0
    report(2, ok, f"trivial action integral = {res.value!r} (exactly 0 required)")
    assert ok


def test_criterion_03_iterate_scaling(y73):
    base = CircleAction.rotation(axis=4)
    quad = QuadratureSpec(nodes=12)
    v1 = integrate_cycle(y73, base, 3, quad).value
    worst = 0.0
    for n in (2, 3):
        vn = integrate_cycle(y73, CircleAction.iterate(base, n), 3, quad).value
        worst = max(worst, abs(vn - n * v1) / abs(n * v1))
    ok = worst <= 1e-9
    report(3, ok, f"n in {{2,3}}: max relative deviation from n x base = {worst:.2e} (tol 1e-9)")
    assert ok


def test_criterion_04_dim3mod4_vanishing():
    rng = np.random.default_rng(404)
    worst_int = worst_sym = worst_skew = 0.0
    for name in ("round_sphere3", "flat_torus3", "perturbed_torus3"):
        m = metrics.catalog(name)
        pts = m.box.sample_interior(rng, 100)
        pack = geometry.riemann(m, pts)
        curv2 = max(float(np.max(np.abs(pack.riemann_down))) ** 2,
                    np.finfo(float).tiny)
        for _ in range(3):
            frame = rng.standard_normal((3, 3))
            gd = rng.standard_normal(3)
            v = wcs.wcs_integrand(pack, frame, gd)
            worst_int = max(worst_int, float(np.max(np.abs(v))) / curv2)

            B = wcs.symbol_endo(pack, frame[0], gd, "reduced")
            low_b = np.einsum("...ae,...eb->...ab", pack.g, B)
            scale_b = max(float(np.max(np.abs(low_b))), np.finfo(float).tiny)
            worst_sym = max(worst_sym, float(np.max(np.abs(
                low_b - np.swapaxes(low_b, -1, -2)))) / scale_b)

            om = geometry.curvature_endo(pack, frame[0], frame[1])
            low_o = np.einsum("...ae,...eb->...ab", pack.g, om)
            scale_o = max(float(np.max(np.abs(low_o))), np.finfo(float).tiny)
            worst_skew = max(worst_skew, float(np.max(np.abs(
                low_o + np.swapaxes(low_o, -1, -2)))) / scale_o)
    ok = worst_int <= 1e-10 and worst_sym <= 1e-10 and worst_skew <= 1e-10
    report(4, ok, f"integrand/curv^2 {worst_int:.2e}, bracket symmetry {worst_sym:.2e}, "
                  f"curvature skewness {worst_skew:.2e} (tol 1e-10 each)")
    assert ok


def test_criterion_05_full_equals_reduced(y73):
    rng = np.random.default_rng(505)
    pack = geometry.riemann(y73, y73.box.sample_interior(rng, 100))
    worst = 0.0
    for _ in range(3):
        frame = rng.standard_normal((5, 5))
        gd = rng.standard_normal(5)
        full = np.asarray(wcs.wcs_integrand(pack, frame, gd, "full"))
        red = np.asarray(wcs.wcs_integrand(pack, frame, gd, "reduced"))
        worst = max(worst, float(np.max(np.abs(full - red)) / np.max(np.abs(red))))
    ok = worst <= 1e-10
    report(5, ok, f"max relative difference {worst:.2e} (tol 1e-10) over 100 points x 3 frames")
    assert ok


def test_criterion_06_einstein_property(y73):
    pts = y73.box.sample_interior(np.random.default_rng(606), 100)
    res = metrics.einstein_residual(geometry.riemann(y73, pts), 4.0)
    ok = res <= 1e-8
    report(6, ok, f"max |Ric - 4 g| relative = {res:.2e} over 100 points (tol 1e-8)")
    assert ok


def test_criterion_07_curvature_identity_suite(y73):
    rng = np.random.default_rng(707)
    worst = ("", 0.0)
    ok = True
    cases = [metrics.catalog(n) for n in
             ("flat_torus2", "flat_torus3", "flat_torus5", "round_sphere2",
              "round_sphere3", "round_sphere5", "perturbed_torus3", "s2xs3")]
    cases.append(y73)
    for m in cases:
        rep = geometry.validate_curvature(m, m.box.sample_interior(rng, 100))
        name, val = rep.worst()
        if val > worst[1]:
            worst = (f"{m.name}:{name}", val)
        ok = ok and rep.passed
    for n, r in ((2, 1.0), (3, 1.0), (3, 1.7), (5, 1.0)):
        m = metrics.round_sphere(n, r)
        pack = geometry.riemann(m, m.box.sample_interior(rng, 20))
        K = 1.0 / (r * r)
        closed = K * (np.einsum("...ja,...bc->...jbca", pack.g, pack.g)
                      - np.einsum("...jc,...ba->...jbca", pack.g, pack.g))
        res = float(np.max(np.abs(pack.riemann_down - closed)) / np.max(np.abs(closed)))
        if res > worst[1]:
            worst = (f"S^{n}(r={r}):closed_form", res)
        ok = ok and res <= 1e-9
    report(7, ok, f"worst residual {worst[0]} = {worst[1]:.2e} (tol 1e-9)")
    assert ok


def test_criterion_08_degeneration_exponent():
    """Log-log exponent of |integral| vs (1-a) equals 2.0 +/- 0.05."""
    grid = [0.9, 0.95, 0.99, 0.995]
    sweep = a_sweep(grid, quad=QuadratureSpec(nodes=32), ell=1.0)
    values = [abs(row.result.value) for row in sweep.rows if row.result]
    exponent = sweep.fitted_exponent
    ratios = [v / (1 - a) ** 2 for v, a in zip(values, grid)]
    spread = (max(ratios) - min(ratios)) / max(ratios)
    ok = exponent is not None and abs(exponent - 2.0) <= 0.05 and spread < 0.05
    report(8, ok,
           f"fitted integrated exponent {exponent:.3f} (required 2.0 +/- 0.05), "
           f"value/(1-a)^2 spread {spread:.1%} (required < 5%)")
    assert ok, (
        f"the integrated cycle value gives exponent {exponent:.3f}, not 2.0: "
        "the collapsing cubic root carries an O(1) boundary layer; the exact "
        "(1-a)^2 rate holds pointwise (companion test), not for the integral")


def test_criterion_08_companion_pointwise_rate():
    """The density itself carries the (1 - a)^2 factor exactly."""
    grid = [0.9, 0.95, 0.99, 0.995]
    m0 = np.array([1.0, 1.1, 1.0, 0.05, 0.5])
    dens = []
    for a in grid:
        metric = metrics.ypq_metric(metrics.ypq_params_from_a(a, ell=1.0))
        dens.append(abs(pullback_density(metric, CircleAction.rotation(axis=4), m0)))
    slope = float(np.polyfit(np.log([1 - a for a in grid]), np.log(dens), 1)[0])
    ratios = [d / (1 - a) ** 2 for d, a in zip(dens, grid)]
    spread = (max(ratios) - min(ratios)) / max(ratios)
    ok = abs(slope - 2.0) <= 0.01 and spread < 1e-6
    report(8, ok, f"companion: pointwise density exponent {slope:.6f}, "
                  f"density/(1-a)^2 spread {spread:.2e}")
    assert ok


def test_criterion_09_jet_derivatives_match_finite_differences():
    ok, detail = selftest.SUITES[0][1]()
    report(9, ok, detail)
    assert ok


def test_criterion_10_s_scaling_exact(y73):
    action = CircleAction.rotation(axis=4)
    quad = QuadratureSpec(nodes=10)
    base = integrate_cycle(y73, action, 3, quad, s_scale=1.0).value
    ok = True
    for s in (2.0, 0.37, 5.5):
        scaled = integrate_cycle(y73, action, 3, quad, s_scale=s).value
        ok = ok and scaled == s * base
    report(10, ok, f"s in {{2.0, 0.37, 5.5}}: integral == s x base bit-exactly: {ok}")
    assert ok


def test_criterion_11_worker_determinism(y73):
    action = CircleAction.rotation(axis=4)
    one = integrate_cycle(y73, action, 3, QuadratureSpec(nodes=32, workers=1))
    many = integrate_cycle(y73, action, 3, QuadratureSpec(nodes=32, workers=2))
    ok = one.value == many.value and one.error_estimate == many.error_estimate
    report(11, ok, f"1 vs 2 workers: {one.value!r} vs {many.value!r} (bit-identical: {ok})")
    assert ok

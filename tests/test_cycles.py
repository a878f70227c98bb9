"""Circle actions, densities, cycle integrals, and rational snapping."""
import math
from fractions import Fraction

import numpy as np
import pytest

from loopcs import cycles, metrics
from loopcs.cycles import (
    CircleAction,
    a_sweep,
    best_rational_in_interval,
    integrate_cycle,
    pullback_density,
    snap_pi4_multiple,
)
from loopcs.jets import ChartDomainError
from loopcs.quadrature import QuadratureSpec

PI4 = math.pi**4


@pytest.fixture(scope="module")
def y73():
    return metrics.ypq_metric(metrics.solve_ypq(7, 3))


def closed_form_value(p, q):
    """Independent oracle: the symbolically integrated cycle value.

    Derived once by exact symbolic integration of the theta- and y-profiles
    of the density (a fully separate route from the quadrature pipeline):

        value = -(256/135) pi^4 ell^2 (1-a)^2 [G(y2) - G(y1)],
        G(y) = (4y - 1)/(y - 1)^4.
    """
    params = metrics.solve_ypq(p, q)
    assert params.exact_mode

    def G(y):
        return (4 * y - 1) / (y - 1) ** 4

    return (-Fraction(256, 135) * params.ell_exact**2
            * (1 - params.a_exact) ** 2
            * (G(params.y2_exact) - G(params.y1_exact)))


def test_trivial_action_density_and_integral_zero(y73):
    m0 = np.array([1.0, 1.2, 2.0, 0.1, 0.5])
    assert pullback_density(y73, CircleAction.trivial(), 3, m0) == 0.0
    res = integrate_cycle(y73, CircleAction.trivial(), 3)
    assert res.value == 0.0
    assert res.error_estimate == 0.0
    assert res.pi4_multiple == Fraction(0)


def test_density_independent_of_symmetry_axes(y73):
    action = CircleAction.rotation(axis=4)
    base = np.array([1.0, 1.2, 2.0, 0.1, 0.5])
    f0 = pullback_density(y73, action, 3, base)
    rng = np.random.default_rng(0)
    for _ in range(6):
        moved = base.copy()
        moved[0] = rng.uniform(0.1, 6.0)   # phi
        moved[2] = rng.uniform(0.1, 6.0)   # psi
        moved[4] = rng.uniform(0.01, 0.9)  # alpha
        f1 = pullback_density(y73, action, 3, moved)
        assert abs(f1 - f0) / abs(f0) < 1e-12


def test_iterate_density_scales_exactly(y73):
    base = CircleAction.rotation(axis=4)
    m0 = np.array([1.0, 1.2, 2.0, 0.1, 0.5])
    f1 = pullback_density(y73, base, 3, m0)
    f2 = pullback_density(y73, CircleAction.iterate(base, 2), 3, m0)
    f3 = pullback_density(y73, CircleAction.iterate(base, 3), 3, m0)
    assert abs(f2 - 2 * f1) / abs(2 * f1) < 1e-14
    assert abs(f3 - 3 * f1) / abs(3 * f1) < 1e-14
    assert CircleAction.iterate(base, 0).kind == "trivial"


def test_killing_shortcut_matches_trapezoid_loop(y73):
    # A metric clone without declared symmetry axes takes the generic orbit
    # path; the alpha axis is still Killing, so the loop integrand is
    # constant and the trapezoid must agree with the 2 pi shortcut.
    from dataclasses import replace

    no_shortcut = replace(y73, symmetry_axes=())
    action = CircleAction.rotation(axis=4)
    m0 = np.array([1.0, 1.2, 2.0, 0.1, 0.5])
    fast = pullback_density(y73, action, 3, m0)
    slow = pullback_density(no_shortcut, action, 3, m0, loop_nodes=16)
    assert abs(fast - slow) / abs(fast) < 1e-12


def test_non_killing_orbit_uses_trapezoid_loop():
    # A perturbed 5-torus varies along every axis, so the x0 rotation takes
    # the generic orbit path: wrap-around sampling, nonzero density (no
    # vanishing theorem in dimension 1 mod 4), spectral loop convergence,
    # and exact n-fold sampling identities.
    m = metrics.perturbed_torus(5)
    action = CircleAction.rotation(axis=0)
    m0 = np.array([1.3, 2.1, 0.7, 4.0, 2.6])
    f8 = pullback_density(m, action, 3, m0, loop_nodes=8)
    f16 = pullback_density(m, action, 3, m0, loop_nodes=16)
    f32 = pullback_density(m, action, 3, m0, loop_nodes=32)
    assert abs(f8) > 1e-8  # genuinely nonzero
    assert abs(f32 - f16) < 1e-6 * abs(f16)  # periodic trapezoid converges fast
    # the 2-fold iterate at 16 nodes samples the base orbit's 8 points twice
    f2 = pullback_density(m, CircleAction.iterate(action, 2), 3, m0, loop_nodes=16)
    assert abs(f2 - 2 * f8) < 1e-12 * abs(f8)


def test_speed_doubling_doubles_integral(y73):
    params = y73.params
    quad = QuadratureSpec(nodes=8)
    single = integrate_cycle(y73, CircleAction.rotation(axis=4), 3, quad)
    double = integrate_cycle(y73, CircleAction.rotation(axis=4, speed=2 * params.ell),
                             3, quad)
    assert abs(double.value - 2 * single.value) / abs(2 * single.value) < 1e-9


def test_iterate_integral_scaling(y73):
    base = CircleAction.rotation(axis=4)
    quad = QuadratureSpec(nodes=10)
    v1 = integrate_cycle(y73, base, 3, quad).value
    for n in (2, 3):
        vn = integrate_cycle(y73, CircleAction.iterate(base, n), 3, quad).value
        assert abs(vn - n * v1) / abs(n * v1) < 1e-9


def test_non_closing_speed_rejected(y73):
    with pytest.raises(ValueError, match="winding"):
        integrate_cycle(y73, CircleAction.rotation(axis=4, speed=0.1), 3,
                        QuadratureSpec(nodes=4))


def test_orbit_exits_non_periodic_axis(y73, monkeypatch):
    # Refused before any chunk, whether the axis is undeclared (theta) or a
    # declared Killing axis of a flat torus whose box is not periodic there.
    from dataclasses import replace

    from loopcs.geometry import CoordBox

    flat = metrics.flat_torus(3)
    open_x0 = replace(flat, box=CoordBox(flat.box.intervals, (False, True, True)))
    assert 0 in open_x0.symmetry_axes
    cases = [(y73, CircleAction.rotation(axis=1, speed=0.25), 3),
             (open_x0, CircleAction.rotation(axis=0, speed=1.0), 2)]
    calls = []
    monkeypatch.setattr(cycles, "_density_batch", lambda *args: calls.append(args))
    # A refused input, not a chart exit met during evaluation.
    for metric, action, k in cases:
        with pytest.raises(ValueError, match="non-periodic") as exc:
            pullback_density(metric, action, k, metric.box.sample_interior(
                np.random.default_rng(0), 1)[0])
        assert not isinstance(exc.value, ChartDomainError)
        with pytest.raises(ValueError, match="non-periodic") as exc:
            integrate_cycle(metric, action, k, QuadratureSpec(nodes=4))
        assert not isinstance(exc.value, ChartDomainError)
    assert calls == []


def _closed_form_density(params, theta, y):
    """Fiber-rotation density of the five-dimensional family, k = 3:
    f = -(16/135) pi ell (1-a)^2 sin(theta) G'(y), G'(y) = -12 y/(y-1)^5,
    the pointwise form of :func:`closed_form_value`."""
    return (-16.0 / 135.0 * math.pi * params.ell * (1.0 - params.a) ** 2
            * np.sin(theta) * (-12.0 * y / (y - 1.0) ** 5))


@pytest.mark.parametrize("params", [
    metrics.solve_ypq(7, 3),
    metrics.solve_ypq(5, 3),  # 4p^2 - 3q^2 = 73 is not a square
    metrics.ypq_params_from_a(0.6, ell=0.7),
    metrics.ypq_params_from_a(0.3, ell=0.7),
], ids=["7-3", "5-3", "a0.6", "a0.3"])
def test_density_matches_closed_form(params):
    # The one-sample trapezoid on the declared Killing axis and the 16-sample
    # trapezoid of a clone that declares no axes both reproduce the closed form.
    # The error is scaled by the largest |f| of the sample: f changes sign at
    # y = 0, where the pointwise relative error measures cancellation only.
    from dataclasses import replace

    m = metrics.ypq_metric(params)
    pts = m.box.sample_interior(np.random.default_rng(5), 50, margin=0.1)
    want = _closed_form_density(params, pts[:, 1], pts[:, 3])
    action = CircleAction.rotation(axis=4)
    for metric, nodes in ((m, 64), (replace(m, symmetry_axes=()), 16)):
        for variant in ("reduced", "full"):
            got = np.array([pullback_density(metric, action, 3, x, loop_nodes=nodes,
                                             variant=variant) for x in pts])
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (
                variant, nodes)


@pytest.mark.parametrize("p,q", [(7, 3), (7, 5)])
def test_quadrature_matches_symbolic_closed_form(p, q):
    m = metrics.ypq_metric(metrics.solve_ypq(p, q))
    res = integrate_cycle(m, CircleAction.rotation(axis=4), 3, QuadratureSpec(nodes=16))
    exact = float(closed_form_value(p, q)) * PI4
    assert abs(res.value - exact) / abs(exact) < 1e-9
    assert res.pi4_multiple == closed_form_value(p, q)
    assert abs(res.value - exact) <= 10 * max(res.error_estimate, 1e-12 * abs(exact))


def test_refinement_within_error_estimate(y73):
    action = CircleAction.rotation(axis=4)
    coarse = integrate_cycle(y73, action, 3, QuadratureSpec(nodes=8))
    doubled = integrate_cycle(y73, action, 3, QuadratureSpec(nodes=16))
    assert abs(doubled.value - coarse.value) <= coarse.error_estimate


def test_density_quadrature_converges_geometrically(y73):
    # Past 8 nodes per axis (and before the ~1e-10 boundary-conditioning
    # noise floor) successive two-level error estimates shrink fast.
    action = CircleAction.rotation(axis=4)
    est8 = integrate_cycle(y73, action, 3, QuadratureSpec(nodes=8)).error_estimate
    est16 = integrate_cycle(y73, action, 3, QuadratureSpec(nodes=16)).error_estimate
    assert est16 < 0.5 * est8


def test_mask_shortcut_matches_bruteforce(y73):
    action = CircleAction.rotation(axis=4)
    quad_masked = QuadratureSpec(nodes=6, refinement_factor=1)
    quad_full = QuadratureSpec(nodes=6, refinement_factor=1, mask=())
    fast = integrate_cycle(y73, action, 3, quad_masked)
    slow = integrate_cycle(y73, action, 3, quad_full)
    assert abs(fast.value - slow.value) / abs(fast.value) < 1e-9
    assert fast.node_counts == (0, 6, 0, 6, 0)
    assert slow.node_counts == (6, 6, 6, 6, 6)


def test_each_axis_checked_once_per_call(y73, monkeypatch):
    calls = []
    real = cycles._axis_is_killing

    def counted(metric, axis, *args):
        calls.append(axis)
        return real(metric, axis, *args)

    monkeypatch.setattr(cycles, "_axis_is_killing", counted)
    action = CircleAction.rotation(axis=4)
    integrate_cycle(y73, action, 3, QuadratureSpec(nodes=6))
    assert sorted(calls) == [0, 2, 4]  # the mask axes; the loop axis is among them
    calls.clear()
    integrate_cycle(y73, action, 3, QuadratureSpec(nodes=3, refinement_factor=1, mask=()))
    assert calls == [4]  # unmasked 3^5 box: one check, not one per chunk


def test_mask_rejects_non_killing_axis(y73):
    with pytest.raises(ValueError, match="varies"):
        integrate_cycle(y73, CircleAction.rotation(axis=4), 3,
                        QuadratureSpec(nodes=4, mask=(1,)))


def test_s_scale_is_exact_on_integrals(y73):
    action = CircleAction.rotation(axis=4)
    base = integrate_cycle(y73, action, 3, QuadratureSpec(nodes=8), s_scale=1.0)
    for s in (2.0, 0.37, -1.0):
        scaled = integrate_cycle(y73, action, 3, QuadratureSpec(nodes=8), s_scale=s)
        assert scaled.value == s * base.value


def test_result_provenance_complete(y73):
    res = integrate_cycle(y73, CircleAction.rotation(axis=4), 3, QuadratureSpec(nodes=6))
    prov = res.provenance
    for key in ("metric", "action", "k", "variant", "s_scale", "orientation",
                "orbit_speed", "speed_convention", "normalization", "version",
                "node_counts", "masked_axes", "params"):
        assert key in prov, key
    assert prov["orientation"] == "phi^theta^y^psi^alpha"
    assert prov["params"]["exact_mode"] is True
    assert res.wall_time > 0.0


def test_wrong_dimension_rejected():
    m = metrics.round_sphere(3)
    with pytest.raises(ValueError):
        integrate_cycle(m, CircleAction.rotation(axis=2), 3)


def test_bad_variant_rejected_before_any_evaluation(y73, monkeypatch):
    calls = []
    monkeypatch.setattr(cycles, "_density_batch", lambda *args: calls.append(args))
    action = CircleAction.rotation(axis=4)
    with pytest.raises(ValueError, match="variant"):
        integrate_cycle(y73, action, 3, QuadratureSpec(nodes=3), variant="bogus")
    with pytest.raises(ValueError, match="variant"):
        pullback_density(y73, action, 3, np.array([1.0, 1.2, 2.0, 0.1, 0.5]),
                         variant="bogus")
    assert calls == []


@pytest.mark.parametrize("loop_nodes", [0, -3])
def test_bad_loop_nodes_rejected_before_any_evaluation(y73, loop_nodes, monkeypatch):
    # Both loop plans: the Killing fiber axis of (7,3) (one sample) and an
    # axis of the perturbed torus, which varies along it (loop_nodes samples).
    calls = []
    monkeypatch.setattr(cycles, "_density_batch", lambda *args: calls.append(args))
    torus = metrics.perturbed_torus(3)
    cases = [(y73, CircleAction.rotation(axis=4), 3),
             (torus, CircleAction.rotation(axis=0), 2)]
    for metric, action, k in cases:
        with pytest.raises(ValueError, match="loop_nodes"):
            integrate_cycle(metric, action, k, QuadratureSpec(nodes=3, mask=()),
                            loop_nodes=loop_nodes)
        with pytest.raises(ValueError, match="loop_nodes"):
            pullback_density(metric, action, k, metric.box.sample_interior(
                np.random.default_rng(0), 1)[0], loop_nodes=loop_nodes)
    assert calls == []


def test_best_rational_in_interval():
    assert best_rational_in_interval(Fraction(1, 3), Fraction(1, 2)) == Fraction(1, 2)
    assert best_rational_in_interval(Fraction(-1, 2), Fraction(1, 5)) == 0
    assert best_rational_in_interval(Fraction(7, 10), Fraction(7, 10)) == Fraction(7, 10)
    assert best_rational_in_interval(
        Fraction(-432, 6125) - Fraction(1, 10**12),
        Fraction(-432, 6125) + Fraction(1, 10**12)) == Fraction(-432, 6125)
    # smallest denominator wins inside a loose window
    assert best_rational_in_interval(Fraction(3, 10), Fraction(2, 5)) == Fraction(1, 3)


def test_snap_pi4_multiple_gates():
    target = Fraction(-432, 6125)
    exactly = float(target) * PI4
    assert snap_pi4_multiple(exactly, 1e-12) == target
    # a loose error estimate widens the window; confirmation must agree
    assert snap_pi4_multiple(exactly, 1e-12, confirm_value=exactly * (1 + 1e-6)) is None
    # huge-denominator truth is refused rather than mis-snapped
    ugly = float(Fraction(-32768, 1035125)) * PI4
    assert snap_pi4_multiple(ugly, 1e-13) is None


def test_variants_agree_at_integral_level(y73):
    quad = QuadratureSpec(nodes=6)
    red = integrate_cycle(y73, CircleAction.rotation(axis=4), 3, quad, variant="reduced")
    full = integrate_cycle(y73, CircleAction.rotation(axis=4), 3, quad, variant="full")
    assert abs(full.value - red.value) / abs(red.value) < 1e-10


def test_non_exact_mode_never_snaps():
    m = metrics.ypq_metric(metrics.solve_ypq(11, 5))  # 409 is not a square
    res = integrate_cycle(m, CircleAction.rotation(axis=4), 3, QuadratureSpec(nodes=8))
    assert res.pi4_multiple is None
    assert res.value != 0.0


def test_a_sweep_rows_and_error_recording():
    sweep = a_sweep([0.5, 1.5], quad=QuadratureSpec(nodes=4))
    assert sweep.rows[0].result is not None
    assert sweep.rows[1].result is None and "degenerate" in sweep.rows[1].error
    assert sweep.fitted_exponent is None  # a single usable point cannot be fitted

    sweep2 = a_sweep([0.4, 0.6], quad=QuadratureSpec(nodes=6))
    assert sweep2.fitted_exponent is not None

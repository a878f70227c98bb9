"""Circle actions, densities, cycle integrals, and rational snapping."""
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from loopcs import cycles, jets, metrics, quadrature, wcs
from loopcs.geometry import MetricField, riemann, validate_curvature
from loopcs.cycles import (
    CircleAction,
    a_sweep,
    best_rational_in_interval,
    integrate_cycle,
    pullback_density,
    snap_pi4_multiple,
)
from loopcs.jets import ChartDomainError
from loopcs.quadrature import QuadratureSpec, gauss_nodes
from loopcs.wcs import wcs_integrand

PI4 = math.pi**4


@pytest.fixture(scope="module")
def y73():
    return metrics.ypq_metric(metrics.solve_ypq(7, 3))


def G(y):
    return (4 * y - 1) / (y - 1) ** 4


def closed_form_value(p, q):
    """Independent oracle: the symbolically integrated cycle value.

    Derived once by exact symbolic integration of the theta- and y-profiles
    of the density (a fully separate route from the quadrature pipeline):

        value = -(256/135) pi^4 ell^2 (1-a)^2 [G(y2) - G(y1)],
        G(y) = (4y - 1)/(y - 1)^4.
    """
    params = metrics.solve_ypq(p, q)
    assert params.exact_mode
    return (-Fraction(256, 135) * params.ell**2
            * (1 - params.a) ** 2
            * (G(params.y2) - G(params.y1)))


def test_trivial_action_density_and_integral_zero(y73, monkeypatch):
    # one loop sample under the default mask, yet no orbit probe: there is
    # no orbit to probe
    monkeypatch.setattr(cycles, "_orbit_axes", lambda *args: pytest.fail("orbit probe"))
    m0 = np.array([1.0, 1.2, 2.0, 0.1, 0.5])
    assert pullback_density(y73, CircleAction.trivial(), m0) == 0.0
    res = integrate_cycle(y73, CircleAction.trivial(), 3)
    assert res.value == 0.0
    assert res.error_estimate == 0.0
    assert res.pi4_multiple == Fraction(0)


def test_periodic_axis_endpoint_is_in_the_chart(y73):
    # phi is periodic and constant: its interval endpoint is a chart point
    # like any other, for the density and the identity suite alike
    action = CircleAction.rotation(axis=4)
    at_zero = np.array([0.0, 1.2, 2.0, 0.1, 0.5])
    assert pullback_density(y73, action, at_zero) == pullback_density(
        y73, action, np.array([1.0, 1.2, 2.0, 0.1, 0.5]))
    assert validate_curvature(y73, at_zero).passed
    # theta is a genuine chart boundary, refused up front even when the
    # action is trivial
    pole = np.array([1.0, 0.0, 2.0, 0.1, 0.5])
    for call in (lambda: pullback_density(y73, action, pole),
                 lambda: pullback_density(y73, CircleAction.trivial(), pole),
                 lambda: validate_curvature(y73, pole)):
        with pytest.raises(ChartDomainError, match="coordinate theta outside"):
            call()


def test_density_independent_of_symmetry_axes(y73):
    action = CircleAction.rotation(axis=4)
    base = np.array([1.0, 1.2, 2.0, 0.1, 0.5])
    f0 = pullback_density(y73, action, base)
    rng = np.random.default_rng(0)
    for _ in range(6):
        moved = base.copy()
        moved[0] = rng.uniform(0.1, 6.0)   # phi
        moved[2] = rng.uniform(0.1, 6.0)   # psi
        moved[4] = rng.uniform(0.01, 0.9)  # alpha
        f1 = pullback_density(y73, action, moved)
        assert abs(f1 - f0) / abs(f0) < 1e-12


def test_iterate_density_scales_exactly(y73):
    base = CircleAction.rotation(axis=4)
    m0 = np.array([1.0, 1.2, 2.0, 0.1, 0.5])
    f1 = pullback_density(y73, base, m0)
    f2 = pullback_density(y73, CircleAction.iterate(base, 2), m0)
    f3 = pullback_density(y73, CircleAction.iterate(base, 3), m0)
    assert abs(f2 - 2 * f1) / abs(2 * f1) < 1e-14
    assert abs(f3 - 3 * f1) / abs(3 * f1) < 1e-14
    assert CircleAction.iterate(base, 0) == CircleAction.trivial()


def test_whole_number_action_inputs_refused_not_truncated():
    # An axis or iterate count that is not a whole number is refused by
    # name, not truncated (2.9 once gave n = 2); a numpy integer is one, a
    # bool is not (False was once axis 0).
    base = CircleAction.rotation(axis=4)
    for make, needle in [(lambda: CircleAction.rotation(axis=2.9), "axis"),
                         (lambda: CircleAction.rotation(axis=4.0), "axis"),
                         (lambda: CircleAction.iterate(base, 2.9), "iterate count"),
                         (lambda: CircleAction.iterate(base, 2.0), "iterate count"),
                         (lambda: CircleAction.rotation(axis=False), "axis"),
                         (lambda: CircleAction.rotation(axis=np.True_), "axis"),
                         (lambda: CircleAction.iterate(base, True), "iterate count")]:
        with pytest.raises(ValueError, match=f"{needle} must be a whole number"):
            make()
    rotation = CircleAction.rotation(axis=np.int64(4))
    assert type(rotation.axis) is int and rotation == base
    twice = CircleAction.iterate(base, np.int32(2))
    assert type(twice.n_fold) is int and twice.n_fold == 2


def test_speed_must_be_a_real_number():
    # A bool speed was once taken as 1.0 or 0.0, and a string was parsed by
    # float(); ints, floats and numpy numbers stay speeds, as floats.
    for speed in (True, False, np.True_, "0.3", b"1", 1j, [0.3]):
        with pytest.raises(ValueError, match="speed must be a real number"):
            CircleAction.rotation(axis=4, speed=speed)
    for speed, want in [(None, None), (2, 2.0), (0.3, 0.3), (np.float32(0.5), 0.5),
                        (np.int64(3), 3.0), (Fraction(1, 4), 0.25)]:
        action = CircleAction.rotation(axis=4, speed=speed)
        assert action.speed == want and (want is None or type(action.speed) is float)


def test_killing_shortcut_matches_trapezoid_loop(y73):
    # The alpha axis is Killing, so the loop integrand is constant and a
    # 16-sample trapezoid must agree with the one-sample 2 pi shortcut.
    action = CircleAction.rotation(axis=4)
    m0 = np.array([1.0, 1.2, 2.0, 0.1, 0.5])
    fast = pullback_density(y73, action, m0)
    slow = float(cycles._density_batch(y73, action.velocity(y73), m0, 16))
    assert abs(fast - slow) / abs(fast) < 1e-12


def test_non_killing_orbit_uses_trapezoid_loop():
    # A perturbed 5-torus varies along every axis, so the x0 rotation takes
    # the generic orbit path: wrap-around sampling, nonzero density (no
    # vanishing theorem in dimension 1 mod 4), spectral loop convergence,
    # and exact n-fold sampling identities.
    m = metrics.perturbed_torus(5)
    action = CircleAction.rotation(axis=0)
    m0 = np.array([1.3, 2.1, 0.7, 4.0, 2.6])
    f8 = pullback_density(m, action, m0, loop_nodes=8)
    f16 = pullback_density(m, action, m0, loop_nodes=16)
    f32 = pullback_density(m, action, m0, loop_nodes=32)
    assert abs(f8) > 1e-8  # genuinely nonzero
    assert abs(f32 - f16) < 1e-6 * abs(f16)  # periodic trapezoid converges fast
    # the 2-fold iterate at 16 nodes samples the base orbit's 8 points twice
    f2 = pullback_density(m, CircleAction.iterate(action, 2), m0, loop_nodes=16)
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
    # A nonzero speed whose winding rounds to zero turns closes no orbit;
    # speed 0 stands still, a zero velocity.
    for speed in (1e-10, -1e-12):
        with pytest.raises(ValueError, match="winding"):
            CircleAction.rotation(axis=4, speed=speed).velocity(y73)
    assert not CircleAction.rotation(axis=4, speed=0.0).velocity(y73).any()


def test_orbit_exits_non_periodic_axis(y73, monkeypatch):
    # Refused before any chunk, whether the axis varies (theta) or is a
    # constant axis of a flat torus whose box is not periodic there.
    from dataclasses import replace

    from loopcs.geometry import CoordBox

    flat = metrics.flat_torus(3)
    open_x0 = replace(flat, box=CoordBox(flat.box.intervals, (False, True, True)))
    assert 0 in cycles._constant_axes(open_x0)
    cases = [(y73, CircleAction.rotation(axis=1, speed=0.25), 3),
             (open_x0, CircleAction.rotation(axis=0, speed=1.0), 2)]
    calls = []
    monkeypatch.setattr(cycles, "riemann", lambda *args: calls.append(args))
    # A refused input, not a chart exit met during evaluation.
    for metric, action, k in cases:
        with pytest.raises(ValueError, match="non-periodic") as exc:
            pullback_density(metric, action, metric.box.sample_interior(
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
    # The one-sample trapezoid on the measured Killing axis and a 16-sample
    # trapezoid both reproduce the closed form, and so does the full bracket,
    # 2 pi times the t-independent pointwise value.
    # The error is scaled by the largest |f| of the sample: f changes sign at
    # y = 0, where the pointwise relative error measures cancellation only.
    m = metrics.ypq_metric(params)
    pts = m.box.from_unit(np.random.default_rng(5).random((50, m.dim)), margin=0.1)
    want = _closed_form_density(params, pts[:, 1], pts[:, 3])
    bound = 1e-13 * np.max(np.abs(want))
    action = CircleAction.rotation(axis=4)
    fast = np.array([pullback_density(m, action, x) for x in pts])
    slow = cycles._density_batch(m, action.velocity(m), pts, 16)
    for got in (fast, slow):
        assert np.max(np.abs(got - want)) <= bound
    frame = np.eye(5)[list(m.orientation())]
    full = 2.0 * math.pi * wcs_integrand(riemann(m, pts), frame, action.velocity(m), "full")
    assert np.max(np.abs(full - want)) <= bound


@pytest.mark.parametrize("p,q", [(7, 3), (5, 3)])
def test_end_node_roundoff_floor(p, q):
    # The one-sample density on the 64 y Gauss nodes, every other coordinate
    # at its box midpoint (theta = pi/2): the roundoff is worst at an end
    # node, where g is worst conditioned.  Measured 5.62e-12 for (7,3) and
    # 5.22e-12 for (5,3), both at the last node; lowering it lowers this bound.
    params = metrics.solve_ypq(p, q)
    m = metrics.ypq_metric(params)
    ys, _ = gauss_nodes(64, m.box.intervals[3])
    pts = np.tile([0.5 * (lo + hi) for lo, hi in m.box.intervals], (len(ys), 1))
    pts[:, 3] = ys
    want = _closed_form_density(params, pts[:, 1], ys)
    err = np.abs(cycles._density_batch(m, CircleAction.rotation(axis=4).velocity(m), pts, 1)
                 - want)
    assert np.max(err) / np.max(np.abs(want)) <= 2e-11
    assert np.argmax(err) in (0, len(ys) - 1)


@pytest.mark.parametrize("p,q", [(7, 3), (7, 5), (13, 7)])
def test_quadrature_matches_symbolic_closed_form(p, q):
    m = metrics.ypq_metric(metrics.solve_ypq(p, q))
    res = integrate_cycle(m, CircleAction.rotation(axis=4), 3, QuadratureSpec(nodes=16))
    exact = float(closed_form_value(p, q)) * PI4
    assert abs(res.value - exact) / abs(exact) < 1e-9
    assert res.pi4_multiple == closed_form_value(p, q)
    assert abs(res.value - exact) <= 10 * max(res.error_estimate, 1e-12 * abs(exact))


def test_exact_pairs_snap_right_or_not_at_all():
    # Every exact-mode pair with p <= 13 at the default nodes: the snap is the
    # closed form or absent.  (13,8)'s denominator 1035125 is over the snap
    # limit, so it has no right snap to give.
    from loopcs.cli import _exact_pairs

    pairs = _exact_pairs(13)
    assert pairs == [(7, 3), (7, 5), (13, 7), (13, 8)]
    for p, q in pairs:
        m = metrics.ypq_metric(metrics.solve_ypq(p, q))
        snap = integrate_cycle(m, CircleAction.rotation(axis=4), 3).pi4_multiple
        assert snap in (closed_form_value(p, q), None), (p, q, snap)


def test_refinement_within_error_estimate(y73):
    action = CircleAction.rotation(axis=4)
    coarse = integrate_cycle(y73, action, 3, QuadratureSpec(nodes=8))
    doubled = integrate_cycle(y73, action, 3, QuadratureSpec(nodes=16))
    assert abs(doubled.value - coarse.value) <= coarse.error_estimate


@pytest.mark.parametrize("nodes", [2, 3, 4, 6, 8, 12, 16])
def test_error_estimate_bounds_the_error_up_to_16_nodes(y73, nodes):
    # Where the two-level estimate bounds the true error on the headline
    # today: by 9.4x at 12 nodes up to 1.3e8x at 6, and the 16-node error is
    # exactly 0.  At 24 and 32 nodes it holds only by 1.11x and 1.02x (the
    # next test), and at 48 and 64 it fails (ROADMAP item 2).
    res = integrate_cycle(y73, CircleAction.rotation(axis=4), 3, QuadratureSpec(nodes=nodes))
    assert res.error_estimate >= abs(res.value - float(closed_form_value(7, 3)) * PI4)


@pytest.mark.parametrize("nodes", [24, 32])
def test_error_estimate_bounds_the_error_at_24_and_32_nodes(y73, nodes):
    # The narrow rows: the estimate exceeds the true error by only 1.11x at
    # 24 nodes and 1.02x at 32.  At 48 it reads 0.90x (ROADMAP item 2).
    res = integrate_cycle(y73, CircleAction.rotation(axis=4), 3, QuadratureSpec(nodes=nodes))
    assert res.error_estimate >= abs(res.value - float(closed_form_value(7, 3)) * PI4)


def test_density_quadrature_converges_geometrically(y73):
    # Past 8 nodes per axis (and before the ~1e-10 boundary-conditioning
    # noise floor) successive two-level error estimates shrink fast.
    action = CircleAction.rotation(axis=4)
    est8 = integrate_cycle(y73, action, 3, QuadratureSpec(nodes=8)).error_estimate
    est16 = integrate_cycle(y73, action, 3, QuadratureSpec(nodes=16)).error_estimate
    assert est16 < 0.5 * est8


def test_mask_shortcut_matches_bruteforce(y73):
    action = CircleAction.rotation(axis=4)
    fast = integrate_cycle(y73, action, 3, QuadratureSpec(nodes=6))
    slow = integrate_cycle(y73, action, 3, QuadratureSpec(nodes=6, mask=()))
    assert abs(fast.value - slow.value) / abs(fast.value) < 1e-9
    assert fast.node_counts == (0, 12, 0, 12, 0)
    assert slow.node_counts == (12, 12, 12, 12, 12)
    assert slow.provenance["loop_averaged_axes"] == ["alpha"]
    assert fast.provenance["loop_averaged_axes"] == []


def test_rotation_axis_evaluated_once_per_line(monkeypatch):
    # The non-Killing orbit problem: a k = 2 rotation along x0 of the
    # perturbed 3-torus on the unmasked box.  x0 keeps its node count but is
    # not gridded: after the probe's 16 orbits at the cap of 64 samples,
    # 6^2 + 12^2 lines of the measured loop samples, not 6^3 + 12^3.
    seen = []
    real = cycles.riemann

    def counted(metric, coords):
        seen.append(len(coords))
        return real(metric, coords)

    monkeypatch.setattr(cycles, "riemann", counted)
    res = integrate_cycle(metrics.perturbed_torus(3), CircleAction.rotation(axis=0), 2,
                          QuadratureSpec(nodes=6, mask=()))
    assert sum(seen) == 16 * 64 + (36 + 144) * res.provenance["loop_samples"]
    assert res.node_counts == (12, 12, 12)
    assert res.provenance["loop_averaged_axes"] == ["x0"]


def test_shared_rotation_axis_matches_bruteforce():
    # Sum w * f over the full 4^5 Gauss grid of the 2-node run's fine level,
    # x0 included.  The integral is ~1e-18, so the bound is relative to the
    # sum of w |f|.
    from loopcs.quadrature import gauss_nodes

    m = metrics.perturbed_torus(5)
    action = CircleAction.rotation(axis=0)
    res = integrate_cycle(m, action, 3, QuadratureSpec(nodes=2, mask=()))
    rules = [gauss_nodes(4, iv) for iv in m.box.intervals]
    x = np.stack(np.meshgrid(*(r[0] for r in rules), indexing="ij"), axis=-1)
    w = math.prod(np.meshgrid(*(r[1] for r in rules), indexing="ij"))
    f = pullback_density(m, action, x, loop_nodes=64)
    assert f.shape == (4,) * 5
    total, scale = np.sum(w * f), np.sum(w * np.abs(f))
    assert res.node_counts == (4, 4, 4, 4, 4)
    assert abs(res.value - total) <= 1e-13 * scale


def test_density_independent_of_rotation_coordinate():
    # x0 is not Killing on the perturbed torus, yet moving the base point
    # along the orbit's axis only shifts the loop parameter.
    m = metrics.perturbed_torus(5)
    base = np.array([1.3, 2.1, 0.7, 4.0, 2.6])
    rotation = CircleAction.rotation(axis=0)
    for action in (rotation, CircleAction.iterate(rotation, 3)):
        f0 = pullback_density(m, action, base)
        assert abs(f0) > 1e-8
        for x0 in np.linspace(0.2, 6.1, 7):
            moved = base.copy()
            moved[0] = x0
            assert abs(pullback_density(m, action, moved) - f0) <= 1e-13 * abs(f0)


def test_shared_axis_reports_refined_count(y73):
    # The fine level has 2 * 4 nodes: the shared alpha axis is reported at 8
    # like the gridded theta and y.
    action = CircleAction.rotation(axis=4)
    res = integrate_cycle(y73, action, 3, QuadratureSpec(nodes=4, mask=(0, 2)))
    assert res.node_counts == (0, 8, 0, 8, 8)
    assert res.provenance["refinement_factor"] == 2
    # With every other axis masked no axis is gridded; the count still refines.
    flat = metrics.flat_torus(3)
    res = integrate_cycle(flat, CircleAction.rotation(axis=0), 2,
                          QuadratureSpec(nodes=2, mask=(1, 2)))
    assert res.node_counts == (4, 0, 0)
    assert res.provenance["loop_averaged_axes"] == ["x0"]


@pytest.mark.parametrize("params", [(7, 3), 0.6])
def test_orbit_reduction_matches_explicit_mask(params):
    # The default mask reduces theta for the fiber rotation; the explicit
    # mask of the same constant axes keeps every (theta, y) node.
    m = metrics.ypq_metric(metrics.solve_ypq(*params) if isinstance(params, tuple)
                           else metrics.ypq_params_from_a(params))
    action = CircleAction.rotation(axis=4)
    reduced = integrate_cycle(m, action, 3, QuadratureSpec(nodes=16))
    full = integrate_cycle(m, action, 3, QuadratureSpec(nodes=16, mask=(0, 2, 4)))
    assert abs(reduced.value - full.value) <= 1e-9 * abs(full.value)
    assert reduced.node_counts == full.node_counts == (0, 32, 0, 32, 0)
    assert reduced.provenance["orbit_reduced_axes"] == ["theta"]
    assert full.provenance["orbit_reduced_axes"] == []


def test_headline_density_once_per_line(y73, monkeypatch):
    # 32 + 64 y-lines in all, plus the probe's 16 points and their 16
    # partners along each of theta and y; every point takes one loop sample.
    seen = []
    real = cycles.riemann

    def counted(metric, coords):
        seen.append(len(coords))
        return real(metric, coords)

    monkeypatch.setattr(cycles, "riemann", counted)
    res = integrate_cycle(y73, CircleAction.rotation(axis=4), 3)
    assert sum(seen) == 32 + 64 + 3 * 16
    assert res.node_counts == (0, 64, 0, 64, 0)
    assert "loop_samples" not in res.provenance  # no count was measured
    assert abs(res.value - float(closed_form_value(7, 3)) * PI4) <= 1e-13
    assert res.pi4_multiple == Fraction(-432, 6125)


def test_unreduced_path_worker_count_does_not_change_bits(pool_starts, pool_maps):
    # Without an orbit axis the pool evaluates densities in batches of
    # 1024 / (loop samples) lines: at the 16 samples measured for the x0
    # rotation of the perturbed 5-torus, 64 lines, so the 3^4 coarse lines of
    # x1 ... x4 are two batches and the 6^4 fine ones 21.
    m = metrics.perturbed_torus(5)
    action = CircleAction.rotation(axis=0)
    one = integrate_cycle(m, action, 3, QuadratureSpec(nodes=3, mask=(), workers=1))
    assert pool_starts == []
    two = integrate_cycle(m, action, 3, QuadratureSpec(nodes=3, mask=(), workers=2))
    assert two.provenance["loop_samples"] == 16
    assert pool_starts == [2] and pool_maps == [2, 21]
    assert (one.value, one.error_estimate) == (two.value, two.error_estimate)
    assert two.provenance["orbit_reduced_axes"] == []


@pytest.mark.parametrize("axis,nodes,maps", [(4, 64, []), (0, 32, [4]), (4, 32, [])])
def test_one_pool_per_cycle_integral(y73, pool_starts, pool_maps, axis, nodes, maps):
    # One pool per call, opened after the probe, takes only density batches
    # of 1024 one-sample rows.  Reduced alpha at 64 nodes: the 64 and 128
    # y-lines are one batch each, so the pool is idle, and sqrt(det g) is
    # never mapped.  Unreduced phi at 32 nodes: the 32^2 coarse (theta, y)
    # densities are one batch, the 64^2 fine ones four.
    action = CircleAction.rotation(axis=axis)
    one = integrate_cycle(y73, action, 3, QuadratureSpec(nodes=nodes, workers=1))
    assert pool_starts == [] and pool_maps == []
    two = integrate_cycle(y73, action, 3, QuadratureSpec(nodes=nodes, workers=2))
    assert pool_starts == [2] and pool_maps == maps
    assert (one.value, one.error_estimate, one.node_counts) == \
        (two.value, two.error_estimate, two.node_counts)
    assert two.provenance["orbit_reduced_axes"] == (["theta"] if axis == 4 else [])


def test_curvature_calls_capped_at_1024_orbit_points(monkeypatch):
    # The loop probe evaluates its 16 orbits at the cap in one call of 1024
    # points, then each of the 6^2 + 12^2 lines of x1, x2 takes the measured
    # loop samples along x0; no call exceeds 1024 orbit points.  The default
    # mask adds no orbit-axis probe: x0 varies, so the loop takes more than
    # one sample.
    seen = []
    real = cycles.riemann

    def counted(metric, coords):
        seen.append(len(coords))
        return real(metric, coords)

    monkeypatch.setattr(cycles, "riemann", counted)
    torus, action = metrics.perturbed_torus(3), CircleAction.rotation(axis=0)
    for mask in ((), None):
        seen.clear()
        res = integrate_cycle(torus, action, 2, QuadratureSpec(nodes=6, mask=mask))
        samples = res.provenance["loop_samples"]
        assert max(seen) <= cycles.MAX_ORBIT_POINTS == 16 * cycles.LOOP_CAP == 1024, mask
        assert seen == [16 * 64, 36 * samples, 144 * samples], mask


def test_integrand_gets_no_christoffels_or_lowered_riemann(monkeypatch):
    # The cycle layer hands the integrand g and riemann_up alone, so Gamma
    # and R_down are freed before it allocates: one density batch of the
    # 1024 probe points of perturbed_torus(5) then peaks at riemann's own
    # 12.87e6 B (18.64e6 B with the full pack alive), under the bound
    # test_riemann_peak_memory puts on riemann alone.
    m = metrics.perturbed_torus(5)
    velocity = CircleAction.rotation(axis=0).velocity(m)
    probe = cycles._probe_points(m)
    real, handed = cycles.wcs_integrand, []

    def kept(pack, *args):
        handed.append(pack)
        return real(pack, *args)

    monkeypatch.setattr(cycles, "wcs_integrand", kept)
    cycles._density_batch(m, velocity, probe, cycles.LOOP_CAP)
    (pack,) = handed
    assert pack.gamma is None and pack.riemann_down is None
    assert pack.g.shape == (1024, 5, 5) and pack.riemann_up.shape == (1024,) + (5,) * 4
    monkeypatch.setattr(cycles, "wcs_integrand", real)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cycles._density_batch(m, velocity, probe, cycles.LOOP_CAP)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 14e6


def _even_harmonic_torus():
    """The perturbed 5-torus with g_44 = 1 + a sin(2 x0): along the x0
    rotation each loop sample repeats half a loop later, so the two-sample
    rule equals the one-sample rule although neither has converged."""
    base = metrics.perturbed_torus(5)

    def components(xs):
        rows = base.components(xs)
        rows[4][4] = 1.0 + base.components.args[0][4] * jets.sin(2 * xs[0])
        return rows

    return MetricField(box=base.box, components=components,
                       coord_names=base.coord_names, name="even_harmonic_torus5")


def _probe_densities(metric, velocity, samples):
    """The loop rule at the 16 probe points and the curvature scale
    max|R|^k max|v| over their orbits at ``samples`` samples."""
    pts = cycles._probe_points(metric)
    pack = riemann(metric, cycles._orbit(metric, velocity, pts, samples))
    scale = (np.max(np.abs(pack.riemann_up)) ** ((metric.dim + 1) // 2)
             * np.max(np.abs(velocity)))
    return pts, cycles._density_batch(metric, velocity, pts, samples), scale


def test_orbit_problem_takes_two_loop_samples():
    # The k = 2 form vanishes in dimension 3: every loop rule agrees with the
    # cap's to roundoff, so the measured count falls to its floor of 2.
    res = integrate_cycle(metrics.perturbed_torus(3), CircleAction.rotation(axis=0), 2,
                          QuadratureSpec(nodes=6, mask=()))
    assert res.provenance["loop_samples"] == 2
    assert res.node_counts == (12, 12, 12)
    assert abs(res.value) <= 1e-12


@pytest.mark.parametrize("case", ["perturbed_torus5", "even_harmonic"])
def test_measured_loop_samples_agree_with_the_cap(case):
    # The count recorded is below the cap of 64, its rule agrees with the
    # cap's at the probe points to LOOP_TOL times the curvature scale, and
    # half the count does not.
    m = metrics.perturbed_torus(5) if case == "perturbed_torus5" else _even_harmonic_torus()
    action = CircleAction.rotation(axis=0)
    res = integrate_cycle(m, action, 3, QuadratureSpec(nodes=2, mask=()))
    n = res.provenance["loop_samples"]
    assert 2 < n < 64
    velocity = action.velocity(m)
    pts, cap, scale = _probe_densities(m, velocity, 64)
    tol = cycles.LOOP_TOL * scale
    assert np.max(np.abs(cycles._density_batch(m, velocity, pts, n) - cap)) <= tol
    assert np.max(np.abs(cycles._density_batch(m, velocity, pts, n // 2) - cap)) > tol


def test_even_harmonic_orbit_does_not_stop_at_two_samples():
    # A ladder of T_n against T_{n/2} is fooled here: T_2 equals T_1 to
    # roundoff, yet T_2 is far from the cap's rule.  Against the cap the
    # count stays above 2.
    m = _even_harmonic_torus()
    velocity = CircleAction.rotation(axis=0).velocity(m)
    pts, cap, scale = _probe_densities(m, velocity, 64)
    one, two = (cycles._density_batch(m, velocity, pts, n) for n in (1, 2))
    assert np.max(np.abs(two - one)) <= cycles.LOOP_TOL * scale
    assert np.max(np.abs(two - cap)) > 1e6 * cycles.LOOP_TOL * scale
    assert cycles._measured_loop_samples(m, velocity) > 2


def test_density_does_not_depend_on_its_batch():
    # A one-point batch sums its loop samples in the same order as a larger
    # batch does, so a density's bits do not depend on how rows are batched.
    m = metrics.perturbed_torus(3)
    action = CircleAction.rotation(axis=0)
    pts = m.box.from_unit(np.random.default_rng(3).uniform(size=(5, 3)), margin=0.1)
    velocity = action.velocity(m)
    batch = cycles._density_batch(m, velocity, pts, loop_samples=64)
    alone = [cycles._density_batch(m, velocity, pts[i:i + 1], loop_samples=64)[0]
             for i in range(len(pts))]
    assert batch.tolist() == alone
    assert pullback_density(m, action, pts[0]) == batch[0]


@pytest.mark.parametrize("workers", [1, 2])
def test_action_is_read_once_per_call(y73, workers, tmp_path, pool_maps, monkeypatch):
    # integrate_cycle and pullback_density each read the action once, as its
    # velocity: not again in the plan, the probes, the density batches or a
    # pool worker.  Each call is logged to a file, where a forked worker's
    # call would show too; the torus run maps its batches over the pool.
    log = tmp_path / "velocity_calls"
    real = CircleAction.velocity

    def counted(self, metric):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write("call\n")
        return real(self, metric)

    monkeypatch.setattr(CircleAction, "velocity", counted)
    torus = metrics.perturbed_torus(3)
    cases = [(y73, CircleAction.rotation(axis=4), 3, QuadratureSpec(nodes=4, workers=workers)),
             (torus, CircleAction.rotation(axis=0), 2,
              QuadratureSpec(nodes=24, mask=(), workers=workers))]
    for metric, action, k, quad in cases:
        for run in (lambda: integrate_cycle(metric, action, k, quad),
                    lambda: pullback_density(metric, action, metric.box.sample_interior(
                        np.random.default_rng(0), 3))):
            log.unlink(missing_ok=True)
            run()
            assert log.read_text(encoding="utf-8") == "call\n"
    assert any(n > 1 for n in pool_maps) == (workers == 2)


@pytest.mark.parametrize("case", ["perturbed_torus5", "7-3"])
def test_batched_density_equals_pointwise(y73, case, monkeypatch):
    # A batch of points gives the densities of its points one at a time, bit
    # for bit, in the batch's shape, and measures the constant axes once; a
    # zero velocity needs no loop plan and measures none.
    if case == "7-3":
        m, action = y73, CircleAction.rotation(axis=4)
    else:
        m, action = metrics.perturbed_torus(5), CircleAction.rotation(axis=0)
    pts = m.box.from_unit(np.random.default_rng(9).uniform(size=(2, 3, m.dim)), margin=0.1)
    measured = []
    real = cycles._constant_axes

    def counted(metric):
        measured.append(metric)
        return real(metric)

    monkeypatch.setattr(cycles, "_constant_axes", counted)
    batch = pullback_density(m, action, pts, loop_nodes=64)
    assert len(measured) == 1
    assert batch.shape == (2, 3)
    alone = [[pullback_density(m, action, x, loop_nodes=64) for x in row] for row in pts]
    assert batch.tolist() == alone
    assert all(isinstance(f, float) for row in alone for f in row)
    measured.clear()
    zeros = pullback_density(m, CircleAction.trivial(), pts)
    assert not measured
    assert zeros.shape == (2, 3) and not np.any(zeros)


@pytest.mark.parametrize("case", ["7-3", "perturbed_torus3"])
@pytest.mark.parametrize("batch", [(0,), (0, 2)])
def test_empty_batch_gives_an_empty_density(y73, case, batch):
    # An empty batch has empty densities of its shape, on the one-sample
    # Killing path and the looped one alike, as a zero velocity does.
    if case == "7-3":
        m, action = y73, CircleAction.rotation(axis=4)
    else:
        m, action = metrics.perturbed_torus(3), CircleAction.rotation(axis=0)
    for act in (action, CircleAction.trivial()):
        values = pullback_density(m, act, np.zeros(batch + (m.dim,)), loop_nodes=16)
        assert isinstance(values, np.ndarray) and values.shape == batch


@pytest.mark.parametrize("shape", [(6,), (2,), (5, 2)])
@pytest.mark.parametrize("action", [CircleAction.rotation(0), CircleAction.trivial()],
                         ids=["rotate-x0", "trivial"])
def test_density_points_must_carry_the_chart_coordinates(shape, action, monkeypatch):
    # A (6,) point was read as two points under the rotation, and as a
    # zero density under the trivial action; each is refused by name now,
    # before any curvature is evaluated.
    monkeypatch.setattr(cycles, "riemann", lambda *args: pytest.fail("evaluated"))
    with pytest.raises(ValueError, match=rf"shape \({shape[0]},.*the 3 coordinates"):
        pullback_density(metrics.perturbed_torus(3), action, np.full(shape, 1.0))


def test_orbit_reduction_passes_the_condition_guard(y73):
    # At 64 -> 128 nodes the theta poles trip the 1e12 guard on the full
    # grid; the reduced path evaluates the density at theta = pi/2 only.
    res = integrate_cycle(y73, CircleAction.rotation(axis=4), 3, QuadratureSpec(nodes=64))
    assert res.node_counts == (0, 128, 0, 128, 0)
    assert abs(res.value - float(closed_form_value(7, 3)) * PI4) <= 1e-12
    assert res.pi4_multiple == Fraction(-432, 6125)


def _volume_points(monkeypatch) -> list[int]:
    """The point count of every later cycles._volume call, in call order."""
    counts = []
    real = cycles._volume

    def counted(metric, coords):
        counts.append(math.prod(coords.shape[:-1]))
        return real(metric, coords)

    monkeypatch.setattr(cycles, "_volume", counted)
    return counts


@pytest.mark.parametrize("nodes,calls", [(32, 5), (64, 20)])
def test_volume_batched_by_points(y73, monkeypatch, nodes, calls):
    # sqrt(det g) from metric values follows the density's batch rule: at
    # most MAX_ORBIT_POINTS of the level's flat points a call.  The probe and
    # the lines' pinned points take theirs from the density's own pass, so
    # each level makes one call per MAX_ORBIT_POINTS points: 1 + 4 at 32
    # nodes (32 lines of 32, 64 of 64), 4 + 16 at 64 (64 of 64, 128 of 128).
    counts = _volume_points(monkeypatch)
    integrate_cycle(y73, CircleAction.rotation(axis=4), 3, QuadratureSpec(nodes=nodes))
    assert len(counts) == calls, counts
    assert max(counts) <= cycles.MAX_ORBIT_POINTS, counts
    assert sum(counts) == nodes**2 + (2 * nodes)**2  # the levels' points alone


def test_volume_batches_split_lines_at_the_cap(y73, monkeypatch):
    # At 12 nodes the lines hold 12 and 24 points.  Under a cap of 16 a
    # batch ends inside a line, and no call holds a whole 24-point line,
    # yet every bit of the result stays.
    action = CircleAction.rotation(axis=4)
    want = integrate_cycle(y73, action, 3, QuadratureSpec(nodes=12))
    monkeypatch.setattr(cycles, "MAX_ORBIT_POINTS", 16)
    counts = _volume_points(monkeypatch)
    got = integrate_cycle(y73, action, 3, QuadratureSpec(nodes=12))
    assert max(counts) == 16, counts
    assert (got.value, got.error_estimate) == (want.value, want.error_estimate)


def test_reduced_path_worker_count_does_not_change_bits(y73, monkeypatch, pool_maps):
    # Under a cap of 16 rows the 12 coarse y-lines of the reduced alpha
    # rotation are one batch, evaluated in-process, and the 24 fine ones two,
    # mapped over the pool with their ratios; every bit stays.
    action = CircleAction.rotation(axis=4)
    monkeypatch.setattr(cycles, "MAX_ORBIT_POINTS", 16)
    one = integrate_cycle(y73, action, 3, QuadratureSpec(nodes=12, workers=1))
    two = integrate_cycle(y73, action, 3, QuadratureSpec(nodes=12, workers=2))
    assert two.provenance["orbit_reduced_axes"] == ["theta"]
    assert pool_maps == [2]
    assert (one.value, one.error_estimate) == (two.value, two.error_estimate)


def test_orbit_probe_is_one_density_call(monkeypatch):
    # The probe follows the density's batch rule: round_sphere(5)'s 16 probe
    # points and their partners along its four grid axes are 80 one-sample
    # rows, one ratio batch of at most MAX_ORBIT_POINTS, whose sqrt(det g)
    # comes from its own curvature pass: no metric values are read.
    seen = []
    real = cycles._ratio_batch

    def counted(metric, velocity, coords):
        seen.append(coords.shape)
        return real(metric, velocity, coords)

    monkeypatch.setattr(cycles, "_ratio_batch", counted)
    monkeypatch.setattr(cycles, "_density_batch", lambda *args: pytest.fail("density"))
    monkeypatch.setattr(cycles, "metric_values", lambda *args: pytest.fail("metric values"))
    s5 = metrics.round_sphere(5)
    axes, samples = cycles._cycle_plan(s5, CircleAction.rotation(axis=4).velocity(s5),
                                       QuadratureSpec(nodes=4))
    assert axes == {"extent": (4,), "loop": (), "grid": (0, 1, 2, 3), "orbit": ()}
    assert samples == 1
    assert seen == [(80, 5)]


def test_orbit_probe_rejects_varying_ratio(y73):
    # A rotation inside SU(2) (phi), and a metric with no symmetry, reduce no
    # axis; their results equal the explicit-mask ones bit for bit.
    cases = [(y73, CircleAction.rotation(axis=0), 3, (0, 2, 4)),
             (metrics.perturbed_torus(3), CircleAction.rotation(axis=0), 2, ())]
    for metric, action, k, mask in cases:
        res = integrate_cycle(metric, action, k, QuadratureSpec(nodes=6))
        ref = integrate_cycle(metric, action, k, QuadratureSpec(nodes=6, mask=mask))
        assert res.provenance["orbit_reduced_axes"] == [], metric.name
        assert (res.value, res.error_estimate, res.node_counts) == \
            (ref.value, ref.error_estimate, ref.node_counts)


def test_each_axis_checked_once_per_call(y73, monkeypatch):
    # One 16-point jets call measures every axis, masked or not; the
    # curvature reaches the jets through geometry, not through this binding.
    calls = []
    real = cycles.metric_jets

    def counted(metric, coords):
        calls.append(len(coords))
        return real(metric, coords)

    monkeypatch.setattr(cycles, "metric_jets", counted)
    action = CircleAction.rotation(axis=4)
    for mask in (None, ()):
        calls.clear()
        integrate_cycle(y73, action, 3, QuadratureSpec(nodes=2, mask=mask))
        assert calls == [16], mask  # one check, not one per axis or per chunk
    calls.clear()
    pullback_density(y73, action, np.array([1.0, 1.2, 2.0, 0.1, 0.5]))
    assert calls == [16]


def test_constant_axes_measured(y73):
    # Exactly the axes the metrics' symmetries give.  A tiny radius keeps the
    # theta axes, whose derivatives are ~1e-14 but not zero.
    a06 = metrics.ypq_metric(metrics.ypq_params_from_a(0.6))
    cases = [(metrics.flat_torus(2), (0, 1)), (metrics.flat_torus(3), (0, 1, 2)),
             (metrics.flat_torus(5), (0, 1, 2, 3, 4)),
             (metrics.round_sphere(2), (1,)), (metrics.round_sphere(3), (2,)),
             (metrics.round_sphere(5), (4,)), (metrics.round_sphere(3, 1.7), (2,)),
             (metrics.round_sphere(3, radius=1e-7), (2,)),
             (metrics.perturbed_torus(3), ()), (metrics.perturbed_torus(1), ()),
             (metrics.perturbed_torus(5), ()), (metrics.catalog("s2xs3"), (1, 4)),
             (y73, (0, 2, 4)), (a06, (0, 2, 4))]
    for metric, want in cases:
        assert cycles._constant_axes(metric) == want, metric.name


def test_undeclared_constant_axis_is_masked(monkeypatch):
    # The round 3-sphere's parts with nothing declared: phi is measured
    # constant, so it is masked and each orbit takes one loop sample.
    from loopcs.geometry import MetricField

    s3 = metrics.round_sphere(3)
    bare = MetricField(box=s3.box, components=s3.components, coord_names=s3.coord_names)
    samples = []
    real = cycles._density_batch

    def counted(metric, velocity, coords, loop_samples):
        samples.append(loop_samples)
        return real(metric, velocity, coords, loop_samples)

    monkeypatch.setattr(cycles, "_density_batch", counted)
    action = CircleAction.rotation(axis=2)
    res = integrate_cycle(bare, action, 2, QuadratureSpec(nodes=4))
    assert res.node_counts == (8, 8, 0)
    assert res.provenance["masked_axes"] == ["phi"]
    assert set(samples) == {1}
    assert res.value == integrate_cycle(s3, action, 2, QuadratureSpec(nodes=4)).value


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
                "masked_axes", "params"):
        assert key in prov, key
    # The node counts are stated once, on the result (the record's top level).
    assert "node_counts" not in prov and res.node_counts == (0, 12, 0, 12, 0)
    assert prov["orientation"] == "phi^theta^y^psi^alpha"
    assert prov["params"]["exact_mode"] is True
    assert res.wall_time > 0.0


def test_wrong_dimension_rejected():
    m = metrics.round_sphere(3)
    with pytest.raises(ValueError):
        integrate_cycle(m, CircleAction.rotation(axis=2), 3)


@pytest.mark.parametrize("loop_nodes", [0, -3, 1025, 2.5, True])
def test_bad_loop_nodes_rejected_before_any_evaluation(y73, loop_nodes, monkeypatch):
    # Both loop plans of the density: the Killing fiber axis of (7,3) (one
    # sample) and an axis of the perturbed torus, which varies along it
    # (loop_nodes samples); the trivial action, whose value needs no loop, is
    # refused alike.  Over MAX_ORBIT_POINTS one row would not fit in a
    # curvature batch; a count that is not a whole number (2.5, True) is
    # refused by name, not left to fail inside a batch.  An integral's loop
    # cap is the constant LOOP_CAP, so integrate_cycle takes no loop_nodes.
    calls = []
    monkeypatch.setattr(cycles, "riemann", lambda *args: calls.append(args))
    torus = metrics.perturbed_torus(3)
    cases = [(y73, CircleAction.rotation(axis=4), 3),
             (torus, CircleAction.rotation(axis=0), 2),
             (y73, CircleAction.trivial(), 3)]
    for metric, action, k in cases:
        with pytest.raises(TypeError, match="loop_nodes"):
            integrate_cycle(metric, action, k, QuadratureSpec(nodes=3, mask=()),
                            loop_nodes=loop_nodes)
        with pytest.raises(ValueError, match="loop_nodes"):
            pullback_density(metric, action, metric.box.sample_interior(
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
    assert snap_pi4_multiple(exactly, 1e-12, exactly) == target
    # a loose error estimate widens the window; the coarse level must agree
    assert snap_pi4_multiple(exactly, 1e-12, exactly * (1 + 1e-6)) is None
    # huge-denominator truth is refused rather than mis-snapped
    ugly = float(Fraction(-32768, 1035125)) * PI4
    assert snap_pi4_multiple(ugly, 1e-13, ugly) is None
    # 0 only when |value| is within the estimate: an exact zero, a roundoff
    # zero, not a value whose ten-estimate window merely holds 0
    assert snap_pi4_multiple(0.0, 0.0, 0.0) == Fraction(0)
    assert snap_pi4_multiple(1e-13, 1e-12, -1e-13) == Fraction(0)
    assert snap_pi4_multiple(2e-12, 1e-12, 2e-12) is None
    # the 2-node headline, -6.860 with estimate 1.422: its window, +-0.146
    # in units of pi^4 around -0.0704, holds 0 at both levels
    value, estimate, coarse = (float.fromhex(h) for h in (
        "-0x1.b70e078a575eap+2", "0x1.6c11b62c6b1d7p+0", "-0x1.5c0999ff3c975p+2"))
    assert snap_pi4_multiple(value, estimate, coarse) is None


def test_non_exact_mode_never_snaps():
    m = metrics.ypq_metric(metrics.solve_ypq(11, 5))  # 409 is not a square
    res = integrate_cycle(m, CircleAction.rotation(axis=4), 3, QuadratureSpec(nodes=8))
    assert res.pi4_multiple is None
    assert res.value != 0.0


def test_a_sweep_follows_the_closed_form():
    # Criterion 8's integrated exponent is the closed form's, not 2: on the
    # criterion's grid the closed form's log-log slope is -0.15300, and as
    # a -> 1 it tends to the constant -(256/5) pi^4 ell^2, exponent 0.
    def closed_form(a):
        params = metrics.ypq_params_from_a(a)
        return (-256 / 135 * PI4 * params.ell**2 * (1 - a) ** 2
                * (G(params.y2) - G(params.y1)))

    grid = [0.9, 0.95, 0.99, 0.995]
    sweep = a_sweep(grid, quad=QuadratureSpec(nodes=32))
    exact = [closed_form(a) for a in grid]
    for row, want in zip(sweep.rows, exact):
        assert abs(row.result.value - want) <= 1e-9 * abs(want), row.label
    slope = float(np.polyfit(np.log1p(-np.array(grid)), np.log(np.abs(exact)), 1)[0])
    assert round(slope, 5) == -0.153
    assert abs(sweep.fitted_exponent - slope) <= 1e-6
    assert abs(closed_form(1 - 1e-6) / (-256 / 5 * PI4) - 1) <= 2e-3


def test_a_sweep_rows_and_error_recording():
    sweep = a_sweep([0.5, 1.5], quad=QuadratureSpec(nodes=4))
    assert sweep.rows[0].result is not None
    assert sweep.rows[1].result is None and "degenerate" in sweep.rows[1].error
    assert sweep.fitted_exponent is None  # a single usable point cannot be fitted

    sweep2 = a_sweep([0.4, 0.6], quad=QuadratureSpec(nodes=6))
    assert sweep2.fitted_exponent is not None


def test_cycle_integrals_use_no_sort_or_triangle_kernel(monkeypatch, y73):
    # Sorting the Gauss rule and the integrand's a < b pairs is bookkeeping:
    # numpy's sort and triangle kernels page in code every fresh run would
    # pay for, so neither bench problem calls them, rules and tables built
    # afresh included.
    torus = metrics.perturbed_torus(3)
    monkeypatch.setattr(quadrature, "_rule_cache", {})
    wcs._wedge_tables.cache_clear()
    for name in ("argsort", "sort", "triu_indices"):
        monkeypatch.setattr(np, name, lambda *a, _name=name, **k: pytest.fail(f"np.{_name}"))
    runs = [(y73, 4, 3, QuadratureSpec(nodes=8)), (torus, 0, 2, QuadratureSpec(nodes=2, mask=()))]
    for metric, axis, k, spec in runs:
        r = integrate_cycle(metric, CircleAction.rotation(axis=axis), k, quad=spec)
        assert math.isfinite(r.value) and r.node_counts
    assert len(quadrature._rule_cache) >= 2

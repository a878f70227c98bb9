"""The value moves under a time change of the action (README, "Known
discrepancy"), and stays under a y-shear of the metric.

Conjugating a rotation along a Killing axis by a time change of that axis,
phi: x_a -> x_a + eps1 P sin(x_a / P) + eps2 P sin(2 x_a / P), gives an action
with the same orbits at a varying speed h = d phi_a / d x_a.  The integrand is
natural, alternating in the frame and linear in the velocity, so its value
on the conjugated cycle is the constant-speed value times the mean of h^2,
1 + eps1^2 / 2 + 2 eps2^2, not the value itself.  This pins today's law: a
change to the integrand that makes the value an invariant of the action's
class replaces this test by an invariance test.

A y-shear phi: y -> y + eps b(y) sin(2 pi alpha / L), L the alpha period and
b vanishing to fourth order at both ends of the y-interval, is a
diffeomorphism of the chart joined to the identity through eps.  Pulling
the metric back by it moves the cycle within its homotopy class with no time
change, so the integral of the closed form stays while the density moves
pointwise: the integrated closedness oracle.

A reflection phi: x_a -> P - x_a of a Killing axis of period P rests on
naturality alone.  It reverses the orientation and negates every metric
component with one index on a, so a rotation along a, whose velocity the
reflection also negates, keeps its value, and a rotation along another
Killing axis negates it; the sign flips are exact, so both keep their bits.
"""
import math

import numpy as np
import pytest

from loopcs import metrics
from loopcs.cycles import CircleAction, integrate_cycle, pullback_density
from loopcs.geometry import metric_values
from loopcs.quadrature import QuadratureSpec
from pullback import Reflection, TimeChange, YShear, pullback

# The exact (7,3) values of the constant-speed rotations, in units of pi^4.
EXACT = {"psi": 384 / 1225, "alpha": -432 / 6125}


@pytest.mark.parametrize("axis,eps1,eps2,loop_samples", [
    ("psi", 0.5, 0.0, 4), ("psi", 0.3, 0.2, 8), ("alpha", 0.5, 0.0, 4)])
def test_time_change_multiplies_the_value_by_the_mean_square_speed(axis, eps1, eps2,
                                                                   loop_samples):
    m = metrics.ypq_metric(metrics.solve_ypq(7, 3))
    a = m.coord_names.index(axis)
    pulled = pullback(m, TimeChange(a, m.box.extent(a), eps1, eps2))
    res = integrate_cycle(pulled, CircleAction.rotation(axis=a), 3, QuadratureSpec(nodes=8))
    ratio = res.value / (EXACT[axis] * math.pi**4)
    assert abs(ratio - (1 + eps1**2 / 2 + 2 * eps2**2)) <= 1e-10
    # The pulled-back metric varies along the rotation axis, so the loop count
    # is measured, not the one sample of a Killing axis.
    assert res.provenance["loop_samples"] == loop_samples


@pytest.mark.parametrize("p,q,axis,eps", [
    (7, 3, "alpha", 0.5), (7, 3, "alpha", 2.0), (7, 3, "psi", 0.5), (7, 3, "psi", 2.0),
    (5, 3, "alpha", 0.5)])
def test_y_shear_keeps_the_value_and_moves_the_density(p, q, axis, eps):
    params = metrics.solve_ypq(p, q)
    m = metrics.ypq_metric(params)
    y, alpha = m.coord_names.index("y"), m.coord_names.index("alpha")
    pulled = pullback(m, YShear(y, alpha, m.box.extent(alpha), m.box.intervals[y], eps))
    action = CircleAction.rotation(axis=m.coord_names.index(axis))
    want = integrate_cycle(m, action, 3, QuadratureSpec(nodes=8)).value
    got = integrate_cycle(pulled, action, 3, QuadratureSpec(nodes=8)).value
    assert abs(got - want) <= 1e-9 * abs(want)
    point = np.array([1.3, 1.1, 2.1, 0.5 * sum(m.box.intervals[y]), 0.6 * math.pi * params.ell])
    before = pullback_density(m, action, point)
    assert abs(pullback_density(pulled, action, point) - before) >= 0.01 * abs(before)


@pytest.mark.parametrize("nodes", [8, 16])
@pytest.mark.parametrize("reflected", ["alpha", "psi"])
@pytest.mark.parametrize("p,q", [(7, 3), (5, 3)])
def test_reflection_keeps_or_negates_the_bits(p, q, reflected, nodes):
    params = metrics.solve_ypq(p, q)
    m = metrics.ypq_metric(params)
    a = m.coord_names.index(reflected)
    pulled = pullback(m, Reflection(a, m.box.extent(a)))
    quad = QuadratureSpec(nodes=nodes)
    for axis in ("alpha", "psi"):
        action = CircleAction.rotation(axis=m.coord_names.index(axis))
        want = integrate_cycle(m, action, 3, quad)
        got = integrate_cycle(pulled, action, 3, quad)
        assert got.value == (want.value if axis == reflected else -want.value)
        assert got.error_estimate == want.error_estimate
        assert got.provenance["orbit_reduced_axes"] == ["theta"]
    # The pullback is not the metric: the psi-alpha component changes sign.
    psi, y, alpha = (m.coord_names.index(name) for name in ("psi", "y", "alpha"))
    point = np.array([1.3, 1.1, 2.1, 0.5 * sum(m.box.intervals[y]), 0.6 * math.pi * params.ell])
    before = metric_values(m, point)[psi, alpha]
    after = metric_values(pulled, point)[psi, alpha]
    assert before != 0.0 and after == -before

"""The value moves under a time change of the action (README, "Known
discrepancy").

Conjugating a rotation along a Killing axis by a time change of that axis,
phi: x_a -> x_a + eps1 P sin(x_a / P) + eps2 P sin(2 x_a / P), gives an action
with the same orbits at a varying speed h = d phi_a / d x_a.  The integrand is
natural, alternating in the frame and linear in the velocity, so its value
on the conjugated cycle is the constant-speed value times the mean of h^2,
1 + eps1^2 / 2 + 2 eps2^2, not the value itself.  This pins today's law: a
change to the integrand that makes the value an invariant of the action's
class replaces this test by an invariance test.
"""
import math

import pytest

from loopcs import metrics
from loopcs.cycles import CircleAction, integrate_cycle
from loopcs.quadrature import QuadratureSpec
from pullback import TimeChange, pullback

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

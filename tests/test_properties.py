"""Properties drawn at random: pointwise naturality and batch independence.

Hypothesis draws the maps, points, velocities and batch splits, derandomized
so that every run checks the same examples.
"""
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcs import cycles, jets, metrics
from loopcs.cycles import CircleAction, pullback_density
from loopcs.geometry import CoordBox, MetricField, riemann
from loopcs.wcs import wcs_integrand
from pullback import SineShift, image, pullback

METRICS = {
    "ypq73": metrics.ypq_metric(metrics.solve_ypq(7, 3)),
    "round_sphere5": metrics.round_sphere(5),
    "perturbed_torus3": metrics.perturbed_torus(3),
    "perturbed_torus5": metrics.perturbed_torus(5),
}

drawn = settings(derandomize=True, database=None, max_examples=20, deadline=None)


@dataclass(frozen=True)
class _TrigSquare:
    """g = L^T L + c I with L[a][b] = u sin(k x_a + p) + w cos(l x_b), one
    drawn (u, k, p, w, l) per entry: periodic, and definite for c > 0.
    Each entry reads its own row's and column's coordinates, and the
    amplitudes are drawn away from 0, so g varies along every axis: a
    metric of one coordinate has a zero integrand, which checks nothing."""

    entries: tuple
    c: float

    def __call__(self, xs):
        n = len(xs)
        L = [[u * jets.sin(k * xs[a] + p) + w * jets.cos(l * xs[b])
              for b, (u, k, p, w, l) in enumerate(self.entries[a * n:(a + 1) * n])]
             for a in range(n)]
        g = [[0.0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                g[a][b] = g[b][a] = (sum(L[e][a] * L[e][b] for e in range(n))
                                     + (self.c if a == b else 0.0))
        return g


@st.composite
def trig_metrics(draw, n=5):
    """A random metric of :class:`_TrigSquare` on the periodic n-torus box."""
    amp, freq = st.floats(0.25, 1.0), st.integers(1, 2)
    entry = st.tuples(amp, freq, st.floats(0.0, 2 * math.pi), amp, freq)
    entries = draw(st.lists(entry, min_size=n * n, max_size=n * n), label="L")
    box = CoordBox(((0.0, 2 * math.pi),) * n, (True,) * n)
    return MetricField(box=box, components=_TrigSquare(tuple(entries),
                                                       draw(st.floats(0.25, 2.0), label="c")),
                       coord_names=tuple(f"x{a}" for a in range(n)), name=f"trig_square{n}")


def _points(data, metric, shape):
    """Interior points of ``metric``'s chart, margin 0.1, of the given batch
    shape, from a drawn seed; with them a drawn velocity per point."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x = metric.box.from_unit(rng.random(shape + (metric.dim,)), margin=0.1)
    return x, rng.uniform(-1.0, 1.0, x.shape)


def _split(data, batch):
    """``batch`` cut along axis 0 at drawn places: pieces of any size from 1."""
    cuts = (data.draw(st.sets(st.integers(1, len(batch) - 1), max_size=8), label="cuts")
            if len(batch) > 1 else set())
    return np.split(batch, sorted(cuts))


# Property 1: for phi with Jacobian J, the integrand of phi* g at x with the
# coordinate frame and velocity v equals that of g at phi(x) with the frame
# J e_1 .. J e_n (the rows of J^T) and velocity J v.  The point is in the
# chart for both families: phi moves a periodic axis only.  The base metric
# is a catalog one or a drawn trig_metrics() one.
@pytest.mark.parametrize("family", ["shear", "sine"])
@pytest.mark.parametrize("name", ["perturbed_torus5", "ypq73", "trig_square5"])
@drawn
@given(data=st.data())
def test_integrand_is_natural(name, family, data):
    metric = data.draw(trig_metrics(), label="metric") if name == "trig_square5" else METRICS[name]
    periodic = [a for a in range(metric.dim) if metric.box.periodic[a]]
    i = data.draw(st.sampled_from(periodic), label="i")
    j = (data.draw(st.sampled_from([a for a in range(metric.dim) if a != i]), label="j")
         if family == "shear" else i)
    phi = SineShift(i, j, data.draw(st.floats(-0.45, 0.45), label="eps"))
    x, v = _points(data, metric, (4,))
    pulled = pullback(metric, phi)
    y, J = image(phi, x)
    lhs = wcs_integrand(riemann(pulled, x), np.eye(metric.dim), v)
    rhs = [wcs_integrand(riemann(metric, yk[None]), Jk.T, Jk @ vk)[0]
           for yk, Jk, vk in zip(y, J, v)]
    # Relative to the largest value drawn: a density may sit near zero.
    assert np.max(np.abs(np.subtract(lhs, rhs))) <= 1e-12 * np.max(np.abs(rhs)), (lhs, rhs)


# Property 2: a point's value does not depend on the batch that holds it, so
# any fixed batch size gives the same bits (quadrature.evaluate's callers,
# and every worker count).
@pytest.mark.parametrize("name,axis,samples", [
    ("ypq73", 4, 1), ("round_sphere5", 4, 1),
    ("perturbed_torus3", 0, 2), ("perturbed_torus3", 0, 64), ("perturbed_torus5", 0, 16)])
@drawn
@given(data=st.data())
def test_density_does_not_depend_on_its_batch(name, axis, samples, data):
    metric = METRICS[name]
    velocity = CircleAction.rotation(axis).velocity(metric)
    batch, _ = _points(data, metric, (data.draw(st.integers(1, 64), label="size"),))
    whole = cycles._density_batch(metric, velocity, batch, samples)
    pieces = [cycles._density_batch(metric, velocity, p, samples) for p in _split(data, batch)]
    assert np.array_equal(whole, np.concatenate(pieces))


@pytest.mark.parametrize("name,axis", [
    ("ypq73", None), ("perturbed_torus5", None), ("ypq73", 4), ("perturbed_torus3", 0)])
@drawn
@given(data=st.data())
def test_volume_and_oracle_density_do_not_depend_on_their_batch(name, axis, data):
    # sqrt(det g) without an axis, else the density oracle along it, at 1
    # loop sample on ypq(7,3)'s alpha and at 64 on the torus's x0.
    metric = METRICS[name]
    fn = (cycles._volume if axis is None
          else lambda m, x: pullback_density(m, CircleAction.rotation(axis), x))
    batch, _ = _points(data, metric, (2, 3))
    whole = fn(metric, batch)
    pieces = [fn(metric, p) for p in _split(data, batch.reshape(6, metric.dim))]
    assert whole.shape == (2, 3)
    assert np.array_equal(whole.ravel(), np.concatenate(pieces))

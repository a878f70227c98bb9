"""Pullback of a metric by a map of its chart, for the naturality, the
time-change, the y-shear and the reflection tests.

For a map phi with Jacobian J = d phi / dx, the pulled-back metric is
(phi* g)(x) = J(x)^T g(phi(x)) J(x).  :func:`pullback` wraps a metric's
component function with a map written in ``jets`` functions, so the jets of
phi* g carry phi's first and second derivatives through the chain rule,
while J is given in closed form.  A map must keep the chart in the chart.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from loopcs import jets
from loopcs.geometry import MetricField


@dataclass(frozen=True)
class SineShift:
    """phi: x_i -> x_i + eps sin x_j, every other coordinate fixed.

    For j != i it is a shear, det J = 1; for j == i, det J = 1 + eps cos x_i,
    positive for |eps| < 1.  With i a periodic axis every point stays in the
    chart.
    """

    i: int
    j: int
    eps: float

    def __call__(self, xs: list) -> list:
        ys = list(xs)
        ys[self.i] = xs[self.i] + self.eps * jets.sin(xs[self.j])
        return ys

    def jacobian(self, xs: list) -> list:
        """J[a][b] = d phi_a / d x_b as a nested list, 0.0 and 1.0 where
        constant."""
        n = len(xs)
        J = [[1.0 if a == b else 0.0 for b in range(n)] for a in range(n)]
        J[self.i][self.j] = J[self.i][self.j] + self.eps * jets.cos(xs[self.j])
        return J


@dataclass(frozen=True)
class TimeChange:
    """phi: x_a -> x_a + eps1 P sin(x_a / P) + eps2 P sin(2 x_a / P), with
    P = period / (2 pi) and every other coordinate fixed.

    On an axis a of the given period that starts at 0 it maps each circle
    of the axis onto itself, ends fixed, with derivative
    h = 1 + eps1 cos(x_a / P) + 2 eps2 cos(2 x_a / P), positive for
    |eps1| + 2 |eps2| < 1.  Conjugating the rotation along a by phi changes
    its time, not its orbits: the mean of h over a period is 1, and that of
    h^2 is 1 + eps1^2 / 2 + 2 eps2^2.
    """

    axis: int
    period: float
    eps1: float
    eps2: float

    def __call__(self, xs: list) -> list:
        P = self.period / (2.0 * math.pi)
        x = xs[self.axis]
        ys = list(xs)
        ys[self.axis] = x + self.eps1 * P * jets.sin(x / P) + self.eps2 * P * jets.sin(2.0 * x / P)
        return ys

    def jacobian(self, xs: list) -> list:
        """J[a][b] = d phi_a / d x_b as a nested list, 0.0 and 1.0 where
        constant."""
        P = self.period / (2.0 * math.pi)
        x = xs[self.axis]
        n = len(xs)
        J = [[1.0 if a == b else 0.0 for b in range(n)] for a in range(n)]
        J[self.axis][self.axis] = (1.0 + self.eps1 * jets.cos(x / P)
                                   + 2.0 * self.eps2 * jets.cos(2.0 * x / P))
        return J


@dataclass(frozen=True)
class YShear:
    """phi: x_y -> x_y + eps b(x_y) sin(2 pi x_a / L), every other
    coordinate fixed, with b = c u^4, u = (x_y - y1)(y2 - x_y), on an axis y
    of interval (y1, y2) and a periodic axis a of period L.

    J_yy = 1 + eps b' sin(2 pi x_a / L) and J_ya = eps b (2 pi / L)
    cos(2 pi x_a / L).  The constant c = 1 / (4 max|(u^4)'|) gives
    |eps b'| <= |eps| / 4, so for |eps| < 4 each slice of fixed x_a is mapped
    onto itself, increasing, with y1 and y2 fixed: phi is a diffeomorphism of
    the chart, joined to the identity through eps.  With h = (y2 - y1) / 2,
    |(u^4)'| = 8 |s| (h^2 - s^2)^3 at s = x_y - (y1 + y2) / 2 peaks at
    s^2 = h^2 / 7, at 1728 h^7 / (343 sqrt 7).
    """

    y: int
    a: int
    period: float
    interval: tuple[float, float]
    eps: float

    @property
    def c(self) -> float:
        h = 0.5 * (self.interval[1] - self.interval[0])
        return 343.0 * math.sqrt(7.0) / (4.0 * 1728.0 * h**7)

    def _u(self, y):
        y1, y2 = self.interval
        return (y - y1) * (y2 - y)

    def __call__(self, xs: list) -> list:
        u = self._u(xs[self.y])
        u2 = u * u
        ys = list(xs)
        ys[self.y] = xs[self.y] + self.eps * self.c * u2 * u2 * jets.sin(
            (2.0 * math.pi / self.period) * xs[self.a])
        return ys

    def jacobian(self, xs: list) -> list:
        """J[a][b] = d phi_a / d x_b as a nested list, 0.0 and 1.0 where
        constant."""
        y1, y2 = self.interval
        k = 2.0 * math.pi / self.period
        u = self._u(xs[self.y])
        u3 = u * u * u
        n = len(xs)
        J = [[1.0 if a == b else 0.0 for b in range(n)] for a in range(n)]
        J[self.y][self.y] = 1.0 + self.eps * self.c * 4.0 * u3 * (
            y1 + y2 - 2.0 * xs[self.y]) * jets.sin(k * xs[self.a])
        J[self.y][self.a] = self.eps * self.c * k * u3 * u * jets.cos(k * xs[self.a])
        return J


@dataclass(frozen=True)
class Reflection:
    """phi: x_a -> period - x_a, every other coordinate fixed.

    On a periodic axis a of the given period that starts at 0 it maps each
    circle of the axis onto itself, reversing it; J is the identity except
    -1.0 at (a, a), so det J = -1.
    """

    axis: int
    period: float

    def __call__(self, xs: list) -> list:
        ys = list(xs)
        ys[self.axis] = self.period - xs[self.axis]
        return ys

    def jacobian(self, xs: list) -> list:
        """J[a][b] = d phi_a / d x_b as a nested list of constants."""
        n = len(xs)
        J = [[1.0 if a == b else 0.0 for b in range(n)] for a in range(n)]
        J[self.axis][self.axis] = -1.0
        return J


def _is_zero(x) -> bool:
    return not isinstance(x, (jets.Jet2, np.ndarray)) and x == 0.0


def _dot(terms) -> object:
    """Sum of the products in ``terms``, skipping those with a plain zero."""
    total = 0.0
    for a, b in terms:
        if not (_is_zero(a) or _is_zero(b)):
            total = total + a * b
    return total


@dataclass(frozen=True)
class _PulledComponents:
    components: object
    phi: object

    def __call__(self, xs):
        n = len(xs)
        g = self.components(self.phi(xs))
        J = self.phi.jacobian(xs)
        gJ = [[_dot((g[a][c], J[c][b]) for c in range(n)) for b in range(n)]
              for a in range(n)]
        return [[_dot((J[c][a], gJ[c][b]) for c in range(n)) for b in range(n)]
                for a in range(n)]


def pullback(metric: MetricField, phi) -> MetricField:
    """phi* g on the chart of ``metric``: its components at x are
    J(x)^T g(phi(x)) J(x)."""
    return replace(metric, components=_PulledComponents(metric.components, phi),
                   name=f"pullback({metric.name}, {phi})", params=None)


def image(phi, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi(x) and J(x) at a batch of points ``x`` of shape (..., n): arrays of
    shape (..., n) and (..., n, n)."""
    n = x.shape[-1]
    xs = [x[..., a] for a in range(n)]
    y = np.empty_like(x)
    J = np.empty(x.shape + (n,))
    for a, (ya, row) in enumerate(zip(phi(xs), phi.jacobian(xs))):
        y[..., a] = ya
        for b, entry in enumerate(row):
            J[..., a, b] = entry
    return y, J

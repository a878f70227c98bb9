"""Pullback of a metric by a map of its chart, for the naturality tests.

For a map phi with Jacobian J = d phi / dx, the pulled-back metric is
(phi* g)(x) = J(x)^T g(phi(x)) J(x).  :func:`pullback` wraps a metric's
component function with a map written in ``jets`` functions, so the jets of
phi* g carry phi's first and second derivatives through the chain rule,
while J is given in closed form.  A map must keep the chart in the chart.
"""
from __future__ import annotations

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

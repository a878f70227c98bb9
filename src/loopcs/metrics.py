"""Concrete metric catalog.

The centerpiece is the five-dimensional family of Sasaki-Einstein metrics in
coordinates (phi, theta, psi, y, alpha),

    g = (1 - y)/6 (dtheta^2 + sin^2 theta dphi^2)  +  dy^2 / (w q)
        + q/9 (dpsi - cos theta dphi)^2
        + w [dalpha + A (dpsi - cos theta dphi)]^2,

    w(y) = 2 (a - y^2)/(1 - y),
    q(y) = (a - 3 y^2 + 2 y^3)/(a - y^2),
    A(y) = (a - 2 y + y^2)/(6 (a - y^2)),

with the local constant c of Gauntlett-Martelli-Sparks-Waldram
(hep-th/0403002) set to 1, as they do: any c != 0 rescales to 1 together
with y and a (with Y = c y and A = c^2 a, a - 3 y^2 + 2 c y^3 is
(A - 3 Y^2 + 2 Y^3) / c^2).  The metric is defined on the open box
phi in (0, 2 pi), theta in (0, pi), psi in (0, 2 pi), y in (y1, y2),
alpha in (0, 2 pi ell), where y1 < y2 are the two smaller roots of
a - 3 y^2 + 2 y^3 = 0.  For coprime integers 0 < q < p the family
parameters are determined by

    y_{1,2} = (2 p -+ 3 q - n) / (4 p),      n = sqrt(4 p^2 - 3 q^2),
    a       = 3 y1^2 - 2 y1^3,
    ell     = q / (3 q^2 - 2 p^2 + p n),

rational whenever 4 p^2 - 3 q^2 is a perfect square (exact mode, computed in
arbitrary-precision rational arithmetic).  Reference metrics (flat tori,
round spheres, products, a perturbed torus) back the vanishing and
validation tests.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import jets
from .geometry import (CoordBox, CurvaturePack, MetricField, leading_minors_positive,
                       metric_values)
from .jets import ChartDomainError

__all__ = [
    "YpqParams",
    "solve_ypq",
    "ypq_params_from_a",
    "ypq_metric",
    "flat_torus",
    "round_sphere",
    "product",
    "perturbed_torus",
    "catalog",
    "einstein_residual",
    "EINSTEIN_CONSTANT_DIM5",
    "YPQ_COORDS",
]

TWO_PI = 2.0 * math.pi
# Chart coordinates of the five-dimensional family, in chart order.
YPQ_COORDS = ("phi", "theta", "psi", "y", "alpha")

# Einstein constant of the dim-5 family: Ric = 4 g (dimension minus one).
EINSTEIN_CONSTANT_DIM5 = 4.0


@dataclass(frozen=True)
class YpqParams:
    """Parameters of one member of the Sasaki-Einstein family (c = 1).

    In exact mode, when 4 p^2 - 3 q^2 is a perfect square n^2, the rational
    values of a, ell, y1, y2 are kept alongside their float mirrors.
    """

    p: int | None
    q: int | None
    a: float
    ell: float
    y1: float
    y2: float
    a_exact: Fraction | None = None
    ell_exact: Fraction | None = None
    y1_exact: Fraction | None = None
    y2_exact: Fraction | None = None

    @property
    def exact_mode(self) -> bool:
        return self.a_exact is not None

    @property
    def n(self) -> int | None:
        """The integer sqrt(4 p^2 - 3 q^2) in exact mode, else None."""
        return math.isqrt(4 * self.p**2 - 3 * self.q**2) if self.exact_mode else None

    def cubic_residual(self, y) -> float:
        """a - 3 y^2 + 2 y^3 at y (zero at y1, y2 by construction)."""
        return self.a - 3.0 * y * y + 2.0 * y**3


def _check_root_order(a: float, y1: float, y2: float) -> None:
    if not y1 < y2:
        raise ValueError(f"cubic roots out of order: y1={y1}, y2={y2}")
    y3 = 1.5 - y1 - y2  # root sum of 2 y^3 - 3 y^2 + a is 3/2
    if not y2 < y3:
        raise ValueError("y1, y2 are not the two smaller cubic roots")
    if not (y1 < 0.0 < y2):
        raise ValueError(f"expected y1 < 0 < y2, got ({y1}, {y2}) for a={a}")


def _check_ell(ell: float) -> None:
    """Refuse a fiber period parameter that is not > 0 (NaN included) or not
    finite: an infinite period leaves no closed orbit to integrate over."""
    if not ell > 0.0:
        raise ValueError(f"fiber period parameter ell must be > 0, got {ell}")
    if not math.isfinite(ell):
        raise ValueError(f"fiber period parameter ell must be > 0 and finite, got {ell}")


def solve_ypq(p: int, q: int) -> YpqParams:
    """Resolve integers (p, q) into metric parameters.

    Requires 0 < q < p with gcd(p, q) = 1.  The closed forms are evaluated
    once, on the square root n as a Fraction in exact mode (so every value
    is rational) and as a float otherwise.  The cubic-root identities are
    re-verified, exactly in exact mode and numerically in both.
    """
    p, q = int(p), int(q)
    if not (0 < q < p):
        raise ValueError(f"need 0 < q < p, got (p, q) = ({p}, {q})")
    if math.gcd(p, q) != 1:
        raise ValueError(f"(p, q) = ({p}, {q}) are not coprime")
    disc = 4 * p * p - 3 * q * q
    n = math.isqrt(disc)
    exact = n * n == disc
    root = Fraction(n) if exact else math.sqrt(disc)
    y1 = (2 * p - 3 * q - root) / (4 * p)
    y2 = (2 * p + 3 * q - root) / (4 * p)
    a = 3 * y1 * y1 - 2 * y1**3
    ell = q / (3 * q * q - 2 * p * p + p * root)
    if exact and 3 * y2 * y2 - 2 * y2**3 != a:
        raise ValueError("rational cubic-root consistency failed")
    rational = dict(a_exact=a, ell_exact=ell, y1_exact=y1, y2_exact=y2) if exact else {}
    params = YpqParams(p=p, q=q, a=float(a), ell=float(ell), y1=float(y1), y2=float(y2),
                       **rational)

    if not 0.0 < params.a <= 1.0:
        raise ValueError(f"parameter a={params.a} outside (0, 1]")
    for y in (params.y1, params.y2):
        if abs(params.cubic_residual(y)) > 1e-12:
            raise ValueError(f"cubic residual at y={y} too large")
    _check_root_order(params.a, params.y1, params.y2)
    _check_ell(params.ell)
    return params


def ypq_params_from_a(a: float, ell: float = 1.0) -> YpqParams:
    """Parameters from a direct ``a`` override (degeneration experiments).

    Solves 2 y^3 - 3 y^2 + a = 0 (c = 1) for its two smaller roots.  ``a``
    must lie strictly inside (0, 1): at a = 1 the two larger roots collide
    and the y-interval degenerates.  ``ell`` must be finite and > 0.  Both
    are input checks, so they raise a plain ValueError.
    """
    a = float(a)
    if not 0.0 < a < 1.0:
        raise ValueError(f"a={a} is degenerate: need 0 < a < 1 for an open y-interval")
    _check_ell(ell)
    roots = np.roots([2.0, -3.0, 0.0, a])
    real = np.sort(roots[np.abs(roots.imag) < 1e-9].real)
    if len(real) != 3:
        raise ValueError(f"cubic for a={a} does not have three real roots")
    y1, y2 = float(real[0]), float(real[1])
    _check_root_order(a, y1, y2)
    return YpqParams(p=None, q=None, a=a, ell=float(ell), y1=y1, y2=y2)


@dataclass(frozen=True)
class _YpqComponents:
    """Metric component builder for the dim-5 Sasaki-Einstein family."""

    a: float

    def __call__(self, xs):
        _, theta, _, y, _ = xs
        a = self.a
        sin_t = jets.sin(theta)
        cos_t = jets.cos(theta)
        one_minus_y = 1.0 - y
        a_minus_y2 = a - y * y
        w = 2.0 * a_minus_y2 * jets.recip(one_minus_y)
        qf = (a - 3.0 * y * y + 2.0 * y * y * y) * jets.recip(a_minus_y2)
        wq = w * qf
        if np.any(jets.value_of(one_minus_y) <= 0.0) or np.any(jets.value_of(wq) <= 0.0) \
                or np.any(jets.value_of(sin_t) == 0.0):
            raise ChartDomainError(
                "Sasaki-Einstein chart degenerate at evaluation point "
                "(sin theta = 0, w q <= 0, or 1 - y <= 0)")
        u = one_minus_y * (1.0 / 6.0)
        big_a = (a - 2.0 * y + y * y) * jets.recip(6.0 * a_minus_y2)
        q9 = qf * (1.0 / 9.0)
        w_a = w * big_a
        fiber = q9 + w_a * big_a          # q/9 + w A^2
        g_pp = u * sin_t * sin_t + fiber * cos_t * cos_t
        g_pf = -(fiber * cos_t)           # phi-psi cross term
        g_pa = -(w_a * cos_t)             # phi-alpha cross term
        zero = 0.0
        return [
            [g_pp, zero, g_pf, zero, g_pa],
            [zero, u, zero, zero, zero],
            [g_pf, zero, fiber, zero, w_a],
            [zero, zero, zero, jets.recip(wq), zero],
            [g_pa, zero, w_a, zero, w],
        ]


def ypq_metric(params: YpqParams) -> MetricField:
    """The five-dimensional Sasaki-Einstein metric field for ``params``.

    Coordinates are ordered (phi, theta, psi, y, alpha); the orientation used
    by cycle integrals is the form order (phi, theta, y, psi, alpha).
    """
    box = CoordBox(
        intervals=((0.0, TWO_PI), (0.0, math.pi), (0.0, TWO_PI),
                   (params.y1, params.y2), (0.0, TWO_PI * params.ell)),
        periodic=(True, False, True, False, True),
    )
    label = f"ypq({params.p},{params.q})" if params.p else f"ypq(a={params.a:g})"
    return MetricField(
        box=box,
        components=_YpqComponents(a=params.a),
        coord_names=YPQ_COORDS,
        form_order=(0, 1, 3, 2, 4),
        name=label,
        params=params,
    )


@dataclass(frozen=True)
class _ConstantDiagonal:
    diag: tuple[float, ...]

    def __call__(self, xs):
        n = len(self.diag)
        return [[self.diag[a] if a == b else 0.0 for b in range(n)] for a in range(n)]


def flat_torus(n: int) -> MetricField:
    """Flat torus: identity metric, every axis periodic with period 2 pi."""
    if n < 1:
        raise ValueError("dimension must be positive")
    box = CoordBox(intervals=((0.0, TWO_PI),) * n, periodic=(True,) * n)
    return MetricField(box=box, components=_ConstantDiagonal((1.0,) * n),
                       coord_names=tuple(f"x{i}" for i in range(n)),
                       name=f"flat_torus{n}")


@dataclass(frozen=True)
class _SphereComponents:
    """Round sphere in hyperspherical coordinates (theta_1 .. theta_{n-1}, phi)."""

    radius: float

    def __call__(self, xs):
        n = len(xs)
        diag = []
        factor = self.radius * self.radius
        for i in range(n):
            diag.append(factor)
            if i < n - 1:
                s = jets.sin(xs[i])
                factor = factor * s * s
        return [[diag[a] if a == b else 0.0 for b in range(n)] for a in range(n)]


def round_sphere(n: int, radius: float = 1.0) -> MetricField:
    """Round n-sphere of the given radius in a dense hyperspherical chart."""
    if n < 2:
        raise ValueError("sphere dimension must be >= 2")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    intervals = tuple((0.0, math.pi) for _ in range(n - 1)) + ((0.0, TWO_PI),)
    periodic = (False,) * (n - 1) + (True,)
    names = tuple(f"theta{i+1}" for i in range(n - 1)) + ("phi",)
    return MetricField(box=CoordBox(intervals, periodic),
                       components=_SphereComponents(radius=radius),
                       coord_names=names, name=f"round_sphere{n}(r={radius:g})")


@dataclass(frozen=True)
class _ProductComponents:
    left: object
    right: object
    split: int

    def __call__(self, xs):
        rows_l = self.left(xs[: self.split])
        rows_r = self.right(xs[self.split:])
        n = len(xs)
        out = [[0.0] * n for _ in range(n)]
        for a in range(self.split):
            for b in range(self.split):
                out[a][b] = rows_l[a][b]
        for a in range(self.split, n):
            for b in range(self.split, n):
                out[a][b] = rows_r[a - self.split][b - self.split]
        return out


def product(m1: MetricField, m2: MetricField) -> MetricField:
    """Block-diagonal product metric on the product of two chart boxes."""
    box = CoordBox(intervals=m1.box.intervals + m2.box.intervals,
                   periodic=m1.box.periodic + m2.box.periodic)
    names = tuple(f"l_{s}" for s in m1.coord_names) + tuple(f"r_{s}" for s in m2.coord_names)
    return MetricField(box=box,
                       components=_ProductComponents(m1.components, m2.components, m1.dim),
                       coord_names=names, name=f"product({m1.name},{m2.name})")


@dataclass(frozen=True)
class _PerturbedTorusComponents:
    """Diagonal metric 1 + amplitude * trig(next coordinate): smooth, periodic."""

    amplitudes: tuple[float, ...]

    def __call__(self, xs):
        n = len(xs)
        rows = [[0.0] * n for _ in range(n)]
        for i in range(n):
            bump = jets.sin(xs[(i + 1) % n]) if i % 2 == 0 else jets.cos(xs[(i + 1) % n])
            rows[i][i] = 1.0 + self.amplitudes[i] * bump
        return rows


def perturbed_torus(n: int, seed: int = 7) -> MetricField:
    """Curved but periodic diagonal metric on the n-torus (test fixture):
    amplitudes in [0.175, 0.35), so the metric stays definite, drawn from the
    standard library's ``random.Random(seed)`` (Mersenne Twister), which the
    interpreter has already loaded: ``numpy.random`` would add ~15 ms and
    ~6 MB of resident memory to every run that builds the fixture."""
    rng = random.Random(seed)
    amps = tuple(0.35 * (0.5 + 0.5 * rng.random()) for _ in range(n))
    box = CoordBox(intervals=((0.0, TWO_PI),) * n, periodic=(True,) * n)
    return MetricField(box=box, components=_PerturbedTorusComponents(amps),
                       coord_names=tuple(f"x{i}" for i in range(n)),
                       name=f"perturbed_torus{n}")


def catalog(name: str) -> MetricField:
    """Look up a reference metric by string name, e.g. ``flat_torus3``."""
    table = {
        "flat_torus2": lambda: flat_torus(2),
        "flat_torus3": lambda: flat_torus(3),
        "flat_torus5": lambda: flat_torus(5),
        "round_sphere2": lambda: round_sphere(2),
        "round_sphere3": lambda: round_sphere(3),
        "round_sphere5": lambda: round_sphere(5),
        "perturbed_torus3": lambda: perturbed_torus(3),
        "s2xs3": lambda: product(round_sphere(2), round_sphere(3)),
    }
    try:
        return table[name]()
    except KeyError:
        raise ValueError(f"unknown catalog metric {name!r}; "
                         f"choices: {sorted(table)}") from None


def einstein_residual(pack: CurvaturePack, constant: float) -> float:
    """Max relative residual of Ric = constant * g over the points of ``pack``."""
    num = np.max(np.abs(pack.ricci - constant * pack.g))
    den = max(float(np.max(np.abs(constant * pack.g))), np.finfo(float).tiny)
    return float(num) / den


def positive_definite_on(metric: MetricField, samples) -> bool:
    """Leading-principal-minor positivity of g at every sample point."""
    return leading_minors_positive(metric_values(metric, np.asarray(samples, dtype=float)))

"""Circle actions, pulled-back form densities, and cycle integrals.

A circle action on a metric's chart sends each point m to the loop
t -> a(t, m).  Pushing the fundamental class of the manifold through that
map gives a cycle in loop space; integrating the Wodzicki-Chern-Simons
(2k-1)-form over it reduces to an ordinary integral of a density f(m) over
the coordinate box,

    integral = int f(m)  dx_{o(1)} ^ ... ^ dx_{o(2k-1)},

where o is the metric's declared form order and f(m) is the loop integral
over t in [0, 2 pi) of the pointwise integrand with velocity da/dt and the
frame of pushed-forward coordinate vectors.  The loop integral is always the
periodic trapezoid rule, spectrally accurate for smooth periodic integrands.
Along an axis on which every metric component is constant (a verified
Killing axis) the loop integrand is t-independent, so one sample is exact:
2 pi times the pointwise value.  Orbits must wrap a periodic axis.

Conventions recorded in every result's provenance:

* coordinate rotations default to speed = (axis period) / (2 pi), so one
  S^1 = R / 2 pi Z parameter loop traverses the fiber exactly once;
* the orientation is the metric's form order; integration over the box is a
  plain iterated integral in that order;
* the n-fold iterate of an action multiplies the velocity by n, which scales
  the cycle integral exactly linearly.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import __version__
from .geometry import MetricField, metric_jets, riemann
from .jets import ChartDomainError
from .quadrature import QuadratureSpec, integrate_box
from .wcs import WcsFrame, _check_variant, wcs_integrand

__all__ = [
    "CircleAction",
    "CycleResult",
    "pullback_density",
    "integrate_cycle",
    "a_sweep",
    "ypq_sweep",
    "SweepRow",
    "SweepResult",
    "snap_pi4_multiple",
    "best_rational_in_interval",
]

KILLING_TOL = 1e-12
PI4 = math.pi**4
MAX_SNAP_DENOMINATOR = 10**6


@dataclass(frozen=True)
class CircleAction:
    """A circle action on a chart: trivial, a coordinate rotation, or an iterate.

    ``rotation(axis, speed)`` shifts the given coordinate by speed * t modulo
    its period; the default speed is period / (2 pi), one fiber traversal per
    loop.  ``iterate(base, n)`` is a(n t, m), i.e. an n-fold speed-up; n = 0
    gives the trivial action.
    """

    kind: str
    axis: int | None = None
    speed: float | None = None
    n_fold: int = 1

    @staticmethod
    def trivial() -> "CircleAction":
        return CircleAction(kind="trivial")

    @staticmethod
    def rotation(axis: int, speed: float | None = None) -> "CircleAction":
        return CircleAction(kind="rotation", axis=int(axis),
                            speed=None if speed is None else float(speed))

    @staticmethod
    def iterate(base: "CircleAction", n: int) -> "CircleAction":
        n = int(n)
        if n < 0:
            raise ValueError("iterate count must be >= 0")
        if n == 0 or base.kind == "trivial":
            return CircleAction.trivial()
        return CircleAction(kind="rotation", axis=base.axis, speed=base.speed,
                            n_fold=base.n_fold * n)

    def describe(self) -> str:
        if self.kind == "trivial":
            return "trivial"
        tag = f"rotate(axis={self.axis}, speed={'auto' if self.speed is None else self.speed})"
        return tag if self.n_fold == 1 else f"iterate({tag}, n={self.n_fold})"

    def resolved_speed(self, metric: MetricField) -> float:
        """Total coordinate speed, including the iterate factor; the orbit must
        close on a periodic axis (one along a non-periodic axis exits the chart)."""
        if self.kind != "rotation":
            return 0.0
        if self.axis is None or not 0 <= self.axis < metric.dim:
            raise ValueError(f"rotation axis {self.axis} invalid for dim {metric.dim}")
        if not metric.box.periodic[self.axis]:
            raise ValueError(
                f"orbit along non-periodic axis {metric.coord_names[self.axis]} "
                "exits the chart")
        period = metric.box.extent(self.axis)
        base = period / (2.0 * math.pi) if self.speed is None else self.speed
        speed = base * self.n_fold
        winding = speed * 2.0 * math.pi / period
        if abs(winding - round(winding)) > 1e-9:
            raise ValueError(
                f"speed {speed} does not close the orbit: winding {winding} "
                "is not an integer")
        return speed

    def velocity(self, metric: MetricField) -> np.ndarray:
        v = np.zeros(metric.dim)
        if self.kind == "rotation":
            v[self.axis] = self.resolved_speed(metric)
        return v


def _axis_is_killing(metric: MetricField, axis: int, samples: int = 16) -> bool:
    """Numerically verify that all metric components are constant along ``axis``."""
    rng = np.random.default_rng(20240 + axis)
    pts = metric.box.sample_interior(rng, samples, margin=0.1)
    _, dg, _ = metric_jets(metric, pts)
    return bool(np.max(np.abs(dg[..., axis])) < KILLING_TOL)


def _cycle_plan(metric: MetricField, action: CircleAction, loop_nodes: int,
                mask: tuple[int, ...] = ()) -> int:
    """Check the rotation and the mask axes and size the loop rule, once per call.

    ``loop_nodes`` must be positive and the rotation must close on a periodic
    axis.  Every candidate axis is checked for being Killing at most once; a
    mask axis that fails raises.
    Returns the number of trapezoid samples per orbit: 1 for a rotation
    along an axis the metric declares constant and that passes the check
    (the loop integrand is then t-independent, so one sample is exact),
    else ``loop_nodes``.
    """
    if loop_nodes < 1:
        raise ValueError(f"loop_nodes must be >= 1, got {loop_nodes}")
    action.resolved_speed(metric)
    for a in mask:
        if not 0 <= a < metric.dim:
            raise ValueError(f"mask axis {a} out of range")
    loop_axis = action.axis if action.axis in metric.symmetry_axes else None
    killing = {a: _axis_is_killing(metric, a) for a in {*mask, loop_axis} - {None}}
    for a in mask:
        if not killing[a]:
            raise ValueError(
                f"axis {metric.coord_names[a]} declared constant but the metric "
                "varies along it")
    return 1 if loop_axis is not None and killing[loop_axis] else loop_nodes


def _frame_vectors(metric: MetricField) -> np.ndarray:
    """Coordinate vectors in the metric's form (orientation) order."""
    order = metric.orientation()
    return np.eye(metric.dim)[list(order)]


def _density_batch(metric: MetricField, action: CircleAction, k: int,
                   coords: np.ndarray, loop_samples: int, variant: str) -> np.ndarray:
    """Density f(m) of the pulled-back form at a batch of chart points: the
    periodic trapezoid rule with the :func:`_cycle_plan` count of samples,
    all orbit points of the batch evaluated as one flat batch."""
    coords = np.asarray(coords, dtype=float)
    vel = action.velocity(metric)
    axis = action.axis
    ts = np.linspace(0.0, 2.0 * math.pi, loop_samples, endpoint=False)
    orbit = np.repeat(coords.reshape(1, -1, metric.dim), loop_samples, axis=0)
    orbit[..., axis] = orbit[..., axis] + vel[axis] * ts[:, None]
    orbit = metric.box.wrap(orbit, axis).reshape(-1, metric.dim)
    pack = riemann(metric, orbit)
    values = wcs_integrand(pack, WcsFrame(k, vel, _frame_vectors(metric)), variant=variant)
    values = values.reshape((loop_samples,) + coords.shape[:-1])
    return (2.0 * math.pi / loop_samples) * np.sum(values, axis=0)


def pullback_density(metric: MetricField, action: CircleAction, k: int,
                     m, loop_nodes: int = 64, variant: str = "reduced") -> float:
    """Density f(m) of the pulled-back form at a single chart point."""
    _check_variant(variant)
    coords = np.asarray(m, dtype=float)
    if not metric.box.contains(coords):
        raise ChartDomainError("density evaluation point outside the chart box")
    if action.kind == "trivial":
        return 0.0
    samples = _cycle_plan(metric, action, loop_nodes)
    return float(_density_batch(metric, action, k, coords, samples, variant))


@dataclass
class _DensityIntegrand:
    """Picklable integrand over the unmasked axes (masked coords pinned)."""

    metric: MetricField
    action: CircleAction
    k: int
    loop_samples: int
    variant: str
    free_axes: tuple[int, ...]
    pinned: np.ndarray

    def __call__(self, points: np.ndarray) -> np.ndarray:
        coords = np.repeat(self.pinned[None, :], len(points), axis=0)
        coords[:, list(self.free_axes)] = points
        return _density_batch(self.metric, self.action, self.k, coords,
                              self.loop_samples, self.variant)


@dataclass(frozen=True)
class CycleResult:
    """Cycle integral value with quadrature metadata and full provenance."""

    value: float
    pi4_multiple: Fraction | None
    error_estimate: float
    node_counts: tuple[int, ...]
    wall_time: float
    provenance: dict


def best_rational_in_interval(lo: Fraction, hi: Fraction) -> Fraction:
    """Smallest-denominator fraction inside [lo, hi] (Stern-Brocot walk)."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -best_rational_in_interval(-hi, -lo)

    def walk(lo: Fraction, hi: Fraction) -> Fraction:
        floor_lo = lo.numerator // lo.denominator
        if lo == floor_lo:
            return Fraction(floor_lo)
        if floor_lo + 1 <= hi:
            return Fraction(floor_lo + 1)
        return floor_lo + 1 / walk(1 / (hi - floor_lo), 1 / (lo - floor_lo))

    return walk(lo, hi)


def snap_pi4_multiple(value: float, error_estimate: float,
                      confirm_value: float | None = None) -> Fraction | None:
    """Rational r with value ~ r * pi^4, or None if no tight small snap exists.

    The snap is the smallest-denominator rational within 10x the quadrature
    error estimate (floored at a few ulps) of value / pi^4, found by a
    continued-fraction (Stern-Brocot) walk; it is reported only when its
    denominator stays below 10^6 and, if a second quadrature level is given,
    only when that level snaps to the same rational.
    """
    def one(v: float) -> Fraction | None:
        x = v / PI4
        tol = max(10.0 * error_estimate / PI4,
                  32.0 * np.finfo(float).eps * max(1.0, abs(x)))
        r = best_rational_in_interval(Fraction(x - tol), Fraction(x + tol))
        if r.denominator > MAX_SNAP_DENOMINATOR or abs(float(r) - x) > tol:
            return None
        return r

    snap = one(value)
    if snap is None:
        return None
    if confirm_value is not None and one(confirm_value) != snap:
        return None
    return snap


def integrate_cycle(metric: MetricField, action: CircleAction, k: int,
                    quad: QuadratureSpec | None = None, variant: str = "reduced",
                    s_scale: float = 1.0, loop_nodes: int = 64) -> CycleResult:
    """Integrate the pulled-back form density over the coordinate box.

    Axes in the symmetry mask (default: the metric's verified constant axes)
    contribute their exact extents; the remaining axes carry a tensor-product
    Gauss-Legendre rule with a refined pass for the error estimate.  The
    result scales exactly linearly in ``s_scale``, which is applied as a
    final factor.
    """
    start = time.perf_counter()
    _check_variant(variant)
    if metric.dim != 2 * k - 1:
        raise ValueError(f"metric dimension {metric.dim} != 2k-1 = {2 * k - 1}")
    quad = quad or QuadratureSpec()

    params = metric.params
    exact_mode = bool(getattr(params, "exact_mode", False))
    prov = {
        "metric": metric.name,
        "action": action.describe(),
        "k": k,
        "variant": variant,
        "s_scale": s_scale,
        "orientation": "^".join(metric.coord_names[i] for i in metric.orientation()),
        "orbit_speed": None if action.kind == "trivial" else action.resolved_speed(metric),
        "speed_convention": "axis period / (2 pi) per unit loop parameter",
        "loop_integral": "periodic trapezoid rule, one sample on verified constant axes",
        "normalization": "2/(2k-1)! signed sum over S(2k-1), plain endomorphism products",
        "version": __version__,
    }
    if params is not None:
        prov["params"] = {
            "p": params.p, "q": params.q, "a": params.a, "c": params.c,
            "ell": params.ell, "y1": params.y1, "y2": params.y2,
            "exact_mode": params.exact_mode,
        }

    if action.kind == "trivial":
        prov["node_counts"] = (0,) * metric.dim
        return CycleResult(value=0.0, pi4_multiple=Fraction(0),
                           error_estimate=0.0, node_counts=(0,) * metric.dim,
                           wall_time=time.perf_counter() - start, provenance=prov)

    mask = (tuple(metric.symmetry_axes) if quad.mask is None
            else tuple(sorted(set(int(a) for a in quad.mask))))
    loop_samples = _cycle_plan(metric, action, loop_nodes, mask)
    free = tuple(a for a in range(metric.dim) if a not in mask)
    factor = 1.0
    for a in mask:
        factor *= metric.box.extent(a)
    pinned = np.array([0.5 * (lo + hi) for lo, hi in metric.box.intervals])

    integrand = _DensityIntegrand(metric=metric, action=action, k=k,
                                  loop_samples=loop_samples, variant=variant,
                                  free_axes=free, pinned=pinned)
    sub_box = [metric.box.intervals[a] for a in free]
    # Tuple node counts are per unmasked axis, in increasing axis order.  With
    # every axis masked the box has no axes and the rule is one point of
    # weight 1: the box volume times one density evaluation.
    counts = quad.counts_for(len(free))
    if any(c < 2 for c in counts):
        raise ValueError("unmasked axes need at least 2 quadrature nodes")
    box_result = integrate_box(integrand, sub_box, replace(quad, nodes=counts, mask=None))

    value = s_scale * (factor * box_result.value)
    error = abs(s_scale) * factor * box_result.error_estimate
    coarse = s_scale * (factor * box_result.coarse_value)
    node_counts = tuple(box_result.counts[free.index(a)] if a in free else 0
                        for a in range(metric.dim))
    prov["node_counts"] = node_counts
    prov["masked_axes"] = [metric.coord_names[a] for a in mask]
    prov["refinement_factor"] = quad.refinement_factor

    snapped = snap_pi4_multiple(value, error, coarse) if exact_mode else None
    return CycleResult(value=value, pi4_multiple=snapped, error_estimate=error,
                       node_counts=node_counts,
                       wall_time=time.perf_counter() - start, provenance=prov)


@dataclass(frozen=True)
class SweepRow:
    label: dict
    result: CycleResult | None
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    rows: list[SweepRow]
    fitted_exponent: float | None = None


def ypq_sweep(labels, action: CircleAction, k: int = 3,
              quad: QuadratureSpec | None = None, variant: str = "reduced",
              s_scale: float = 1.0, loop_nodes: int = 64,
              ell: float = 1.0) -> SweepResult:
    """Cycle integrals of ``action`` across members of the five-dimensional family.

    Each label names one member: ``{"p": p, "q": q}`` for the (p, q) metric,
    or ``{"a": a}`` for the direct parameter with fiber period ``ell``.  A
    member that fails (degenerate parameters, a quadrature error) becomes
    an error row and the sweep continues.  When at least two ``a`` rows
    give nonzero values, the result carries the fitted log-log slope of
    |value| against (1 - a).
    """
    from .metrics import solve_ypq, ypq_metric, ypq_params_from_a

    rows: list[SweepRow] = []
    xs, ys = [], []
    for label in labels:
        try:
            if "a" in label:
                params = ypq_params_from_a(label["a"], ell=ell)
            else:
                params = solve_ypq(label["p"], label["q"])
            res = integrate_cycle(ypq_metric(params), action, k, quad=quad,
                                  variant=variant, s_scale=s_scale,
                                  loop_nodes=loop_nodes)
            rows.append(SweepRow(label=label, result=res))
            if "a" in label and res.value != 0.0:
                xs.append(math.log1p(-label["a"]))
                ys.append(math.log(abs(res.value)))
        except Exception as exc:  # per-row errors recorded, run continues
            rows.append(SweepRow(label=label, result=None, error=str(exc)))
    exponent = None
    if len(xs) >= 2:
        slope, _ = np.polyfit(np.array(xs), np.array(ys), 1)
        exponent = float(slope)
    return SweepResult(rows=rows, fitted_exponent=exponent)


def a_sweep(a_grid, k: int = 3, quad: QuadratureSpec | None = None,
            ell: float = 1.0, variant: str = "reduced") -> SweepResult:
    """Cycle integrals of the fiber rotation across a grid of ``a`` values.

    The fiber period parameter is held fixed (default 1: it is a linear
    volume factor, irrelevant to the degeneration exponent).  Returns the
    per-value results plus the fitted log-log slope of |value| against
    (1 - a).  The pointwise density scales exactly as (1 - a)^2; the
    integrated value decays more slowly because the collapsing cubic root
    concentrates mass in a boundary layer at the upper y-endpoint.
    """
    return ypq_sweep([{"a": float(a)} for a in a_grid], CircleAction.rotation(axis=4),
                     k, quad=quad, variant=variant, ell=ell)

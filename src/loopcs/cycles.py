"""Circle actions, pulled-back form densities, and cycle integrals.

A circle action on a metric's chart sends each point m to the loop
t -> a(t, m).  Pushing the fundamental class of the manifold through that
map gives a cycle in loop space; integrating the Wodzicki-Chern-Simons
(2k-1)-form over it reduces to an ordinary integral of a density f(m) over
the coordinate box,

    integral = int f(m)  dx_{o(1)} ^ ... ^ dx_{o(2k-1)},

where o is the metric's declared form order and f(m) is the loop integral
over t in [0, 2 pi) of the pointwise integrand with velocity da/dt and the
frame of pushed-forward coordinate vectors.  An action enters only through
that velocity, read once per call; a zero velocity (the trivial action, or a
rotation at speed 0) is the constant loop, whose integral is 0 with nothing
evaluated.  The loop integral is always the periodic trapezoid rule,
spectrally accurate for smooth periodic integrands.
Along an axis on which every metric component is measured constant (a
Killing axis) the loop integrand is t-independent, so one sample is exact:
2 pi times the pointwise value.  Along any other axis the count is measured
once per run at the probe points (the smallest of the halving chain from
``LOOP_CAP`` = 64 whose rule agrees with the cap's to a few ulps of the
curvature scale) and recorded as ``loop_samples`` in the provenance.  Orbits
must wrap a periodic axis.

The loop average does not depend on the coordinate of the rotation axis:
the orbit wraps that axis a whole number of times, so moving the base point
along it only shifts t.  This holds whether or not the axis is Killing.  An
unmasked rotation axis is therefore not gridded: its coordinate is pinned,
the density is evaluated once per line along it and weighted by the axis
extent, which is exactly what its Gauss-Legendre rule gives a constant.  It
keeps its node count in the result and is listed under
``loop_averaged_axes`` in the provenance.

With the default mask (``mask=None``) and a rotation along a constant axis
(one loop sample), a gridded axis along which the ratio f / sqrt(det g) is
measured constant becomes an orbit axis.  The family's metrics are
cohomogeneity one under SU(2) x U(1) x U(1), whose SU(2) orbits sweep
theta; a rotation along psi or alpha commutes with SU(2), so for it the
ratio depends on y alone (one along phi does not, and is not reduced).
Other rotations are not probed: none measured has reduced an axis.
At each quadrature level the ratio is then evaluated once per distinct line
of the remaining grid axes, from one curvature pass with the orbit
coordinate pinned at the box midpoint (theta = pi/2, away from the
ill-conditioned poles), and carried along the orbit by sqrt(det g) computed
from metric values alone.  The orbit axis keeps its Gauss-Legendre rule and
node count, so the error estimate still compares two levels, and is listed
under ``orbit_reduced_axes`` in the provenance.
An explicit mask, ``()`` included, never reduces an axis: that path is the
oracle for this one.

Conventions recorded in every result's provenance:

* coordinate rotations default to speed = (axis period) / (2 pi), so one
  S^1 = R / 2 pi Z parameter loop traverses the fiber exactly once;
* the orientation is the metric's form order; integration over the box is a
  plain iterated integral in that order;
* the n-fold iterate of an action multiplies the velocity by n, which scales
  the cycle integral exactly linearly;
* the velocity bracket is the reduced one: the full one adds the contraction
  of a 2k-form with the velocity, and 2k-forms vanish on a (2k-1)-manifold.
"""
from __future__ import annotations

import math
import numbers
import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial

import numpy as np

from . import __version__
from .geometry import (CurvaturePack, MetricField, _chart_coords, metric_jets, metric_values,
                       riemann)
from .jets import ChartDomainError
from .metrics import _check_ell, solve_ypq, ypq_metric, ypq_params_from_a
from .quadrature import (REFINEMENT_FACTOR, QuadratureError, QuadratureSpec, check_budget,
                         evaluate, integrate_box, pool, whole_number)
from .wcs import wcs_integrand

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

PI4 = math.pi**4
MAX_SNAP_DENOMINATOR = 10**6


@dataclass(frozen=True)
class CircleAction:
    """A circle action on a chart: trivial, a coordinate rotation, or an iterate.

    ``rotation(axis, speed)`` shifts the given coordinate by speed * t modulo
    its period; the default speed is period / (2 pi), one fiber traversal per
    loop.  ``iterate(base, n)`` is a(n t, m), i.e. an n-fold speed-up; n = 0
    gives the trivial action.  The cycle layer reads only its :meth:`velocity`.
    """

    axis: int | None = None
    speed: float | None = None
    n_fold: int = 1

    @staticmethod
    def trivial() -> "CircleAction":
        return CircleAction()

    @staticmethod
    def rotation(axis: int, speed: float | None = None) -> "CircleAction":
        if speed is not None and (isinstance(speed, bool) or not isinstance(speed, numbers.Real)):
            raise ValueError(f"speed must be a real number, got {speed!r}")
        return CircleAction(axis=whole_number("axis", axis),
                            speed=None if speed is None else float(speed))

    @staticmethod
    def iterate(base: "CircleAction", n: int) -> "CircleAction":
        n = whole_number("iterate count", n)
        if n < 0:
            raise ValueError("iterate count must be >= 0")
        if n == 0 or base.axis is None:
            return CircleAction.trivial()
        return CircleAction(axis=base.axis, speed=base.speed, n_fold=base.n_fold * n)

    def describe(self) -> str:
        if self.axis is None:
            return "trivial"
        tag = f"rotate(axis={self.axis}, speed={'auto' if self.speed is None else self.speed})"
        return tag if self.n_fold == 1 else f"iterate({tag}, n={self.n_fold})"

    def velocity(self, metric: MetricField) -> np.ndarray:
        """The constant coordinate velocity da/dt: zero for the trivial action,
        else the total speed, iterate factor included, on the rotation axis.
        The orbit must close on a periodic axis (one along a non-periodic axis
        exits the chart) with a finite, whole winding number, nonzero unless
        the speed is 0; a zero velocity is the trivial action's."""
        v = np.zeros(metric.dim)
        if self.axis is None:
            return v
        if not 0 <= self.axis < metric.dim:
            raise ValueError(f"rotation axis {self.axis} invalid for dim {metric.dim}")
        if not metric.box.periodic[self.axis]:
            raise ValueError(
                f"orbit along non-periodic axis {metric.coord_names[self.axis]} "
                "exits the chart")
        period = metric.box.extent(self.axis)
        base = period / (2.0 * math.pi) if self.speed is None else self.speed
        speed = base * self.n_fold
        winding = speed * 2.0 * math.pi / period
        if not math.isfinite(winding):
            raise ValueError(f"speed {speed} gives a non-finite winding {winding}")
        # A nonzero speed must turn at least once: winding 1e-10 is no orbit.
        if abs(winding - round(winding)) > 1e-9 or (speed != 0 and round(winding) == 0):
            raise ValueError(
                f"speed {speed} does not close the orbit: winding {winding} "
                "is not an integer")
        v[self.axis] = speed
        return v


# Largest relative spread of f / sqrt(det g) along an axis that still makes
# it an orbit axis (see _orbit_axes).
ORBIT_TOL = 1e-12

# Most points one curvature or sqrt(det g) call holds, the one batch rule of
# the cycle layer: a density batch holds MAX_ORBIT_POINTS // loop_samples rows,
# each evaluated at ``loop_samples`` orbit points, so this is also the most
# loop samples.  A fixed constant, not worker-dependent.
MAX_ORBIT_POINTS = 1024

# Most trapezoid samples per orbit along a varying axis: the top of the
# halving chain _measured_loop_samples walks.
LOOP_CAP = 64

# Largest difference between a loop rule and the cap's rule, in units of the
# curvature scale max|R|^k max|v|, at which the smaller count still serves
# (see _measured_loop_samples).  A few ulps of the scale: perturbed_torus(5)
# under the x0 rotation agrees with the 64-sample rule to 1.7e-15 of it at
# 16 samples and to 1.1e-8 at 8.
LOOP_TOL = 16 * np.finfo(float).eps


def _probe_points(metric: MetricField) -> np.ndarray:
    """The 16 seeded interior points at which a metric's axes are measured.

    Drawn with the standard library's generator, which the interpreter has
    already loaded: loading ``numpy.random`` for them would add ~6 MB of
    resident memory and ~16 ms to every run.
    """
    rng = random.Random(20240)
    unit = [[rng.random() for _ in range(metric.dim)] for _ in range(16)]
    return metric.box.from_unit(unit, margin=0.1)


def _constant_axes(metric: MetricField) -> tuple[int, ...]:
    """Axes whose jet derivative ``dg[..., a]`` is exactly zero at the probe
    points.  Exact, not a tolerance: a coordinate no component reads carries
    exact zeros, while ``round_sphere(3, radius=1e-7)`` varies by ~1e-14."""
    _, dg, _ = metric_jets(metric, _probe_points(metric))
    return tuple(a for a in range(metric.dim) if not np.any(dg[..., a]))


def _measured_loop_samples(metric: MetricField, velocity: np.ndarray) -> int:
    """Trapezoid samples per orbit for a rotation along a varying axis,
    measured once per run at the 16 :func:`_probe_points`.

    The probe orbits are evaluated at ``LOOP_CAP`` samples.  Walking down
    the halving chain 32, 16, 8, 4, 2, a count n is kept while the n-sample
    rule T_n, taken on every (LOOP_CAP/n)-th sample, agrees with T_cap at
    every probe point to ``LOOP_TOL`` times the curvature scale
    max|R|^k max|v| over the probe's orbit points; the smallest count kept
    is returned.

    Two choices are measured, not guessed.  Each T_n is compared with
    T_cap, not with T_{n/2}: on a 5-torus whose g_44 depends on sin(2 x0),
    T_2 equals T_1 (each sample repeats half a loop later) yet is 2.4e-4 of
    the scale off.  The scale is the curvature's, not the samples' sum,
    which never stops on an identically vanishing density: there the
    samples are roundoff and their sum is of the size of the differences.
    The floor of 2 keeps one sample meaning a constant axis.
    """
    # 16 probe points times LOOP_CAP samples is exactly MAX_ORBIT_POINTS, so
    # the probe is one curvature call.
    values, pack = _loop_pass(metric, velocity, _probe_points(metric), LOOP_CAP)
    # max|R| as max(max R, -min R), NaN included: no n^4 |R| temporary.
    curvature = float(np.maximum(np.max(pack.riemann_up), -np.min(pack.riemann_up)))
    tol = LOOP_TOL * curvature ** ((metric.dim + 1) // 2) * float(np.max(np.abs(velocity)))
    reference = _trapezoid(values)
    samples = LOOP_CAP
    for n in (32, 16, 8, 4, 2):
        # Not "> tol": a NaN difference keeps the cap, where the density fails.
        if not np.max(np.abs(_trapezoid(values[::LOOP_CAP // n]) - reference)) <= tol:
            break
        samples = n
    return samples


def _cycle_plan(metric: MetricField, velocity: np.ndarray,
                quad: QuadratureSpec) -> tuple[dict[str, tuple[int, ...]], int]:
    """Refuse bad input and plan each axis, once per call: the axis groups
    and the loop samples; each axis that is not ``extent`` takes
    ``quad.nodes`` nodes.

    ``mask=None`` masks the measured constant axes; an explicit mask axis
    that is not constant, ``quad.nodes`` below 2 with any unmasked axis and
    a grid over :func:`check_budget` raise.  The groups map ``extent``
    (masked), ``loop`` (the unmasked rotation axis), ``grid`` and ``orbit``
    to their axes in chart order.  After every refusal, a zero velocity and
    a rotation along a constant axis take one loop sample, and any other
    rotation the count :func:`_measured_loop_samples` measures; with
    ``mask=None`` a rotation along a constant axis moves the grid axes that
    :func:`_orbit_axes` returns to ``orbit``, which stay in the box.
    """
    constant = _constant_axes(metric)
    moving = np.flatnonzero(velocity)
    mask = tuple(sorted(set(constant if quad.mask is None else quad.mask)))
    for a in mask:
        if not 0 <= a < metric.dim:
            raise ValueError(f"mask axis {a} out of range")
        if a not in constant:
            raise ValueError(
                f"axis {metric.coord_names[a]} declared constant but the metric "
                "varies along it")
    loop = tuple(int(a) for a in moving if a not in mask)
    grid = tuple(a for a in range(metric.dim) if a not in mask and a not in loop)
    if quad.nodes < 2 and len(mask) < metric.dim:
        raise ValueError("unmasked axes need at least 2 quadrature nodes")
    check_budget((quad.nodes,) * len(grid))
    axes = {"extent": mask, "loop": loop, "grid": grid, "orbit": ()}
    if any(a not in constant for a in moving):
        return axes, _measured_loop_samples(metric, velocity)
    if moving.size and quad.mask is None:
        # Every orbit axis measured comes from a rotation along a constant axis.
        orbit = _orbit_axes(metric, velocity, grid)
        axes.update(grid=tuple(a for a in grid if a not in orbit), orbit=orbit)
    return axes, 1


def _volume(metric: MetricField, coords: np.ndarray) -> np.ndarray:
    """sqrt(det g) at a batch of chart points, from metric values alone."""
    return np.sqrt(np.linalg.det(metric_values(metric, coords)))


def _pinned(fn, pinned: np.ndarray, axes: tuple[int, ...], points: np.ndarray) -> np.ndarray:
    """``fn`` at the chart points that are ``pinned`` except along ``axes``,
    which take the last-axis columns of ``points``; any leading axes of
    ``points`` are batch axes and carry through to ``fn``.  Bound with
    ``functools.partial`` to module-level functions it is a picklable
    :func:`evaluate` callable that pins one batch of rows at a time."""
    coords = np.broadcast_to(pinned, points.shape[:-1] + pinned.shape).copy()
    coords[..., axes] = points
    return fn(coords)


def _orbit_axes(metric: MetricField, velocity: np.ndarray,
                grid: tuple[int, ...]) -> tuple[int, ...]:
    """The axes of ``grid`` along which f / sqrt(det g) is measured constant.

    Each probe point is paired with one partner per grid axis, moved along
    that axis to the next probe point's coordinate, and the ratios at all of
    them are evaluated together by :func:`_ratio_batch` in batches of
    ``MAX_ORBIT_POINTS`` rows, so a failed density is a QuadratureError, as
    at a quadrature node.  An axis is an orbit axis when the largest change
    of the ratio over the pairs is at most
    ``ORBIT_TOL`` times the largest ratio (a zero ratio everywhere measures
    nothing and reduces no axis).
    This is a tolerance, unlike the exact zero of :func:`_constant_axes`,
    because the ratio is computed from rounded curvature: along a symmetry
    orbit it changes by ~1e-14, not by 0.
    """
    if not grid:
        return ()
    pts = _probe_points(metric)
    batch = [pts]
    for a in grid:
        moved = pts.copy()
        moved[:, a] = np.roll(pts[:, a], 1)
        batch.append(moved)
    coords = np.concatenate(batch)
    ratio = evaluate(partial(_ratio_batch, metric, velocity), coords, None,
                     MAX_ORBIT_POINTS).reshape(len(batch), len(pts))
    with np.errstate(divide="ignore", invalid="ignore"):
        spread = np.max(np.abs(ratio[1:] - ratio[0]), axis=1) / np.max(np.abs(ratio[0]))
    return tuple(a for a, s in zip(grid, spread) if s <= ORBIT_TOL)


def _frame_vectors(metric: MetricField) -> np.ndarray:
    """Coordinate vectors in the metric's form (orientation) order."""
    order = metric.orientation()
    return np.eye(metric.dim)[list(order)]


def _orbit(metric: MetricField, velocity: np.ndarray, coords: np.ndarray,
           loop_samples: int) -> np.ndarray:
    """The ``loop_samples`` trapezoid points of the orbit through each point
    of ``coords`` (any ``(..., dim)`` batch), sample-major: one
    ``(loop_samples * rows, dim)`` array, ``rows`` the batch's point count."""
    moving = np.flatnonzero(velocity)
    ts = np.linspace(0.0, 2.0 * math.pi, loop_samples, endpoint=False)
    orbit = np.repeat(coords.reshape(1, -1, metric.dim), loop_samples, axis=0)
    lo, hi = np.array(metric.box.intervals)[moving].T
    orbit[..., moving] = lo + np.mod(
        orbit[..., moving] + velocity[moving] * ts[:, None, None] - lo, hi - lo)
    return orbit.reshape(-1, metric.dim)


def _trapezoid(values: np.ndarray) -> np.ndarray:
    """The periodic trapezoid rule over the loop samples on axis 0 of
    ``values``.  A running sum over the samples: np.sum pairs them up instead
    when the batch is one point, which would make a density depend on its
    batch."""
    return (2.0 * math.pi / len(values)) * np.cumsum(values, axis=0)[-1]


def _loop_pass(metric: MetricField, velocity: np.ndarray, coords: np.ndarray,
               loop_samples: int) -> tuple[np.ndarray, CurvaturePack]:
    """The integrand at the ``loop_samples`` orbit points of each point of
    ``coords`` (any ``(..., dim)`` batch), shape ``(loop_samples,) + batch``,
    from one :func:`riemann` call, and the pack it read, with ``gamma`` and
    ``riemann_down`` None: their n^3 and n^4 arrays are freed before the
    integrand allocates its own, so a curvature and integrand pass peaks no
    higher than ``riemann``."""
    coords = np.asarray(coords, dtype=float)
    pack = replace(riemann(metric, _orbit(metric, velocity, coords, loop_samples)),
                   gamma=None, riemann_down=None)
    values = wcs_integrand(pack, _frame_vectors(metric), velocity)
    return values.reshape((loop_samples,) + coords.shape[:-1]), pack


def _density_batch(metric: MetricField, velocity: np.ndarray,
                   coords: np.ndarray, loop_samples: int) -> np.ndarray:
    """Density f(m) of the pulled-back form at a batch of chart points: the
    periodic trapezoid rule with the :func:`_cycle_plan` count of samples,
    all orbit points of the batch evaluated as one flat batch."""
    return _trapezoid(_loop_pass(metric, velocity, coords, loop_samples)[0])


def _ratio_batch(metric: MetricField, velocity: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """f / sqrt(det g) at a ``(rows, dim)`` batch of chart points for a
    rotation along a constant axis (one loop sample), g from the density's
    own pass: the one orbit point is the point up to rounding of the
    rotation coordinate, which g does not read, so this g is
    :func:`_volume`'s at the point, bit for bit."""
    values, pack = _loop_pass(metric, velocity, coords, 1)
    return _trapezoid(values) / np.sqrt(np.linalg.det(pack.g))


def pullback_density(metric: MetricField, action: CircleAction, points,
                     loop_nodes: int = LOOP_CAP) -> float | np.ndarray:
    """Density f(m) of the pulled-back form at a ``(dim,)`` chart point (a
    float) or a ``(..., dim)`` batch (an array of the batch shape, bit for bit
    its points' densities one at a time, empty for an empty batch); zeros for a
    zero velocity.  After every refusal the densities go through
    :func:`evaluate` in :func:`integrate_cycle`'s batches, so a failure inside
    one is a QuadratureError.  Along a varying axis the loop takes exactly
    ``loop_nodes`` samples (a whole number, 1 to ``MAX_ORBIT_POINTS``), as the
    oracle of :func:`_measured_loop_samples`: the measured count's tolerance is
    absolute in the curvature scale, so where ``perturbed_torus(5)`` under the
    x0 rotation has density -3.05e-7 its 16 samples give the 64-sample density
    only to 5.0e-12 relative, while 64 and 128 samples agree to 1.7e-15."""
    coords = _chart_coords(metric, points)
    loop_nodes = whole_number("loop_nodes", loop_nodes)
    if not 1 <= loop_nodes <= MAX_ORBIT_POINTS:
        raise ValueError(f"loop_nodes must be 1 to {MAX_ORBIT_POINTS}, got {loop_nodes}")
    velocity = action.velocity(metric)
    if not velocity.any():
        values = np.zeros(coords.shape[:-1])
    else:
        samples = 1 if set(np.flatnonzero(velocity)) <= set(_constant_axes(metric)) else loop_nodes
        values = evaluate(partial(_density_batch, metric, velocity, loop_samples=samples),
                          coords.reshape(-1, metric.dim), None,
                          MAX_ORBIT_POINTS // samples).reshape(coords.shape[:-1])
    return float(values) if values.ndim == 0 else values


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
                      confirm_value: float) -> Fraction | None:
    """Rational r with value ~ r * pi^4, or None if no tight small snap exists.

    The snap is the smallest-denominator rational within 10x the quadrature
    error estimate (floored at a few ulps) of value / pi^4, found by a
    continued-fraction (Stern-Brocot) walk; it is reported only when its
    denominator stays below 10^6 and the coarse quadrature level,
    ``confirm_value``, snaps to the same rational.  A snap to 0 is reported
    only when |value| is at most the error estimate: the window holds 0 for
    any |value| up to ten estimates, where 0, the smallest denominator,
    would stand for a value the estimate does not call zero.
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
    if snap == 0 and not abs(value) <= error_estimate:
        return None
    return snap if snap is not None and one(confirm_value) == snap else None


def integrate_cycle(metric: MetricField, action: CircleAction, k: int,
                    quad: QuadratureSpec | None = None,
                    s_scale: float = 1.0) -> CycleResult:
    """Integrate the pulled-back form density over the coordinate box.

    Plan, integrate, record.  :func:`_cycle_plan` refuses bad input, for a
    zero velocity too, and decides every axis: axes in the mask (default:
    the measured constant axes) contribute their exact extents, and so does
    an unmasked rotation axis, along which the loop average is constant; the
    remaining axes carry a tensor-product Gauss-Legendre rule with a refined
    pass for the error estimate.  An orbit axis keeps its rule but takes the
    density from the pinned orbit point of its line (see the module
    docstring).  ``integrate_box`` hands over each level whole, and the
    densities (or line ratios) and sqrt(det g) are computed by ``evaluate``
    in fixed batches.  One rule sizes every batch: at most
    ``MAX_ORBIT_POINTS`` points, so the memory of each call stays bounded.
    A density or ratio batch holds that many loop orbit points (16 rows at
    64 loop samples, 1024 at one); a sqrt(det g) batch that many of the
    level's flat points, whole lines or not.  Along a varying axis the loop
    samples are measured, at most ``LOOP_CAP``, and recorded as
    ``provenance["loop_samples"]``.  Only the density and ratio batches go
    to the one pool of ``quad.workers`` processes opened after the plan
    (sqrt(det g) is cheaper to compute than to ship).  The result scales
    exactly linearly in a finite ``s_scale``, which is applied as a final
    factor; a value or estimate that overflows raises QuadratureError.
    """
    start = time.perf_counter()
    if metric.dim != 2 * k - 1:
        raise ValueError(f"metric dimension {metric.dim} != 2k-1 = {2 * k - 1}")
    if not math.isfinite(s_scale):
        raise ValueError(f"s_scale must be finite, got {s_scale}")
    quad = quad or QuadratureSpec()
    velocity = action.velocity(metric)
    axes, loop_samples = _cycle_plan(metric, velocity, quad)

    params = metric.params
    exact_mode = bool(getattr(params, "exact_mode", False))
    prov = {
        "metric": metric.name,
        "action": action.describe(),
        "k": k,
        "variant": "reduced",
        "s_scale": s_scale,
        "orientation": "^".join(metric.coord_names[i] for i in metric.orientation()),
        "orbit_speed": None if action.axis is None else float(velocity[action.axis]),
        "speed_convention": "axis period / (2 pi) per unit loop parameter",
        "loop_integral": "periodic trapezoid rule, one sample on verified constant axes",
        "normalization": "2/(2k-1)! signed sum over S(2k-1), plain endomorphism products",
        "version": __version__,
    }
    if params is not None:
        prov["params"] = {
            "p": params.p, "q": params.q, "a": float(params.a), "c": 1.0,
            "ell": float(params.ell), "y1": float(params.y1), "y2": float(params.y2),
            "exact_mode": params.exact_mode,
        }
    if not velocity.any():
        return CycleResult(value=0.0, pi4_multiple=Fraction(0),
                           error_estimate=0.0, node_counts=(0,) * metric.dim,
                           wall_time=time.perf_counter() - start, provenance=prov)
    # Extent and loop axes are pinned at the box midpoint and weighted by
    # their extents.  Orbit axes come last in the box; at each level the
    # ratio is evaluated once per line of the grid axes, at the pinned
    # orbit point, and sqrt(det g) carries it to every point of the line.
    factor = math.prod(metric.box.extent(a) for a in axes["extent"] + axes["loop"])
    pinned = np.array([0.5 * (lo + hi) for lo, hi in metric.box.intervals])
    box_axes = axes["grid"] + axes["orbit"]
    box = [metric.box.intervals[a] for a in box_axes]
    density = partial(_pinned, partial(_density_batch, metric, velocity,
                                       loop_samples=loop_samples), pinned, axes["grid"])
    ratio = partial(_pinned, partial(_ratio_batch, metric, velocity), pinned, axes["grid"])
    volume = partial(_pinned, partial(_volume, metric), pinned, box_axes)
    rows = MAX_ORBIT_POINTS // loop_samples
    n_grid = len(axes["grid"])

    def level(points: np.ndarray) -> np.ndarray:
        if not axes["orbit"]:  # every point is its own line
            return evaluate(density, points, executor, rows)
        # Orbit axes come last in the row-major tensor order, so each line's
        # points are consecutive and the lines are already in order.
        per_line = int(np.count_nonzero(
            np.all(points[:, :n_grid] == points[0, :n_grid], axis=1)))
        ratios = evaluate(ratio, points[::per_line, :n_grid], executor, rows)
        return np.repeat(ratios, per_line) * evaluate(volume, points, None, MAX_ORBIT_POINTS)

    # With no box axis the rule is one point of weight 1: the volume of the
    # rest times one density evaluation.
    with pool(quad.workers) as executor:
        box_result = integrate_box(level, box, quad)

    value = s_scale * (factor * box_result.value)
    error = abs(s_scale) * factor * box_result.error_estimate
    if not (math.isfinite(value) and math.isfinite(error)):
        raise QuadratureError(
            f"cycle value overflows: value {value}, error estimate {error} "
            f"(box integral {box_result.value!r} times axis extents {factor!r})")
    coarse = s_scale * (factor * box_result.coarse_value)
    node_counts = tuple(0 if a in axes["extent"] else quad.nodes * REFINEMENT_FACTOR
                        for a in range(metric.dim))
    prov["masked_axes"] = [metric.coord_names[a] for a in axes["extent"]]
    prov["loop_averaged_axes"] = [metric.coord_names[a] for a in axes["loop"]]
    prov["orbit_reduced_axes"] = [metric.coord_names[a] for a in axes["orbit"]]
    if loop_samples > 1:  # the measured count; one sample needs no record
        prov["loop_samples"] = loop_samples
    prov["refinement_factor"] = REFINEMENT_FACTOR

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

    @property
    def fitted_exponent(self) -> float | None:
        """The log-log slope of |value| against (1 - a) over the ``a`` rows
        with a nonzero value, in row order; None below two such rows."""
        fit = [(math.log1p(-row.label["a"]), math.log(abs(row.result.value)))
               for row in self.rows
               if "a" in row.label and row.result is not None and row.result.value != 0.0]
        return float(np.polyfit(*np.array(fit).T, 1)[0]) if len(fit) >= 2 else None


def ypq_sweep(labels, action: CircleAction, quad: QuadratureSpec | None = None,
              s_scale: float = 1.0, ell: float = 1.0) -> SweepResult:
    """Cycle integrals (k = 3) of ``action`` across the five-dimensional family.

    Each label names one member: ``{"p": p, "q": q}`` for the (p, q) metric,
    or ``{"a": a}`` for the direct parameter with fiber period ``ell``.  A
    member's own failure (bad parameters, a chart or quadrature error) is an
    error row; any other ValueError, ``ell`` included, refuses a shared
    setting and propagates before any row.  So every member's metric is
    built and its orbit under ``action`` checked before the first integral:
    the alpha period differs between members, and a speed that closes one
    orbit need not close the next.  When at least two ``a`` rows give
    nonzero values, the result's ``fitted_exponent`` is the log-log slope of
    |value| against (1 - a).
    """
    labels = list(labels)
    if any("a" in label for label in labels):
        _check_ell(ell)
    members = []  # (label, metric, None) or (label, None, the member's error)
    for label in labels:
        try:
            params = (ypq_params_from_a(label["a"], ell=ell) if "a" in label
                      else solve_ypq(label["p"], label["q"]))
        except ValueError as exc:
            members.append((label, None, str(exc)))
            continue
        metric = ypq_metric(params)
        action.velocity(metric)
        members.append((label, metric, None))
    rows: list[SweepRow] = []
    for label, metric, error in members:
        if error is None:
            try:
                res = integrate_cycle(metric, action, 3, quad=quad, s_scale=s_scale)
            except (ChartDomainError, QuadratureError) as exc:
                error = str(exc)
        if error is not None:
            rows.append(SweepRow(label=label, result=None, error=error))
            continue
        rows.append(SweepRow(label=label, result=res))
    return SweepResult(rows=rows)


def a_sweep(a_grid, quad: QuadratureSpec | None = None, ell: float = 1.0) -> SweepResult:
    """Cycle integrals of the fiber rotation across a grid of ``a`` values.

    The fiber period parameter is held fixed (default 1: it is a linear
    volume factor, irrelevant to the degeneration exponent).  Returns the
    per-value results plus the fitted log-log slope of |value| against
    (1 - a).  The pointwise density scales exactly as (1 - a)^2; the
    integrated value decays more slowly because the collapsing cubic root
    concentrates mass in a boundary layer at the upper y-endpoint.
    """
    return ypq_sweep([{"a": float(a)} for a in a_grid], CircleAction.rotation(axis=4),
                     quad=quad, ell=ell)

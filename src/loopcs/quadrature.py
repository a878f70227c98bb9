"""Deterministic tensor-product Gauss-Legendre integration over boxes.

Nodes and weights come from Newton iteration on Legendre polynomials and are
cached per node count.  :func:`integrate_box` hands its integrand each
level's whole point array in a fixed (row-major tensor) order and sums with
pairwise summation.  :func:`evaluate` calls a function on batches of rows
along axis 0 (a row is one point, or a caller's block of points such as a
whole line), in-process or over a :func:`pool`.  The caller states the rows
per batch (the cycle layer sizes every batch by a fixed number of orbit
points); the size never depends on the worker count, so results are
bit-identical across repeated runs and across worker counts.  The
process-pool machinery is imported on a pool's first use, not with this
module.  Importing the module sets the allocator to keep freed batch arrays
in the heap (:func:`_keep_heap`).
"""
from __future__ import annotations

import contextlib
import ctypes
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureError",
    "QuadratureSpec",
    "BoxResult",
    "gauss_nodes",
    "check_budget",
    "evaluate",
    "integrate_box",
    "pool",
    "pairwise_sum",
]

# Node-count multiplier of the fine level of every integral.
REFINEMENT_FACTOR = 2

# Largest grid one level may build: 2**22 5-D points hold about 168 MB.
MAX_LEVEL_POINTS = 2**22

# Most processes one pool may hold.  A pool forks all of its workers at its
# first map, so the count is bounded up front, and by a constant, not the
# host's CPU count: a command is accepted or refused alike on every host.
MAX_WORKERS = 64

_NEWTON_TOL = 1e-15


def _keep_heap() -> None:
    """Keep freed batch arrays in the process heap instead of returning them.

    By default glibc serves an array above its mmap threshold with a fresh
    mapping and trims the heap top after each free, so every curvature batch
    faulted its working set in again: ~600 pages a batch, 6,400-7,200 minor
    faults per warm ``perturbed_torus(3)`` orbit integral, 0-2 with the heap
    kept.  The largest per-batch array is 1024 * 7**4 doubles (~19.7 MB), so
    arrays up to 32 MiB come from the heap and up to 64 MiB of free heap
    stays mapped.  A libc without ``mallopt`` is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_keep_heap()


def whole_number(name: str, value) -> int:
    """``value`` as the int it equals (a numpy integer, not a bool); else ValueError."""
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            return operator.index(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")


class QuadratureError(RuntimeError):
    """The integrand failed, returned a non-finite value or an array of the
    wrong shape, or a cycle value overflowed."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts of a two-level tensor-product rule.

    nodes: Gauss-Legendre node count on every box axis of the coarse level;
        the fine level, whose result is the value and whose distance from
        the coarse one is the error estimate, has ``REFINEMENT_FACTOR``
        times as many.
    mask: axis indices along which the integrand is constant.
        ``integrate_box`` ignores it; ``cycles.integrate_cycle`` drops those
        axes from the box and multiplies by their exact extents.  None means
        the metric's measured constant axes (and, for a rotation along one
        of them, lets ``integrate_cycle`` reduce orbit axes), () means no mask.
    workers: processes of the one :func:`pool` each ``integrate_cycle``
        call opens for its density batches; ``integrate_box`` ignores it too.
    Construction raises ValueError for an int field or mask axis not a whole
    number (a numpy integer is one), or ``workers`` below 1 or above
    ``MAX_WORKERS``.
    """

    nodes: int = 32
    mask: tuple[int, ...] | None = None
    workers: int = 1

    def __post_init__(self):
        for name in ("nodes", "workers"):
            object.__setattr__(self, name, whole_number(name, getattr(self, name)))
        if self.mask is not None:
            object.__setattr__(self, "mask",
                               tuple(whole_number("mask axis", a) for a in self.mask))
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"workers must be 1 to {MAX_WORKERS}, got {self.workers}")


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_{n-1}(x) by the three-term recurrence."""
    pm, pk = np.ones_like(x), x.copy()
    for j in range(2, n + 1):
        pm, pk = pk, ((2 * j - 1) * x * pk - (j - 1) * pm) / j
    return pk, pm


def _legendre_newton(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on (-1, 1) by Newton iteration."""
    k = np.arange(n)
    # Chebyshev-like initial guess, accurate enough for global convergence.
    x = np.cos(np.pi * (k + 0.75) / (n + 0.5))
    for _ in range(100):
        pk, pm = _legendre_pair(n, x)
        dpk = n * (x * pk - pm) / (x * x - 1.0)
        dx = pk / dpk
        x = x - dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break
    pk, pm = _legendre_pair(n, x)
    dpk = n * (x * pk - pm) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dpk * dpk)
    # The guess, and so the converged rule, runs from +1 down to -1: reversed,
    # it is in increasing order with no sort.
    return x[::-1].copy(), w[::-1].copy()


_rule_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_nodes(n: int, interval: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to (lo, hi).

    Nodes are strictly interior to the interval; weights sum to ``hi - lo``.
    """
    if n < 1:
        raise ValueError("node count must be >= 1")
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError(f"empty interval {interval}")
    if n not in _rule_cache:
        _rule_cache[n] = _legendre_newton(n)
    x, w = _rule_cache[n]
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def pairwise_sum(values: np.ndarray) -> float:
    """Deterministic pairwise reduction independent of numpy version."""
    x = np.asarray(values, dtype=float).ravel()
    if x.size == 0:
        return 0.0
    while x.size > 1:
        head = x[: x.size - x.size % 2]
        folded = head[0::2] + head[1::2]
        if x.size % 2:
            folded = np.concatenate([folded, x[-1:]])
        x = folded
    return float(x[0])


def _tensor_points(box, counts):
    """Row-major grid points and product weights; no axes give one empty point
    of weight 1."""
    points = np.empty(tuple(counts) + (len(counts),))
    weights = np.ones(())
    for axis, (c, iv) in enumerate(zip(counts, box)):
        x, w = gauss_nodes(c, iv)
        points[..., axis] = x.reshape((c,) + (1,) * (len(counts) - axis - 1))
        weights = weights[..., None] * w
    return points.reshape(weights.size, len(counts)), weights.ravel()


def __getattr__(name: str):
    # ``concurrent.futures`` costs every start ~17 ms, so it is imported only
    # when a pool is first wanted.  Reading ``ProcessPoolExecutor`` as a module
    # attribute lets a caller replace it (a test counting pools, a tracer).
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def pool(workers: int):
    """A context for one pool of ``workers`` processes, or for None at 1 worker.
    The processes start at the pool's first map, not here."""
    if workers <= 1:
        return contextlib.nullcontext()
    return sys.modules[__name__].ProcessPoolExecutor(max_workers=workers)


def evaluate(f, points: np.ndarray, pool, rows: int) -> np.ndarray:
    """``f`` at ``points`` in batches of ``rows`` rows along axis 0, mapped
    over ``pool`` when it is not None and there is more than one batch; it
    never starts a pool.  A row is whatever ``points[i]`` holds, one point
    or a block of them; the batch results are joined along axis 0.  Any
    failure of ``f`` is raised as :class:`QuadratureError`."""
    batches = [points[i: i + rows] for i in range(0, len(points), rows)]
    try:
        results = (list(pool.map(f, batches)) if pool is not None and len(batches) > 1
                   else [f(b) for b in batches])
        return np.asarray(np.concatenate(results), dtype=float) if results else np.zeros(0)
    except Exception as exc:
        raise QuadratureError(f"integrand evaluation failed: {exc}") from exc


def _single_level(f, box, counts):
    points, weights = _tensor_points(box, counts)
    try:
        values = np.asarray(f(points), dtype=float)
    except QuadratureError:
        raise
    except Exception as exc:
        raise QuadratureError(f"integrand evaluation failed: {exc}") from exc
    if values.shape != weights.shape:
        raise QuadratureError(
            f"integrand returned shape {values.shape}, expected {weights.shape}")
    bad = ~np.isfinite(values)
    if np.any(bad):
        where = points[np.argmax(bad)]
        raise QuadratureError(f"non-finite integrand value at node {where.tolist()}")
    return pairwise_sum(weights * values)


@dataclass(frozen=True)
class BoxResult:
    """Quadrature result: the fine level's value at ``counts`` and the
    coarse level's at ``coarse_counts``."""

    value: float
    error_estimate: float
    counts: tuple[int, ...]
    coarse_value: float
    coarse_counts: tuple[int, ...]


def check_budget(counts: tuple[int, ...]) -> None:
    """Refuse, before any grid is built, coarse node counts whose fine level
    (each count times ``REFINEMENT_FACTOR``) would exceed ``MAX_LEVEL_POINTS``."""
    points = math.prod(c * REFINEMENT_FACTOR for c in counts)
    if points > MAX_LEVEL_POINTS:
        raise ValueError(f"the finest quadrature level would evaluate {points} points, "
                         f"over the budget of {MAX_LEVEL_POINTS}")


def integrate_box(f, box, spec: QuadratureSpec) -> BoxResult:
    """Tensor-product Gauss-Legendre integral of ``f`` over an open box.

    The coarse level has ``spec.nodes`` nodes on every axis and the fine
    level ``REFINEMENT_FACTOR`` times as many: ``value`` is the fine result
    and ``error_estimate`` its distance from the coarse one.  ``f`` is
    called once per level with the level's whole (m, dim) array of interior
    points, in row-major tensor order, and returns an (m,) array of values;
    it must be pure.  A failure of ``f`` is raised as
    :class:`QuadratureError`.  ``spec.workers`` is not read: an ``f`` that
    wants batches or a :func:`pool` calls :func:`evaluate` itself.  Raises
    ValueError (:func:`check_budget`) before building any grid.
    """
    box = [(float(lo), float(hi)) for lo, hi in box]
    coarse_counts = (spec.nodes,) * len(box)
    check_budget(coarse_counts)
    coarse = _single_level(f, box, coarse_counts)
    counts = (spec.nodes * REFINEMENT_FACTOR,) * len(box)
    fine = _single_level(f, box, counts)
    return BoxResult(fine, abs(fine - coarse), counts, coarse, coarse_counts)

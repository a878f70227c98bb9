"""Deterministic tensor-product Gauss-Legendre integration over boxes.

Nodes and weights come from Newton iteration on Legendre polynomials and are
cached per node count.  Integration uses a fixed node ordering, a fixed chunk
size for (optional) parallel evaluation, and pairwise summation, so results
are bit-identical across repeated runs and across worker counts.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureError",
    "QuadratureSpec",
    "BoxResult",
    "gauss_nodes",
    "integrate_box",
    "pairwise_sum",
]

# Chunk size is a fixed constant (not worker-dependent) so that the batches
# handed to the integrand are identical for every worker count.
CHUNK = 64

# Largest grid one level may build: 2**22 5-D points hold about 168 MB.
MAX_LEVEL_POINTS = 2**22

_NEWTON_TOL = 1e-15


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts and refinement policy for a tensor-product rule.

    nodes: per-axis Gauss-Legendre node count; an int applies to every
        non-masked axis.
    refinement_factor: node-count multiplier for the error-estimation pass.
    max_refinements: extra refinement rounds allowed when rel_tol is set.
    rel_tol: target relative tolerance; None accepts the two-level estimate.
    mask: axis indices along which the integrand is declared constant.
        ``integrate_box`` ignores it; ``cycles.integrate_cycle`` drops those
        axes from the box and multiplies by their exact extents.  None means
        the metric's declared symmetry axes, () means no mask.
    """

    nodes: int | tuple[int, ...] = 32
    refinement_factor: int = 2
    max_refinements: int = 0
    rel_tol: float | None = None
    mask: tuple[int, ...] | None = None
    workers: int = 1

    def counts_for(self, naxes: int) -> tuple[int, ...]:
        if isinstance(self.nodes, int):
            return (self.nodes,) * naxes
        if len(self.nodes) != naxes:
            raise ValueError(
                f"node counts {self.nodes} do not match {naxes} integration axes")
        return tuple(int(c) for c in self.nodes)


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
    order = np.argsort(x)
    return x[order], w[order]


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
        weights = np.multiply.outer(weights, w)
    return points.reshape(weights.size, len(counts)), weights.ravel()


def _evaluate(f, points: np.ndarray, workers: int) -> np.ndarray:
    chunks = [points[i: i + CHUNK] for i in range(0, len(points), CHUNK)]
    if workers <= 1 or len(chunks) <= 1:
        results = [f(c) for c in chunks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(f, chunks))
    return np.asarray(np.concatenate(results), dtype=float) if results else np.zeros(0)


def _single_level(f, box, counts, workers):
    points, weights = _tensor_points(box, counts)
    try:
        values = _evaluate(f, points, workers)
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
    """Two-level quadrature result: refined value plus the coarser pass."""

    value: float
    error_estimate: float
    counts: tuple[int, ...]
    coarse_value: float
    coarse_counts: tuple[int, ...]


def integrate_box(f, box, spec: QuadratureSpec) -> BoxResult:
    """Tensor-product Gauss-Legendre integral of ``f`` over an open box.

    ``f`` maps an (m, dim) array of interior points to an (m,) array of
    values and must be pure.  The returned ``value`` is the refined-level
    result and ``error_estimate`` the absolute difference between the two
    finest levels.  Raises :class:`QuadratureError` if ``spec.rel_tol`` is
    set and unmet after ``spec.max_refinements`` extra rounds, and raises
    ValueError before building any grid if ``spec.max_refinements`` is
    negative or the finest level allowed would exceed ``MAX_LEVEL_POINTS``.
    """
    box = [(float(lo), float(hi)) for lo, hi in box]
    counts = spec.counts_for(len(box))
    fac = int(spec.refinement_factor)
    if fac < 1:
        raise ValueError("refinement factor must be >= 1")
    if spec.max_refinements < 0:
        raise ValueError(f"max_refinements must be >= 0, got {spec.max_refinements}")
    finest = math.prod(c * fac ** (spec.max_refinements + 1) for c in counts)
    if finest > MAX_LEVEL_POINTS:
        raise ValueError(f"the finest quadrature level would evaluate {finest} points, "
                         f"over the budget of {MAX_LEVEL_POINTS}")

    coarse = _single_level(f, box, counts, spec.workers)
    if fac == 1:
        return BoxResult(coarse, 0.0, counts, coarse, counts)
    for _ in range(spec.max_refinements + 1):
        fine_counts = tuple(c * fac for c in counts)
        fine = _single_level(f, box, fine_counts, spec.workers)
        err = abs(fine - coarse)
        scale = max(abs(fine), np.finfo(float).tiny)
        if spec.rel_tol is None or err <= spec.rel_tol * scale:
            return BoxResult(fine, err, fine_counts, coarse, counts)
        coarse, counts = fine, fine_counts
    raise QuadratureError(
        f"relative tolerance {spec.rel_tol} not reached: "
        f"estimate {err:.3e} at {fine_counts} nodes")

"""Christoffel symbols, Riemann curvature and curvature-identity validation.

A metric is supplied as component functions evaluated in second-order jet
arithmetic; everything here is index bookkeeping on the resulting value /
gradient / Hessian arrays.  Conventions:

* Christoffel symbols   Gamma^a_bc = g^ae Gamma_e,bc, with the first kind
                        Gamma_e,bc = 1/2 (d_b g_ec + d_c g_eb - d_e g_bc)
* Riemann tensor        R_jbc^a    = d_j Gamma^a_bc - d_b Gamma^a_jc
                                     + Gamma^a_je Gamma^e_bc - Gamma^a_be Gamma^e_jc
  stored as ``riemann_up[j, b, c, a]``.  It is computed lowered, straight
  from the metric Hessian, with no derivative of g^-1 or of Gamma:
  ``riemann_down[j, b, c, a]`` = R_jbca = R_jbc^e g_ea
      = 1/2 (d_j d_c g_ab - d_j d_a g_bc - d_b d_c g_aj + d_b d_a g_jc)
        + Gamma^e_jc Gamma_e,ba - Gamma^e_bc Gamma_e,ja,
  and ``riemann_up`` is its raise by g^-1 in the last slot.
* Ricci tensor          Ric_bc = R_abc^a, which makes round spheres
  positively curved: Ric = ((n-1)/r^2) g.

All operations accept batched evaluation points: ``coords`` may have shape
``(..., n)`` and every output grows the same leading axes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import ChartDomainError, Jet2, jet_variable

__all__ = [
    "SingularMetricError",
    "CoordBox",
    "MetricField",
    "CurvaturePack",
    "CurvatureReport",
    "metric_jets",
    "metric_values",
    "christoffel",
    "curvature_pack",
    "riemann",
    "curvature_endo",
    "curvature_report",
    "validate_curvature",
    "leading_minors_positive",
]

COND_LIMIT = 1e12
IDENTITY_TOL = 1e-9


class SingularMetricError(ChartDomainError):
    """Metric matrix numerically singular: chart-boundary degeneracy."""


@dataclass(frozen=True)
class CoordBox:
    """Open coordinate box with per-axis periodicity flags."""

    intervals: tuple[tuple[float, float], ...]
    periodic: tuple[bool, ...]

    def __post_init__(self):
        if len(self.intervals) != len(self.periodic):
            raise ValueError("intervals and periodicity flags must align")

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def extent(self, axis: int) -> float:
        lo, hi = self.intervals[axis]
        return hi - lo

    def from_unit(self, unit, margin: float = 0.05) -> np.ndarray:
        """Points of the unit cube mapped into the box, keeping a relative
        margin from every boundary."""
        lows = np.array([lo + margin * (hi - lo) for lo, hi in self.intervals])
        highs = np.array([hi - margin * (hi - lo) for lo, hi in self.intervals])
        return lows + (highs - lows) * np.asarray(unit, dtype=float)

    def sample_interior(self, rng: np.random.Generator, count: int, margin: float = 0.05):
        """Uniform samples keeping a relative margin from every boundary."""
        return self.from_unit(rng.random((count, self.dim)), margin)


@dataclass(frozen=True)
class MetricField:
    """A chart domain plus Jet2-valued metric component functions.

    ``components`` is a picklable callable taking the list of coordinate jets
    and returning the n x n (nested-list) matrix of Jet2 entries; entries may
    also be plain numbers for constant components.  :func:`metric_jets` reads
    only the upper triangle and mirrors it, so g_{ab} == g_{ba} holds exactly.
    Cycle integrals measure its constant axes (``cycles._constant_axes``).
    """

    box: CoordBox
    components: object
    coord_names: tuple[str, ...]
    form_order: tuple[int, ...] | None = None
    name: str = ""
    params: object = None

    @property
    def dim(self) -> int:
        return self.box.dim

    def orientation(self) -> tuple[int, ...]:
        return self.form_order if self.form_order is not None else tuple(range(self.dim))


def _chart_coords(metric: MetricField, coords) -> np.ndarray:
    """``coords`` as a float array, refused if a point leaves the open chart.

    Non-periodic axes carry genuine chart boundaries; periodic coordinates
    may sit anywhere (orbit wrapping lands on interval endpoints).
    """
    coords = np.asarray(coords, dtype=float)
    for i, (lo, hi) in enumerate(metric.box.intervals):
        if metric.box.periodic[i]:
            continue
        c = coords[..., i]
        if np.any(c <= lo) or np.any(c >= hi):
            raise ChartDomainError(
                f"coordinate {metric.coord_names[i]} outside the open chart "
                f"interval ({lo}, {hi})")
    return coords


def metric_jets(metric: MetricField, coords: np.ndarray):
    """Metric value, gradient and Hessian arrays at a batch of chart points.

    Returns ``(g, dg, d2g)`` with shapes ``(..., n, n)``, ``(..., n, n, n)``
    and ``(..., n, n, n, n)``; derivative indices are the trailing axes:
    ``dg[..., a, b, c] = d_c g_{ab}`` and ``d2g[..., a, b, c, d] = d_c d_d g_{ab}``.
    Each upper-triangle component is read once and mirrored by assignment;
    a plain-number component fills ``g`` only, its derivatives stay zero.
    This is the only path that forms metric derivatives.
    """
    coords = _chart_coords(metric, coords)
    n = metric.dim
    batch = coords.shape[:-1]
    rows = metric.components([jet_variable(i, coords[..., i], n) for i in range(n)])
    g = np.zeros(batch + (n, n))
    dg = np.zeros(batch + (n, n, n))
    d2g = np.zeros(batch + (n, n, n, n))
    for a in range(n):
        for b in range(a, n):
            entry = rows[a][b]
            if not isinstance(entry, Jet2):
                g[..., a, b] = g[..., b, a] = entry
                continue
            g[..., a, b] = g[..., b, a] = entry.value
            dg[..., a, b, :] = dg[..., b, a, :] = entry.grad
            d2g[..., a, b, :, :] = d2g[..., b, a, :, :] = entry.hess
    return g, dg, d2g


def metric_values(metric: MetricField, coords: np.ndarray) -> np.ndarray:
    """Metric values alone, shape ``(..., n, n)``, at a batch of chart points.

    The components read plain coordinate arrays (the ``jets`` functions pass
    them through), so no derivative is formed; the result equals the ``g``
    of :func:`metric_jets` bit for bit.
    """
    coords = _chart_coords(metric, coords)
    n = metric.dim
    rows = metric.components([coords[..., i] for i in range(n)])
    g = np.zeros(coords.shape[:-1] + (n, n))
    for a in range(n):
        for b in range(a, n):
            g[..., a, b] = g[..., b, a] = rows[a][b]
    return g


def _condition_number(g: np.ndarray) -> np.ndarray:
    """2-norm condition number of symmetric matrices: max|lambda| / min|lambda|.

    The exact check of :func:`_inverse_guarded`, run only on a batch that
    the Frobenius bound does not clear.
    """
    lam = np.abs(np.linalg.eigvalsh(g))
    with np.errstate(divide="ignore", invalid="ignore"):
        return lam.max(axis=-1) / lam.min(axis=-1)


def _inverse_guarded(g: np.ndarray) -> np.ndarray:
    """g^-1, refused where the 2-norm condition number exceeds ``COND_LIMIT``.

    The inverse clears the guard itself: kappa_2(g) <= |g|_F |g^-1|_F, so a
    batch whose Frobenius bound is at most ``COND_LIMIT / 2`` passes with no
    eigen-solve (the factor 2 covers the rounding of g^-1, about
    kappa eps ~ 1e-4 relative at the limit).  A batch above that margin, a
    NaN bound or an exactly singular g takes the exact
    :func:`_condition_number` check, which alone decides every refusal; a
    batch whose eigenvalues do not converge (NaN entries) is refused whole.
    """
    try:
        ginv = np.linalg.inv(g)
        bound = np.linalg.norm(g, axis=(-2, -1)) * np.linalg.norm(ginv, axis=(-2, -1))
        if np.all(bound <= COND_LIMIT / 2):
            return ginv
    except np.linalg.LinAlgError:
        pass
    try:
        cond = _condition_number(g)
    except np.linalg.LinAlgError:  # eigvalsh does not converge on NaN entries
        cond = np.full(g.shape[:-2], np.inf)
    if np.any(~np.isfinite(cond)) or np.any(cond > COND_LIMIT):
        worst = float(np.max(cond[np.isfinite(cond)])) if np.any(np.isfinite(cond)) else np.inf
        raise SingularMetricError(
            f"metric condition number {worst:.3e} exceeds {COND_LIMIT:.0e}: "
            "chart-boundary degeneracy")
    return np.linalg.inv(g)


def _gamma_terms(g, dg):
    ginv = _inverse_guarded(g)
    # S[..., e, b, c] = d_b g_{ec} + d_c g_{eb} - d_e g_{bc}
    # with dg[..., a, b, c] = d_c g_{ab}:
    #   d_b g_{ec} = dg[e, c, b],  d_c g_{eb} = dg[e, b, c],  d_e g_{bc} = dg[b, c, e]
    s = np.swapaxes(dg, -1, -2) + dg - np.moveaxis(dg, -1, -3)
    n = g.shape[-1]
    gamma = 0.5 * (ginv @ s.reshape(s.shape[:-2] + (n * n,))).reshape(s.shape)
    return ginv, s, gamma


def christoffel(metric: MetricField, x) -> np.ndarray:
    """Levi-Civita connection coefficients Gamma^a_{bc} at ``x``."""
    g, dg, _ = metric_jets(metric, x)
    _, _, gamma = _gamma_terms(g, dg)
    return gamma


@dataclass(frozen=True)
class CurvaturePack:
    """Curvature data at a (possibly batched) point.

    Index layout: ``gamma[a, b, c] = Gamma^a_{bc}``,
    ``riemann_up[j, b, c, a] = R_{jbc}^^a``, ``riemann_down`` its lowering in
    the last slot, and the property ``ricci[b, c] = R_{abc}^^a``.
    """

    g: np.ndarray
    gamma: np.ndarray
    riemann_up: np.ndarray
    riemann_down: np.ndarray

    @property
    def dim(self) -> int:
        return self.g.shape[-1]

    @property
    def ricci(self) -> np.ndarray:
        return np.einsum("...abca->...bc", self.riemann_up)


def _riemann_down(d2g, s, gamma):
    """R_jbca as A - A^(j<->b), exactly antisymmetric in (j, b), with
    A_jbca = 1/2 (d_j d_c g_ab - d_j d_a g_bc + Gamma^e_jc S_eba).

    A function of its own so that A is freed before the raise.
    """
    n = gamma.shape[-1]
    batch = gamma.shape[:-3]
    # C order: every later pass then runs over contiguous memory.
    a = np.subtract(np.einsum("...abjc->...jbca", d2g),
                    np.einsum("...bcja->...jbca", d2g), order="C")
    # Gamma^e_jc S_eba as [..., j, c, b, a], one (n^2 x n) @ (n x n^2) product.
    a += np.swapaxes((np.swapaxes(gamma.reshape(batch + (n, n * n)), -1, -2)
                      @ s.reshape(batch + (n, n * n))).reshape(batch + (n,) * 4), -3, -2)
    a *= 0.5
    return a - np.swapaxes(a, -4, -3)


def curvature_pack(g, dg, d2g) -> CurvaturePack:
    """Full curvature pack (Christoffels, Riemann, Ricci) from the metric
    jets that :func:`metric_jets` returns."""
    ginv, s, gamma = _gamma_terms(g, dg)
    rdown = _riemann_down(d2g, s, gamma)
    n = g.shape[-1]
    rup = (rdown.reshape(g.shape[:-2] + (n ** 3, n)) @ ginv).reshape(rdown.shape)
    return CurvaturePack(g=g, gamma=gamma, riemann_up=rup, riemann_down=rdown)


def riemann(metric: MetricField, x) -> CurvaturePack:
    """Full curvature pack (Christoffels, Riemann, Ricci) at ``x``."""
    return curvature_pack(*metric_jets(metric, x))


def curvature_endo(pack: CurvaturePack, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Curvature endomorphism R(X, Y) as a matrix acting on tangent vectors.

    Entry ``[a, b]`` is R_{cdb}^^a X^c Y^d (output index first); bilinear and
    antisymmetric in (X, Y), with skew-symmetric lowering g R(X, Y).
    """
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    return np.einsum("...cdba,...c,...d->...ab", pack.riemann_up, X, Y)


def metric_compatibility_residual(pack: CurvaturePack, dg: np.ndarray) -> np.ndarray:
    """d_c g_{ab} - Gamma^e_{ca} g_{eb} - Gamma^e_{cb} g_{ae}, which must vanish."""
    down = np.einsum("...eca,...eb->...cab", pack.gamma, pack.g)
    return np.einsum("...abc->...cab", dg) - down - np.swapaxes(down, -1, -2)


@dataclass(frozen=True)
class CurvatureReport:
    """Maximum relative residuals of the curvature identity suite, each
    passing at most ``IDENTITY_TOL``."""

    residuals: dict[str, float]

    @property
    def passed(self) -> bool:
        return all(v <= IDENTITY_TOL for v in self.residuals.values())

    def worst(self) -> tuple[str, float]:
        name = max(self.residuals, key=self.residuals.get)
        return name, self.residuals[name]

    def lines(self) -> list[str]:
        out = []
        for key, val in self.residuals.items():
            flag = "pass" if val <= IDENTITY_TOL else "FAIL"
            out.append(f"  {key:<22} {val:12.3e}  {flag}")
        return out


def curvature_report(pack: CurvaturePack, dg: np.ndarray) -> CurvatureReport:
    """The curvature identity suite of ``pack``, built from the metric
    gradient ``dg``.

    Residuals are relative to the largest lowered-curvature component (or to
    the metric scale where more natural) and cover: Christoffel symmetry,
    metric compatibility, both Riemann antisymmetries, pair-swap symmetry,
    the first Bianchi identity, and Ricci symmetry.
    """
    rd = pack.riemann_down
    scale = max(float(np.max(np.abs(rd))), np.finfo(float).tiny)
    gscale = max(float(np.max(np.abs(pack.g))), np.finfo(float).tiny)
    gamma_scale = max(float(np.max(np.abs(pack.gamma))), 1.0)
    ric = pack.ricci

    residuals = {
        "gamma_symmetry": float(np.max(np.abs(pack.gamma - np.swapaxes(pack.gamma, -1, -2)))) / gamma_scale,
        "metric_compat": float(np.max(np.abs(metric_compatibility_residual(pack, dg)))) / max(
            float(np.max(np.abs(dg))), gscale),
        "antisym_first_pair": float(np.max(np.abs(rd + np.einsum("...jbca->...bjca", rd)))) / scale,
        "antisym_second_pair": float(np.max(np.abs(rd + np.einsum("...jbca->...jbac", rd)))) / scale,
        "pair_swap": float(np.max(np.abs(rd - np.einsum("...jbca->...cajb", rd)))) / scale,
        "first_bianchi": float(np.max(np.abs(
            rd + np.einsum("...bcja->...jbca", rd) + np.einsum("...cjba->...jbca", rd)))) / scale,
        "ricci_symmetry": float(np.max(np.abs(ric - np.swapaxes(ric, -1, -2)))) / max(
            float(np.max(np.abs(ric))), np.finfo(float).tiny),
    }
    return CurvatureReport(residuals=residuals)


def validate_curvature(metric: MetricField, samples) -> CurvatureReport:
    """:func:`curvature_report` at a batch of interior points, from one
    :func:`metric_jets` call."""
    g, dg, d2g = metric_jets(metric, samples)
    return curvature_report(curvature_pack(g, dg, d2g), dg)


def leading_minors_positive(g: np.ndarray) -> bool:
    """Positive definiteness via leading principal minors."""
    n = g.shape[-1]
    for k in range(1, n + 1):
        if np.any(np.linalg.det(g[..., :k, :k]) <= 0.0):
            return False
    return True

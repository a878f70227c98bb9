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
    "christoffel",
    "riemann",
    "curvature_endo",
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

    def contains(self, coords: np.ndarray) -> bool:
        coords = np.asarray(coords, dtype=float)
        for i, (lo, hi) in enumerate(self.intervals):
            c = coords[..., i]
            if np.any(c <= lo) or np.any(c >= hi):
                return False
        return True

    def wrap(self, coords: np.ndarray, axis: int) -> np.ndarray:
        """Reduce one coordinate modulo its period (periodic axes only)."""
        if not self.periodic[axis]:
            raise ChartDomainError(f"axis {axis} is not periodic: orbit exits chart domain")
        lo, hi = self.intervals[axis]
        out = np.array(coords, dtype=float, copy=True)
        out[..., axis] = lo + np.mod(out[..., axis] - lo, hi - lo)
        return out

    def sample_interior(self, rng: np.random.Generator, count: int, margin: float = 0.05):
        """Uniform samples keeping a relative margin from every boundary."""
        lows = np.array([lo + margin * (hi - lo) for lo, hi in self.intervals])
        highs = np.array([hi - margin * (hi - lo) for lo, hi in self.intervals])
        return lows + (highs - lows) * rng.random((count, self.dim))


@dataclass(frozen=True)
class MetricField:
    """A chart domain plus Jet2-valued metric component functions.

    ``components`` is a picklable callable taking the list of coordinate jets
    and returning the n x n (nested-list) matrix of Jet2 entries; entries may
    also be plain numbers for constant components.  :func:`metric_jets` reads
    only the upper triangle and mirrors it, so g_{ab} == g_{ba} holds exactly.
    """

    dim: int
    box: CoordBox
    components: object
    coord_names: tuple[str, ...]
    symmetry_axes: tuple[int, ...] = ()
    form_order: tuple[int, ...] | None = None
    name: str = ""
    params: object = None

    def orientation(self) -> tuple[int, ...]:
        return self.form_order if self.form_order is not None else tuple(range(self.dim))


def metric_jets(metric: MetricField, coords: np.ndarray):
    """Metric value, gradient and Hessian arrays at a batch of chart points.

    Returns ``(g, dg, d2g)`` with shapes ``(..., n, n)``, ``(..., n, n, n)``
    and ``(..., n, n, n, n)``; derivative indices are the trailing axes:
    ``dg[..., a, b, c] = d_c g_{ab}`` and ``d2g[..., a, b, c, d] = d_c d_d g_{ab}``.
    Each upper-triangle component is read once and mirrored by assignment;
    a plain-number component fills ``g`` only, its derivatives stay zero.
    """
    coords = np.asarray(coords, dtype=float)
    n = metric.dim
    batch = coords.shape[:-1]
    # Non-periodic axes carry genuine chart boundaries; periodic coordinates
    # may sit anywhere (orbit wrapping lands on interval endpoints).
    for i, (lo, hi) in enumerate(metric.box.intervals):
        if metric.box.periodic[i]:
            continue
        c = coords[..., i]
        if np.any(c <= lo) or np.any(c >= hi):
            raise ChartDomainError(
                f"coordinate {metric.coord_names[i]} outside the open chart "
                f"interval ({lo}, {hi})")
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


def _condition_number(g: np.ndarray) -> np.ndarray:
    """2-norm condition number of symmetric matrices: max|lambda| / min|lambda|."""
    lam = np.abs(np.linalg.eigvalsh(g))
    with np.errstate(divide="ignore", invalid="ignore"):
        return lam.max(axis=-1) / lam.min(axis=-1)


def _inverse_guarded(g: np.ndarray) -> np.ndarray:
    cond = _condition_number(g)
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
    the last slot, ``ricci[b, c] = R_{abc}^^a``.
    """

    g: np.ndarray
    ginv: np.ndarray
    gamma: np.ndarray
    riemann_up: np.ndarray
    riemann_down: np.ndarray
    ricci: np.ndarray

    @property
    def dim(self) -> int:
        return self.g.shape[-1]


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


def riemann(metric: MetricField, x) -> CurvaturePack:
    """Full curvature pack (Christoffels, Riemann, Ricci) at ``x``."""
    g, dg, d2g = metric_jets(metric, x)
    ginv, s, gamma = _gamma_terms(g, dg)
    rdown = _riemann_down(d2g, s, gamma)
    n = g.shape[-1]
    rup = (rdown.reshape(g.shape[:-2] + (n ** 3, n)) @ ginv).reshape(rdown.shape)
    ricci = np.einsum("...abca->...bc", rup)
    return CurvaturePack(g=g, ginv=ginv, gamma=gamma,
                         riemann_up=rup, riemann_down=rdown, ricci=ricci)


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
    """Maximum relative residuals of the curvature identity suite."""

    residuals: dict[str, float]
    tolerance: float = IDENTITY_TOL

    @property
    def passed(self) -> bool:
        return all(v <= self.tolerance for v in self.residuals.values())

    def worst(self) -> tuple[str, float]:
        name = max(self.residuals, key=self.residuals.get)
        return name, self.residuals[name]

    def lines(self) -> list[str]:
        out = []
        for key, val in self.residuals.items():
            flag = "pass" if val <= self.tolerance else "FAIL"
            out.append(f"  {key:<22} {val:12.3e}  {flag}")
        return out


def validate_curvature(metric: MetricField, samples) -> CurvatureReport:
    """Check the curvature identity suite at a batch of interior points.

    Residuals are relative to the largest lowered-curvature component (or to
    the metric scale where more natural) and cover: Christoffel symmetry,
    metric compatibility, both Riemann antisymmetries, pair-swap symmetry,
    the first Bianchi identity, and Ricci symmetry.
    """
    coords = np.asarray(samples, dtype=float)
    if coords.ndim == 1:
        coords = coords[None, :]
    if not metric.box.contains(coords):
        lows = np.array([iv[0] for iv in metric.box.intervals])
        highs = np.array([iv[1] for iv in metric.box.intervals])
        bad = np.any((coords <= lows) | (coords >= highs), axis=-1)
        where = coords[np.argmax(bad)]
        raise ChartDomainError(
            f"validation sample outside the open chart domain: {where.tolist()}")
    g, dg, _ = metric_jets(metric, coords)
    pack = riemann(metric, coords)
    rd = pack.riemann_down
    scale = max(float(np.max(np.abs(rd))), np.finfo(float).tiny)
    gscale = max(float(np.max(np.abs(g))), np.finfo(float).tiny)
    gamma_scale = max(float(np.max(np.abs(pack.gamma))), 1.0)

    residuals = {
        "gamma_symmetry": float(np.max(np.abs(pack.gamma - np.swapaxes(pack.gamma, -1, -2)))) / gamma_scale,
        "metric_compat": float(np.max(np.abs(metric_compatibility_residual(pack, dg)))) / max(
            float(np.max(np.abs(dg))), gscale),
        "antisym_first_pair": float(np.max(np.abs(rd + np.einsum("...jbca->...bjca", rd)))) / scale,
        "antisym_second_pair": float(np.max(np.abs(rd + np.einsum("...jbca->...jbac", rd)))) / scale,
        "pair_swap": float(np.max(np.abs(rd - np.einsum("...jbca->...cajb", rd)))) / scale,
        "first_bianchi": float(np.max(np.abs(
            rd + np.einsum("...bcja->...jbca", rd) + np.einsum("...cjba->...jbca", rd)))) / scale,
        "ricci_symmetry": float(np.max(np.abs(pack.ricci - np.swapaxes(pack.ricci, -1, -2)))) / max(
            float(np.max(np.abs(pack.ricci))), np.finfo(float).tiny),
    }
    return CurvatureReport(residuals=residuals)


def leading_minors_positive(g: np.ndarray) -> bool:
    """Positive definiteness via leading principal minors."""
    n = g.shape[-1]
    for k in range(1, n + 1):
        if np.any(np.linalg.det(g[..., :k, :k]) <= 0.0):
            return False
    return True

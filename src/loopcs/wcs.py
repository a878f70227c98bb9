"""Pointwise Wodzicki-Chern-Simons integrand on odd-dimensional metrics.

For a loop point with curvature pack R, loop velocity gd and a frame of
m = 2k - 1 tangent vectors X_1 .. X_m, the integrand is

    2/m! * sum_{sigma in S_m} sgn(sigma)
        tr[ B(X_{sigma(1)}) . Omega(X_{sigma(2)}, X_{sigma(3)}) . ...
                            . Omega(X_{sigma(m-1)}, X_{sigma(m)}) ]

with Omega(X, Y) the curvature endomorphism and B the velocity bracket

    reduced:  B(X)^a_b = (-R_{bdc}^^a + R_{cbd}^^a) X^c gd^d
    full:     B(X)^a_b = (-2 R_{cdb}^^a - R_{bdc}^^a + R_{cbd}^^a) X^c gd^d.

The sum is alternating in the m = dim frame vectors, so with F the matrix of
the frame's rows, f(F) = det(F) * f(e_1, .., e_m): it is contracted on the
coordinate vectors and scaled by det(F), exactly +-1 on the cycle frames.
The contraction does not materialise the sum.  Only the antisymmetric part
(Omega_ab)^e_f = (R_{abf}^^e - R_{baf}^^e)/2, a < b, survives it, and each
unordered pair {a, b} appears in both orders with opposite signs, which
gives the factor 2^{k-1}.  Summing the remaining orderings gives the
End-valued wedge power of the curvature 2-form: for a sorted index set J of
size 2j,

    W_J = sum_{a<b in J} sgn(J - {a,b}, a, b) W_{J - {a,b}} . Omega_ab,
    W_{} = 1,

where sgn(J - {a,b}, a, b) is the sign of the permutation that moves a and b
to the end of J.  Grouping the signed sum by sigma(1) = i then gives

    2^{k-1} * 2/m! * sum_i (-1)^i tr[ B(e_i) . W_{J_i} ],

with J_i the complement of i (0-based i).  Level j of the recursion costs
C(m, 2j) * C(2j, 2) matrix products, e.g. 30 for k = 3 and 315 for k = 4,
instead of the m^m traces of the literal sum.  Because the antisymmetric
part is taken explicitly, the contraction equals the literal sum for any
tensor in the ``riemann_up`` slot, metric-derived or not.

The extra term of the full bracket contributes the contraction of a 2k-form
with gd, which cancels in the signed sum whenever gd lies in the span of the
frame, so both variants agree on frames spanning a (2k-1)-manifold; cycle
integrals take the reduced one, and both stay here for pointwise checks.  The
subprincipal-symbol endomorphism itself (:func:`symbol_endo`) carries an
additional factor 1/2 in the full variant.

On manifolds of dimension congruent to 3 mod 4 the integrand vanishes
identically: the lowered reduced bracket is symmetric while the lowered
curvature endomorphism is skew.
"""
from __future__ import annotations

import math
from functools import cache
from itertools import combinations

import numpy as np

__all__ = [
    "symbol_endo",
    "wcs_integrand",
]

def _bracket(rup, gammadot, variant: str) -> np.ndarray:
    """Unhalved velocity bracket on the coordinate vectors, t[..., c, b, a] = B(e_c)^a_b."""
    if variant not in ("full", "reduced"):
        raise ValueError(f"variant must be 'full' or 'reduced', got {variant!r}")
    # t[..., c, b, a] = (R_{cbd}^^a - R_{bdc}^^a [- 2 R_{cdb}^^a]) gd^d
    r_cdb = np.einsum("...cdba,...d->...cba", rup, gammadot)
    t = np.einsum("...cbda,...d->...cba", rup, gammadot) - np.swapaxes(r_cdb, -3, -2)
    if variant == "full":
        t = t - 2.0 * r_cdb
    return t


def symbol_endo(pack, X, gammadot, variant: str) -> np.ndarray:
    """Subprincipal-symbol endomorphism of the connection-difference form.

    ``full`` returns 1/2 (-2 R_{cdb}^^a - R_{bdc}^^a + R_{cbd}^^a) X^c gd^d;
    ``reduced`` drops the first term and the 1/2.  Linear in both X and the
    velocity; the lowered reduced endomorphism is symmetric.
    """
    t = _bracket(pack.riemann_up, np.asarray(gammadot, dtype=float), variant)
    out = np.einsum("...c,...cba->...ab", np.asarray(X, dtype=float), t)
    if variant == "full":
        out = 0.5 * out
    return out


@cache
def _wedge_tables(m: int):
    """Index and sign tables for the W_J recursion on m = 2k - 1 frame vectors.

    Returns ``(ia, ib, levels, complement, signs)``.  Level sets are sorted
    index sets in ``combinations`` order, starting from the pairs a < b, whose
    first and second indices are ``ia`` and ``ib``.  Each level above the
    pairs is ``(prev, pair, sign)``, three ``(slots, count)`` arrays with one
    column per index set J of the level and one row per pair slot {a, b} of
    J: slot s of set J multiplies W[prev[s, J]] of the level below by
    Omega[pair[s, J]] with ``sign[s, J]``.  ``complement[i]`` is the position
    of J_i in the top level and ``signs[i]`` is (-1)^i.  Built from Python
    lists once per m, so a call of :func:`wcs_integrand` runs no index
    kernel of numpy's.
    """
    pairs = list(combinations(range(m), 2))
    pair_pos = {p: t for t, p in enumerate(pairs)}
    below = pair_pos
    levels = []
    for size in range(4, m, 2):
        sets = list(combinations(range(m), size))
        prev, pair, sign = [], [], []
        for J in sets:
            for a, b in combinations(J, 2):
                rest = tuple(x for x in J if x != a and x != b)
                inversions = sum(x > a for x in rest) + sum(x > b for x in rest)
                prev.append(below[rest])
                pair.append(pair_pos[(a, b)])
                sign.append(-1.0 if inversions % 2 else 1.0)
        levels.append(tuple(np.array(t).reshape(len(sets), -1).T
                            for t in (prev, pair, sign)))
        below = {J: t for t, J in enumerate(sets)}
    complement = np.array([below[tuple(x for x in range(m) if x != i)]
                           for i in range(m)])
    ia, ib = (np.array(column) for column in zip(*pairs))
    return ia, ib, levels, complement, np.array([(-1.0) ** i for i in range(m)])


def wcs_integrand(pack, frame, gammadot, variant: str = "reduced") -> float | np.ndarray:
    """Evaluate the integrand at one loop point (batched over the pack).

    ``frame`` holds m = 2k - 1 tangent vectors as rows, as many as the
    pack's dimension, so the frame fixes the form degree k.  The returned
    value is the density of the (2k-1)-form against the frame; the loop
    integral and orientation bookkeeping live in the cycle module.
    Alternating in the frame and linear in the velocity ``gammadot``.
    """
    n = pack.dim
    F = np.asarray(frame, dtype=float)
    if F.shape != (n, n) or n < 3 or n % 2 == 0:
        raise ValueError(f"a frame must hold 2k - 1 vectors (k >= 2) of dimension {n} "
                         f"= pack.dim, got shape {F.shape}")
    m = len(F)
    k = (m + 1) // 2
    rup = pack.riemann_up
    batch = rup.shape[:-4]
    t = _bracket(rup, np.asarray(gammadot, dtype=float), variant)

    # (Omega_ab)^e_f = (R_{abf}^^e - R_{baf}^^e)/2 for a < b, formed in place.
    ia, ib, levels, complement, signs = _wedge_tables(m)
    pairs = np.swapaxes(rup[..., ia, ib, :, :], -1, -2)
    pairs -= np.swapaxes(rup[..., ib, ia, :, :], -1, -2)
    pairs *= 0.5

    # Summing each level's pair slots one at a time keeps every temporary at
    # (count, n, n) instead of materialising the (count * slots, n, n) stack.
    wedge = pairs
    for prev, pair, sign in levels:
        acc = np.zeros(batch + (prev.shape[1], n, n))
        for p, q, s in zip(prev, pair, sign):
            acc += s[:, None, None] * (wedge[..., p, :, :] @ pairs[..., q, :, :])
        wedge = acc
    # tr[B(e_i) . W_{J_i}] = t[i, b, a] W_{J_i}[b, a]
    traces = np.einsum("...iba,...iba->...i", t, wedge[..., complement, :, :])
    # einsum, not a matmul: BLAS gemv rounds the odd last row of a batch
    # unlike the paired rows, so a point's value would depend on its batch.
    scale = np.linalg.det(F) * (2.0 ** (k - 1) * 2.0 / math.factorial(m))
    result = scale * np.einsum("...i,i->...", traces, signs)
    return float(result) if result.ndim == 0 else result

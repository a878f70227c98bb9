"""The contracted WCS integrand against the literal signed sum over S_{2k-1}.

``literal_integrand`` builds every trace tr[B_i . Omega_pq . ...] of the
frame-indexed bracket and curvature endomorphisms and gathers the (2k-1)!
entries of the signed sum, exactly as the definition reads.  The curvature
slot holds random tensors with no symmetry at all, so the integrand is
nonzero at every k; on real metrics of dimension 7 the k = 4 integrand
vanishes identically and cannot expose a sign error.
"""
import math
import time
import tracemalloc
from itertools import permutations
from types import SimpleNamespace

import numpy as np
import pytest

from loopcs import cycles, geometry, metrics
from loopcs.wcs import wcs_integrand


def literal_integrand(rup, k, gd, frame, variant):
    """The signed sum at one point or a batch; O(m^m) memory per point."""
    m = 2 * k - 1
    n = rup.shape[-1]
    t_bdc = np.einsum("...bdca,mc,d->...mab", rup, frame, gd)
    t_cbd = np.einsum("...cbda,mc,d->...mab", rup, frame, gd)
    B = t_cbd - t_bdc
    if variant == "full":
        B = B - 2.0 * np.einsum("...cdba,mc,d->...mab", rup, frame, gd)
    omega = np.einsum("...cdba,ic,jd->...ijab", rup, frame, frame)
    batch = omega.shape[:-4]
    flat = omega.reshape(batch + (m * m, n, n))
    chain = flat
    for _ in range(k - 2):
        chain = np.einsum("...pab,...qbc->...pqac", chain, flat)
        chain = chain.reshape(batch + (-1, n, n))
    traces = np.einsum("...mab,...pba->...mp", B, chain).reshape(batch + (m,) * m)
    perms = np.array(list(permutations(range(m))))
    signs = np.array([(-1.0) ** sum(p[i] > p[j] for i in range(m) for j in range(i + 1, m))
                      for p in perms])
    gathered = traces[(Ellipsis,) + tuple(perms.T)]
    return (2.0 / math.factorial(m)) * (gathered @ signs)


def odd_permutation_frame(m):
    """Coordinate vectors with the middle two swapped, as ypq's form order
    (0, 1, 3, 2, 4) swaps them for m = 5."""
    order = list(range(m))
    order[m // 2], order[m // 2 + 1] = order[m // 2 + 1], order[m // 2]
    return np.eye(m)[order]


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("variant", ["reduced", "full"])
@pytest.mark.parametrize("batch, frame_kind", [((), "random"), ((2, 3), "random"),
                                               ((), "identity"), ((), "odd_permutation")],
                         ids=["batch0", "batch1", "batch0-identity", "batch0-odd_permutation"])
def test_contraction_matches_literal_signed_sum(k, variant, batch, frame_kind):
    # The integrand is computed on the coordinate vectors and scaled by
    # det(frame); the literal sum takes the frame's vectors as they are.
    m = 2 * k - 1
    rng = np.random.default_rng(100 * k + len(batch))
    rup = rng.standard_normal(batch + (m,) * 4)
    pack = SimpleNamespace(dim=m, riemann_up=rup)
    gd = rng.standard_normal(m)
    frame = {"random": rng.standard_normal((m, m)), "identity": np.eye(m),
             "odd_permutation": odd_permutation_frame(m)}[frame_kind]
    got = np.asarray(wcs_integrand(pack, frame, gd, variant))
    want = np.empty(batch)
    for idx in np.ndindex(batch):
        want[idx] = literal_integrand(rup[idx], k, gd, frame, variant)
    assert got.shape == batch
    assert np.max(np.abs(want)) > 0.0
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("name", ["ypq73", "flat_torus2", "flat_torus3", "flat_torus5",
                                  "round_sphere2", "round_sphere3", "round_sphere5",
                                  "perturbed_torus3", "s2xs3"])
def test_cycle_frames_have_determinant_exactly_one_in_magnitude(name):
    # Cycle densities are det(frame) times the coordinate-frame value, so
    # they are exact sign flips of it only if the determinant is exactly +-1.
    metric = (metrics.ypq_metric(metrics.solve_ypq(7, 3)) if name == "ypq73"
              else metrics.catalog(name))
    assert abs(np.linalg.det(cycles._frame_vectors(metric))) == 1.0


@pytest.mark.parametrize("metric", [metrics.round_sphere(7),
                                    metrics.perturbed_torus(7, seed=7)],
                         ids=["round_sphere7", "perturbed_torus7"])
def test_k4_vanishes_on_7_manifolds_fast_in_bounded_memory(metric):
    # 7 = 3 mod 4: the k = 4 integrand vanishes identically.
    rng = np.random.default_rng(11)
    pts = metric.box.sample_interior(rng, 1000)
    packs = [geometry.riemann(metric, pts[s:s + 64]) for s in range(0, 1000, 64)]
    gd = rng.standard_normal(7)
    frame = rng.standard_normal((7, 7))
    curv3 = max(float(np.max(np.abs(p.riemann_up))) for p in packs) ** 3
    for variant in ("reduced", "full"):
        best = math.inf
        for _ in range(3):  # best of three: one load spike must not fail the rate
            start = time.perf_counter()
            values = [np.asarray(wcs_integrand(p, frame, gd, variant)) for p in packs]
            best = min(best, time.perf_counter() - start)
        assert max(float(np.max(np.abs(v))) for v in values) <= 1e-10 * curv3
        assert 1000 / best >= 1000.0, f"{variant}: {1000 / best:.0f} points/s"

        tracemalloc.start()
        try:
            for pack in packs:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                wcs_integrand(pack, frame, gd, variant)
                peak = tracemalloc.get_traced_memory()[1] - base
                assert peak <= 32 * 2 ** 20, f"{variant}: {peak / 2 ** 20:.1f} MB per chunk"
        finally:
            tracemalloc.stop()

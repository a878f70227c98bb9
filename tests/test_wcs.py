"""Pointwise Wodzicki-Chern-Simons integrand: vanishing theorems and structure."""
from types import SimpleNamespace

import numpy as np
import pytest

from loopcs import geometry, metrics
from loopcs.wcs import symbol_endo, wcs_integrand


@pytest.fixture(scope="module")
def y73_pack():
    m = metrics.ypq_metric(metrics.solve_ypq(7, 3))
    pts = m.box.sample_interior(np.random.default_rng(21), 100)
    return geometry.riemann(m, pts)


def test_flat_everything_zero():
    m = metrics.flat_torus(5)
    pack = geometry.riemann(m, m.box.sample_interior(np.random.default_rng(0), 3))
    rng = np.random.default_rng(1)
    X, gd = rng.standard_normal(5), rng.standard_normal(5)
    assert np.max(np.abs(symbol_endo(pack, X, gd, "full"))) == 0.0
    frame = rng.standard_normal((5, 5))
    assert np.max(np.abs(wcs_integrand(pack, frame, gd))) == 0.0


def test_symbol_endo_bilinearity(y73_pack):
    rng = np.random.default_rng(2)
    X, gd = rng.standard_normal(5), rng.standard_normal(5)
    for variant in ("full", "reduced"):
        base = symbol_endo(y73_pack, X, gd, variant)
        scaled = symbol_endo(y73_pack, 2 * X, 3 * gd, variant)
        assert np.max(np.abs(scaled - 6 * base)) / np.max(np.abs(base)) < 1e-12


def test_symbol_endo_full_reduced_relation(y73_pack):
    # full = 1/2 (-2 R(X, gd) + reduced-bracket); the extra term is the
    # curvature endomorphism contracted with the velocity.
    rng = np.random.default_rng(3)
    X, gd = rng.standard_normal(5), rng.standard_normal(5)
    full = symbol_endo(y73_pack, X, gd, "full")
    red = symbol_endo(y73_pack, X, gd, "reduced")
    extra = geometry.curvature_endo(y73_pack, X, gd)
    assert np.max(np.abs(full - 0.5 * (red - 2 * extra))) / np.max(np.abs(full)) < 1e-12


def test_lowered_reduced_endo_symmetric(y73_pack):
    rng = np.random.default_rng(4)
    for _ in range(5):
        X, gd = rng.standard_normal(5), rng.standard_normal(5)
        B = symbol_endo(y73_pack, X, gd, "reduced")
        low = np.einsum("...ae,...eb->...ab", y73_pack.g, B)
        asym = np.max(np.abs(low - np.swapaxes(low, -1, -2)))
        assert asym / np.max(np.abs(low)) < 1e-10


@pytest.mark.parametrize("name", ["round_sphere3", "flat_torus3", "perturbed_torus3"])
def test_dim3mod4_pointwise_vanishing(name):
    m = metrics.catalog(name)
    rng = np.random.default_rng(5)
    pack = geometry.riemann(m, m.box.sample_interior(rng, 100))
    curv2 = max(float(np.max(np.abs(pack.riemann_down))) ** 2, np.finfo(float).tiny)
    for _ in range(5):
        frame = rng.standard_normal((3, 3))
        gd = rng.standard_normal(3)
        for variant in ("reduced", "full"):
            v = wcs_integrand(pack, frame, gd, variant)
            assert float(np.max(np.abs(v))) <= 1e-10 * curv2


def test_full_equals_reduced_on_top_frames(y73_pack):
    rng = np.random.default_rng(6)
    for _ in range(5):
        frame = rng.standard_normal((5, 5))
        gd = rng.standard_normal(5)
        full = np.asarray(wcs_integrand(y73_pack, frame, gd, "full"))
        red = np.asarray(wcs_integrand(y73_pack, frame, gd, "reduced"))
        assert np.max(np.abs(full - red)) / np.max(np.abs(red)) < 1e-10


def test_alternating_under_transpositions(y73_pack):
    rng = np.random.default_rng(7)
    frame = rng.standard_normal((5, 5))
    gd = rng.standard_normal(5)
    base = np.asarray(wcs_integrand(y73_pack, frame, gd))
    for (i, j) in ((0, 1), (1, 4), (2, 3)):
        swapped = frame.copy()
        swapped[[i, j]] = swapped[[j, i]]
        flipped = np.asarray(wcs_integrand(y73_pack, swapped, gd))
        assert np.max(np.abs(base + flipped)) / np.max(np.abs(base)) < 1e-12


def test_degenerate_frame_vanishes(y73_pack):
    rng = np.random.default_rng(8)
    frame = rng.standard_normal((5, 5))
    gd = rng.standard_normal(5)
    scale = np.max(np.abs(np.asarray(wcs_integrand(y73_pack, frame, gd))))
    frame[4] = 1.5 * frame[0] - 0.25 * frame[2]
    v = np.asarray(wcs_integrand(y73_pack, frame, gd))
    assert np.max(np.abs(v)) / scale < 1e-10


def test_linear_in_velocity(y73_pack):
    rng = np.random.default_rng(10)
    frame = rng.standard_normal((5, 5))
    gd = rng.standard_normal(5)
    v1 = np.asarray(wcs_integrand(y73_pack, frame, gd))
    v2 = np.asarray(wcs_integrand(y73_pack, frame, 2.0 * gd))
    assert np.max(np.abs(v2 - 2 * v1)) / np.max(np.abs(v1)) < 1e-12


def test_dimension_mismatch_rejected(y73_pack):
    # The frame fixes the degree: it holds pack.dim vectors of that dimension,
    # and their number m is 2k - 1 for some k >= 2.
    with pytest.raises(ValueError, match="dimension 5 = pack.dim"):
        wcs_integrand(y73_pack, np.zeros((3, 3)), np.zeros(3))
    with pytest.raises(ValueError, match="dimension 5 = pack.dim"):
        wcs_integrand(y73_pack, np.zeros((4, 5)), np.zeros(5))
    for n in (1, 2, 4):
        pack = SimpleNamespace(dim=n, riemann_up=np.zeros((n,) * 4))
        with pytest.raises(ValueError, match="2k - 1"):
            wcs_integrand(pack, np.zeros((n, n)), np.zeros(n))
    with pytest.raises(ValueError, match="variant"):
        wcs_integrand(y73_pack, np.zeros((5, 5)), np.zeros(5), variant="fancy")

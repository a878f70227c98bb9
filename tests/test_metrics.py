"""Parameter solver and metric catalog."""
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from loopcs import geometry, metrics
from loopcs.jets import ChartDomainError
from loopcs.metrics import solve_ypq, ypq_metric, ypq_params_from_a
from loopcs.quadrature import gauss_nodes


def cubic_residual_exact(a: Fraction, y: Fraction) -> Fraction:
    return a - 3 * y**2 + 2 * y**3


def test_solve_73_exact_values():
    p = solve_ypq(7, 3)
    assert p.exact_mode  # 4*49 - 3*9 = 169 = 13^2
    assert p.y1 == Fraction(-2, 7)
    assert p.y2 == Fraction(5, 14)
    assert p.a == Fraction(100, 343)
    assert p.ell == Fraction(3, 20)
    # exact-arithmetic cubic residual is identically zero at both roots
    assert cubic_residual_exact(p.a, p.y1) == 0
    assert cubic_residual_exact(p.a, p.y2) == 0
    # The values are stated once, as Fractions; their floats are the
    # correctly rounded doubles every record carries.
    assert [float(v).hex() for v in (p.a, p.ell, p.y1, p.y2)] == [
        "0x1.2a8ad278e8dcfp-2", "0x1.3333333333333p-3",
        "-0x1.2492492492492p-2", "0x1.6db6db6db6db7p-2"]
    # No Fraction reaches numpy: the box and the components hold floats.
    m = ypq_metric(p)
    assert all(type(v) is float for interval in m.box.intervals for v in interval)
    g = geometry.metric_values(m, m.box.sample_interior(np.random.default_rng(1), 4))
    assert g.dtype == np.float64


def test_solve_21_not_exact():
    p = solve_ypq(2, 1)
    assert not p.exact_mode
    assert all(type(v) is float for v in (p.a, p.ell, p.y1, p.y2))
    assert abs(p.cubic_residual(p.y1)) < 1e-12
    assert abs(p.cubic_residual(p.y2)) < 1e-12
    assert p.y1 < 0.0 < p.y2 < 1.0
    assert 0.0 < p.a < 1.0


@pytest.mark.parametrize("p,q", [(3, 3), (3, 6), (0, 1), (-2, 1), (4, 2), (9, 3)])
def test_solve_rejects_invalid_pairs(p, q):
    with pytest.raises(ValueError):
        solve_ypq(p, q)


@pytest.mark.parametrize("build,name", [
    (lambda: solve_ypq(7.5, 3), "p"),
    (lambda: solve_ypq(np.float64(7.9), 3), "p"),
    (lambda: solve_ypq(7, 3.0), "q"),
    (lambda: metrics.perturbed_torus(0), "dimension"),
    (lambda: metrics.perturbed_torus(-2), "dimension"),
    (lambda: metrics.flat_torus(2.5), "dimension"),
    (lambda: metrics.round_sphere(2.5), "sphere dimension"),
    (lambda: gauss_nodes(True, (0.0, 1.0)), "node count"),
], ids=["p-7.5", "p-float64-7.9", "q-3.0", "torus-0", "torus-minus-2", "flat-2.5",
        "sphere-2.5", "nodes-True"])
def test_counts_and_indices_are_whole_numbers(build, name):
    # A float is refused by name, not truncated (7.5 was the (7,3) member)
    # or left to fail inside a range; a bool is no count (True was 1 node).
    with pytest.raises(ValueError, match=f"^{name} must be"):
        build()


def test_exact_pairs_scan():
    found = []
    for p in range(2, 51):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            disc = 4 * p * p - 3 * q * q
            if math.isqrt(disc) ** 2 != disc:
                continue
            params = solve_ypq(p, q)
            assert params.exact_mode
            assert params.y1 < 0 < params.y2 < 1
            assert cubic_residual_exact(params.a, params.y1) == 0
            assert params.ell > 0
            found.append((p, q))
    assert (7, 3) in found
    assert len(found) >= 2  # a second exact pair exists below p = 50


def _quasi_random(box, count):
    """Kronecker golden-ratio lattice: deterministic low-discrepancy samples."""
    dim = box.dim
    alphas = np.array([(np.sqrt(prime) % 1.0)
                       for prime in (2, 3, 5, 7, 11)[:dim]])
    i = np.arange(1, count + 1)[:, None]
    u = (0.5 + i * alphas) % 1.0
    lows = np.array([lo + 0.02 * (hi - lo) for lo, hi in box.intervals])
    highs = np.array([hi - 0.02 * (hi - lo) for lo, hi in box.intervals])
    return lows + (highs - lows) * u


@pytest.mark.parametrize("p,q", [(7, 3), (11, 5)])
def test_metric_positive_definite_on_lattice(p, q):
    params = solve_ypq(p, q)
    if (p, q) == (11, 5):
        assert not params.exact_mode  # 4*121 - 75 = 409 is not a square
    m = ypq_metric(params)
    pts = _quasi_random(m.box, 1000)
    assert np.all(np.linalg.eigvalsh(geometry.metric_values(m, pts)) > 0)


@pytest.mark.parametrize("p,q", [(7, 3), (11, 5)])
def test_einstein_property(p, q):
    m = ypq_metric(solve_ypq(p, q))
    pts = m.box.sample_interior(np.random.default_rng(17), 100)
    assert metrics.einstein_residual(geometry.riemann(m, pts), 4.0) < 1e-8


def test_metric_symmetry_exact_at_jet_level():
    m = ypq_metric(solve_ypq(7, 3))
    g, _, _ = geometry.metric_jets(m, m.box.sample_interior(np.random.default_rng(3), 5))
    assert np.array_equal(g, np.swapaxes(g, -1, -2))


def test_from_a_roots_match_numpy_oracle():
    for a in (0.3, 0.62, 0.9):
        params = ypq_params_from_a(a)
        roots = np.sort(np.roots([2.0, -3.0, 0.0, a]).real)
        assert params.y1 == pytest.approx(roots[0], abs=1e-12)
        assert params.y2 == pytest.approx(roots[1], abs=1e-12)
        assert params.p is None and not params.exact_mode
        assert all(type(v) is float for v in (params.a, params.ell, params.y1, params.y2))


def test_from_a_rejects_degenerate_values():
    # Input checks: a plain ValueError, not a chart exit met during evaluation.
    # At a = 1 the double root collapses the y-interval.
    for a, ell in [(1.0, 1.0), (0.0, 1.0), (1.2, 1.0),
                   (0.5, 0.0), (0.5, -1.0), (0.5, math.nan), (0.5, math.inf)]:
        with pytest.raises(ValueError) as exc:
            ypq_params_from_a(a, ell=ell)
        assert not isinstance(exc.value, ChartDomainError)


def test_boundary_degeneracy_raises():
    m = ypq_metric(solve_ypq(7, 3))
    mid = np.array([1.0, 1.2, 2.0, 0.1, 0.5])
    at_pole = mid.copy()
    at_pole[1] = 0.0  # sin(theta) = 0
    with pytest.raises(ChartDomainError):
        geometry.metric_jets(m, at_pole)
    at_root = mid.copy()
    at_root[3] = m.box.intervals[3][1]  # y = y2, where w q = 0
    with pytest.raises(ChartDomainError):
        geometry.metric_jets(m, at_root)


CATALOG = ("flat_torus2", "flat_torus3", "flat_torus5", "round_sphere2", "round_sphere3",
           "round_sphere5", "perturbed_torus3", "s2xs3")


def _build(name):
    if name == "ypq73":
        return ypq_metric(solve_ypq(7, 3))
    if name == "ypq_a06":
        return ypq_metric(ypq_params_from_a(0.6))
    return metrics.catalog(name)


@pytest.mark.parametrize("name", CATALOG + ("ypq73", "ypq_a06"))
def test_metric_pickles(name):
    # Pool workers receive the metric pickled; the copy's jets keep their bits.
    m = _build(name)
    copy = pickle.loads(pickle.dumps(m))
    pts = m.box.sample_interior(np.random.default_rng(11), 6)
    for got, want in zip(geometry.metric_jets(copy, pts), geometry.metric_jets(m, pts)):
        assert np.array_equal(got, want)
    assert copy.name == m.name and copy.box == m.box and copy.params == m.params


@pytest.mark.parametrize("name", CATALOG + ("ypq73", "ypq_a06"))
def test_metric_values_equal_jet_values(name):
    # The components on plain coordinates give the jets' g bit for bit.
    m = _build(name)
    pts = m.box.sample_interior(np.random.default_rng(5), 40)
    g, _, _ = geometry.metric_jets(m, pts)
    assert np.array_equal(geometry.metric_values(m, pts), g)


def test_catalog_flat_torus():
    m = metrics.catalog("flat_torus3")
    assert m.dim == 3
    assert all(m.box.periodic)
    assert all(abs(hi - lo - 2 * np.pi) < 1e-15 for lo, hi in m.box.intervals)
    g, _, _ = geometry.metric_jets(m, np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(g, np.eye(3))


def test_catalog_round_sphere_sectional_curvature():
    m = metrics.catalog("round_sphere3")
    pts = m.box.sample_interior(np.random.default_rng(0), 10)
    pack = geometry.riemann(m, pts)
    # unit sectional curvature: R_{jbca} = g_{ja} g_{bc} - g_{jc} g_{ba}
    g = pack.g
    closed = (np.einsum("...ja,...bc->...jbca", g, g)
              - np.einsum("...jc,...ba->...jbca", g, g))
    assert np.max(np.abs(pack.riemann_down - closed)) / np.max(np.abs(closed)) < 1e-9


def test_product_metric_blocks():
    m = metrics.product(metrics.round_sphere(2), metrics.round_sphere(3))
    assert m.dim == 5
    x = np.array([1.0, 2.0, 1.1, 0.9, 3.0])
    g, _, _ = geometry.metric_jets(m, x)
    assert np.max(np.abs(g[:2, 2:])) == 0.0
    g2, _, _ = geometry.metric_jets(metrics.round_sphere(2), x[:2])
    assert np.allclose(g[:2, :2], g2, atol=1e-15)
    g3, _, _ = geometry.metric_jets(metrics.round_sphere(3), x[2:])
    assert np.allclose(g[2:, 2:], g3, atol=1e-15)


def test_catalog_unknown_name():
    with pytest.raises(ValueError) as exc:
        metrics.catalog("klein_bottle")
    # The choices are CATALOG, so the tests above cover every catalog metric.
    assert str(exc.value).endswith(f"choices: {sorted(CATALOG)}")


def test_perturbed_torus_is_curved_and_periodic():
    m = metrics.perturbed_torus(3)
    assert all(m.box.periodic)
    pts = m.box.sample_interior(np.random.default_rng(0), 10)
    assert np.all(np.linalg.eigvalsh(geometry.metric_values(m, pts)) > 0)
    pack = geometry.riemann(m, pts)
    assert np.max(np.abs(pack.riemann_down)) > 1e-3


def test_perturbed_torus_amplitudes_pinned():
    # Drawn with random.Random(seed), not numpy.random: these values are the
    # fixture's record, and every draw stays in [0.175, 0.35).
    amps = metrics.perturbed_torus(3, seed=7).components.args[0]
    assert amps == (0.23167073384580342, 0.20139860543678784, 0.2889135327819744)
    assert metrics.perturbed_torus(3).components.args[0] == amps
    for n in (1, 3, 5, 7):
        for seed in (0, 7, 2024):
            amps = metrics.perturbed_torus(n, seed=seed).components.args[0]
            assert len(amps) == n and all(0.175 <= a < 0.35 for a in amps), (n, seed)

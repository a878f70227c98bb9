"""Gauss-Legendre rules and the deterministic box integrator."""
import numpy as np
import pytest

from loopcs import quadrature
from loopcs.quadrature import (
    QuadratureError,
    QuadratureSpec,
    check_budget,
    evaluate,
    gauss_nodes,
    integrate_box,
    pairwise_sum,
)


def test_one_point_rule():
    x, w = gauss_nodes(1, (-1.0, 1.0))
    assert np.allclose(x, [0.0], atol=1e-15)
    assert np.allclose(w, [2.0], atol=1e-15)
    # A box with no axes is one empty point of weight 1.
    seen = []

    def constant(p):
        seen.append(p.shape)
        return np.full(len(p), 3.0)

    res = integrate_box(constant, [], QuadratureSpec(nodes=5))
    assert res.value == 3.0 and res.error_estimate == 0.0
    assert res.counts == () and seen == [(1, 0), (1, 0)]


def test_two_point_rule_textbook():
    x, w = gauss_nodes(2, (-1.0, 1.0))
    assert np.allclose(x, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-15)
    assert np.allclose(w, [1.0, 1.0], atol=1e-15)


@pytest.mark.parametrize("n", [3, 5, 8, 16, 32, 64])
def test_nodes_match_numpy_reference(n):
    x, w = gauss_nodes(n, (-1.0, 1.0))
    xr, wr = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x - xr)) < 1e-14
    assert np.max(np.abs(w - wr)) < 1e-14


def test_rule_is_the_sorted_newton_rule():
    # The Newton iteration converges from +1 down to -1 and the rule is its
    # reversal: the argsort order of the nodes, strictly increasing, with
    # each weight the one the weight formula gives at its node.
    for n in range(1, 257):
        x, _ = gauss_nodes(n, (-1.0, 1.0))
        raw_x, raw_w = quadrature._rule_cache[n]
        assert np.array_equal(np.argsort(raw_x), np.arange(n))
        assert np.all(np.diff(raw_x) > 0) and np.all(np.diff(x) > 0)
        pk, pm = quadrature._legendre_pair(n, raw_x)
        dpk = n * (raw_x * pk - pm) / (raw_x * raw_x - 1.0)
        assert np.array_equal(raw_w, 2.0 / ((1.0 - raw_x * raw_x) * dpk * dpk))


@pytest.mark.parametrize("axes", range(6))
def test_tensor_weights_are_the_chained_outer_products(axes):
    box = [(0.0, 1.0 + a) for a in range(axes)]
    counts = [2 + a for a in range(axes)]
    points, weights = quadrature._tensor_points(box, counts)
    want = np.ones(())
    for c, iv in zip(counts, box):
        want = np.multiply.outer(want, gauss_nodes(c, iv)[1])
    assert weights.tobytes() == want.ravel().tobytes()
    assert points.shape == (want.size, axes)


@pytest.mark.parametrize("n,interval", [(5, (0.0, 1.0)), (9, (-2.0, 3.5)), (2, (0.0, np.pi))])
def test_weights_sum_to_length_and_interior(n, interval):
    x, w = gauss_nodes(n, interval)
    assert abs(w.sum() - (interval[1] - interval[0])) < 1e-14
    assert np.all(x > interval[0]) and np.all(x < interval[1])


def test_bad_rule_arguments():
    with pytest.raises(ValueError):
        gauss_nodes(0, (0.0, 1.0))
    with pytest.raises(ValueError):
        gauss_nodes(3, (1.0, 1.0))
    # A bad rule is refused when the spec is built, before any box is seen;
    # a bool is no count (True was once 1 node).
    for kwargs, needle in [({"workers": 0}, "workers"),
                           ({"workers": -3}, "workers"),
                           ({"nodes": (8, 16)}, "nodes"),
                           ({"nodes": 8.0}, "nodes"),
                           ({"workers": 2.5}, "workers"),
                           ({"mask": (0.9, 2.2, 4.7)}, "mask axis"),
                           ({"mask": (1, 2.0)}, "mask axis"),
                           ({"nodes": True}, "nodes"),
                           ({"workers": True}, "workers"),
                           ({"nodes": np.True_}, "nodes"),
                           ({"mask": (False, 2)}, "mask axis")]:
        with pytest.raises(ValueError, match=needle):
            QuadratureSpec(**{"nodes": 2, **kwargs})
    # A pool forks all its workers at once, so their count has a fixed cap.
    assert QuadratureSpec(workers=quadrature.MAX_WORKERS).workers == quadrature.MAX_WORKERS
    with pytest.raises(ValueError, match=f"workers must be 1 to {quadrature.MAX_WORKERS},"):
        QuadratureSpec(workers=quadrature.MAX_WORKERS + 1)
    # A run is two fixed levels: there is no tolerance or factor to set.
    for gone in ("rel_tol", "max_refinements", "refinement_factor"):
        with pytest.raises(TypeError, match=gone):
            QuadratureSpec(**{gone: 1})
    # A numpy integer is a whole number, stored as the int it equals.
    assert type(QuadratureSpec(nodes=np.int64(8)).nodes) is int
    mask = QuadratureSpec(mask=[np.int64(4), 0]).mask
    assert mask == (4, 0) and all(type(a) is int for a in mask)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_polynomial_exactness_degree_2n_minus_1(n):
    rng = np.random.default_rng(n)
    coef = rng.standard_normal(2 * n)
    x, w = gauss_nodes(n, (-1.0, 1.0))
    approx = float(np.sum(w * sum(c * x**p for p, c in enumerate(coef))))
    exact = sum(c * (1.0 - (-1.0) ** (p + 1)) / (p + 1) for p, c in enumerate(coef))
    assert abs(approx - exact) <= 1e-13 * max(abs(exact), 1.0)


def test_cube_on_unit_interval():
    res = integrate_box(lambda p: p[:, 0] ** 3, [(0.0, 1.0)], QuadratureSpec(nodes=2))
    assert abs(res.value - 0.25) < 1e-14


def test_sin_cubed():
    res = integrate_box(lambda p: np.sin(p[:, 0]) ** 3, [(0.0, np.pi)],
                        QuadratureSpec(nodes=8))
    assert abs(res.value - 4.0 / 3.0) < 1e-10


def test_product_integrand_2d():
    res = integrate_box(lambda p: np.sin(p[:, 0]) ** 2 * np.sin(p[:, 1]) ** 3,
                        [(0.0, 2 * np.pi), (0.0, np.pi)], QuadratureSpec(nodes=8))
    assert abs(res.value - np.pi * 4.0 / 3.0) < 1e-9


def test_repeated_runs_bit_identical():
    def f(p):
        return np.exp(np.sin(3 * p[:, 0]) + p[:, 1] ** 2)

    spec = QuadratureSpec(nodes=11)
    a = integrate_box(f, [(0.0, 1.0), (0.0, 2.0)], spec)
    b = integrate_box(f, [(0.0, 1.0), (0.0, 2.0)], spec)
    assert a.value == b.value


class _Smooth:
    """Picklable integrand for the worker-pool determinism check."""

    def __call__(self, p):
        return np.cos(p[:, 0]) * np.exp(p[:, 1])


def test_worker_count_does_not_change_bits(pool_starts, pool_maps):
    # evaluate is the only batch path and never starts a pool: it maps the
    # six batches of the rows its caller states over the pool it is handed,
    # and the bits must not change.
    rows = 64
    points = np.random.default_rng(5).uniform(-1.0, 1.0, (5 * rows + 3, 2))
    with quadrature.pool(1) as none:
        serial = evaluate(_Smooth(), points, none, rows)
    assert none is None and pool_starts == []
    with quadrature.pool(2) as p:
        pooled = evaluate(_Smooth(), points, p, rows)
        # One batch is evaluated in-process even with a pool.
        evaluate(_Smooth(), points[:rows], p, rows)
    assert pool_starts == [2] and pool_maps == [6]
    assert serial.shape == (len(points),)
    assert serial.tobytes() == pooled.tobytes()


def test_integrate_box_hands_over_whole_levels(pool_starts):
    # One call per level with the level's whole grid, never a pool, whatever
    # spec.workers says.
    shapes = []

    def f(p):
        shapes.append(p.shape)
        return np.cos(p[:, 0]) * np.exp(p[:, 1])

    box = [(0.0, 3.0), (-1.0, 1.0)]
    res = integrate_box(f, box, QuadratureSpec(nodes=40, workers=2))
    assert shapes == [(1600, 2), (6400, 2)]
    assert pool_starts == []
    assert res.value == integrate_box(_Smooth(), box, QuadratureSpec(nodes=40)).value


def test_integrand_error_carries_node_location():
    def bad(p):
        if np.any(p[:, 0] > 0.9):
            raise ValueError("synthetic failure")
        return np.ones(len(p))

    with pytest.raises(QuadratureError, match="synthetic failure"):
        integrate_box(bad, [(0.0, 1.0)], QuadratureSpec(nodes=16))


def test_non_finite_value_reports_node():
    def nan_at_mid(p):
        out = np.ones(len(p))
        out[np.abs(p[:, 0] - 0.5) < 0.05] = np.nan
        return out

    with pytest.raises(QuadratureError, match="node"):
        integrate_box(nan_at_mid, [(0.0, 1.0)], QuadratureSpec(nodes=32))


def test_budget_counts_only_levels_that_can_run():
    # Exactly two levels, the fine one at twice the nodes, so the budget is
    # charged for 2 * nodes per axis: 2048^2 = 2^22 points fit it exactly,
    # 2050^2 do not, although 1025^2 coarse points would.
    sizes = []

    def counting(p):
        sizes.append(len(p))
        return np.ones(len(p))

    integrate_box(counting, [(0.0, 1.0)], QuadratureSpec(nodes=3))
    assert sizes == [3, 6]
    assert quadrature.REFINEMENT_FACTOR == 2
    check_budget((1024, 1024))
    with pytest.raises(ValueError, match="4202500 points"):
        check_budget((1025, 1025))


def test_fine_level_is_the_coarse_rule_at_factor_times_nodes():
    # The fine level of an n-node run is the coarse level of a 2n-node run,
    # bit for bit, and the estimate is its distance from the n-node level.
    def f(p):
        return np.exp(np.sin(3 * p[:, 0]) + p[:, 1] ** 2)

    box = [(0.0, 1.0), (0.0, 2.0)]
    run = integrate_box(f, box, QuadratureSpec(nodes=5))
    doubled = integrate_box(f, box, QuadratureSpec(nodes=10))
    assert (run.value, run.counts) == (doubled.coarse_value, doubled.coarse_counts)
    assert run.counts == (10, 10) and run.coarse_counts == (5, 5)
    assert doubled.counts == (20, 20)
    assert run.error_estimate == abs(run.value - run.coarse_value) > 0.0


def test_convergence_is_geometric_for_smooth_integrands():
    # Successive two-level estimates shrink fast for an analytic integrand.
    def f(p):
        return 1.0 / (2.0 + np.sin(p[:, 0]))

    errs = []
    for n in (8, 16, 32):
        res = integrate_box(f, [(0.0, 2 * np.pi)], QuadratureSpec(nodes=n))
        errs.append(max(res.error_estimate, 1e-16))
    assert errs[1] <= 0.5 * errs[0]
    assert errs[2] <= 0.5 * errs[1]


def test_pairwise_sum_deterministic_and_accurate():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(10_001) * 1e8
    assert pairwise_sum(x) == pairwise_sum(x.copy())
    assert abs(pairwise_sum(x) - np.sum(x, dtype=np.longdouble)) < 1e-4
    assert pairwise_sum(np.zeros(0)) == 0.0

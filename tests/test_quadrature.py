"""Gauss-Legendre rules and the deterministic box integrator."""
import numpy as np
import pytest

from loopcs.quadrature import (
    QuadratureError,
    QuadratureSpec,
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
    calls = []
    with pytest.raises(ValueError, match="max_refinements"):
        integrate_box(lambda p: calls.append(p) or p[:, 0], [(0.0, 1.0)],
                      QuadratureSpec(nodes=2, max_refinements=-1))
    assert calls == []


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


def test_worker_count_does_not_change_bits():
    box = [(0.0, 3.0), (-1.0, 1.0)]
    serial = integrate_box(_Smooth(), box, QuadratureSpec(nodes=16, workers=1))
    pooled = integrate_box(_Smooth(), box, QuadratureSpec(nodes=16, workers=2))
    assert serial.value == pooled.value


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


def test_non_convergence_raises():
    # A kink keeps Gauss-Legendre from reaching 1e-14 at low node counts.
    def kink(p):
        return np.abs(p[:, 0] - 0.5) ** 0.5

    with pytest.raises(QuadratureError, match="tolerance"):
        integrate_box(kink, [(0.0, 1.0)],
                      QuadratureSpec(nodes=4, rel_tol=1e-14, max_refinements=1))


def test_refinement_until_tolerance():
    res = integrate_box(lambda p: np.exp(p[:, 0]), [(0.0, 1.0)],
                        QuadratureSpec(nodes=2, rel_tol=1e-12, max_refinements=4))
    assert res.error_estimate <= 1e-12 * abs(res.value)
    assert res.counts[0] > 4


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

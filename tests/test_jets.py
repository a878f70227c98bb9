"""Second-order jet arithmetic against finite-difference oracles."""
import numpy as np
import pytest

import loopcs.jets as J
from loopcs.jets import ChartDomainError, Jet2, jet_constant, jet_variable


def test_coordinate_jet_basics():
    j = jet_variable(0, 2.0, 2)
    assert j.value == 2.0
    assert np.array_equal(j.grad, [1.0, 0.0])
    assert np.array_equal(j.hess, np.zeros((2, 2)))

    j = jet_variable(1, -0.5, 3)
    assert j.value == -0.5
    assert np.array_equal(j.grad, [0.0, 1.0, 0.0])


def test_coordinate_jet_out_of_range():
    with pytest.raises(IndexError):
        jet_variable(5, 0.0, 3)
    with pytest.raises(IndexError):
        jet_variable(-1, 0.0, 3)


def test_square_of_variable():
    x = jet_variable(0, 3.0, 1)
    sq = x * x
    assert sq.value == 9.0
    assert np.array_equal(sq.grad, [6.0])
    assert np.array_equal(sq.hess, [[2.0]])


def test_sin_at_zero():
    x = jet_variable(0, 0.0, 1)
    s = J.sin(x)
    assert s.value == 0.0
    assert np.array_equal(s.grad, [1.0])
    assert np.array_equal(s.hess, [[0.0]])


def test_x2y_hand_derivatives():
    # f(x, y) = x^2 y at (1, 2): value 2, grad (4, 1), hess [[4, 2], [2, 0]]
    x = jet_variable(0, 1.0, 2)
    y = jet_variable(1, 2.0, 2)
    f = x * x * y
    assert f.value == pytest.approx(2.0, abs=0)
    assert np.allclose(f.grad, [4.0, 1.0], atol=1e-14)
    assert np.allclose(f.hess, [[4.0, 2.0], [2.0, 0.0]], atol=1e-14)


def test_domain_errors():
    zero = jet_constant(0.0, 1)
    one = jet_variable(0, 1.0, 1)
    with pytest.raises(ChartDomainError):
        one / zero
    with pytest.raises(ChartDomainError):
        J.recip(zero)
    with pytest.raises(ChartDomainError):
        J.sqrt(jet_constant(-1.0, 1))
    with pytest.raises(ChartDomainError):
        J.sqrt(zero)
    with pytest.raises(ChartDomainError):
        J.pow_int(zero, -2)
    # Plain arrays meet the same guards.
    for fn, arg in [(J.recip, [1.0, 0.0]), (J.sqrt, [1.0, -1.0]), (J.sqrt, [0.0]),
                    (lambda v: J.pow_int(v, -2), [0.0, 2.0])]:
        with pytest.raises(ChartDomainError):
            fn(np.array(arg))


def test_plain_arrays_give_the_jet_values():
    # A plain array in gives a plain array out, bit for bit the value of the
    # same function on the jet of that array.
    x = np.array([0.3, 1.7, 2.9])
    jet = jet_variable(0, x, 1)
    for fn in (J.sin, J.cos, J.sqrt, J.recip, lambda v: J.pow_int(v, 3),
               lambda v: J.pow_int(v, -2), lambda v: J.pow_int(v, 0)):
        plain = fn(x)
        assert not isinstance(plain, Jet2)
        assert np.array_equal(plain, fn(jet).value)
    assert np.array_equal(J.value_of(jet), x) and np.array_equal(J.value_of(x), x)


# --- finite-difference corpus -------------------------------------------------

OPS2 = ["add", "sub", "mul", "div"]
FNS = ["sin", "cos", "sqrt", "square"]


def random_expression(nvars, depth, rng):
    """Random composite expression evaluating on floats or jets alike."""
    if depth == 0:
        idx = int(rng.integers(nvars))
        return lambda xs: xs[idx]
    if rng.random() < 0.55:
        op = OPS2[int(rng.integers(len(OPS2)))]
        left = random_expression(nvars, depth - 1, rng)
        right = random_expression(nvars, depth - 1, rng)
        if op == "add":
            return lambda xs: left(xs) + right(xs)
        if op == "sub":
            return lambda xs: left(xs) - right(xs)
        if op == "mul":
            return lambda xs: left(xs) * right(xs)
        return lambda xs: left(xs) / (3.5 + right(xs) * right(xs))
    fn = FNS[int(rng.integers(len(FNS)))]
    inner = random_expression(nvars, depth - 1, rng)
    if fn == "sin":
        return lambda xs: J.sin(inner(xs))
    if fn == "cos":
        return lambda xs: J.cos(inner(xs))
    if fn == "sqrt":
        return lambda xs: J.sqrt(2.5 + inner(xs) * inner(xs))
    return lambda xs: inner(xs) * inner(xs)


def test_corpus_matches_central_differences():
    rng = np.random.default_rng(314)
    h = 1e-5
    worst_g = worst_h = 0.0
    for _ in range(20):
        nvars = int(rng.integers(2, 6))
        expr = random_expression(nvars, 3, rng)
        x0 = rng.uniform(-1.0, 1.0, nvars)
        out = expr([jet_variable(i, x0[i], nvars) for i in range(nvars)])
        scale_g = max(np.max(np.abs(out.grad)), 1.0)
        scale_h = max(np.max(np.abs(out.hess)), 1.0)
        for i in range(nvars):
            ei = np.zeros(nvars)
            ei[i] = h
            fd = (expr(x0 + ei) - expr(x0 - ei)) / (2 * h)
            worst_g = max(worst_g, abs(fd - out.grad[i]) / scale_g)
            for j in range(nvars):
                ej = np.zeros(nvars)
                ej[j] = h
                fd2 = (expr(x0 + ei + ej) - expr(x0 + ei - ej)
                       - expr(x0 - ei + ej) + expr(x0 - ei - ej)) / (4 * h * h)
                worst_h = max(worst_h, abs(fd2 - out.hess[i, j]) / scale_h)
    assert worst_g <= 1e-6
    assert worst_h <= 1e-4


def test_hessian_symmetry_bit_exact():
    rng = np.random.default_rng(99)
    for _ in range(30):
        nvars = int(rng.integers(2, 6))
        expr = random_expression(nvars, 4, rng)
        x0 = rng.uniform(-1.0, 1.0, nvars)
        out = expr([jet_variable(i, x0[i], nvars) for i in range(nvars)])
        assert np.array_equal(out.hess, np.swapaxes(out.hess, -1, -2))


def test_algebraic_identities():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = _random_jet(rng)
        b = _random_jet(rng)
        back = (a + b) - b
        assert abs(back.value - a.value) < 1e-12
        assert np.max(np.abs(back.grad - a.grad)) < 1e-12
        assert np.max(np.abs(back.hess - a.hess)) < 1e-12

        s, c = J.sin(a), J.cos(a)
        one = s * s + c * c
        assert abs(one.value - 1.0) < 1e-12
        assert np.max(np.abs(one.grad)) < 1e-12
        assert np.max(np.abs(one.hess)) < 1e-12

        cube = a**3 - a * a * a
        assert abs(cube.value) < 1e-12
        assert np.max(np.abs(cube.grad)) < 1e-12
        assert np.max(np.abs(cube.hess)) < 1e-12

        # A plain-number operand acts as the constant jet it stands for.
        c = float(rng.uniform(0.5, 2.0))
        const = jet_constant(c, a.nvars)
        pairs = [(a + c, a + const), (c + a, const + a), (a - c, a - const),
                 (c - a, const - a), (c / a, const * J.recip(a))]
        for plain, jet in pairs:
            assert plain.value == jet.value
            assert np.array_equal(plain.grad, jet.grad)
            assert np.array_equal(plain.hess, jet.hess)


def _random_jet(rng, nvars=3):
    expr = random_expression(nvars, 2, rng)
    x0 = rng.uniform(-1.0, 1.0, nvars)
    return expr([jet_variable(i, x0[i], nvars) for i in range(nvars)])


def test_batched_values_match_scalar_evaluation():
    rng = np.random.default_rng(8)
    expr = random_expression(3, 3, rng)
    pts = rng.uniform(-1.0, 1.0, (7, 3))
    batched = expr([jet_variable(i, pts[:, i], 3) for i in range(3)])
    for row in range(7):
        single = expr([jet_variable(i, pts[row, i], 3) for i in range(3)])
        assert batched.value[row] == single.value
        assert np.array_equal(batched.grad[row], single.grad)
        assert np.array_equal(batched.hess[row], single.hess)

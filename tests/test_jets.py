"""Second-order jet arithmetic against finite-difference oracles."""
import numpy as np
import pytest

import loopcs.jets as J
from loopcs.jets import ChartDomainError, Jet2, jet_variable


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
    zero = Jet2(0.0, np.zeros(1), np.zeros((1, 1)))
    one = jet_variable(0, 1.0, 1)
    with pytest.raises(ChartDomainError):
        one / zero
    with pytest.raises(ChartDomainError):
        J.recip(zero)
    with pytest.raises(ChartDomainError):
        J.sqrt(Jet2(-1.0, np.zeros(1), np.zeros((1, 1))))
    with pytest.raises(ChartDomainError):
        J.sqrt(zero)
    # Plain arrays meet the same guards.
    for fn, arg in [(J.recip, [1.0, 0.0]), (J.sqrt, [1.0, -1.0]), (J.sqrt, [0.0])]:
        with pytest.raises(ChartDomainError):
            fn(np.array(arg))


def test_plain_arrays_give_the_jet_values():
    # A plain array in gives a plain array out, bit for bit the value of the
    # same function on the jet of that array.
    x = np.array([0.3, 1.7, 2.9])
    jet = jet_variable(0, x, 1)
    for fn in (J.sin, J.cos, J.sqrt, J.recip):
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

        assoc = (a * a) * a - a * (a * a)
        assert abs(assoc.value) < 1e-12
        assert np.max(np.abs(assoc.grad)) < 1e-12
        assert np.max(np.abs(assoc.hess)) < 1e-12

        # A plain-number operand acts as the constant jet it stands for.
        c = float(rng.uniform(0.5, 2.0))
        const = Jet2(c, np.zeros(a.nvars), np.zeros((a.nvars, a.nvars)))
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


def _read_only_jet(rng, nvars=3, batch=(4,)):
    """A jet with nonzero entries everywhere, every array read-only."""
    arrays = [rng.uniform(0.5, 1.5, batch + (nvars,) * d) for d in range(3)]
    arrays[2] = arrays[2] + np.swapaxes(arrays[2], -1, -2)
    for a in arrays:
        a.setflags(write=False)
    return Jet2(*arrays)


# Every rule of Jet2 and every elementary function, each with its operands.
_RULES = {
    "add": lambda a, b: a + b, "add_number": lambda a, b: a + 2.0,
    "radd_number": lambda a, b: 2.0 + a, "sub": lambda a, b: a - b,
    "sub_number": lambda a, b: a - 2.0, "rsub_number": lambda a, b: 2.0 - a,
    "neg": lambda a, b: -a, "mul": lambda a, b: a * b, "mul_number": lambda a, b: a * 3.0,
    "rmul_number": lambda a, b: 3.0 * a, "div": lambda a, b: a / b,
    "div_number": lambda a, b: a / 3.0, "rdiv_number": lambda a, b: 3.0 / a,
    "sin": lambda a, b: J.sin(a),
    "cos": lambda a, b: J.cos(a), "sqrt": lambda a, b: J.sqrt(a),
    "recip": lambda a, b: J.recip(a),
}


@pytest.mark.parametrize("rule", sorted(_RULES))
def test_no_rule_writes_into_its_operands(rule):
    # The zero seed is a shared read-only view, so "no jet is ever mutated"
    # is what keeps it valid: every operand array here is read-only (a
    # write raises), left bit for bit as it was, and a seeded variable gives
    # the bits of the same rule on a writable np.zeros seed.
    general = _read_only_jet(np.random.default_rng(3))
    seed = jet_variable(1, np.full(4, 0.75), 3)
    assert not seed.hess.flags.writeable and 0 in seed.hess.strides
    plain = Jet2(seed.value, np.array(seed.grad), np.array(seed.hess))
    operands = [general, seed]
    before = [[x.copy() for x in (j.value, j.grad, j.hess)] for j in operands]
    _RULES[rule](general, general)
    for other in general, seed:
        for got, want in [(_RULES[rule](seed, other), _RULES[rule](plain, other)),
                          (_RULES[rule](other, seed), _RULES[rule](other, plain))]:
            for x, y in zip((got.value, got.grad, got.hess),
                            (want.value, want.grad, want.hess)):
                assert np.array_equal(x, y) and x.shape == y.shape
    for j, arrays in zip(operands, before):
        for x, y in zip((j.value, j.grad, j.hess), arrays):
            assert np.array_equal(x, y)


@pytest.mark.parametrize("name", ["flat_torus2", "flat_torus3", "flat_torus5", "round_sphere2",
                                  "round_sphere3", "round_sphere5", "perturbed_torus3", "s2xs3",
                                  "ypq73"])
def test_zero_seeds_give_the_bits_of_writable_zeros(monkeypatch, name):
    from loopcs import geometry, metrics
    metric = (metrics.ypq_metric(metrics.solve_ypq(7, 3)) if name == "ypq73"
              else metrics.catalog(name))
    rng = np.random.default_rng(11)
    points = metric.box.sample_interior(rng, 65)
    seeded = geometry.metric_jets(metric, points)
    monkeypatch.setattr(J, "_zeros", np.zeros)
    assert jet_variable(0, points[:, 0], metric.dim).hess.flags.writeable
    plain = geometry.metric_jets(metric, points)
    for got, want in zip(seeded, plain):
        assert got.tobytes() == want.tobytes()

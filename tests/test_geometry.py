"""Christoffel/Riemann machinery against closed-form oracles."""
import tracemalloc

import numpy as np
import pytest

from loopcs import cycles, geometry, metrics
from loopcs.cycles import CircleAction, integrate_cycle
from loopcs.geometry import (
    SingularMetricError,
    curvature_endo,
    metric_jets,
    riemann,
    validate_curvature,
)
from loopcs.quadrature import QuadratureError, QuadratureSpec


def constant_curvature_lowered(g, K):
    """Closed-form lowered Riemann tensor of a constant-curvature space.

    Sign convention fixed by the positive-Ricci requirement:
    R_{jbca} = K (g_{ja} g_{bc} - g_{jc} g_{ba}), so Ric = (n-1) K g.
    """
    return K * (np.einsum("...ja,...bc->...jbca", g, g)
                - np.einsum("...jc,...ba->...jbca", g, g))


def test_flat_metric_vanishes():
    m = metrics.flat_torus(3)
    pts = m.box.sample_interior(np.random.default_rng(0), 10)
    pack = riemann(m, pts)
    assert np.max(np.abs(pack.gamma)) == 0.0
    assert np.max(np.abs(pack.riemann_down)) == 0.0
    assert np.max(np.abs(pack.ricci)) == 0.0


def test_sphere_christoffels_at_pi_over_3():
    m = metrics.round_sphere(2)
    gam = riemann(m, np.array([np.pi / 3, 0.3])).gamma
    # Gamma^theta_{phi phi} = -sin cos = -sqrt(3)/4; Gamma^phi_{theta phi} = cot
    assert gam[0, 1, 1] == pytest.approx(-np.sqrt(3) / 4, abs=1e-13)
    assert gam[1, 0, 1] == pytest.approx(1 / np.sqrt(3), abs=1e-13)
    assert gam[1, 1, 0] == gam[1, 0, 1]


@pytest.mark.parametrize("n,r", [(2, 1.0), (3, 1.0), (3, 2.0), (5, 1.0)])
def test_round_sphere_constant_curvature(n, r):
    m = metrics.round_sphere(n, r)
    pts = m.box.sample_interior(np.random.default_rng(n), 20)
    pack = riemann(m, pts)
    closed = constant_curvature_lowered(pack.g, 1.0 / r**2)
    scale = np.max(np.abs(closed))
    assert np.max(np.abs(pack.riemann_down - closed)) / scale < 1e-9
    # positive Ricci, Einstein constant (n-1)/r^2
    ric_residual = np.max(np.abs(pack.ricci - (n - 1) / r**2 * pack.g))
    assert ric_residual / np.max(np.abs(pack.g)) < 1e-9


def _fd_metric_derivatives(metric, x0, h=1e-5):
    """Metric first/second derivatives by central differences of values only."""
    n = metric.dim

    def g_at(x):
        g, _, _ = metric_jets(metric, x)
        return g

    dg = np.zeros((n, n, n))
    d2g = np.zeros((n, n, n, n))
    for c in range(n):
        ec = np.zeros(n)
        ec[c] = h
        dg[:, :, c] = (g_at(x0 + ec) - g_at(x0 - ec)) / (2 * h)
        for d in range(n):
            ed = np.zeros(n)
            ed[d] = h
            d2g[:, :, c, d] = (g_at(x0 + ec + ed) - g_at(x0 + ec - ed)
                               - g_at(x0 - ec + ed) + g_at(x0 - ec - ed)) / (4 * h * h)
    return g_at(x0), dg, d2g


def _fd_curvature(metric, x0):
    """Independent Christoffel/Riemann assembly from finite differences."""
    g, dg, d2g = _fd_metric_derivatives(metric, x0)
    n = metric.dim
    ginv = np.linalg.inv(g)
    gamma = 0.5 * np.einsum(
        "ae,ebc->abc", ginv,
        np.swapaxes(dg, -1, -2) + dg - np.moveaxis(dg, -1, -3))

    # d_j Gamma^a_bc by differencing the whole Christoffel construction
    h = 1e-4
    dgamma = np.zeros((n, n, n, n))
    for j in range(n):
        ej = np.zeros(n)
        ej[j] = h
        gp, dgp, _ = _fd_metric_derivatives(metric, x0 + ej)
        gm, dgm, _ = _fd_metric_derivatives(metric, x0 - ej)
        gam_p = 0.5 * np.einsum("ae,ebc->abc", np.linalg.inv(gp),
                                np.swapaxes(dgp, -1, -2) + dgp - np.moveaxis(dgp, -1, -3))
        gam_m = 0.5 * np.einsum("ae,ebc->abc", np.linalg.inv(gm),
                                np.swapaxes(dgm, -1, -2) + dgm - np.moveaxis(dgm, -1, -3))
        dgamma[j] = (gam_p - gam_m) / (2 * h)

    rup = (np.einsum("jabc->jbca", dgamma) - np.einsum("bajc->jbca", dgamma)
           + np.einsum("aje,ebc->jbca", gamma, gamma)
           - np.einsum("abe,ejc->jbca", gamma, gamma))
    return gamma, rup


@pytest.mark.parametrize("case", ["sphere", "family"])
def test_finite_difference_oracle_confirms_jet_route(case):
    if case == "sphere":
        metric = metrics.round_sphere(2)
        x0 = np.array([np.pi / 3, 1.0])
    else:
        metric = metrics.ypq_metric(metrics.solve_ypq(7, 3))
        x0 = np.array([1.0, 1.2, 2.0, 0.1, 0.5])
    gamma_fd, rup_fd = _fd_curvature(metric, x0)
    pack = riemann(metric, x0)
    gamma = pack.gamma
    gscale = max(np.max(np.abs(gamma)), 1.0)
    rscale = max(np.max(np.abs(pack.riemann_up)), 1.0)
    assert np.max(np.abs(gamma - gamma_fd)) / gscale < 1e-6
    assert np.max(np.abs(pack.riemann_up - rup_fd)) / rscale < 1e-4


def riemann_via_dgamma(metric, coords):
    """Independent route: R_jbc^a from d_j Gamma^a_bc, with d(g^-1) = -g^-1 dg g^-1.

    Returns ``(riemann_up, riemann_down, ricci)`` in the layout of
    :class:`geometry.CurvaturePack`.
    """
    g, dg, d2g = metric_jets(metric, coords)
    ginv = np.linalg.inv(g)
    s = np.swapaxes(dg, -1, -2) + dg - np.moveaxis(dg, -1, -3)
    gamma = 0.5 * np.einsum("...ae,...ebc->...abc", ginv, s)
    # d_j S_ebc = d_j d_b g_ec + d_j d_c g_eb - d_j d_e g_bc
    ds = (np.einsum("...ecbj->...jebc", d2g) + np.einsum("...ebcj->...jebc", d2g)
          - np.einsum("...bcej->...jebc", d2g))
    dginv = -np.einsum("...ap,...pqj,...qe->...jae", ginv, dg, ginv)
    dgamma = 0.5 * (np.einsum("...jae,...ebc->...jabc", dginv, s)
                    + np.einsum("...ae,...jebc->...jabc", ginv, ds))
    rup = (np.einsum("...jabc->...jbca", dgamma) - np.einsum("...bajc->...jbca", dgamma)
           + np.einsum("...aje,...ebc->...jbca", gamma, gamma)
           - np.einsum("...abe,...ejc->...jbca", gamma, gamma))
    rdown = np.einsum("...jbce,...ea->...jbca", rup, g)
    return rup, rdown, np.einsum("...abca->...bc", rup)


@pytest.mark.parametrize("name", ["round_sphere5", "perturbed_torus5", "ypq73", "s2xs3"])
def test_lowered_route_matches_dgamma_oracle(name):
    metric = {
        "round_sphere5": lambda: metrics.round_sphere(5),
        "perturbed_torus5": lambda: metrics.perturbed_torus(5),
        "ypq73": lambda: metrics.ypq_metric(metrics.solve_ypq(7, 3)),
        "s2xs3": lambda: metrics.catalog("s2xs3"),
    }[name]()
    pts = metric.box.sample_interior(np.random.default_rng(5), 500)
    pack = riemann(metric, pts)
    for got, want in zip((pack.riemann_up, pack.riemann_down, pack.ricci),
                         riemann_via_dgamma(metric, pts)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_condition_number_matches_svd():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5, 7):
        a = rng.standard_normal((200, n, n))
        sym = a + np.swapaxes(a, -1, -2)  # indefinite
        spd = a @ np.swapaxes(a, -1, -2) + 1e-3 * np.eye(n)
        for g in (sym, spd):
            want = np.linalg.cond(g)
            assert np.max(np.abs(geometry._condition_number(g) - want) / want) <= 1e-10


def probe_batch(metric):
    """The 1024 orbit points of the loop-count probe: 16 points x 64 samples."""
    return cycles._orbit(metric, CircleAction.rotation(0).velocity(metric),
                         cycles._probe_points(metric), cycles.LOOP_CAP)


# A riemann pass holds at most two n^4 arrays beside the n^3 ones of the jets
# and Christoffel terms.  With three (the metric Hessian alive to the end, a
# fresh array each for A - A^(j<->b) and its raise) the peaks were 11.27e6 B
# for perturbed_torus(3) at 4096 random points, 2.87e6 B on its probe batch
# and 18.91e6 B on perturbed_torus(5)'s; with two they are 7.74e6, 1.99e6 and
# 12.77e6 B.  Each bound sits between the two.  Writing the Gamma.S product
# into the spent Hessian buffer keeps d2g alive through the n^3 Christoffel
# terms, so the traced peaks rise to 7.80e6, 2.05e6 and 12.83e6 B while the
# fresh n^4 allocations fall from two to one (peak RSS falls).
@pytest.mark.parametrize("dim, points, bound", [
    (3, "random", 9.5e6), (3, "probe", 2.2e6), (5, "probe", 14e6)])
def test_riemann_peak_memory(dim, points, bound):
    m = metrics.perturbed_torus(dim)
    if points == "random":
        pts = m.box.sample_interior(np.random.default_rng(0), 4096)
    else:
        pts = probe_batch(m)
    riemann(m, pts)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        riemann(m, pts)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_riemann_and_curvature_pack_agree_bit_for_bit():
    m = metrics.perturbed_torus(5)
    pts = probe_batch(m)
    a, b = riemann(m, pts), geometry.curvature_pack(*metric_jets(m, pts))
    for name in ("g", "gamma", "riemann_up", "riemann_down"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.flags.c_contiguous and y.flags.c_contiguous
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64))
    # exactly antisymmetric in the first pair, as A - A^(j<->b) is
    assert np.array_equal(a.riemann_down, -np.swapaxes(a.riemann_down, -4, -3))


def test_riemann_down_takes_the_hessian_buffer(monkeypatch):
    # riemann's one fresh n^4 array is the Hessian part: the Gamma.S product,
    # and so riemann_down, is written into the d2g that metric_jets returned.
    returned = []
    real = geometry.metric_jets

    def kept(metric, coords):
        jets = real(metric, coords)
        returned.append(jets[2])
        return jets

    monkeypatch.setattr(geometry, "metric_jets", kept)
    m = metrics.perturbed_torus(3)
    pack = riemann(m, probe_batch(m))
    assert len(returned) == 1
    assert np.shares_memory(pack.riemann_down, returned[0])
    assert not np.shares_memory(pack.riemann_up, returned[0])


def test_curvature_pack_leaves_the_callers_jets_unchanged():
    m = metrics.perturbed_torus(3)
    jets = metric_jets(m, probe_batch(m))
    before = [x.copy() for x in jets]
    pack = geometry.curvature_pack(*jets)
    for x, y in zip(jets, before):
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64))
    assert not np.shares_memory(pack.riemann_down, jets[2])


def test_metric_compatibility_y73():
    m = metrics.ypq_metric(metrics.solve_ypq(7, 3))
    x = np.array([1.0, 1.2, 2.0, 0.1, 0.5])
    g, dg, _ = metric_jets(m, x)
    pack = riemann(m, x)
    res = geometry.metric_compatibility_residual(pack, dg)
    assert np.max(np.abs(res)) < 1e-9


def test_curvature_endo_properties():
    m = metrics.ypq_metric(metrics.solve_ypq(7, 3))
    rng = np.random.default_rng(1)
    pack = riemann(m, m.box.sample_interior(rng, 30))
    X = rng.standard_normal(5)
    Y = rng.standard_normal(5)

    om = curvature_endo(pack, X, Y)
    scale = np.max(np.abs(om))
    assert np.max(np.abs(om + curvature_endo(pack, Y, X))) / scale < 1e-12
    assert np.max(np.abs(curvature_endo(pack, X, X))) / scale < 1e-12
    # bilinearity
    assert np.max(np.abs(curvature_endo(pack, 2 * X, 3 * Y) - 6 * om)) / scale < 1e-12
    # lowered skewness
    low = np.einsum("...ae,...eb->...ab", pack.g, om)
    assert np.max(np.abs(low + np.swapaxes(low, -1, -2))) / np.max(np.abs(low)) < 1e-10


def test_flat_endo_zero():
    m = metrics.flat_torus(5)
    pack = riemann(m, m.box.sample_interior(np.random.default_rng(0), 4))
    om = curvature_endo(pack, np.ones(5), np.arange(5.0))
    assert np.max(np.abs(om)) == 0.0


def test_validate_curvature_reports():
    rng = np.random.default_rng(7)
    flat = validate_curvature(metrics.flat_torus(3),
                              metrics.flat_torus(3).box.sample_interior(rng, 10))
    assert flat.passed
    assert all(v == 0.0 for v in flat.residuals.values())

    s5 = metrics.round_sphere(5)
    rep = validate_curvature(s5, s5.box.sample_interior(rng, 20))
    assert rep.passed

    y73 = metrics.ypq_metric(metrics.solve_ypq(7, 3))
    rep = validate_curvature(y73, y73.box.sample_interior(rng, 100))
    assert rep.passed
    assert set(rep.residuals) == {
        "gamma_symmetry", "metric_compat", "antisym_first_pair",
        "antisym_second_pair", "pair_swap", "first_bianchi", "ricci_symmetry"}


@pytest.mark.parametrize("entry", [metric_jets, geometry.metric_values, riemann,
                                   validate_curvature])
@pytest.mark.parametrize("shape", [(4,), (6,), (2,), (2, 4)])
def test_points_must_carry_the_chart_coordinates(entry, shape):
    # A fourth coordinate was dropped without a word on the 3-torus.
    m = metrics.perturbed_torus(3)
    with pytest.raises(ValueError, match=rf"shape \({shape[0]},.*the 3 coordinates"):
        entry(m, np.full(shape, 1.0))


def test_box_flags_must_match_its_intervals():
    with pytest.raises(ValueError, match="must align"):
        geometry.CoordBox(((0.0, 1.0), (0.0, 2.0)), (True,))


def test_gamma_has_one_entry_point():
    # Gamma is the pack's: riemann(...).gamma, the same bits as the
    # first-kind terms raised by the guarded inverse.
    m = metrics.ypq_metric(metrics.solve_ypq(7, 3))
    x = np.array([[1.0, 1.2, 2.0, 0.1, 0.5], [0.3, 2.0, 5.0, -0.2, 0.1]])
    g, dg, _ = metric_jets(m, x)
    assert np.array_equal(riemann(m, x).gamma, geometry._gamma_terms(g, dg)[2])
    assert not hasattr(geometry, "christoffel")


def test_validate_rejects_exterior_points():
    m = metrics.round_sphere(2)
    with pytest.raises(geometry.ChartDomainError):
        validate_curvature(m, np.array([[4.0, 1.0]]))


def test_singular_metric_guard():
    m = metrics.round_sphere(2)
    with pytest.raises(SingularMetricError):
        riemann(m, np.array([1e-9, 1.0]))


def metric_batch(smallest):
    """Eight 5x5 identity metrics, the fourth with its last diagonal entry
    set to ``smallest``, so kappa_2 = 1 / smallest."""
    g = np.broadcast_to(np.eye(5), (8, 5, 5)).copy()
    g[3, 4, 4] = smallest
    return g


@pytest.fixture
def exact_checks(monkeypatch):
    """Batch shapes on which the guard runs its exact eigenvalue check."""
    calls = []
    real = geometry._condition_number

    def counted(g):
        calls.append(g.shape)
        return real(g)

    monkeypatch.setattr(geometry, "_condition_number", counted)
    return calls


def test_guard_refuses_above_the_limit():
    g = metric_batch(0.5e-12)
    with pytest.raises(SingularMetricError,
                       match=r"^metric condition number 2\.000e\+12 exceeds 1e\+12: "
                             "chart-boundary degeneracy$"):
        geometry._inverse_guarded(g)


def test_guard_clears_a_well_conditioned_batch_without_eigenvalues(exact_checks):
    g = metric_batch(1e-11)
    ginv = geometry._inverse_guarded(g)
    assert exact_checks == []
    assert np.array_equal(ginv, np.linalg.inv(g))


def test_guard_above_the_margin_takes_the_exact_check(exact_checks):
    # kappa_2 = 4e11 passes, but |g|_F |g^-1|_F ~ 2 kappa_2 = 8e11 > 5e11
    g = metric_batch(0.25e-11)
    ginv = np.linalg.inv(g)
    bound = np.linalg.norm(g, axis=(-2, -1)) * np.linalg.norm(ginv, axis=(-2, -1))
    assert np.max(bound) > geometry.COND_LIMIT / 2
    assert np.array_equal(geometry._inverse_guarded(g), ginv)
    assert exact_checks == [g.shape]


def test_guard_passed_by_the_exact_check_inverts_once(exact_checks, monkeypatch):
    # diag(1, 1.5e-12): kappa_2 = 6.7e11 passes, but the Frobenius bound is
    # the same 6.7e11 > 5e11, so the exact check runs; its pass returns the
    # inverse the bound was formed from, with no second inversion.
    g = np.diag([1.0, 1.5e-12])[None]
    want = np.linalg.inv(g)
    assert np.linalg.norm(g) * np.linalg.norm(want) > geometry.COND_LIMIT / 2
    inversions = []
    real = np.linalg.inv

    def counted(a):
        inversions.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    got = geometry._inverse_guarded(g)
    assert inversions == [g.shape] and exact_checks == [g.shape]
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.ones((5, 5)), np.zeros((5, 5)),
                                 np.where(np.eye(5) == 1.0, np.nan, 0.0)])
def test_guard_refuses_singular_and_nan_metrics(bad):
    g = metric_batch(1.0)
    g[5] = bad
    with pytest.raises(SingularMetricError, match="metric condition number"):
        geometry._inverse_guarded(g)


def test_guard_names_inf_for_a_nan_metric_among_good_ones():
    # Its condition number is NaN; the finite ones (all 1) must not be named.
    g = np.broadcast_to(np.eye(2), (4, 2, 2)).copy()
    g[2] = [[1.0, np.nan], [np.nan, 1.0]]
    with pytest.raises(SingularMetricError,
                       match=r"^metric condition number inf exceeds 1e\+12: "):
        geometry._inverse_guarded(g)


def test_guard_stops_the_unreduced_64_node_run():
    y73 = metrics.ypq_metric(metrics.solve_ypq(7, 3))
    with pytest.raises(QuadratureError,
                       match=r"metric condition number 1\.023e\+12 exceeds 1e\+12"):
        integrate_cycle(y73, CircleAction.rotation(axis=4), 3,
                        QuadratureSpec(nodes=64, mask=(0, 2, 4)))


def test_metric_jets_symmetry_is_bit_exact():
    m = metrics.ypq_metric(metrics.solve_ypq(7, 3))
    pts = m.box.sample_interior(np.random.default_rng(3), 40)
    g, dg, d2g = metric_jets(m, pts)
    assert np.array_equal(g, np.swapaxes(g, -1, -2))
    assert np.array_equal(dg, np.swapaxes(dg, -2, -3))
    assert np.array_equal(d2g, np.swapaxes(d2g, -3, -4))
    assert np.max(np.abs(dg)) > 0.0 and np.max(np.abs(d2g)) > 0.0
    # The round sphere's first component is the plain number r^2: it fills g
    # only, and every derivative of it is an exact zero.
    r = 1.5
    g, dg, d2g = metric_jets(metrics.round_sphere(3, r), np.array([[1.0, 2.0, 0.5],
                                                                  [0.3, 1.1, 6.0]]))
    assert np.all(g[:, 0, 0] == r * r)
    assert np.all(dg[:, 0, 0] == 0.0) and np.all(d2g[:, 0, 0] == 0.0)
    assert np.max(np.abs(dg[:, 1, 1])) > 0.0


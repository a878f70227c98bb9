"""Built-in invariant suite: fast, deterministic end-to-end checks.

Each suite returns the worst residual observed together with its tolerance;
the runner prints one line per suite with timing and fails naming the
offending suite.  Runtime is well under a second (about 0.5 s on a 2-core
Intel Xeon).
"""
from __future__ import annotations

import time

import numpy as np

from . import geometry, jets, metrics, wcs
from .cycles import CircleAction, integrate_cycle
from .quadrature import QuadratureSpec, gauss_nodes

__all__ = ["run_all", "SUITES"]


def _jets_finite_difference():
    rng = np.random.default_rng(42)
    ops2 = ["add", "sub", "mul", "div"]
    fns = ["sin", "cos", "sqrt", "square"]

    def random_expr(nvars, depth, rng):
        """Build a closure evaluating a random composite on floats or jets."""
        if depth == 0:
            idx = int(rng.integers(nvars))
            return lambda xs: xs[idx]
        kind = rng.random()
        if kind < 0.55:
            op = ops2[int(rng.integers(len(ops2)))]
            left = random_expr(nvars, depth - 1, rng)
            right = random_expr(nvars, depth - 1, rng)
            if op == "add":
                return lambda xs: left(xs) + right(xs)
            if op == "sub":
                return lambda xs: left(xs) - right(xs)
            if op == "mul":
                return lambda xs: left(xs) * right(xs)
            # keep divisions away from zero
            return lambda xs: left(xs) / (3.5 + _square(right(xs)))
        fn = fns[int(rng.integers(len(fns)))]
        inner = random_expr(nvars, depth - 1, rng)
        if fn == "sin":
            return lambda xs: jets.sin(inner(xs))
        if fn == "cos":
            return lambda xs: jets.cos(inner(xs))
        if fn == "sqrt":
            return lambda xs: jets.sqrt(2.5 + _square(inner(xs)))
        return lambda xs: _square(inner(xs))

    def _square(x):
        return x * x

    worst_g, worst_h = 0.0, 0.0
    h = 1e-5
    for _ in range(20):
        nvars = int(rng.integers(2, 6))
        expr = random_expr(nvars, 3, rng)
        x0 = rng.uniform(-1.0, 1.0, nvars)
        variables = [jets.jet_variable(i, x0[i], nvars) for i in range(nvars)]
        out = expr(variables)
        if not isinstance(out, jets.Jet2):
            continue
        scale_g = max(np.max(np.abs(out.grad)), 1.0)
        scale_h = max(np.max(np.abs(out.hess)), 1.0)
        for i in range(nvars):
            e = np.zeros(nvars)
            e[i] = h
            fd = (expr(x0 + e) - expr(x0 - e)) / (2 * h)
            worst_g = max(worst_g, abs(fd - out.grad[i]) / scale_g)
            for j in range(nvars):
                e2 = np.zeros(nvars)
                e2[j] = h
                fd2 = (expr(x0 + e + e2) - expr(x0 + e - e2)
                       - expr(x0 - e + e2) + expr(x0 - e - e2)) / (4 * h * h)
                worst_h = max(worst_h, abs(fd2 - out.hess[i, j]) / scale_h)
    ok = worst_g <= 1e-6 and worst_h <= 1e-4
    return ok, f"gradient {worst_g:.2e} (tol 1e-6), hessian {worst_h:.2e} (tol 1e-4)"


def _curvature_identities():
    rng = np.random.default_rng(7)
    cases = [
        metrics.flat_torus(3),
        metrics.round_sphere(2),
        metrics.round_sphere(3, 2.0),
        metrics.round_sphere(5),
        metrics.perturbed_torus(3),
        metrics.ypq_metric(metrics.solve_ypq(7, 3)),
    ]
    worst = ("", 0.0)
    for m in cases:
        pts = m.box.sample_interior(rng, 40)
        report = geometry.validate_curvature(m, pts)
        name, val = report.worst()
        if val > worst[1]:
            worst = (f"{m.name}:{name}", val)
        if not report.passed:
            return False, f"{m.name} failed {name} at {val:.3e} (tol 1e-9)"
    return True, f"worst residual {worst[0]} = {worst[1]:.2e} (tol 1e-9)"


def _einstein_property():
    rng = np.random.default_rng(11)
    m = metrics.ypq_metric(metrics.solve_ypq(7, 3))
    pts = m.box.sample_interior(rng, 100)
    res = metrics.einstein_residual(geometry.riemann(m, pts),
                                    metrics.EINSTEIN_CONSTANT_DIM5)
    return res <= 1e-8, f"max |Ric - 4 g| relative {res:.2e} (tol 1e-8)"


def _dim3_vanishing():
    rng = np.random.default_rng(13)
    worst = 0.0
    for name in ("round_sphere3", "flat_torus3", "perturbed_torus3"):
        m = metrics.catalog(name)
        pts = m.box.sample_interior(rng, 100)
        pack = geometry.riemann(m, pts)
        scale = max(float(np.max(np.abs(pack.riemann_down))) ** 2, np.finfo(float).tiny)
        for _ in range(3):
            frame = rng.standard_normal((3, 3))
            gd = rng.standard_normal(3)
            for variant in ("reduced", "full"):
                v = wcs.wcs_integrand(pack, frame, gd, variant)
                worst = max(worst, float(np.max(np.abs(v))) / scale)
    return worst <= 1e-10, f"max integrand / curvature^2 = {worst:.2e} (tol 1e-10)"


def _full_equals_reduced():
    rng = np.random.default_rng(17)
    m = metrics.ypq_metric(metrics.solve_ypq(7, 3))
    pts = m.box.sample_interior(rng, 100)
    pack = geometry.riemann(m, pts)
    worst = 0.0
    for _ in range(3):
        frame = rng.standard_normal((5, 5))
        gd = rng.standard_normal(5)
        a = np.asarray(wcs.wcs_integrand(pack, frame, gd, "full"))
        b = np.asarray(wcs.wcs_integrand(pack, frame, gd, "reduced"))
        worst = max(worst, float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)))
    return worst <= 1e-10, f"max relative difference {worst:.2e} (tol 1e-10)"


def _iterate_scaling():
    m = metrics.ypq_metric(metrics.solve_ypq(7, 3))
    base = CircleAction.rotation(axis=4)
    quad = QuadratureSpec(nodes=10)
    v1 = integrate_cycle(m, base, 3, quad).value
    worst = 0.0
    for n in (2, 3):
        vn = integrate_cycle(m, CircleAction.iterate(base, n), 3, quad).value
        worst = max(worst, abs(vn - n * v1) / abs(n * v1))
    v0 = integrate_cycle(m, CircleAction.iterate(base, 0), 3, quad).value
    ok = worst <= 1e-9 and v0 == 0.0
    return ok, f"max relative deviation from n x base = {worst:.2e} (tol 1e-9), trivial = {v0}"


def _quadrature_exactness():
    rng = np.random.default_rng(23)
    worst = 0.0
    for n in (2, 4, 8, 16):
        x, w = gauss_nodes(n, (-1.0, 1.0))
        coef = rng.standard_normal(2 * n)
        powers = np.arange(2 * n)
        exact = sum(c * ((1.0 - (-1.0) ** (p + 1)) / (p + 1))
                    for c, p in zip(coef, powers))
        approx = float(np.sum(w * sum(c * x**p for c, p in zip(coef, powers))))
        worst = max(worst, abs(approx - exact) / max(abs(exact), 1.0))
    return worst <= 1e-13, f"degree 2n-1 exactness residual {worst:.2e} (tol 1e-13)"


SUITES = [
    ("jets_finite_difference", _jets_finite_difference),
    ("curvature_identities", _curvature_identities),
    ("einstein_y73", _einstein_property),
    ("dim3mod4_vanishing", _dim3_vanishing),
    ("full_equals_reduced", _full_equals_reduced),
    ("iterate_scaling", _iterate_scaling),
    ("quadrature_exactness", _quadrature_exactness),
]


def run_all(out=print) -> int:
    """Run every suite; print one line each; return 0 iff all pass."""
    failures = []
    for name, fn in SUITES:
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:
            ok, detail = False, f"exception: {exc}"
        dt = time.perf_counter() - t0
        out(f"{'PASS' if ok else 'FAIL'}  {name:<24} {dt:7.2f}s  {detail}")
        if not ok:
            failures.append(name)
    if failures:
        out(f"selftest FAILED: {', '.join(failures)}")
        return 1
    out("selftest passed")
    return 0

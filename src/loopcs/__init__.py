"""loopcs: Wodzicki-Chern-Simons forms on loop spaces of odd-dimensional manifolds.

Curvature is computed from metric component functions via second-order
forward-mode jets; cycle integrals over circle actions reduce to
deterministic tensor-product Gauss-Legendre quadrature.  Importing the
package runs OpenBLAS on one thread unless ``OPENBLAS_NUM_THREADS`` is set.
"""
import os

# Every BLAS/LAPACK call here is tiny: stacked products of at most
# (49 x 7) @ (7 x 49) per point (the curvature's Gamma.S term; the (343 x 7)
# @ (7 x 7) raise costs as much) and inv/det of n x n, n <= 7 (eigvalsh only
# on the condition guard's rare exact check), far below OpenBLAS's threading
# threshold.  Its helper thread only spins (about 0.06 s of CPU after a bare
# numpy import), so it is not started.  This must run before the first
# submodule import, which loads numpy; a value the caller set is kept, and a
# numpy loaded before loopcs keeps its threads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .jets import ChartDomainError, Jet2, jet_constant, jet_variable
from .geometry import (
    CoordBox,
    CurvaturePack,
    MetricField,
    SingularMetricError,
    christoffel,
    curvature_endo,
    riemann,
    validate_curvature,
)
from .metrics import (
    YpqParams,
    catalog,
    flat_torus,
    perturbed_torus,
    product,
    round_sphere,
    solve_ypq,
    ypq_metric,
    ypq_params_from_a,
)
from .quadrature import QuadratureError, QuadratureSpec, gauss_nodes, integrate_box
from .wcs import symbol_endo, wcs_integrand
from .cycles import (
    CircleAction,
    CycleResult,
    a_sweep,
    integrate_cycle,
    pullback_density,
)

__all__ = [
    "__version__",
    "ChartDomainError",
    "Jet2",
    "jet_constant",
    "jet_variable",
    "CoordBox",
    "CurvaturePack",
    "MetricField",
    "SingularMetricError",
    "christoffel",
    "curvature_endo",
    "riemann",
    "validate_curvature",
    "YpqParams",
    "catalog",
    "flat_torus",
    "perturbed_torus",
    "product",
    "round_sphere",
    "solve_ypq",
    "ypq_metric",
    "ypq_params_from_a",
    "QuadratureError",
    "QuadratureSpec",
    "gauss_nodes",
    "integrate_box",
    "symbol_endo",
    "wcs_integrand",
    "CircleAction",
    "CycleResult",
    "a_sweep",
    "integrate_cycle",
    "pullback_density",
]

"""loopcs: Wodzicki-Chern-Simons forms on loop spaces of odd-dimensional manifolds.

Curvature is computed from metric component functions via second-order
forward-mode jets; cycle integrals over circle actions reduce to
deterministic tensor-product Gauss-Legendre quadrature.
"""

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
from .wcs import WcsFrame, symbol_endo, wcs_integrand
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
    "WcsFrame",
    "symbol_endo",
    "wcs_integrand",
    "CircleAction",
    "CycleResult",
    "a_sweep",
    "integrate_cycle",
    "pullback_density",
]

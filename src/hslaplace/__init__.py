"""Laplace transforms of invariant measures on high-dimensional hyperspheres.

Numerical study of the hyperplane integrals F_n(lambda) (inverse Mellin
transforms of Gamma(s)^n), their saddle-point asymptotics through the
decay-rate function L, the critical point where L = 1, and the resulting
behaviour of the measure-level transforms D_n(f).  Every quantity is
computable by at least two independent routes.
"""

from .hypersphere import (
    EnsembleRow,
    GrandEnsembleSpec,
    HypersphereSpec,
    Regime,
    RegimeReport,
    classify_regime,
    ensemble_comparison,
    geometric_mean,
    laplace_dn,
    psi_theta,
    unit_crossing,
)
from .logvalue import LogValue
from .oracles import (
    Method,
    ROUTES,
    OracleResult,
    cross_check,
    evaluate,
    f1_exact,
    f2_exact,
    fn_contour,
    fn_montecarlo,
    fn_quadrature,
    fn_saddle_asymptotic,
)
from .saddle import (
    CriticalPoint,
    SaddleSolution,
    L_value,
    L_value_legendre,
    critical_point,
    inverse_digamma,
    solve_saddle,
    tabulate,
)
from .specfun import (
    EULER_GAMMA,
    bessel_k0,
    digamma,
    ln_gamma,
    ln_gamma_complex,
    trigamma,
)

__version__ = "0.1.0"

__all__ = [
    "EULER_GAMMA",
    "CriticalPoint",
    "EnsembleRow",
    "GrandEnsembleSpec",
    "HypersphereSpec",
    "LogValue",
    "L_value",
    "L_value_legendre",
    "Method",
    "OracleResult",
    "ROUTES",
    "Regime",
    "RegimeReport",
    "SaddleSolution",
    "bessel_k0",
    "classify_regime",
    "critical_point",
    "cross_check",
    "digamma",
    "ensemble_comparison",
    "evaluate",
    "f1_exact",
    "f2_exact",
    "fn_contour",
    "fn_montecarlo",
    "fn_quadrature",
    "fn_saddle_asymptotic",
    "geometric_mean",
    "inverse_digamma",
    "laplace_dn",
    "ln_gamma",
    "ln_gamma_complex",
    "psi_theta",
    "solve_saddle",
    "tabulate",
    "trigamma",
    "unit_crossing",
]

"""Measure-level layer: Laplace transforms on hyperspheres and the ensemble exhibit.

The hypersphere M_{n,r} is the set of positive vectors with fixed geometric
mean, prod y_k = r^n.  The Laplace transform of its multiplicative-group
invariant measure depends on the dual vector f only through the geometric
mean rho(f):

    ln D_n(f) = ln F_n(rho(f) * r).

The critical value lambda_cr of the effective argument separates exponential
divergence of F_n from exponential vanishing; the unit-crossing sequence
lambda_n (where F_n = 1 exactly) converges to it.  The ensemble comparison
table shows that no radius schedule r_n makes (ln D_n)/n converge to the
log-Laplace functional ln Psi_theta(f) = -theta int ln f of the limiting
invariant measure, except by pinning rho(f) r_n to lambda_cr where both
sides are driven to zero.
"""

from __future__ import annotations

import array
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .logvalue import LogValue
from .oracles import (
    Method,
    OracleResult,
    _check_n,
    _ln_l_rounding,
    evaluate,
    fn_contour,
    fn_saddle_asymptotic,
)
from .saddle import critical_point, solve_saddle
from .specfun import _finite, _positive, _real


@dataclass(frozen=True)
class HypersphereSpec:
    """Dimension n, radius r (product constraint prod y_k = r^n), dual vector f."""

    n: int
    r: float
    f: tuple[float, ...]
    # geometric_mean(f), the only way f enters D_n; computing it checks f
    rho: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _check_n(self.n, 1, "HypersphereSpec")
        _positive(self.r, "r")
        rho = geometric_mean(self.f)
        object.__setattr__(self, "f", tuple(self.f))
        if len(self.f) != self.n:
            raise ValueError("f must have exactly n entries")
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True)
class GrandEnsembleSpec:
    """Discretised log-Laplace functional: theta, samples of f, quadrature weights."""

    theta: float
    f: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        _positive(self.theta, "theta")
        size = _dual_vector(self.f).size
        # a tuple, list or array of reals, as for f: a generator has no len()
        weights = self.weights.tolist() if isinstance(self.weights, np.ndarray) else self.weights
        if (not isinstance(weights, (tuple, list))
                or not all(math.isfinite(_real(w)) for w in weights)):
            raise ValueError(f"weights must be finite, got {self.weights}")
        if not size or size != len(weights):
            raise ValueError("f and weights must be nonempty and of equal length")
        if any(w < 0.0 for w in weights):
            raise ValueError("weights must be nonnegative")
        if abs(math.fsum(weights) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        object.__setattr__(self, "f", tuple(self.f))
        object.__setattr__(self, "weights", tuple(weights))


class Regime(str, enum.Enum):
    DIVERGES = "diverges"
    VANISHES = "vanishes"
    CRITICAL_BAND = "critical-band"


@dataclass(frozen=True)
class RegimeReport:
    """Where lambda_eff sits relative to the critical point, with margin."""

    lambda_eff: float
    regime: Regime
    margin: float


@dataclass(frozen=True)
class EnsembleRow:
    n: int
    lambda_eff: float
    ln_dn_per_n: float
    regime: Regime
    ln_psi_theta: float


def _dual_vector(f):
    """The entries of a tuple, list or array f as floats, possibly none: the one
    check of a dual vector, which refuses a bool, str or bytes entry."""
    # array.array refuses a str or bytes entry, which np.asarray parses; a bool
    # converts to exactly 1.0, so only entries equal to 1.0 need a type test
    f = f.tolist() if isinstance(f, np.ndarray) else f
    try:
        arr = np.frombuffer(array.array("d", f)) if isinstance(f, (tuple, list)) else None
    except (TypeError, OverflowError):
        arr = None
    if (arr is None or not np.isfinite(arr).all() or (arr <= 0.0).any()
            or any(isinstance(f[i], (bool, np.bool_)) for i in np.flatnonzero(arr == 1.0))):
        raise ValueError("all entries of f must be finite positive reals")
    return arr


def geometric_mean(f) -> float:
    """exp(mean(ln f_k)), accumulated in log space.

    Sorting the logs before summation makes the result bitwise independent
    of the input order, which downstream permutation invariance relies on.
    """
    arr = _dual_vector(f)
    if arr.size == 0:
        raise ValueError("f must have at least one entry")
    logs = np.sort(np.log(arr))
    return float(np.exp(logs.sum() / arr.size))


def laplace_dn(spec: HypersphereSpec, method: Method | str = "auto") -> OracleResult:
    """ln D_n(f) = ln F_n(rho(f) * r) by the selected oracle, at its defaults.

    ``method`` is one of the Method values or "auto" (closed form for
    n <= 2, contour otherwise).  Invariant under permutations of f and
    under rescalings f -> c * f with prod c_k = 1, since only the
    geometric mean ``spec.rho`` enters.  For a route's tol, samples or
    seed, call ``evaluate(method, spec.n, spec.rho * spec.r, ...)``.
    """
    if method == "auto":
        method = Method.CLOSED_FORM if spec.n <= 2 else Method.CONTOUR
    return evaluate(method, spec.n, spec.rho * spec.r)


def classify_regime(lambda_eff: float, epsilon: float) -> RegimeReport:
    """Divergence / vanishing / critical band, with margin lambda_eff - lambda_cr.

    The band half-width epsilon is caller-supplied on purpose: the dichotomy
    only holds outside a neighbourhood of lambda_cr and there is no natural
    default for its size.
    """
    lambda_eff = _positive(lambda_eff, "lambda_eff")
    epsilon = _positive(epsilon, "epsilon")
    margin = lambda_eff - critical_point().lambda_cr
    if margin < -epsilon:
        regime = Regime.DIVERGES
    elif margin > epsilon:
        regime = Regime.VANISHES
    else:
        regime = Regime.CRITICAL_BAND
    return RegimeReport(lambda_eff=lambda_eff, regime=regime, margin=margin)


def _secant(g_tol, u: float, slope: float, u_cr: float) -> tuple[float, float]:
    """Safeguarded Newton or secant steps to the root of a decreasing g(u), from u.

    ``g_tol(u)`` returns (g(u), tol, dg/du or None).  Every value narrows a
    bracket [lo, hi] with g(lo) > 0 > g(hi).  A step is -g / slope, with the
    slope dg/du where g_tol returns one (Newton), else the secant through
    the last two values, or the given first slope before there are two.  A
    step that leaves the bracket, or a secant with no slope, is replaced by
    the bracket's midpoint.  While one side of the bracket has no known sign
    yet, such a step goes to that side's end of [0.3, 3] * e^u_cr instead; an
    end with the wrong sign is moved out by a factor 2, up to ten times
    before giving up with RuntimeError.

    Returns (u, slope): the first u with |g(u)| < tol and the last slope.
    Once both signs are known and lo, hi are adjacent doubles, the end with
    the smaller |g| is returned instead, since no u lies between.
    """
    lo, hi = u_cr + math.log(0.3), u_cr + math.log(3.0)
    g_lo = g_hi = None
    widenings = 0
    u_prev = g_prev = None
    for _ in range(200):
        g, tol, dg = g_tol(u)
        if abs(g) < tol:
            return u, slope
        if (g > 0.0 and u == hi) or (g < 0.0 and u == lo):
            # an end of the bracket with the wrong sign: the root lies beyond it
            if widenings >= 10:
                raise RuntimeError("unit_crossing failed to bracket a sign change")
            widenings += 1
            if g > 0.0:
                hi += math.log(2.0)
            else:
                lo -= math.log(2.0)
        if g > 0.0:
            lo, g_lo = u, g
        else:
            hi, g_hi = u, g
        if g_lo is not None and g_hi is not None and not lo < 0.5 * (lo + hi) < hi:
            # adjacent doubles: g moves by more than tol over one ulp of u
            return (lo, slope) if abs(g_lo) < abs(g_hi) else (hi, slope)
        if dg is not None:
            slope = dg
        elif u_prev is not None:
            slope = (g - g_prev) / (u - u_prev) if g != g_prev else math.nan
        u_prev, g_prev = u, g
        u -= g / slope
        if not lo < u < hi:
            if g_lo is None:
                u = lo
            elif g_hi is None:
                u = hi
            else:
                u = 0.5 * (lo + hi)
    raise RuntimeError("unit_crossing stalled")  # pragma: no cover


def unit_crossing(n: int) -> float:
    """The lambda_n with F_n(lambda_n) = 1, by safeguarded Newton and secant in u = ln lambda.

    g(u) = ln F_n(e^u) is strictly decreasing.  ``_secant`` runs twice, on a
    fresh bracket [0.3, 3] * lambda_cr each time:

    1. secant steps on the saddle-point route ``fn_saddle_asymptotic``, from
       the root u_cr - ln(2 pi n) / (2 n gamma_cr) of its leading terms
       n ln L - (1/2) ln(2 pi n) linearised at lambda_cr, with the saddle
       slope dg/du ~ -n gamma_cr, until |g| is below the error of n ln L at
       lambda_cr (``_ln_l_rounding``).  This makes no contour call.  Near
       lambda_cr the route is within 0.003 / n^3 of ln F_n, so from n ~ 340
       up phase 2 ends at its first call.
    2. Newton steps on the contour oracle, with the slope d ln F_n / d ln
       lambda that it returns, from phase 1's u, until |g| < 1e-10.

    Returns the first contour-evaluated lambda with |ln F_n(lambda)| <
    1e-10 or, where ln F_n moves by more than that over one ulp of lambda
    (about 1.7e-16 n, so from n ~ 1e6) and the bracket closes on two
    adjacent doubles, the one of the two with the smaller |ln F_n|.
    """
    n = _check_n(n, 2, "unit_crossing")
    cp = critical_point()
    u_cr = math.log(cp.lambda_cr)
    rounding = _ln_l_rounding(n, solve_saddle(cp.lambda_cr))

    def saddle(u):
        return fn_saddle_asymptotic(n, math.exp(u)).value.ln_value, rounding, None

    def contour(u):
        r = fn_contour(n, math.exp(u))
        return r.value.ln_value, 1e-10, r.slope

    u = u_cr - math.log(2.0 * math.pi * n) / (2.0 * n * cp.gamma_cr)
    u, slope = _secant(saddle, u, -n * cp.gamma_cr, u_cr)
    u, _ = _secant(contour, u, slope, u_cr)
    return math.exp(u)


def psi_theta(spec: GrandEnsembleSpec) -> LogValue:
    """ln Psi_theta(f) = -theta * sum_k weights_k ln f_k."""
    return _psi(spec.theta, spec.f, spec.weights)


def _psi(theta: float, f, weights) -> LogValue:
    logs = np.log(np.asarray(f, dtype=float))
    w = np.asarray(weights, dtype=float)
    # an overflow to +-inf is LogValue's to refuse, without numpy's warning first;
    # a numpy sum, not np.dot, whose BLAS may split a long f over threads
    with np.errstate(over="ignore"):
        return LogValue(float(-theta * (w * logs).sum()) + 0.0)


def ensemble_comparison(
    f,
    theta: float,
    radius_schedule: tuple[float, float] | str,
    n_grid,
    epsilon: float,
) -> list[EnsembleRow]:
    """The non-equivalence exhibit: (ln D_n)/n along a radius schedule vs ln Psi_theta.

    ``radius_schedule`` is (c, alpha) for r_n = c * n^alpha, or the string
    "critical" for the pinned schedule r_n = lambda_cr / rho(f).  Rows use
    the contour oracle (valid at every n, so the exhibit is evidence rather
    than a restatement of the asymptotics).  Unless lambda_eff is pinned at
    lambda_cr, (ln D_n)/n tends to ln L(lambda_eff) != 0 and drifts away
    from the fixed value ln Psi_theta(f).
    """
    rho = geometric_mean(f)
    if isinstance(radius_schedule, str):
        if radius_schedule != "critical":
            raise ValueError("radius_schedule must be (c, alpha) or 'critical'")
        c, alpha = critical_point().lambda_cr / rho, 0.0
    else:
        c = _positive(radius_schedule[0], "schedule coefficient c")
        alpha = _finite(radius_schedule[1], "schedule exponent alpha")
    ns = [_check_n(v, 1, "ensemble_comparison") for v in n_grid]
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_grid must be strictly increasing positive integers")
    lams = []
    for n in ns:
        try:
            lam_eff = rho * c * n**alpha
        except OverflowError:
            lam_eff = math.inf
        if not (math.isfinite(lam_eff) and lam_eff > 0.0):
            raise ValueError(
                f"lambda_eff = rho c n^alpha is {lam_eff!r} at n = {n}, not a finite positive double"
            )
        lams.append(lam_eff)
    # psi_theta of the equal-weight GrandEnsembleSpec, whose check of f would
    # repeat geometric_mean's
    _positive(theta, "theta")
    ln_psi = _psi(theta, f, (1.0 / len(f),) * len(f)).ln_value
    # epsilon is checked before the first contour call
    regimes = [classify_regime(lam_eff, epsilon).regime for lam_eff in lams]
    return [
        EnsembleRow(
            n=n,
            lambda_eff=lam_eff,
            ln_dn_per_n=fn_contour(n, lam_eff).value.ln_value / n,
            regime=regime,
            ln_psi_theta=ln_psi,
        )
        for n, lam_eff, regime in zip(ns, lams, regimes)
    ]

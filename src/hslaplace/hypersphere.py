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

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .logvalue import LogValue
from .oracles import (
    Method,
    OracleResult,
    _check_n,
    evaluate,
    fn_contour,
    fn_saddle_asymptotic,
)
from .saddle import critical_point


@dataclass(frozen=True)
class HypersphereSpec:
    """Dimension n, radius r (product constraint prod y_k = r^n), dual vector f."""

    n: int
    r: float
    f: tuple[float, ...]
    # geometric_mean(f), the only way f enters D_n; computing it checks f
    rho: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError("dimension n must be an integer >= 1")
        if not (math.isfinite(self.r) and self.r > 0.0):
            raise ValueError("radius r must be a positive real")
        object.__setattr__(self, "f", tuple(self.f))
        if len(self.f) != self.n:
            raise ValueError("f must have exactly n entries")
        object.__setattr__(self, "rho", geometric_mean(self.f))


@dataclass(frozen=True)
class GrandEnsembleSpec:
    """Discretised log-Laplace functional: theta, samples of f, quadrature weights."""

    theta: float
    f: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if not (math.isfinite(self.theta) and self.theta > 0.0):
            raise ValueError("theta must be a positive real")
        if len(self.f) != len(self.weights) or not self.f:
            raise ValueError("f and weights must be nonempty and of equal length")
        geometric_mean(self.f)  # the one check of f's entries
        if not all(math.isfinite(w) for w in self.weights):
            raise ValueError(f"weights must be finite, got {self.weights}")
        if any(w < 0.0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if abs(math.fsum(self.weights) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")


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


def geometric_mean(f) -> float:
    """exp(mean(ln f_k)), accumulated in log space.

    Sorting the logs before summation makes the result bitwise independent
    of the input order, which downstream permutation invariance relies on.
    It is the one check of a dual vector's entries.
    """
    arr = np.asarray(f, dtype=float)
    if arr.size == 0:
        raise ValueError("f must have at least one entry")
    if not np.isfinite(arr).all() or (arr <= 0.0).any():
        raise ValueError("all entries of f must be finite positive reals")
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
    lambda_eff = float(lambda_eff)
    epsilon = float(epsilon)
    if not (math.isfinite(lambda_eff) and lambda_eff > 0.0):
        raise ValueError("lambda_eff must be a positive real")
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError("epsilon must be a positive real")
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
            # rounding in g is larger than its change over one ulp of u
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
       slope dg/du ~ -n gamma_cr, until |g| < 1e-14 n, the rounding of
       n ln L near lambda_cr (ln Gamma is good to ~8e-15 absolute there).
       This makes no contour call.  Near lambda_cr the route is within
       0.003 / n^3 of ln F_n, so from n ~ 340 up phase 2 ends at its first
       call.
    2. Newton steps on the contour oracle, with the slope d ln F_n / d ln
       lambda that it returns, from phase 1's u, until |g| < 1e-10.

    Returns the first contour-evaluated lambda with |ln F_n(lambda)| <
    1e-10 or, where the contour's rounding over one ulp of lambda exceeds
    1e-10 (n of a few 1e5 and up) and the bracket closes on
    two adjacent doubles, the one of the two with the smaller |ln F_n|.
    """
    _check_n(n, 2, "unit_crossing")
    cp = critical_point()
    u_cr = math.log(cp.lambda_cr)
    rounding = 1e-14 * n

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
    logs = np.log(np.asarray(spec.f, dtype=float))
    w = np.asarray(spec.weights, dtype=float)
    return LogValue(float(-spec.theta * np.dot(w, logs)) + 0.0)


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
        c, alpha = float(radius_schedule[0]), float(radius_schedule[1])
        if not (math.isfinite(c) and c > 0.0):
            raise ValueError("schedule coefficient c must be positive")
        if not math.isfinite(alpha):
            raise ValueError(f"schedule exponent alpha must be finite, got {alpha!r}")
    raw = list(n_grid)
    for v in raw:
        # int() would truncate 5.5 to 5 and parse '5'
        if not isinstance(v, (int, np.integer)):
            raise ValueError(f"n_grid must hold integers, got {v!r}")
    ns = [int(v) for v in raw]
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])) or any(v < 1 for v in ns):
        raise ValueError("n_grid must be strictly increasing positive integers")
    for n in ns:
        _check_n(n, 1, "ensemble_comparison")
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
    weights = (1.0 / len(f),) * len(f)
    ln_psi = psi_theta(GrandEnsembleSpec(theta=theta, f=tuple(f), weights=weights)).ln_value
    rows = []
    for n, lam_eff in zip(ns, lams):
        ln_f = fn_contour(n, lam_eff).value.ln_value
        rows.append(
            EnsembleRow(
                n=n,
                lambda_eff=lam_eff,
                ln_dn_per_n=ln_f / n,
                regime=classify_regime(lam_eff, epsilon).regime,
                ln_psi_theta=ln_psi,
            )
        )
    return rows

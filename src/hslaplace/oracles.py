"""Independent evaluators of ln F_n(lambda), pairwise cross-checking.

F_n(lambda) is the integral of exp(-lambda sum_k e^{x_k}) over the
hyperplane sum_k x_k = 0, in the coordinate normalisation that integrates
out x_n (so F_1(lambda) = e^{-lambda}).  Four routes compute its log:

* closed forms for n = 1 and n = 2 (F_2 = 2 K0(2 lambda));
* brute-force nested quadrature over [-X, X]^{n-1} for n in {2, 3, 4};
* the inverse Mellin contour integral (any n), trapezoid on the vertical
  line through the saddle abscissa, its step halved from
  min(T/50, 2 pi gamma / ln 1e14) until the value settles;
* the Gaussian saddle-point approximation (any n);

plus a seeded importance-sampling Monte Carlo estimator.  ``ROUTES`` records
which n each route covers and whether its value is exact; ``evaluate`` and
``cross_check`` are the only dispatchers over it.

The contour route uses F_n(lambda) = (1/2 pi) int Gamma(gamma+it)^n
lambda^{-n(gamma+it)} dt.  The 1/(2 pi) normalisation (with no extra 1/n)
is forced by the Mellin pair int_0^inf n F_n(lambda) lambda^{ns-1} dlambda
= Gamma(s)^n: substituting u = lambda^n shows G(u) = F_n(u^{1/n}) has plain
Mellin transform Gamma(s)^n.  The n = 1 and n = 2 closed forms confirm the
normalisation to machine precision, and the same closed forms fix the
Gaussian prefactor to 1/sqrt(2 pi n sigma):  at large lambda
F_2 ~ sqrt(pi/lambda) e^{-2 lambda} and L^2/sqrt(4 pi sigma) reproduces it
exactly with sigma ~ 1/lambda.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .logvalue import LogValue
from .saddle import solve_saddle
from .specfun import bessel_k0, ln_gamma_complex, trigamma


class Method(str, enum.Enum):
    """How a ln F_n value was obtained."""

    CLOSED_FORM = "closed-form"
    QUADRATURE = "quadrature"
    CONTOUR = "contour"
    MONTE_CARLO = "monte-carlo"
    ASYMPTOTIC = "asymptotic"


@dataclass(frozen=True)
class OracleResult:
    """A ln F_n estimate, an upper-bound claim on its absolute error, and its route."""

    value: LogValue
    err_ln: float
    method: Method


def f1_exact(lam: float) -> OracleResult:
    """ln F_1(lambda) = -lambda: the hyperplane for n = 1 is the point x = 0."""
    lam = _check_lambda(lam)
    return OracleResult(LogValue(-lam), 5e-16 * (1.0 + lam), Method.CLOSED_FORM)


def f2_exact(lam: float) -> OracleResult:
    """ln F_2(lambda) = ln 2 + ln K0(2 lambda).

    With x_2 = -x_1 the integrand is exp(-lambda (e^x + e^-x)) =
    exp(-2 lambda cosh x), and the even integral over the line is
    2 K0(2 lambda).
    """
    lam = _check_lambda(lam)
    return OracleResult(
        LogValue(math.log(2.0) + bessel_k0(2.0 * lam).ln_value),
        1e-10,
        Method.CLOSED_FORM,
    )


# ---------------------------------------------------------------------------
# nested quadrature
# ---------------------------------------------------------------------------


def _lse(a, w):
    """log(sum(w * exp(a))) with max shift; a is a 1-D array."""
    m = float(np.max(a))
    return m + math.log(float(np.sum(w * np.exp(a - m))))


def _simpson_weights(m):
    w = np.ones(m + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def _inner_slab(lam, A, s, X, inner_m=256):
    """Vectorised innermost integrals.

    For each row i, computes ln of

        int_{-X}^{X} exp(-lam (A_i + e^x + B_i e^{-x})) dx,  B_i = e^{-s_i}.

    The integrand is a cosh-type bump centred at x = -s_i/2 with doubly
    exponential shoulders, so a fixed composite Simpson rule on the
    analytically clipped window is geometrically convergent.
    """
    A = np.atleast_1d(np.asarray(A, float))
    s = np.atleast_1d(np.asarray(s, float))
    root_b = np.exp(-0.5 * s)
    centre = -0.5 * s
    spread = np.arccosh(1.0 + 50.0 / (2.0 * lam * root_b))
    spread = np.maximum(spread, 1e-3)
    lo = np.maximum(-X, centre - spread)
    hi = np.minimum(X, centre + spread)
    frac = np.linspace(0.0, 1.0, inner_m + 1)
    x = lo[:, None] + (hi - lo)[:, None] * frac[None, :]
    f = -lam * (A[:, None] + np.exp(x) + np.exp(-s[:, None] - x))
    w = _simpson_weights(inner_m)
    peak = f.max(axis=1)
    vals = peak + np.log(np.exp(f - peak[:, None]) @ w) + np.log((hi - lo) / (3.0 * inner_m))
    return vals


def _doubling_simpson_ln(f_vec, lo, hi, rel_tol, max_segments=1 << 14):
    """ln integral of exp(f) on [lo, hi] by node-reusing doubling Simpson.

    f_vec maps an array of abscissas to an array of ln-integrand values.
    Accepts once the Richardson error estimate |S_2m - S_m|/15 drops below
    rel_tol (an absolute tolerance on the ln value, i.e. relative on the
    integral) and returns the finer estimate.
    """
    m = 32
    x = np.linspace(lo, hi, m + 1)
    fx = np.asarray(f_vec(x), float)
    prev = _lse(fx, _simpson_weights(m)) + math.log((hi - lo) / (3.0 * m))
    while True:
        mid = 0.5 * (x[:-1] + x[1:])
        fmid = np.asarray(f_vec(mid), float)
        x2 = np.empty(2 * m + 1)
        f2 = np.empty(2 * m + 1)
        x2[0::2], x2[1::2] = x, mid
        f2[0::2], f2[1::2] = fx, fmid
        m *= 2
        x, fx = x2, f2
        cur = _lse(fx, _simpson_weights(m)) + math.log((hi - lo) / (3.0 * m))
        if abs(cur - prev) / 15.0 <= rel_tol:
            return cur
        if m >= max_segments:
            raise RuntimeError("quadrature did not reach the requested tolerance")
        prev = cur


def _box_half_width(n: int, lam: float, tol: float) -> float:
    """Half width X of the box truncation [-X, X]^{n-1} for the hyperplane integral.

    X is chosen so that lambda * exp(X / (n-1)) >= ln(1/tol) + n X + margin,
    which implies the cruder sufficient condition lambda e^X >= ln(1/tol) + n X:
    outside the box either some coordinate exceeds X directly or the zero-sum
    constraint forces the remaining coordinates above X/(n-1) on average.
    """
    X = 5.0
    target = lam * n + math.log(1.0 / tol)
    for _ in range(200):
        X_new = (n - 1.0) * math.log((target + n * X + 12.0) / lam)
        if abs(X_new - X) < 1e-9:
            break
        X = X_new
    X = max(X, 3.0)
    assert lam * math.exp(X) >= math.log(1.0 / tol) + n * X
    return X


def fn_quadrature(n: int, lam: float, tol: float = 1e-9) -> OracleResult:
    """Brute-force ln F_n by nested one-dimensional quadrature, n in {2, 3, 4}.

    Integrates exp(-lambda (sum_{k<n} e^{x_k} + e^{-sum x_k})) over the
    truncated box, innermost dimension vectorised, all accumulation in log
    space with max shift.  Level tolerances are tol / 3^depth.  Each level
    is windowed by an analytic negligibility bound (regions where a single
    exponential term already exceeds the whole error budget are dropped),
    which is what keeps the n = 4 case fast.
    """
    if not isinstance(n, (int, np.integer)) or not 2 <= n <= 4:
        raise ValueError("fn_quadrature supports integer n in [2, 4]")
    lam = _check_lambda(lam)
    if not 1e-12 <= tol <= 1e-3:
        raise ValueError("tol must lie in [1e-12, 1e-3]")
    X = _box_half_width(n, lam, tol)
    # negligibility threshold relative to the peak value exp(-lambda n)
    budget = lam * n + math.log(1.0 / tol) + 35.0

    if n == 2:
        val = float(_inner_slab(lam, 0.0, 0.0, X)[0])
        return OracleResult(LogValue(val), tol + 1e-12, Method.QUADRATURE)

    hi_single = min(X, math.log(budget / lam))

    if n == 3:
        lo1 = max(-X, -2.0 * math.log(budget / (2.0 * lam)))
        val = _doubling_simpson_ln(
            lambda x1: _inner_slab(lam, np.exp(x1), x1, X),
            lo1, hi_single, tol / 3.0,
        )
        return OracleResult(LogValue(val), tol + 1e-12, Method.QUADRATURE)

    # n == 4: scalar outer loop, vectorised middle + inner
    lo1 = max(-X, -3.0 * math.log(budget / (3.0 * lam)))

    def outer(x1_arr):
        out = np.empty_like(x1_arr)
        for i, x1 in enumerate(x1_arr):
            lo2 = max(-X, -x1 - 2.0 * math.log(budget / (2.0 * lam)))
            if lo2 >= hi_single:
                out[i] = -np.inf
                continue
            e1 = math.exp(x1)
            out[i] = _doubling_simpson_ln(
                lambda x2: _inner_slab(lam, e1 + np.exp(x2), x1 + x2, X),
                lo2, hi_single, tol / 9.0,
            )
        return out

    val = _doubling_simpson_ln(outer, lo1, hi_single, tol / 3.0)
    return OracleResult(LogValue(val), tol + 1e-12, Method.QUADRATURE)


# ---------------------------------------------------------------------------
# inverse Mellin contour
# ---------------------------------------------------------------------------


# The contour line is cut at the first T = T0 * 1.5^k at which the
# integrand has dropped below e^-_LN_EPS of the peak, and the first step aims
# at a discretisation error of e^-_LN_EPS too.  The candidates are tried
# in batches of _EDGE_CANDIDATES, one ln Gamma array call per batch.  The
# first batch covers every lambda from the smallest positive double up to
# 1e18 for n <= 1e6; beyond that rounding in phi swamps the decay and later
# batches may be needed, up to 200 candidates in all.
# The trapezoid on the half line [0, T] starts with at least _MIN_INTERVALS
# intervals and halves h up to _MAX_INTERVALS (16 001 nodes on the full line).
_LN_EPS = math.log(1e14)
_EDGE_CANDIDATES = 25
_EDGE_BATCHES = 8
_MIN_INTERVALS = 50
_MAX_INTERVALS = 8000


def fn_contour(n: int, lam: float) -> OracleResult:
    """ln F_n by trapezoid on the vertical Mellin inversion line.

    With phi(t) = ln Gamma(gamma + it) - (gamma + it) ln lambda,

        F_n(lambda) = (1/2 pi) int_{-T}^{T} exp(n phi(t)) dt.

    Re phi is maximal at t = 0, so after shifting by n phi(0) exponentials
    overflow only through rounding in phi.

    The line passes through the saddle abscissa gamma and is cut at the
    first T of T0 * 1.5^k, T0 = 8 / sqrt(n sigma), at which the integrand
    has dropped below 1e-14 of the peak (one array call per batch of 25
    candidates).  The integrand is conjugate symmetric, so only [0, T] is
    summed and the imaginary part vanishes.  The trapezoid error on a line
    at distance gamma from the pole of Gamma at s = 0 is about
    exp(-2 pi gamma / h) (Trefethen & Weideman, SIAM Rev. 56, 2014), so h
    starts at min(T/50, 2 pi gamma / ln 1e14), but not below T/4000, and is
    halved, reusing every node, until the halving difference of ln S is at
    most 1e-13 (1 + |n phi(0)|) plus a rounding floor
    1e-15 n (1 + |phi(0)| + gamma |ln lambda|), or h reaches T/8000.  The
    error claim is the last halving difference + exp(-2 pi gamma / h) +
    10 x (integrand at T) + 1e-12 (1 + |ln F|).

    Raises RuntimeError when no candidate T truncates the integrand, and
    when the running trapezoid sum is not finite and positive (at large
    n lambda, rounding in n phi can exceed the exp range).
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("fn_contour requires integer n >= 1")
    lam = _check_lambda(lam)
    ln_lam = math.log(lam)
    sol = solve_saddle(lam)
    gamma, phi0 = sol.gamma, sol.ln_L

    def integrand(t):
        """Re exp(n (phi(t) - phi(0))) at the nodes t; overflow is refused by ln_sum."""
        z = gamma + 1j * t
        with np.errstate(over="ignore"):
            return np.exp(n * (ln_gamma_complex(z) - z * ln_lam - phi0)).real

    def ln_sum(acc, h):
        """ln (acc h), refusing a trapezoid sum that is not finite and positive."""
        if not (math.isfinite(acc) and acc > 0.0):
            raise RuntimeError(
                f"contour sum is {acc!r} at n = {n}, lambda = {lam!r}: rounding in "
                "n (phi(t) - phi(0)) exceeds the exp range"
            )
        return math.log(acc * h)

    powers = np.arange(_EDGE_CANDIDATES)
    for batch in range(_EDGE_BATCHES):
        candidates = 8.0 / math.sqrt(n * sol.sigma) * 1.5 ** (powers + batch * powers.size)
        edges = n * (ln_gamma_complex(gamma + 1j * candidates).real - gamma * ln_lam - phi0)
        below = np.flatnonzero(edges < -_LN_EPS)
        if below.size:
            break
    else:
        raise RuntimeError("failed to truncate the contour integrand")
    T = float(candidates[below[0]])
    tail = math.exp(edges[below[0]])

    m = min(
        max(_MIN_INTERVALS, math.ceil(T * _LN_EPS / (2.0 * math.pi * gamma))),
        _MAX_INTERVALS // 2,
    )
    h = T / m
    u = integrand(np.arange(m + 1) * h)
    # trapezoid on [-T, T] by symmetry: u(0) + u(T) + 2 sum of the interior nodes
    acc = float(u[0] + u[-1] + 2.0 * np.sum(u[1:-1]))
    ln_s = ln_sum(acc, h)
    tol = 1e-13 * (1.0 + abs(n * phi0)) + 1e-15 * n * (1.0 + abs(phi0) + gamma * abs(ln_lam))
    while True:
        acc += 2.0 * float(np.sum(integrand((np.arange(m) + 0.5) * h)))
        h *= 0.5
        m *= 2
        ln_new = ln_sum(acc, h)
        diff, ln_s = abs(ln_new - ln_s), ln_new
        if diff <= tol or 2 * m > _MAX_INTERVALS:
            break
    ln_f = n * phi0 - math.log(2.0 * math.pi) + ln_s
    err = diff + math.exp(-2.0 * math.pi * gamma / h) + 10.0 * tail + 1e-12 * (1.0 + abs(ln_f))
    return OracleResult(LogValue(ln_f), err, Method.CONTOUR)


# c of the asymptotic route's O(1/n^2) error term.  Where t1 - t2 changes
# sign (lambda ~ 0.0944) the 1/n term vanishes; the deviation from the
# contour route there is 0.015-0.018 (|t1| + |t2|) / n^2 for n <= 40 and
# 0.028 (|t1| + |t2|) / n^2 at n = 1000, where the finite-difference error in
# t1 - t2 adds a 1/n part (3001 lambda in [0.05, 0.2]).
_ASYMPTOTIC_C = 0.1


def fn_saddle_asymptotic(n: int, lam: float) -> OracleResult:
    """Gaussian saddle-point estimate ln F_n ~ n ln L - (1/2) ln(2 pi n sigma).

    With t1 = psi'''/(8 sigma^2) and t2 = 5 psi''^2 / (24 sigma^3)
    (derivatives by central differences of trigamma), the next-order term is
    (t1 - t2)/n and the error claim is

        2 |t1 - t2| / n + c (|t1| + |t2|) / n^2 + 1e-10,  c = 0.1.

    The 1/n^2 term keeps the claim an upper bound near lambda ~ 0.0944,
    where t1 - t2 changes sign and the 1/n term alone falls to zero; c is
    more than three times the largest coefficient seen there.  Cross-oracle
    tests confirm the claim down to n = 1.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("fn_saddle_asymptotic requires integer n >= 1")
    lam = _check_lambda(lam)
    sol = solve_saddle(lam)
    ln_f = n * sol.ln_L - 0.5 * math.log(2.0 * math.pi * n * sol.sigma)
    step = 1e-3 * (1.0 + sol.gamma)
    psi2 = (trigamma(sol.gamma + step) - trigamma(sol.gamma - step)) / (2.0 * step)
    psi3 = (
        trigamma(sol.gamma + step) - 2.0 * sol.sigma + trigamma(sol.gamma - step)
    ) / (step * step)
    t1 = psi3 / (8.0 * sol.sigma**2)
    t2 = 5.0 * psi2**2 / (24.0 * sol.sigma**3)
    err = 2.0 * abs(t1 - t2) / n + _ASYMPTOTIC_C * (abs(t1) + abs(t2)) / n**2 + 1e-10
    return OracleResult(LogValue(ln_f), err, Method.ASYMPTOTIC)


def fn_montecarlo(n: int, lam: float, samples: int, seed: int) -> OracleResult:
    """Importance-sampling estimate of ln F_n with a seeded generator.

    Proposal: the projection of sqrt(v) * iid standard normals onto the
    zero-sum hyperplane (in-plane isotropic Gaussian), v = 1/lambda clipped
    to [0.05, 20] -- the Hessian of the integrand at its symmetric maximum.
    In coordinate space u = (x_1 .. x_{n-1}) the proposal covariance is
    v (I - J/n), with inverse (I + J)/v and determinant v^{n-1}/n, so
    u' (I+J) u / v = sum_k x_k^2 / v with x_n = -sum u.  The weights
    g/q are bounded (the integrand decays doubly exponentially in every
    in-plane direction), so the estimator has finite variance.  The error
    field is one standard error of the ln value (delta method).
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError("fn_montecarlo requires integer n >= 2")
    lam = _check_lambda(lam)
    if samples < 10_000:
        raise ValueError("fn_montecarlo requires samples >= 10^4")
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    v = min(max(1.0 / lam, 0.05), 20.0)
    z = rng.standard_normal((int(samples), int(n)))
    x = math.sqrt(v) * (z - z.mean(axis=1, keepdims=True))
    u = x[:, : n - 1]
    x_last = -u.sum(axis=1)
    ln_g = -lam * (np.exp(u).sum(axis=1) + np.exp(x_last))
    sq = (u * u).sum(axis=1) + x_last * x_last
    ln_q = -0.5 * ((n - 1) * math.log(2.0 * math.pi * v) - math.log(n)) - sq / (2.0 * v)
    w = ln_g - ln_q
    m = float(w.max())
    e = np.exp(w - m)
    ess = float(e.sum() ** 2 / np.sum(e * e))
    if ess < 100.0:
        raise RuntimeError(f"degenerate importance weights: effective sample size {ess:.1f}")
    mean = float(e.mean())
    ln_f = m + math.log(mean)
    se_ln = float(e.std(ddof=1)) / (mean * math.sqrt(samples))
    return OracleResult(LogValue(ln_f), se_ln, Method.MONTE_CARLO)


# ---------------------------------------------------------------------------
# the route table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Route:
    """The dimensions n_min <= n <= n_max a route covers, whether its value is
    exact (enters the cross-check deviation), and its call (n, lam, tol,
    samples, seed) -> OracleResult."""

    n_min: int
    n_max: float
    exact: bool
    call: Callable[[int, float, float, int, int], OracleResult]

    def covers(self, n) -> bool:
        return self.n_min <= n <= self.n_max


# The calls look their oracle up at call time, so rebinding a module-level
# oracle (as a tracer does) is seen through the table.
ROUTES: dict[Method, Route] = {
    Method.CLOSED_FORM: Route(
        1, 2, True, lambda n, lam, tol, samples, seed: (f1_exact if n == 1 else f2_exact)(lam)
    ),
    Method.QUADRATURE: Route(
        2, 4, True, lambda n, lam, tol, samples, seed: fn_quadrature(n, lam, tol)
    ),
    Method.CONTOUR: Route(
        1, math.inf, True, lambda n, lam, tol, samples, seed: fn_contour(n, lam)
    ),
    Method.MONTE_CARLO: Route(
        2, math.inf, False,
        lambda n, lam, tol, samples, seed: fn_montecarlo(n, lam, samples, seed),
    ),
    Method.ASYMPTOTIC: Route(
        1, math.inf, False, lambda n, lam, tol, samples, seed: fn_saddle_asymptotic(n, lam)
    ),
}


def evaluate(
    method: Method | str,
    n: int,
    lam: float,
    tol: float = 1e-9,
    samples: int = 100_000,
    seed: int = 0,
) -> OracleResult:
    """ln F_n(lambda) by one route of ``ROUTES``.

    ``tol`` goes to quadrature, ``samples`` and ``seed`` to Monte Carlo.
    Raises ValueError for an unknown method or an n the route does not cover.
    """
    try:
        method = Method(method)
    except ValueError:
        raise ValueError(f"unknown method {method!r}") from None
    route = ROUTES[method]
    if not route.covers(n):
        raise ValueError(
            f"the {method.value} route covers n in [{route.n_min}, {route.n_max}], got n = {n}"
        )
    return route.call(n, lam, tol, samples, seed)


def cross_check(
    n: int, lam: float, tol: float = 1e-9, samples: int = 0, seed: int = 0
) -> tuple[dict[Method, OracleResult], dict[Method, str], float]:
    """Every route covering n, Monte Carlo only when samples > 0, in ``ROUTES``
    order.

    Returns the results of the routes that ran, the message of each route
    that refused (raised ValueError or RuntimeError), and the largest
    pairwise deviation among the exact results.  Raises ValueError when no
    exact route ran.
    """
    lam = _check_lambda(lam)
    results: dict[Method, OracleResult] = {}
    refusals: dict[Method, str] = {}
    for method, route in ROUTES.items():
        if not route.covers(n) or (method is Method.MONTE_CARLO and samples <= 0):
            continue
        try:
            results[method] = route.call(n, lam, tol, samples, seed)
        except (ValueError, RuntimeError) as exc:
            refusals[method] = str(exc)
    exact = [res.value.ln_value for method, res in results.items() if ROUTES[method].exact]
    if not exact:
        refused = [f"{m.value}: {msg}" for m, msg in refusals.items() if ROUTES[m].exact]
        raise ValueError(
            "every exact route refused: " + "; ".join(refused)
            if refused else f"no exact route covers n = {n}"
        )
    return results, refusals, max(abs(a - b) for a in exact for b in exact)


def _check_lambda(lam) -> float:
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 0.0:
        raise ValueError("lambda must be a finite positive real")
    return lam

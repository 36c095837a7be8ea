"""Independent evaluators of ln F_n(lambda), pairwise cross-checking.

F_n(lambda) is the integral of exp(-lambda sum_k e^{x_k}) over the
hyperplane sum_k x_k = 0, in the coordinate normalisation that integrates
out x_n (so F_1(lambda) = e^{-lambda}).  Four routes compute its log:

* closed forms for n = 1 and n = 2 (F_2 = 2 K0(2 lambda));
* for n in {2, 3, 4}, the hyperplane trapezoid as one tilted FFT convolution;
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
    2 K0(2 lambda).  The claim max(1e-10, 5e-16 |ln F|) covers rounding.
    """
    lam = _check_lambda(lam)
    ln_f = math.log(2.0) + bessel_k0(2.0 * lam).ln_value
    return OracleResult(LogValue(ln_f), max(1e-10, 5e-16 * abs(ln_f)), Method.CLOSED_FORM)


# ---------------------------------------------------------------------------
# tilted quadrature
# ---------------------------------------------------------------------------


# 1/k! for k = 17..2: e^u - 1 - u = u^2 polyval(_EXCESS_POLY, u) to 1e-19 for |u| < 1/2
_EXCESS_POLY = [1.0 / math.factorial(k) for k in range(17, 1, -1)]
_MAX_NODES = 1 << 19


def _exp_excess(u):
    """e^u - 1 - u of an array, without cancellation near u = 0."""
    return np.where(np.abs(u) < 0.5, u * u * np.polyval(_EXCESS_POLY, u), np.expm1(u) - u)


def fn_quadrature(n: int, lam: float, tol: float = 1e-9) -> OracleResult:
    """ln F_n, n in {2, 3, 4}, by one tilted trapezoid convolution.

    e^{gamma sum x} = 1 on the hyperplane, so for any gamma > 0, with
    d = ln(gamma/lambda), u = x - d and q(u) = exp(-gamma (e^u - 1 - u)),
    ln F_n = n (gamma d - gamma) + ln (q^{*n})(-n d): the grand-canonical
    product measure conditioned on sum x = 0.  gamma is a closed-form saddle
    guess, so no special function is called.  On the grid u = -d + k h, cut
    where q = tol e^-10, the trapezoid is an rfft power and a dot product; h
    halves from min(1/4, 1/(2 sqrt gamma)) until two estimates agree within
    tol.  err_ln = that difference + n tol e^-10 (tails) + 1e-14 (1 + |ln F|)
    (rounding).  Raises RuntimeError when the grid needs over 2^19 nodes.
    """
    if not isinstance(n, (int, np.integer)) or not 2 <= n <= 4:
        raise ValueError("fn_quadrature supports integer n in [2, 4]")
    lam = _check_lambda(lam)
    if not 1e-12 <= tol <= 1e-3:
        raise ValueError("tol must lie in [1e-12, 1e-3]")
    ln_lam = math.log(lam)
    # the guesses of saddle.inverse_digamma; d keeps lambda e^d = gamma to
    # rounding, as an error delta there moves ln F by about n gamma delta
    large = ln_lam >= -2.22
    gamma = lam + 0.5 if large else -1.0 / (ln_lam + np.euler_gamma)
    d = math.log1p(0.5 / lam) if large else math.log(gamma) - ln_lam
    # the window edges solve gamma (e^u - 1 - u) = ln(1/tol) + 10 by Newton,
    # which stays outside the roots from starts outside them: e^u - 1 - u is
    # >= -1 - u, >= u^2/(2e) on [-1, 0], >= u^2/2 on u >= 0, >= a at ln(1 + 2a), a >= 2
    a = (math.log(1.0 / tol) + 10.0) / gamma
    left = -math.sqrt(2.0 * math.e * a) if 2.0 * math.e * a <= 1.0 else -1.0 - a
    edges = np.array([left, math.log1p(2.0 * a) if a >= 2.0 else math.sqrt(2.0 * a)])
    for _ in range(8):
        edges -= (_exp_excess(edges) - a) / np.expm1(edges)
    h, ln_prev = min(0.25, 0.5 / math.sqrt(gamma)), math.nan
    while True:
        k_lo, k_hi = math.ceil((edges[0] + d) / h), math.floor((edges[1] + d) / h)
        if k_hi - k_lo >= _MAX_NODES:
            raise RuntimeError("quadrature did not reach the requested tolerance")
        q = np.exp(-gamma * _exp_excess(np.arange(k_lo, k_hi + 1) * h - d))
        # n - 1 factors, then the last; no wrap-around, and node k = 0 is at -k_lo
        size = 1 << (n * (q.size - 1)).bit_length()
        head = np.fft.irfft(np.fft.rfft(q, size) ** (n - 1), size)
        conv = np.dot(head[(-n * k_lo - np.arange(q.size)) % size], q)
        ln_i = math.log(conv) + (n - 1) * math.log(h)
        diff = abs(ln_i - ln_prev)
        if diff <= tol:
            break
        ln_prev, h = ln_i, 0.5 * h
    ln_f = n * (gamma * d - gamma) + ln_i
    err = diff + n * tol * math.exp(-10.0) + 1e-14 * (1.0 + abs(ln_f))
    return OracleResult(LogValue(ln_f), err, Method.QUADRATURE)


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
        # |z| > 1e154 overflows z * z in the series: not finite, never the edge
        with np.errstate(over="ignore", invalid="ignore"):
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
    # scaling by 2^k is exact and keeps sigma^3 from underflowing past lambda ~ 1e108
    k = -math.frexp(sol.sigma)[1]
    sigma = math.ldexp(sol.sigma, k)
    t1 = math.ldexp(psi3, 2 * k) / (8.0 * sigma**2)
    t2 = math.ldexp(5.0 * math.ldexp(psi2, 2 * k) ** 2 / (24.0 * sigma**3), -k)
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

"""Independent evaluators of ln F_n(lambda), pairwise cross-checking.

F_n(lambda) is the integral of exp(-lambda sum_k e^{x_k}) over the
hyperplane sum_k x_k = 0, in the coordinate normalisation that integrates
out x_n (so F_1(lambda) = e^{-lambda}).  Four routes compute its log:

* closed forms for n = 1 and n = 2 (F_2 = 2 K0(2 lambda));
* for n in [2, 1000], the hyperplane trapezoid on one periodic tilted lattice;
* the inverse Mellin contour integral (any n), trapezoid on the vertical
  line through the saddle abscissa, its step halved from
  min(T/50, 2 pi gamma / ln 1e14) until the value settles;
* the saddle-point expansion through 1/n^2 (any n);

plus a seeded Monte Carlo estimator (n <= 1000).  Quadrature and Monte Carlo
read F_n as the grand-canonical product measure conditioned on sum x = 0.
``ROUTES`` records which n each route covers and whether its value is exact;
``evaluate`` and ``cross_check`` are the only dispatchers over it.

The contour route uses F_n(lambda) = (1/2 pi) int Gamma(gamma+it)^n
lambda^{-n(gamma+it)} dt.  The 1/(2 pi) normalisation (with no extra 1/n)
is forced by the Mellin pair int_0^inf n F_n(lambda) lambda^{ns-1} dlambda
= Gamma(s)^n: substituting u = lambda^n shows G(u) = F_n(u^{1/n}) has plain
Mellin transform Gamma(s)^n.  The n = 1 and n = 2 closed forms confirm the
normalisation to machine precision, and the same closed forms fix the
saddle-point prefactor to 1/sqrt(2 pi n sigma):  at large lambda
F_2 ~ sqrt(pi/lambda) e^{-2 lambda} and L^2/sqrt(4 pi sigma) reproduces it
exactly with sigma ~ 1/lambda.
"""

from __future__ import annotations

import enum
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .logvalue import LogValue
from .saddle import SaddleSolution, solve_saddle
from .specfun import _ln_gamma_line, _positive, _psi2_to_psi5, bessel_k0, digamma


class Method(str, enum.Enum):
    """How a ln F_n value was obtained."""

    CLOSED_FORM = "closed-form"
    QUADRATURE = "quadrature"
    CONTOUR = "contour"
    MONTE_CARLO = "monte-carlo"
    ASYMPTOTIC = "asymptotic"


@dataclass(frozen=True)
class OracleResult:
    """A ln F_n estimate, an upper-bound claim on its absolute error, and its route.

    ``slope`` is d ln F_n / d ln lambda where the route computes it (the
    contour), else None.
    """

    value: LogValue
    err_ln: float
    method: Method
    slope: float | None = None


def f1_exact(lam: float) -> OracleResult:
    """ln F_1(lambda) = -lambda: the hyperplane for n = 1 is the point x = 0."""
    lam = _positive(lam, "lambda")
    return OracleResult(LogValue(-lam), 5e-16 * (1.0 + lam), Method.CLOSED_FORM)


def f2_exact(lam: float) -> OracleResult:
    """ln F_2(lambda) = ln 2 + ln K0(2 lambda).

    With x_2 = -x_1 the integrand is exp(-lambda (e^x + e^-x)) =
    exp(-2 lambda cosh x), and the even integral over the line is
    2 K0(2 lambda).  The claim max(1e-10, 5e-16 |ln F|) covers rounding.
    """
    lam = _positive(lam, "lambda")
    ln_f = math.log(2.0) + bessel_k0(2.0 * lam).ln_value
    return OracleResult(LogValue(ln_f), max(1e-10, 5e-16 * abs(ln_f)), Method.CLOSED_FORM)


# ---------------------------------------------------------------------------
# tilted quadrature
# ---------------------------------------------------------------------------


# 1/k! for k = 17..2: e^u - 1 - u = u^2 (Horner in _EXCESS_POLY at u) to 1e-19 for |u| < 1/2
_EXCESS_POLY = [1.0 / math.factorial(k) for k in range(17, 1, -1)]
_MAX_NODES = 1 << 19


def _exp_excess(u):
    """e^u - 1 - u of an array, without cancellation near u = 0.

    expm1(u) - u everywhere, then u^2 times the Taylor polynomial on the
    |u| < 1/2 elements only, gathered and scattered by integer index (the
    polynomial alone where every |u| < 1/2): bit for bit np.where(|u| < 1/2,
    u * u * np.polyval(_EXCESS_POLY, u), expm1(u) - u), whose Horner starts
    from 0 u + c_0 = c_0, so its first step is u c_0 + c_1."""
    small = np.abs(u) < 0.5
    if small.all():
        return _excess_poly(u)
    out = np.expm1(u)
    out -= u
    idx = small.nonzero()
    out[idx] = _excess_poly(u[idx])
    return out


def _excess_poly(x):
    """x^2 times the Horner sum of _EXCESS_POLY at x, without writing to x."""
    y = x * _EXCESS_POLY[0]
    y += _EXCESS_POLY[1]
    for c in _EXCESS_POLY[2:]:
        y *= x
        y += c
    y *= x * x
    return y


def _ln_lattice_sum(n: int, q, h: float) -> float:
    """ln h^(n-1) (q^{*n})(0) on an even-size circle, node k h at index k mod size."""
    s = float(q.sum())  # p = q / s has |phi| <= 1, so phi^n cannot overflow
    y = (np.fft.rfft(q / s) ** n).real
    return n * math.log(h * s) - math.log(h) + math.log((2.0 * y.sum() - y[0] - y[-1]) / q.size)


@np.errstate(over="ignore")
def fn_quadrature(n: int, lam: float, tol: float = 1e-9) -> OracleResult:
    """ln F_n, n >= 2, as the density at 0 of a tilted sum on one periodic lattice.

    e^{gamma sum x} = 1 on the hyperplane, so for any gamma > 0, with
    d = ln(gamma/lambda) and q(u) = exp(-gamma (e^u - 1 - u)), F_n is
    e^{n (gamma d - gamma)} (int q)^n times the density at 0 of a sum of n
    draws from q(x - d) / int q: one rfft on the nodes k h, k in [-K, K).
    gamma takes Newton steps from a closed-form saddle guess until the lattice
    mean mu has n mu^2 <= 1e-6 var; h halves from min(1/4, 1/(2 sqrt gamma))
    until the step-2h estimate agrees within tol.  err_ln = that difference +
    n tol e^-10 + 1e-14 (1 + |ln F|) + 1e-15 n.  Raises RuntimeError past the
    2^19-node cap (``ROUTES`` stops at n = 1000, where lambda in [1e-20, 1e8]
    stays under it), ValueError where ln F_n < -max float."""
    n = _check_n(n, 2, "fn_quadrature")
    lam = _positive(lam, "lambda")
    tol = _positive(tol, "tol")
    if not 1e-12 <= tol <= 1e-3:
        raise ValueError("tol must lie in [1e-12, 1e-3]")
    ln_lam = math.log(lam)
    # saddle.inverse_digamma's guesses; lambda e^d = gamma holds to rounding
    large = ln_lam >= -2.22
    gamma = lam + 0.5 if large else -1.0 / (ln_lam + np.euler_gamma)
    d = math.log1p(0.5 / lam) if large else math.log(gamma) - ln_lam
    m, h = math.log(1.0 / tol) + 10.0, min(0.25, 0.5 / math.sqrt(gamma))
    while True:
        # half-period: reach of the sum (psi'(gamma) < 1/gamma + 1/gamma^2), left tail, pad
        half = max(math.sqrt(2.0 * n * (1.0 / gamma + gamma**-2) * m), m / gamma + max(d, 0.0))
        k = 1 << math.ceil(math.log2((half + 8.0 * min(gamma**-0.5, 1.0)) / h))
        if 2 * k > _MAX_NODES:
            raise RuntimeError("quadrature did not reach the requested tolerance")
        # node i h sits at index i mod 2K; moments in units of h cannot underflow
        i = (np.arange(2 * k) + k) % (2 * k) - k
        q = np.exp(-gamma * _exp_excess(h * i - d))
        mu = float((q * i).sum()) / float(q.sum())
        var = float((q * (i - mu) ** 2).sum()) / float(q.sum())
        if n * mu * mu > 1e-6 * var:
            step = -mu / (var * h)  # Newton: d mu / d gamma = lattice variance
            gamma, d = gamma + step, d + math.log1p(step / gamma)
            continue
        ln_i, ln_2h = _ln_lattice_sum(n, q, h), _ln_lattice_sum(n, q[::2], 2.0 * h)
        diff = abs(ln_i - ln_2h)
        if diff <= tol:
            break
        h *= 0.5
    ln_f = n * (gamma * d - gamma) + ln_i
    if not math.isfinite(ln_f):
        raise ValueError(f"ln F_n is below -max float at n = {n}, lambda = {lam!r}")
    err = diff + n * tol * math.exp(-10.0) + 1e-14 * (1.0 + abs(ln_f)) + 1e-15 * n
    return OracleResult(LogValue(ln_f), err, Method.QUADRATURE)


# ---------------------------------------------------------------------------
# inverse Mellin contour
# ---------------------------------------------------------------------------


# The contour line is cut at the first T = T0 * 1.5^k, k = 1 .. _EDGE_CANDIDATES - 1,
# at which a lower bound on the drop of the integrand proves it below
# e^-_LN_EPS of the peak, and the first step aims at a discretisation error of
# e^-_LN_EPS too.  |Gamma(gamma + iT) / Gamma(gamma)|^2 is the product of
# 1 / (1 + T^2 / (gamma + j)^2) over j >= 0 (DLMF 5.8.3); its first
# _EXACT_TERMS factors and an integral bound on the rest give that lower
# bound before D is evaluated, and one call of D then takes the edge with the
# first level's nodes.  The claim adds 10 x the integrand at the edge, so it
# covers an edge the bound picks late.  25 candidates covered every probed
# (n, lambda), n up to 1e6 and lambda from 5e-324 to 1e305.
# The trapezoid on the half line [0, T] starts with at least _MIN_INTERVALS
# intervals and halves h up to _MAX_INTERVALS (16 001 nodes on the full line).
_LN_EPS = math.log(1e14)
_EDGE_CANDIDATES = 25
_EXACT_TERMS = 4
_MIN_INTERVALS = 50
_MAX_INTERVALS = 8000


def _drop_bound(gamma: float, T: float) -> float:
    """A lower bound on S(T) = -2 Re (ln Gamma(gamma + iT) - ln Gamma(gamma)).

    S(T) = sum_{j >= 0} log1p(T^2 / (gamma + j)^2) (DLMF 5.8.3).  The first
    _EXACT_TERMS terms are summed; the rest decrease in j, so they exceed
    R(gamma + _EXACT_TERMS), with R(y) = int_y^inf log1p(T^2 / x^2) dx =
    2 T atan(T / y) - y log1p(T^2 / y^2), a form that does not cancel when
    T << y."""
    head = 0.0
    for j in range(_EXACT_TERMS):
        x = T / (gamma + j)
        head += math.log1p(x * x)
    y = gamma + _EXACT_TERMS
    x = T / y
    return head + 2.0 * T * math.atan(x) - y * math.log1p(x * x)


def _edge(n: int, gamma: float, t0: float) -> float | None:
    """The first T = t0 1.5^k, k = 1 .. _EDGE_CANDIDATES - 1, at which ``_drop_bound``
    proves the contour integrand below e^-_LN_EPS of its peak, n S(T) / 2 > _LN_EPS,
    else None.

    k = 0, T0 = 8 / sqrt(n sigma), never passes: log1p(x) <= x gives
    n S(T0) / 2 <= n sigma T0^2 / 2 = 32 < _LN_EPS."""
    need = 2.0 * _LN_EPS / n
    for k in range(1, _EDGE_CANDIDATES):
        T = t0 * 1.5**k
        if _drop_bound(gamma, T) > need:
            return T
    return None


def fn_contour(n: int, lam: float) -> OracleResult:
    """ln F_n by trapezoid on the vertical Mellin inversion line.

    With phi(t) = ln Gamma(gamma + it) - (gamma + it) ln lambda,

        F_n(lambda) = (1/2 pi) int_{-T}^{T} exp(n phi(t)) dt,

    and n (phi(t) - phi(0)) = n (D(t) + it (psi(gamma) - ln lambda)), where
    D(t) = ln Gamma(gamma + it) - ln Gamma(gamma) - it psi(gamma) comes from
    ``specfun._ln_gamma_line``: real arithmetic with no large term, so n D
    carries no rounding of n phi(0).  Re D is maximal at t = 0, where it is
    0, so exponentials overflow at no node.  phi(0) = ln Gamma(gamma) -
    gamma ln lambda is ``solve_saddle``'s ln L, the n ln L that
    ``_ln_l_rounding`` bounds; the route makes no ln Gamma call of its own.

    The line passes through the saddle abscissa gamma and is cut at the
    first T of T0 * 1.5^k, k = 1 .. 24, T0 = 8 / sqrt(n sigma), at which a
    lower bound on the drop of |Gamma(gamma + iT) / Gamma(gamma)| from its
    product form (``_edge``) proves the integrand below 1e-14 of the peak,
    n Re D(T) < -ln 1e14, before any D call; one call then evaluates D at T
    and the first level's nodes.  The integrand is conjugate symmetric, so
    only [0, T] is summed and the imaginary part vanishes.  The trapezoid
    error on a line at distance gamma from the pole of Gamma at s = 0 is about
    exp(-2 pi gamma / h) (Trefethen & Weideman, SIAM Rev. 56, 2014), so h
    starts at min(T/50, 2 pi gamma / ln 1e14), but not below T/4000, and is
    halved, reusing every node, until the halving difference of ln S is at
    most 1e-13 (1 + |n phi(0)|) plus the error of n phi(0) = n ln L
    (``_ln_l_rounding``), or h reaches T/8000.  The error claim is the last
    halving difference + exp(-2 pi gamma / h) + 10 x (integrand at T) +
    1e-12 (1 + |ln F|) + that error of n ln L.

    The same nodes give the slope: differentiating under the integral brings
    down -n (gamma + it), and t Im exp(n phi(t)) is odd, so
    d ln F_n / d ln lambda = -n (gamma - sum t Im I(t) / sum Re I(t)) over
    the trapezoid's nodes, I(t) = exp(n (phi(t) - phi(0))).

    Raises RuntimeError where n phi(0), and so ln F_n, is not a finite
    double, when no candidate T truncates the integrand, and when the
    running trapezoid sum is not finite and positive.
    """
    n = _check_n(n, 1, "fn_contour")
    lam = _positive(lam, "lambda")
    ln_lam = math.log(lam)
    sol = solve_saddle(lam)
    gamma = sol.gamma
    phi0 = sol.ln_L
    if not math.isfinite(n * phi0):
        raise RuntimeError(f"n ln L is not a finite double at n = {n}, lambda = {lam!r}")
    drift = digamma(gamma) - ln_lam  # the saddle equation's residual, below 1e-13

    def integrand(t, v=None):
        """exp(n (phi(t) - phi(0))) = exp(n (D(t) + it (psi(gamma) - ln lambda))) at the
        nodes t, in place; overflow is refused by ln_sum.

        ``v`` holds D(t) where a caller has computed it; it is overwritten."""
        if v is None:
            v = _ln_gamma_line(gamma, t)
        v.imag += t * drift
        v *= n
        with np.errstate(over="ignore"):
            return np.exp(v, out=v)

    def ln_sum(acc, h):
        """ln (acc h), refusing a trapezoid sum that is not finite and positive."""
        if not (math.isfinite(acc) and acc > 0.0):
            raise RuntimeError(
                f"contour sum is {acc!r} at n = {n}, lambda = {lam!r}, not finite and positive"
            )
        return math.log(acc * h)

    def first_level(T):
        """m and h of the first level, and its m + 1 nodes followed by its m
        midpoints: the loop below always halves at least once."""
        m = min(
            max(_MIN_INTERVALS, math.ceil(T * _LN_EPS / (2.0 * math.pi * gamma))),
            _MAX_INTERVALS // 2,
        )
        h = T / m
        nodes = np.arange(2 * m + 1) * (0.5 * h)  # (2i + 1) h/2 is (i + 1/2) h to the bit
        return m, h, np.concatenate((nodes[::2], nodes[1::2]))

    T = _edge(n, gamma, 8.0 / math.sqrt(n * sol.sigma))
    if T is None:
        raise RuntimeError(f"failed to truncate the contour integrand at n = {n}, "
                           f"lambda = {lam!r}")
    m, h, t = first_level(T)
    values = _ln_gamma_line(gamma, np.concatenate(([T], t)))
    tail = math.exp(n * values[0].real)
    v = integrand(t, values[1:])

    u, w = v.real, v.imag
    # trapezoid on [-T, T] by symmetry: u(0) + u(T) + 2 sum of the interior
    # nodes; t v(t) is odd in Re, so its sum is i (T w(T) + 2 sum t w(t))
    acc = float(u[0] + u[m] + 2.0 * u[1:m].sum())
    ln_s = ln_sum(acc, h)
    t_acc = float(t[m] * w[m] + 2.0 * (t[1:m] * w[1:m]).sum())
    rounding = _ln_l_rounding(n, sol)
    tol = 1e-13 * (1.0 + abs(n * phi0)) + rounding
    t, u, w = t[m + 1:], u[m + 1:], w[m + 1:]
    while True:
        acc += 2.0 * float(u.sum())
        h *= 0.5
        m *= 2
        ln_new = ln_sum(acc, h)
        t_acc += 2.0 * float((t * w).sum())
        diff, ln_s = abs(ln_new - ln_s), ln_new
        if diff <= tol or 2 * m > _MAX_INTERVALS:
            break
        t = np.arange(1, 2 * m, 2) * (0.5 * h)
        v = integrand(t)
        u, w = v.real, v.imag
    ln_f = n * phi0 - math.log(2.0 * math.pi) + ln_s
    err = (diff + math.exp(-2.0 * math.pi * gamma / h) + 10.0 * tail + 1e-12 * (1.0 + abs(ln_f))
           + rounding)
    return OracleResult(LogValue(ln_f), err, Method.CONTOUR, -n * (gamma - t_acc / acc))


# C of the asymptotic route's claim C rho^6 / n^3.  n^3 |deviation| / rho^6
# from 40-digit references (closed forms at n = 1, 2; the contour integral at
# n = 3, 10, 40; 97 lambda in [1e-20, 1e4]) rose to 2.38e-4 as lambda -> inf,
# where the deviation tends to 1/(36 gamma^3 n^3); it was 2e-6 to 1e-4 below
# lambda = 10.
_REMAINDER_C = 4e-4


def _ln_l_rounding(n: int, sol: SaddleSolution) -> float:
    """The one bound on the error of n ln L, 1e-15 n (1 + |ln L| + 2 gamma |ln lambda|)
    + 1e-14 n.  ln L = ln Gamma(gamma) - gamma ln lambda cancels at large lambda
    (n ln L was 4.6e186 off at n = 3, lambda = 1e200).  The 1e-14 n term covers the
    absolute error of ln Gamma(gamma), which ``ln_gamma`` keeps within 2.3e-16
    max(1, |ln Gamma|) below 10: it is larger than that needs, and stays until a
    smaller bound is measured against reference values.  The first term is formed as
    4e-15 n (0.25 + 0.25 |ln L| + 0.5 gamma |ln lambda|): scaling by powers of two is
    exact, so it has the same bits, and it stays finite up to the last finite ln L."""
    rel = 4e-15 * n * (0.25 + 0.25 * abs(sol.ln_L) + 0.5 * sol.gamma * abs(math.log(sol.lam)))
    return rel + 1e-14 * n


def _check_n_ln_l(n: int, sol: SaddleSolution) -> None:
    """Refuse, naming n and lambda, where n ln L is not a finite double."""
    if not math.isfinite(n * sol.ln_L):
        raise ValueError(f"n ln L is not a finite double at n = {n}, lambda = {sol.lam!r}")


def fn_saddle_asymptotic(n: int, lam: float) -> OracleResult:
    """Saddle-point estimate of ln F_n through the 1/n^2 term (Daniels 1954).

    With the standardised cumulants lambda_j = psi^(j-1)(gamma) / sigma^(j/2),
    psi^(m) exact from their asymptotic series,

        ln F_n ~ n ln L - (1/2) ln(2 pi n sigma) + a/n + (b - a^2/2)/n^2,
        a = lambda_4/8 - 5 lambda_3^2/24,
        b = 385 lambda_3^4/1152 - 35 lambda_3^2 lambda_4/64 + 35 lambda_4^2/384
            + 7 lambda_3 lambda_5/48 - lambda_6/48,

    and the error claim is

        C rho^6 / n^3 + 1e-10 + r,  C = 4e-4,
        rho^2 = max(lambda_3^2, |lambda_4|, |lambda_5|^(2/3), |lambda_6|^(1/2)),

    r being the error of n ln L (``_ln_l_rounding``).  Every term of order
    1/n^3 is a weight-6 product of the lambda_j, so rho^6 sets its size; C is
    measured (``_REMAINDER_C``).  Cross-oracle tests confirm it from n = 1 to 1e5.
    """
    n = _check_n(n, 1, "fn_saddle_asymptotic")
    lam = _positive(lam, "lambda")
    sol = solve_saddle(lam)
    _check_n_ln_l(n, sol)
    psi2, psi3, psi4, psi5 = _psi2_to_psi5(sol.gamma)
    # sigma > 0 for every finite lambda; dividing by it and its root one at a
    # time, never by a power, keeps every lambda_j from a division by zero
    sigma, root = sol.sigma, math.sqrt(sol.sigma)
    l3 = psi2 / sigma / root
    l4 = psi3 / sigma / sigma
    l5 = psi4 / sigma / sigma / root
    l6 = psi5 / sigma / sigma / sigma
    a = l4 / 8.0 - 5.0 * l3 * l3 / 24.0
    b = (385.0 * l3**4 / 1152.0 - 35.0 * l3 * l3 * l4 / 64.0 + 35.0 * l4 * l4 / 384.0
         + 7.0 * l3 * l5 / 48.0 - l6 / 48.0)
    spread = 2.0 * math.pi * n * sigma  # inf at n = 1e303, lambda = 1e-300; its log is not
    ln_f = n * sol.ln_L - 0.5 * (math.log(spread) if spread < math.inf
                                 else math.log(2.0 * math.pi * sigma) + math.log(n))
    ln_f += (a + (b - 0.5 * a * a) / n) / n
    rho6 = max(l3 * l3, abs(l4), abs(l5) ** (2.0 / 3.0), math.sqrt(abs(l6))) ** 3
    # past n ~ 5.6e102, n^3 is no double (int / float would raise OverflowError)
    err = _REMAINDER_C * rho6 / min(n**3, sys.float_info.max) + 1e-10 + _ln_l_rounding(n, sol)
    return OracleResult(LogValue(ln_f), err, Method.ASYMPTOTIC)


_MONTE_CARLO_N_MAX = 1000
# the default sample count of ``evaluate`` and of the CLI's ``oracle``
_MONTE_CARLO_SAMPLES = 100_000
# samples per block of the draw and weight loops: S is the only array of length samples
_MONTE_CARLO_BLOCK = 1 << 14


def fn_montecarlo(n: int, lam: float, samples: int, seed: int) -> OracleResult:
    """Conditional Monte Carlo estimate of ln F_n with a seeded generator.

    e^{gamma sum x} = 1 on the hyperplane, so F_n = L^n E[p(-S)] for any
    gamma > 0 (an unbiased estimate of F_n for every gamma; the saddle gamma
    centres S): p is the density of X = ln Y - ln lambda, Y ~ Gamma(gamma),
    and S sums n - 1 draws of X from the grand-canonical product measure.
    ln Y is drawn as ln G(gamma + 1) + ln(U)/gamma so that small gamma cannot
    underflow; the n - 1 ln U sum to minus one Gamma(n - 1) draw.  The
    ln-weight of a sample is ln p(-S) + lambda + ln L = -gamma S - lambda
    expm1(-S), formed in four passes per block; it rounds within about
    2^-52 (lambda |expm1(-S)| + gamma |S|), of the order of the gamma |ln lambda|
    term of ``_ln_l_rounding`` and far below the standard error.  S is the only
    array of length samples: the draws and the weights go through it in
    blocks of 2^14 with one reused buffer of a block, and only the max, exp,
    mean and the standard error, formed in place, see it whole.  The traced
    peak is 1.08 x samples x 8 bytes at 2e5 samples and 1.02 x at 1e6 (S and
    the buffer).  Time is O(n samples), so n is capped at the route's 1000;
    err_ln is one standard error + the error of n ln L (``_ln_l_rounding``).
    """
    n = _check_n(n, 2, "fn_montecarlo")
    lam = _positive(lam, "lambda")
    samples = _check_n(samples, 10_000, "fn_montecarlo", "samples")
    seed = _check_n(seed, 0, "fn_montecarlo", "seed")
    sol = solve_saddle(lam)
    _check_n_ln_l(n, sol)
    if n > _MONTE_CARLO_N_MAX:
        raise ValueError(f"fn_montecarlo requires n <= {_MONTE_CARLO_N_MAX}, got n = {n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    # s holds -S, so that the weights need no negation pass
    s = rng.standard_gamma(n - 1.0, samples)
    s /= sol.gamma
    s += (n - 1) * math.log(lam)
    blocks = [s[i:i + _MONTE_CARLO_BLOCK] for i in range(0, samples, _MONTE_CARLO_BLOCK)]
    g = np.empty(blocks[0].size)
    # consecutive out= slices take the generator's values in the order of one
    # full-length draw, so every sample is that of the whole-array scheme
    for _ in range(n - 1):
        for b in blocks:
            x = g[:b.size]
            b -= np.log(rng.standard_gamma(sol.gamma + 1.0, out=x), out=x)
    # ln p(-S) + lambda + ln L = -gamma S - lambda expm1(-S) = gamma s - lambda
    # expm1(s), four passes per block; expm1(s) overflows to a weight 0
    with np.errstate(over="ignore"):
        for b in blocks:
            w = np.expm1(b, out=g[:b.size])
            w *= lam
            b *= sol.gamma
            b -= w
    m = float(s.max())
    s -= m
    e = np.exp(s, out=s)
    mean = float(e.mean())
    ln_f = (n - 1) * sol.ln_L - lam + m + math.log(mean)
    # e.std(ddof=1) in place: the operations of numpy's _var on this mean
    e -= mean
    np.square(e, out=e)
    se_ln = math.sqrt(float(e.sum()) / (samples - 1)) / (mean * math.sqrt(samples))
    return OracleResult(LogValue(ln_f), se_ln + _ln_l_rounding(n, sol), Method.MONTE_CARLO)


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
        2, 1000, True, lambda n, lam, tol, samples, seed: fn_quadrature(n, lam, tol)
    ),
    Method.CONTOUR: Route(
        1, math.inf, True, lambda n, lam, tol, samples, seed: fn_contour(n, lam)
    ),
    Method.MONTE_CARLO: Route(
        2, _MONTE_CARLO_N_MAX, False,
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
    samples: int = _MONTE_CARLO_SAMPLES,
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
    n = _check_n(n, 1, "evaluate")
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
    n = _check_n(n, 1, "cross_check")
    lam = _positive(lam, "lambda")
    samples = _check_n(samples, 0, "cross_check", "samples")
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
        raise ValueError("every exact route refused: " + "; ".join(refused))
    return results, refusals, max(abs(a - b) for a in exact for b in exact)


def _check_n(value, minimum: int, caller: str, name: str = "n") -> int:
    """int(value), the one check of an integer argument: refuses, naming the caller, a bool,
    a float, and an integer below minimum or beyond the largest double (routes compute with
    float(n)); int() as a numpy integer would wrap in n**3 and make results numpy floats."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{caller} requires integer {name} >= {minimum}, got {name} = {value!r}")
    if value > sys.float_info.max:
        raise ValueError(f"{caller} requires {name} <= max float, got {name} = {value!r}")
    return int(value)

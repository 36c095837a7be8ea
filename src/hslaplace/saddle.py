"""Saddle-point layer for the contour integral of Gamma(s)^n lambda^{-ns}.

For each lambda > 0 the saddle abscissa gamma(lambda) is the unique positive
root of psi(gamma) = ln lambda.  The decay-rate function

    L(lambda) = Gamma(gamma) / lambda^gamma,
    ln L(lambda) = ln Gamma(gamma) - gamma ln lambda,

is strictly decreasing from +inf at 0 to 0 at infinity, equals 1 at exactly
one point (the critical point), and controls the exponential growth or decay
of the hyperplane integrals F_n.  Two independent routes compute it: the
saddle equation (a closed-form start within 1.3e-9 of the root and at most one
Newton step, so at most two psi calls, under the one stop |psi(g) - ln lambda|
< 1e-13 max(1, |ln lambda|/64)) and the convex conjugate of ln Gamma (its value
at that start, certified by a bracket: three ln Gamma calls and no psi).
They agree within 1e-14 (1 + |ln L|) wherever ln L is a finite double,
lambda <= 2.5563481638717604e305, and both refuse above it.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .logvalue import LogValue
from .specfun import (
    _NOT_REAL, _TRIGAMMA_MIN, EULER_GAMMA, _digamma_trigamma_array, _finite, _horner, _positive,
    _real, _real_array, digamma, ln_gamma, trigamma,
)


class SaddleSolution(NamedTuple):
    """Saddle data for one evaluation point lambda > 0.

    gamma solves psi(gamma) = ln(lam); sigma = psi'(gamma) is the Gaussian
    curvature of the integrand along the contour; ln_L is the log of the
    per-dimension rate L(lambda).  A NamedTuple, so ``tabulate`` can build
    its rows without a keyword __init__ per row.
    """

    lam: float
    gamma: float
    ln_L: float
    sigma: float


@dataclass(frozen=True)
class CriticalPoint:
    """The unique point where L = 1.

    gamma_cr is the root of ln Gamma(g) = g psi(g); lambda_cr = exp(psi(gamma_cr));
    residual is the achieved |ln Gamma(gamma_cr) - gamma_cr psi(gamma_cr)|.
    """

    gamma_cr: float
    lambda_cr: float
    residual: float


# the stop test of both Newton routes is |psi(g) - y| < _NEWTON_TOL max(1, |y|/64)
_NEWTON_TOL = 1e-13
# above ln(max float) ~ 709.78 the root, about e^y, is not a finite double
_Y_MAX = math.log(sys.float_info.max)
# below psi(1/sqrt(max float)) ~ -sqrt(max float) the root, about -1/y, is below
# 1/sqrt(max float), where psi'(root) ~ 1/root^2 is not a finite double
_Y_MIN = -1.0 / _TRIGAMMA_MIN
_DOMAIN = (f"inverse_digamma requires -sqrt(max float) = {_Y_MIN:.3g} <= y <= "
           f"ln(max float) = {_Y_MAX:.2f}")
_LN_L_OVERFLOW = "ln L is not a finite double at lambda = {!r}: ln Gamma(gamma) overflows"
# the largest lambda at which solve_saddle's ln L is a finite double: at the next
# double gamma ln(lambda), gamma ~ lambda, passes max float
_LAMBDA_MAX = 2.5563481638717604e305

# The Newton start: one degree-10 polynomial p on each of three pieces of y,
# split at _START_EDGES, each a least-squares fit of the relative error in g at
# 400 Chebyshev nodes to this module's own roots.  With u = -1/(y + C), v = e^y:
#   y < -3:         g = u p(u), p = 1 - zeta(2) u^2 + ... (psi(g) = -1/g - C + zeta(2) g
#                   - ..., DLMF 5.7.4), its first two coefficients 1 and 0 exact;
#   -3 <= y < -1/2: g = p(y + 7/4);
#   y >= -1/2:      g = v + p(1/v), p(w) = 1/2 - w/24 + ... (psi(g) = ln g - 1/(2g)
#                   - ..., DLMF 5.11.2), p(0) = 1/2 exact,
# so that the start is -1/(y + C) at the left edge of the domain and e^y + 1/2 at
# its right edge, as Minka's guess (Estimating a Dirichlet distribution, 2000).
# Within 1.31e-9 of the root relative over the whole domain.
_START_EDGES = (-3.0, -0.5)
_START_COEFF = np.array([
    (1.0, 0.0, -1.6449330363238488, 1.2021840004997444, 4.319798264365536,
     -8.610368366977443, -11.399687366728855, 72.83763264716679, -137.56619367291933,
     128.75838478180717, -50.51588013118236),
    (0.5466745566495761, 0.23564217968403237, 0.0851044465898064, 0.02630384685250068,
     0.006967426122991817, 0.001556586341809884, 0.0002807819320705496, 3.62728217447441e-05,
     2.1211472195422076e-06, -5.564194186802932e-08, 4.4219564783146164e-08),
    (0.5, -0.04166709308928798, 1.1992212067468786e-05, 0.004556119539819797,
     0.0007637732963395973, -0.005269891368850984, 0.005575209885745781,
     -0.0033223995188040416, 0.0012168485826914406, -0.00025625643260459696,
     2.3841543815797282e-05),
])
_START_LEFT, _START_MID, _START_RIGHT = (tuple(row) for row in _START_COEFF.tolist())


def _initial_guess(y: float) -> float:
    """The Newton start of inverse_digamma at a y in its domain, within 1.31e-9
    of the root relative."""
    # the pieces split at _START_EDGES
    if y < -3.0:
        u = -1.0 / (y + EULER_GAMMA)
        return u * _horner(_START_LEFT, u)
    if y < -0.5:
        return _horner(_START_MID, y + 1.75)
    v = math.exp(y)
    return v + _horner(_START_RIGHT, 1.0 / v)


def _initial_guess_array(y):
    """_initial_guess of each element of a 1-D array y, with the same bits."""
    piece = np.searchsorted(_START_EDGES, y, side="right")
    left, right = piece == 0, piece == 2
    t = y + 1.75
    t[left] = -1.0 / (y[left] + EULER_GAMMA)
    # math.exp: np.exp can differ from it in the last bit, and at large gamma
    # that alone can move the root found within the stopping tolerance
    yr = y[right]
    v = np.fromiter(map(math.exp, yr.tolist()), float, yr.size)
    t[right] = 1.0 / v
    # the rows of a gathered copy: _horner's in-place steps touch only it
    g = _horner(_START_COEFF[piece].T, t)
    g[left] *= t[left]
    g[right] += v
    return g


def inverse_digamma(y):
    """The unique gamma > 0 with psi(gamma) = y; accepts scalars or arrays.

    The closed-form start ``_initial_guess``, within 1.31e-9 of the root
    relative (three polynomials, in -1/(y + C) below y = -3, in y up to -1/2
    and in e^-y above), and at most one Newton step: the start is the root if
    |psi(g0) - y| < tol(y), else g1 = g0 - (psi(g0) - y) / psi'(g0) is, if it
    is finite, positive and meets the same stop, so at most 2 psi calls per
    root.  tol(y) = 1e-13 max(1, |y|/64) is 1e-13 for lambda = e^y in
    [1.6e-28, 6.2e27], and 7 to 14 ulp of y beyond |y| = 64, where psi of the
    best double root can be an ulp or two of y off y, and an ulp of y exceeds
    1e-13 from |y| = 512 on.  Raises ValueError for y outside
    [-sqrt(max float), ln(max float)] ~ [-1.34e154, 709.78], where the root or
    psi' at it is not a finite double, for a y that is no finite real (nan, a
    bool, a str or bytes, or an array or a sequence that holds one), and
    RuntimeError where the step misses the stop, which would indicate a kernel
    bug.  Arrays go through ``_inverse_digamma_array``, the same two steps.
    """
    if not isinstance(y, (float, int)):
        return _inverse_digamma_array(y)[0]
    # an exact float skips the type test, as in _positive
    yf = y if type(y) is float else _real(y)
    if not _Y_MIN <= yf <= _Y_MAX:
        if math.isnan(yf):  # nan, a bool or an int past max float: no finite real
            _finite(y, "y")
        raise ValueError(f"{_DOMAIN}, got {yf!r}")
    y = yf
    tol = _NEWTON_TOL * max(1.0, abs(y) / 64.0)
    g = _initial_guess(y)
    r = digamma(g) - y
    if abs(r) < tol:
        return g
    g -= r / trigamma(g)
    if 0.0 < g < math.inf and abs(digamma(g) - y) < tol:
        return g
    raise RuntimeError(f"inverse_digamma failed to converge at y={y!r}")


def _inverse_digamma_array(y):
    """inverse_digamma over an array, with psi' at each root: (gamma, sigma).

    The scalar route's start (``_initial_guess_array``, with its bits), Newton
    step and stop test, in two fused psi and psi' passes: at the start, and at
    the step of each root whose start misses the stop.  sigma is the psi' of
    the pass that accepted the root.  A step that is not finite and positive
    or misses the stop raises the scalar route's RuntimeError.  A 0-d y gives
    two floats.
    """
    arr = _real_array(y, "y", "finite real")
    bad = ~((arr >= _Y_MIN) & (arr <= _Y_MAX))
    if bad.any():
        raise ValueError(f"{_DOMAIN}, got {float(arr[bad].flat[0])!r}")
    yv = arr.reshape(-1)
    tol = _NEWTON_TOL * np.maximum(1.0, np.abs(yv) / 64.0)
    g = _initial_guess_array(yv)
    psi, sigma = _digamma_trigamma_array(g)
    r = psi - yv
    miss = (np.abs(r) >= tol).nonzero()[0]
    if miss.size:
        g0 = g[miss]
        g1 = g0 - r[miss] / sigma[miss]
        # the pass takes finite positive arguments only: a step that is not
        # one is evaluated at its start and fails below
        step = (g1 > 0.0) & (g1 < math.inf)
        psi, psi1 = _digamma_trigamma_array(np.where(step, g1, g0))
        done = step & (np.abs(psi - yv[miss]) < tol[miss])
        if not done.all():
            y_bad = float(yv[miss[~done][0]])
            raise RuntimeError(f"inverse_digamma failed to converge at y={y_bad!r}")
        g[miss], sigma[miss] = g1, psi1
    if arr.ndim == 0:
        return float(g[0]), float(sigma[0])
    return g.reshape(arr.shape), sigma.reshape(arr.shape)


def solve_saddle(lam: float) -> SaddleSolution:
    """Saddle data (gamma, ln L, sigma) at lambda = lam > 0.

    Raises ValueError where ln L is not a finite double (lambda >~ 2.56e305).
    """
    lam = _positive(lam, "lambda")
    ln_lam = math.log(lam)
    gamma = inverse_digamma(ln_lam)
    ln_L = ln_gamma(gamma) - gamma * ln_lam
    if not math.isfinite(ln_L):
        raise ValueError(_LN_L_OVERFLOW.format(lam))
    return SaddleSolution(lam=lam, gamma=gamma, ln_L=ln_L, sigma=trigamma(gamma))


def L_value(lam: float) -> LogValue:
    """ln L(lam) via the saddle equation."""
    return LogValue(solve_saddle(lam).ln_L)


def _legendre_argmin(lam: float) -> tuple[float, float]:
    """Minimise phi(g) = ln Gamma(g) - g ln(lam) over g > 0: (argmin, min).

    phi is strictly convex (phi'' = psi' > 0) and its argmin is the saddle
    root, so the closed-form start x of ``inverse_digamma``, within 1.31e-9 of
    it relative, is the answer: phi(x) - min phi <= psi'(g) (1.31e-9 g)^2 / 2,
    about 1e-18 (1 + |ln L|).  The bracket a, b = x (1 -+ 1e-6) certifies it
    without psi: the argmin lies in (a, b), and min phi >= phi(x) -
    [max(phi(a), phi(b)) - phi(x)].  Where the three points do not bracket, a
    walk doubles its step, keeping a above x/2, and returns its last middle
    point.  phi(a) - phi(x) is about an ulp of phi's terms from lam ~ 1e100
    up, so no parabola is fitted through the three values.  Raises
    solve_saddle's ValueError, before any ln Gamma call, where ln L is not a
    finite double (lam above 2.5563481638717604e305).
    """
    lam = _positive(lam, "lambda")
    if lam > _LAMBDA_MAX:
        raise ValueError(_LN_L_OVERFLOW.format(lam))
    ln_lam = math.log(lam)

    def phi(g):
        # ln Gamma(g) or g ln(lam) overflows (inf, or inf - inf) only past the
        # minimiser; such a point counts as +inf
        f = ln_gamma(g) - g * ln_lam
        return f if math.isfinite(f) else math.inf

    x = _initial_guess(ln_lam)
    step = 1e-6 * x
    a, b = x - step, x + step
    fa, fx, fb = phi(a), phi(x), phi(b)
    # phi is convex, so at most one of the two walks runs; each doubles its step,
    # and a stays at or above x/2 > 0
    while fa < fx:
        step *= 2.0
        b, fb, x, fx = x, fx, a, fa
        a = max(x - step, 0.5 * x)
        fa = phi(a)
    while fb < fx:
        step *= 2.0
        a, fa, x, fx = x, fx, b, fb
        b = x + step
        fb = phi(b)
    return x, fx


def L_value_legendre(lam: float) -> LogValue:
    """ln L(lam) as the convex conjugate of ln Gamma, min over g of
    ln Gamma(g) - g ln(lam), at the bracketed start of ``_legendre_argmin``.

    Independent of L_value: three ln_gamma calls, never psi.  The two agree
    within 1e-14 (1 + |ln L|) from lam = 5e-324 to 2.5563481638717604e305;
    beyond it ln L is not a finite double and both refuse with one ValueError.
    """
    _, fmin = _legendre_argmin(lam)
    return LogValue(fmin)


@functools.cache
def critical_point() -> CriticalPoint:
    """Solve ln Gamma(g) = g psi(g) by bisection on [1, 2].

    h(g) = ln Gamma(g) - g psi(g) has h' = -g psi'(g) < 0, h(1) = C > 0 and
    h(2) = 2C - 2 < 0, so the bracket is analytic and bisection cannot fail.
    The result is a constant, solved on the first call and cached after it.
    """

    def h(g):
        return ln_gamma(g) - g * digamma(g)

    lo, hi = 1.0, 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if h(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    g_cr = 0.5 * (lo + hi)
    return CriticalPoint(
        gamma_cr=g_cr,
        lambda_cr=math.exp(digamma(g_cr)),
        residual=abs(h(g_cr)),
    )


def _grid_point(v) -> float:
    """float(v) of a tabulate grid point; a point that is no real number is
    refused as a lambda: float() reads a bool, a str or bytes, and cannot read a
    list, a complex, None or a row of a 2-D array."""
    if not isinstance(v, _NOT_REAL):
        try:
            return float(v)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"lambda must be a finite positive real, got {v!r}")


# where ln Gamma overflows ln L is inf - inf, refused below
@np.errstate(over="ignore", invalid="ignore")
def tabulate(lambda_grid) -> list[SaddleSolution]:
    """Saddle solutions over a strictly increasing positive grid.

    The gamma column is strictly increasing and the ln_L column strictly
    decreasing; evaluation is independent per point, so the output does not
    depend on evaluation order.  ``_inverse_digamma_array`` gives the gamma
    and sigma columns (the start and at most one Newton step of
    ``inverse_digamma``, in two psi and psi' passes), one ``ln_gamma`` array
    call ln L.  Rows equal ``solve_saddle``'s in gamma and sigma bit for bit,
    except at the rare lambda where the array psi (np.log) and the scalar one
    (math.log) round apart at the start, which moves the step: 2 of 843 498
    log-uniform lambda in [5e-324, 2.55e305], 1 and 6 ulp apart.  ln L is
    within 2 ulp of max(1, |ln Gamma(gamma)|) of ``solve_saddle``'s, the gap
    between ``ln_gamma``'s np.log and math.log paths; ln L crosses zero at
    lambda_cr, so no relative bound holds.  Raises ValueError for a grid that is
    no iterable, for a grid point that is no real number (a bool, a str or
    bytes, a list, a complex, None) or not finite and positive, for a grid that
    does not increase, and naming the first grid point where ln L is not a
    finite double.
    """
    # the points of bytes are ints
    if isinstance(lambda_grid, bytes):
        raise ValueError(f"lambda must be a finite positive real, got {lambda_grid!r}")
    try:
        points = lambda_grid if isinstance(lambda_grid, list) else list(lambda_grid)
    except TypeError:
        raise ValueError(f"tabulate requires an iterable grid, got {lambda_grid!r}") from None
    grid = points if set(map(type, points)) <= {float} else list(map(_grid_point, points))
    arr = np.array(grid)
    if not (np.isfinite(arr) & (arr > 0.0)).all():
        raise ValueError("tabulate requires positive grid points")
    if (arr[1:] <= arr[:-1]).any():
        raise ValueError("tabulate requires a strictly increasing grid")
    # math.log as in solve_saddle; np.log can differ from it in the last bit
    ln_lam = np.fromiter(map(math.log, grid), float, len(grid))
    gamma, sigma = _inverse_digamma_array(ln_lam)
    ln_L = ln_gamma(gamma) - gamma * ln_lam
    bad = (~np.isfinite(ln_L)).nonzero()[0]
    if bad.size:
        raise ValueError(_LN_L_OVERFLOW.format(grid[bad[0]]))
    # tuple.__new__ is what SaddleSolution._make calls, without its Python frame
    rows = zip(grid, gamma.tolist(), ln_L.tolist(), sigma.tolist())
    return list(map(tuple.__new__, itertools.repeat(SaddleSolution), rows))

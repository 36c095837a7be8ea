"""Saddle-point layer for the contour integral of Gamma(s)^n lambda^{-ns}.

For each lambda > 0 the saddle abscissa gamma(lambda) is the unique positive
root of psi(gamma) = ln lambda.  The decay-rate function

    L(lambda) = Gamma(gamma) / lambda^gamma,
    ln L(lambda) = ln Gamma(gamma) - gamma ln lambda,

is strictly decreasing from +inf at 0 to 0 at infinity, equals 1 at exactly
one point (the critical point), and controls the exponential growth or decay
of the hyperplane integrals F_n.  Two independent routes compute it: the
saddle equation (Newton on psi) and the convex conjugate of ln Gamma
(derivative-free golden-section minimisation).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .logvalue import LogValue
from .specfun import EULER_GAMMA, _digamma_trigamma_array, digamma, ln_gamma, trigamma


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


_NEWTON_TOL = 1e-13
_NEWTON_CAP = 50
# initial-guess crossover: exp(y) + 1/2 and -1/(y + C) meet near y = -2.22
_GUESS_SWITCH = -2.22
# above ln(max float) ~ 709.78 the root, about e^y, is not a finite double
_Y_MAX = math.log(sys.float_info.max)
_DOMAIN = f"inverse_digamma requires finite y <= ln(max float) = {_Y_MAX:.2f}"
_LN_L_OVERFLOW = "ln L is not a finite double at lambda = {!r}: ln Gamma(gamma) overflows"


def _initial_guess(y: float) -> float:
    """The Newton start of inverse_digamma at a finite y <= ln(max float)."""
    return math.exp(y) + 0.5 if y >= _GUESS_SWITCH else -1.0 / (y + EULER_GAMMA)


def inverse_digamma(y):
    """The unique gamma > 0 with psi(gamma) = y; accepts scalars or arrays.

    Newton iteration with a safeguarded bracket; the initial guess is
    exp(y) + 1/2 for y >= -2.22 (from psi(g) ~ ln g - 1/(2g)) and
    -1/(y + C) below (from psi(g) ~ -1/g - C).  The bracket starts at
    (0, inf) and the residual signs narrow it; a step that leaves it is
    replaced by the midpoint, or by twice the lower end while the bracket
    has no upper end.  Raises ValueError for y that is not finite or exceeds
    ln(max float) ~ 709.78, where the root is not a finite double, and
    RuntimeError if the residual tolerance is not met within the iteration
    cap, which would indicate a kernel bug rather than a bad input.  Arrays
    go through ``_inverse_digamma_array``, which agrees with the scalar route
    to 1e-13 relative.
    """
    if not isinstance(y, (float, int)):
        return _inverse_digamma_array(y)[0]
    y = float(y)
    if not (math.isfinite(y) and y <= _Y_MAX):
        raise ValueError(f"{_DOMAIN}, got {y!r}")
    g = _initial_guess(y)
    lo, hi = 0.0, math.inf
    for _ in range(_NEWTON_CAP):
        r = digamma(g) - y
        if abs(r) < _NEWTON_TOL:
            return g
        if r > 0.0:
            hi = min(hi, g)
        else:
            lo = max(lo, g)
        step = r / trigamma(g)
        g_new = g - step
        if not (lo < g_new < hi):
            g_new = 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)
        g = g_new
    if abs(digamma(g) - y) < 1e-12:
        return g
    raise RuntimeError(f"inverse_digamma failed to converge at y={y!r}")


# Near y = 709.78 the root g ~ e^y is close to max float, where the step
# r / psi1 and the fallbacks 2 lo and lo + hi (np.where evaluates both
# branches for every element) can overflow; an infinite step fails the
# bracket test.
@np.errstate(over="ignore")
def _inverse_digamma_array(y):
    """inverse_digamma over an array, with psi' at each root: (gamma, sigma).

    Same guesses, bracket rule, stopping rule, cap and errors as the scalar
    route, element by element.  Each iteration evaluates psi and psi' of the
    elements not yet converged in one pass; sigma is the psi' of the pass
    that accepted each root, bit for bit trigamma(gamma).  A 0-d y gives two
    floats.
    """
    arr = np.asarray(y, dtype=float)
    bad = ~(np.isfinite(arr) & (arr <= _Y_MAX))
    if bad.any():
        raise ValueError(f"{_DOMAIN}, got {float(arr[bad].flat[0])!r}")
    yv = arr.reshape(-1)
    # the scalar route's guesses; exp(y) + 1/2 with math.exp: np.exp can
    # differ from it in the last bit, and at large gamma that alone can move
    # the root found within the stopping tolerance
    large = yv >= _GUESS_SWITCH
    g = np.empty_like(yv)
    g[large] = [math.exp(v) + 0.5 for v in yv[large].tolist()]
    g[~large] = -1.0 / (yv[~large] + EULER_GAMMA)
    out = np.empty_like(g)
    sigma = np.empty_like(g)
    idx = np.arange(g.size)
    lo = np.zeros_like(g)
    hi = np.full_like(g, np.inf)
    for _ in range(_NEWTON_CAP):
        if not idx.size:
            break
        psi, psi1 = _digamma_trigamma_array(g)
        r = psi - yv
        done = np.abs(r) < _NEWTON_TOL
        if done.any():
            out[idx[done]] = g[done]
            sigma[idx[done]] = psi1[done]
            left = ~done
            idx, g, yv, lo, hi, r, psi1 = (a[left] for a in (idx, g, yv, lo, hi, r, psi1))
        above = r > 0.0
        hi = np.where(above, np.minimum(hi, g), hi)
        lo = np.where(above, lo, np.maximum(lo, g))
        g_new = g - r / psi1
        fallback = np.where(np.isinf(hi), 2.0 * lo, 0.5 * (lo + hi))
        g = np.where((lo < g_new) & (g_new < hi), g_new, fallback)
    else:
        psi, psi1 = _digamma_trigamma_array(g)
        missed = np.abs(psi - yv) >= 1e-12
        if missed.any():
            raise RuntimeError(
                f"inverse_digamma failed to converge at y={float(yv[missed][0])!r}"
            )
        out[idx] = g
        sigma[idx] = psi1
    if arr.ndim == 0:
        return float(out[0]), float(sigma[0])
    return out.reshape(arr.shape), sigma.reshape(arr.shape)


def solve_saddle(lam: float) -> SaddleSolution:
    """Saddle data (gamma, ln L, sigma) at lambda = lam > 0.

    Raises ValueError where ln L is not a finite double (lambda >~ 2.56e305).
    """
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 0.0:
        raise ValueError("solve_saddle requires lambda > 0")
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
    """Minimise phi(g) = ln Gamma(g) - g ln(lam) over g > 0.

    phi is strictly convex (phi'' = psi' > 0) and coercive at both ends, so a
    geometric scan brackets the minimum and golden-section search finishes.
    Uses only ln_gamma: this route never touches psi, which keeps it
    independent of the Newton route.
    """
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 0.0:
        raise ValueError("L_value_legendre requires lambda > 0")
    ln_lam = math.log(lam)

    def phi(g):
        return ln_gamma(g) - g * ln_lam

    # bracket: geometric grid 2^j
    js = range(-40, 80)
    prev_g, prev_f = None, math.inf
    bracket = None
    for j in js:
        g = 2.0 ** j
        f = phi(g)
        if f > prev_f:
            # prev was a local (hence global) min between its neighbours
            bracket = (prev_g / 2.0, prev_g, g)
            break
        prev_g, prev_f = g, f
    if bracket is None:  # pragma: no cover - coercivity guarantees a bracket
        raise RuntimeError("failed to bracket the convex conjugate minimum")

    a, _, c = bracket
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = c - invphi * (c - a)
    x2 = a + invphi * (c - a)
    f1, f2 = phi(x1), phi(x2)
    for _ in range(300):
        if c - a < 1e-9 * (1.0 + x1):
            break
        if f1 < f2:
            c = x2
            x2, f2 = x1, f1
            x1 = c - invphi * (c - a)
            f1 = phi(x1)
        else:
            a = x1
            x1, f1 = x2, f2
            x2 = a + invphi * (c - a)
            f2 = phi(x2)
    best = x1 if f1 < f2 else x2
    return best, phi(best)


def L_value_legendre(lam: float) -> LogValue:
    """ln L(lam) as the convex conjugate of ln Gamma, by golden-section search.

    Independent of L_value: agrees with it to better than 1e-9, which the
    test suite checks across a wide grid.
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


def gamma_asymptotic_zero(lam: float) -> float:
    """Small-lambda closed form 1 / (|ln lam| - C) for the saddle abscissa.

    Derived from psi(g) = psi(1 + g) - 1/g and the series of DLMF 5.7.4,
    psi(g) = -1/g - C + zeta(2) g - zeta(3) g^2 + ...: setting
    psi(g) = ln lam gives 1/g = |ln lam| - C + zeta(2) g + O(g^2), so this
    form omits the O(g) term zeta(2) g.  Only meaningful well below
    exp(-C) ~ 0.56; the tests use it to check the saddle at small lambda.
    """
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 0.0:
        raise ValueError("gamma_asymptotic_zero requires lambda > 0")
    if lam >= 1.0:
        raise ValueError("gamma_asymptotic_zero is only defined for lambda < 1")
    return 1.0 / (-math.log(lam) - EULER_GAMMA)


# over as for _inverse_digamma_array; where ln Gamma overflows ln L is
# inf - inf, refused below
@np.errstate(over="ignore", invalid="ignore")
def tabulate(lambda_grid) -> list[SaddleSolution]:
    """Saddle solutions over a strictly increasing positive grid.

    The gamma column is strictly increasing and the ln_L column strictly
    decreasing; evaluation is independent per point, so the output does not
    depend on evaluation order.  The whole grid is solved in one Newton pass
    (``_inverse_digamma_array``), whose last psi' evaluation at each root is
    the sigma column; one ``ln_gamma`` array call then gives ln L.  Rows
    agree with ``solve_saddle`` point by point to 1e-13 relative in gamma
    and sigma and to 1e-13 * max(1, |ln L|) in ln L, which crosses zero at
    lambda_cr.  Raises ValueError naming the first grid point where ln L is
    not a finite double.
    """
    grid = [float(v) for v in lambda_grid]
    arr = np.array(grid)
    if not (np.isfinite(arr) & (arr > 0.0)).all():
        raise ValueError("tabulate requires positive grid points")
    if (arr[1:] <= arr[:-1]).any():
        raise ValueError("tabulate requires a strictly increasing grid")
    # math.log as in solve_saddle; np.log can differ from it in the last bit
    ln_lam = np.array([math.log(v) for v in grid])
    gamma, sigma = _inverse_digamma_array(ln_lam)
    ln_L = ln_gamma(gamma) - gamma * ln_lam
    bad = (~np.isfinite(ln_L)).nonzero()[0]
    if bad.size:
        raise ValueError(_LN_L_OVERFLOW.format(grid[bad[0]]))
    rows = zip(grid, gamma.tolist(), ln_L.tolist(), sigma.tolist())
    return list(map(SaddleSolution._make, rows))

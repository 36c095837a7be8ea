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
from dataclasses import dataclass

from .logvalue import LogValue
from .specfun import EULER_GAMMA, digamma, ln_gamma, trigamma


@dataclass(frozen=True)
class SaddleSolution:
    """Saddle data for one evaluation point lambda > 0.

    gamma solves psi(gamma) = ln(lam); sigma = psi'(gamma) is the Gaussian
    curvature of the integrand along the contour; ln_L is the log of the
    per-dimension rate L(lambda).
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


def inverse_digamma(y: float) -> float:
    """The unique gamma > 0 with psi(gamma) = y.

    Newton iteration with a bisection-safeguarded bracket; the initial guess
    is exp(y) + 1/2 for y >= -2.22 (from psi(g) ~ ln g - 1/(2g)) and
    -1/(y + C) below (from psi(g) ~ -1/g - C).  Raises RuntimeError if the
    residual tolerance is not met within the iteration cap, which would
    indicate a kernel bug rather than a bad input.
    """
    y = float(y)
    if not math.isfinite(y):
        raise ValueError("inverse_digamma requires finite y")
    if y >= _GUESS_SWITCH:
        g = math.exp(y) + 0.5
    else:
        g = -1.0 / (y + EULER_GAMMA)
    # bracket the root; psi is strictly increasing onto all of R
    lo = hi = g
    while digamma(lo) > y:
        lo *= 0.5
    while digamma(hi) < y:
        hi *= 2.0
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
            g_new = 0.5 * (lo + hi)
        g = g_new
    if abs(digamma(g) - y) < 1e-12:
        return g
    raise RuntimeError(f"inverse_digamma failed to converge at y={y!r}")


def solve_saddle(lam: float) -> SaddleSolution:
    """Saddle data (gamma, ln L, sigma) at lambda = lam > 0."""
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 0.0:
        raise ValueError("solve_saddle requires lambda > 0")
    ln_lam = math.log(lam)
    gamma = inverse_digamma(ln_lam)
    return SaddleSolution(
        lam=lam,
        gamma=gamma,
        ln_L=ln_gamma(gamma) - gamma * ln_lam,
        sigma=trigamma(gamma),
    )


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
    exp(-C) ~ 0.56; used as a Newton seed and in asymptotic tests.
    """
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 0.0:
        raise ValueError("gamma_asymptotic_zero requires lambda > 0")
    if lam >= 1.0:
        raise ValueError("gamma_asymptotic_zero is only defined for lambda < 1")
    return 1.0 / (-math.log(lam) - EULER_GAMMA)


def tabulate(lambda_grid) -> list[SaddleSolution]:
    """Saddle solutions over a strictly increasing positive grid.

    The gamma column is strictly increasing and the ln_L column strictly
    decreasing; evaluation is independent per point, so the output does not
    depend on evaluation order.
    """
    grid = [float(v) for v in lambda_grid]
    if any(not math.isfinite(v) or v <= 0.0 for v in grid):
        raise ValueError("tabulate requires positive grid points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("tabulate requires a strictly increasing grid")
    return [solve_saddle(v) for v in grid]

"""Special-function kernel: ln Gamma (real and complex), digamma, trigamma, K0.

``ln_gamma`` is the Taylor series of ln Gamma(2 + z), |z| <= 1/2, with the
recurrence below 10, and Stirling's series from 10 up.  psi, psi', the private
psi'' to psi^(5) loop and the complex ln Gamma shift the argument up by the
recurrence until it is >= 10, then sum an asymptotic series from one table of
Bernoulli numbers.  No reflection formula is needed on the positive axis (the
right half plane for the complex case), which is all this package ever needs.

Accuracy: ``ln_gamma`` is within 2.3e-16 max(1, |ln Gamma|) of mpmath on
(0, 10), and within 3 ulp of it near its zeros 1 and 2 (60 points 1e-15 to 1
away); the other kernels stay below tol * max(1, |f(x)|), the absolute bound
the tests check, with tol = 1e-13 for psi and complex ln Gamma, 1e-12 for psi'.
Near the blow-up edges (x -> 0+, psi ~ -1/x) the scaled bound is the best any
fixed-precision evaluation can promise.

The contour route needs no complex log: ``_ln_gamma_line`` gives
D(t) = ln Gamma(gamma + it) - ln Gamma(gamma) - it psi(gamma) for real t from
the same shift and Bernoulli table, in real arithmetic (log1p, arctan), with
every sum formed so that it vanishes at t = 0; it is within 8.3e-16 of D
relative.

K0 is evaluated in log form from its cosh integral representation by a
symmetric trapezoid rule, which converges geometrically because the
integrand itself decays doubly exponentially.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .logvalue import LogValue

#: Euler's constant C;  digamma(1) == -EULER_GAMMA.
EULER_GAMMA = 0.5772156649015329

_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)
_SHIFT = 10.0
# columns per shift block: 11 rows of 2^11 complex is 360 KB, and the term block
# of 10 rows of two real series or one complex series 328 KB, so that the z
# block, the term block and its zeroed copy fit in a 2 MiB L2 cache
_BLOCK_COLUMNS = 1 << 11
# below 1/sqrt(max float) psi'(x) ~ 1/x^2 is not a finite double
_TRIGAMMA_MIN = 1.0 / math.sqrt(sys.float_info.max)
_TRIGAMMA_DOMAIN = f"trigamma requires x >= 1/sqrt(max float) = {_TRIGAMMA_MIN:.3g}, got {{!r}}"
_NOT_REAL = (bool, np.bool_, str, bytes)  # float() reads them, but they are no real argument

# B_2, B_4, ..., B_16 as (numerator, denominator).  The series of psi^(m),
# m = -1 meaning ln Gamma, has the coefficients B_2k (2k+m-1)! / (2k)!; exact
# int true division rounds once, so each equals its literal fraction.
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510))
(_LNGAMMA_COEFF, _DIGAMMA_COEFF, _TRIGAMMA_COEFF, _PSI2_COEFF, _PSI3_COEFF, _PSI4_COEFF,
 _PSI5_COEFF) = (
    tuple(
        p * math.factorial(2 * k + m - 1) / (q * math.factorial(2 * k))
        for k, (p, q) in enumerate(_BERNOULLI, 1)
    )
    for m in range(-1, 6)
)


def _as_positive_array(x, name):
    # a str, bytes or bool, or an array or a sequence that holds one, is refused
    # before np.asarray(x, dtype=float) reads it as a number: np.asarray([True,
    # 2.0]) is already a float array, so a sequence is read entry by entry
    if isinstance(x, np.ndarray) and x.dtype != object:
        not_real = x.dtype.kind in "bSU"
    else:
        not_real = any(isinstance(v, _NOT_REAL) for v in np.asarray(x, dtype=object).flat)
    if not_real:
        raise ValueError(f"x must be a finite positive real, got {x!r}")
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all() or (arr <= 0.0).any():
        raise ValueError(f"{name} requires finite positive argument(s)")
    return arr


def _real(x) -> float:
    """float(x) of a real number x, else nan: float() would also read a bool or a str."""
    if isinstance(x, _NOT_REAL):
        return math.nan
    try:
        return float(x)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _positive(x, name) -> float:
    """float(x), the one check of a positive real argument: refuses, naming it,
    anything else, a bool or a str that float() would read included."""
    # an exact float skips the type test (0.1 us a call on a 2-vCPU Xeon, in Newton loops)
    xf = x if type(x) is float else _real(x)
    if not 0.0 < xf < math.inf:
        raise ValueError(f"{name} must be a finite positive real, got {x!r}")
    return xf


def _finite(x, name) -> float:
    """float(x), the one check of a finite real argument of either sign: refuses,
    naming it, anything else, a bool or a str that float() would read included."""
    xf = _real(x)
    if not math.isfinite(xf):
        raise ValueError(f"{name} must be a finite real, got {x!r}")
    return xf


def _sum_down(a):
    """Sums the 2-D array a down its rows in place, in row order: a row at a time
    past 16 columns a row, where np.add.accumulate, which walks the columns one by
    one (about 40 ns a column of 11 rows, 20 ns of 4, against 0.7 us a row add of
    up to a few hundred columns on a 2.1 GHz Xeon), costs more."""
    if a.shape[1] <= 16 * len(a):
        return np.add.accumulate(a, axis=0, out=a)
    for j in range(1, len(a)):
        a[j] += a[j - 1]
    return a


def _series_array(z, *series):
    """Shift and series shared by the array paths.

    Steps every element of the flattened copy of z up by one until
    Re z >= _SHIFT and, for each (coeffs, term) pair in series, sums term(z)
    over the steps and Horner-sums coeffs in w = 1/z^2.  Returns the shifted
    z, w and one (series sum, shift sum) pair per entry of series, flat and
    in the order of z.  term(z, out) writes into out, as a ufunc does.

    Column i of a (steps + 1) x size block holds z_i over the steps 1.0 while
    z_i still shifts, 0.0 after: summed down, row j is z_i + 1.0 + ... + 1.0
    as in an element-by-element loop.  The terms of all S series go into one
    steps x (S size) block, zeroed past z_i's steps and summed down once
    (np.add.reduce would sum a single column pairwise); + 0.0 gives a -0.0 sum
    the sign of 0.0 + ... has.
    """
    z = z.reshape(-1).copy()
    shifts = np.zeros((len(series), z.size), z.dtype)
    # z * z overflows above |z| ~ 1.34e154, padded rows included (inf - inf = nan
    # where Re z and |Im z| both do); there |w| < 5.6e-309 is below every last bit
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, z.size, _BLOCK_COLUMNS):
            zc = z[lo:lo + _BLOCK_COLUMNS]
            k = np.ceil(_SHIFT - zc.real)
            active = np.arange(max(0.0, k.max()))[:, None] < k
            if not active.size:
                continue
            block = np.concatenate((zc[None], active))
            # copied back only where z stepped: z + 0.0 turns Im z = -0.0 to +0.0
            np.copyto(zc, _sum_down(block)[-1], where=active[0])
            t = np.empty((len(active), len(series), zc.size), z.dtype)
            for i, (_, term) in enumerate(series):
                term(block[:-1], t[:, i])
            t = np.where(active[:, None], t, 0.0).reshape(len(active), -1)
            total = _sum_down(t)[-1].reshape(len(series), -1)
            np.add(total, 0.0, out=shifts[:, lo:lo + _BLOCK_COLUMNS])
        z2 = z * z
        w = 1.0 / z2
    w[~np.isfinite(z2)] = 0.0
    sums = []
    for (coeffs, _), shift in zip(series, shifts):
        s = np.full_like(z, coeffs[-1])
        for c in coeffs[-2::-1]:
            s *= w
            s += c
        sums.append((s, shift))
    return z, w, sums


def _reciprocal(z, out=None):
    return np.divide(1.0, z, out=out)


def _reciprocal_square(z, out=None):
    return np.divide(1.0, np.multiply(z, z, out=out), out=out)


_DIGAMMA_SERIES = (_DIGAMMA_COEFF, _reciprocal)
_TRIGAMMA_SERIES = (_TRIGAMMA_COEFF, _reciprocal_square)


def _digamma_trigamma_array(x):
    """psi(x) and psi'(x) of a 1-D array x > 0 from one shift-and-series pass.

    Unchecked: the caller guarantees finite positive x.  Equal bit for bit to
    digamma(x) and trigamma(x).
    """
    z, w, ((s1, shift1), (s2, shift2)) = _series_array(x, _DIGAMMA_SERIES, _TRIGAMMA_SERIES)
    psi = np.log(z) - 0.5 / z - s1 * w - shift1
    psi1 = 1.0 / z + 0.5 * w + s2 * w / z + shift2
    return psi, psi1


# 1 - C and zeta(k) - 1 for k = 2..27, mpmath 1.3.0: ln Gamma(2 + z) = (1 - C) z
# + sum_k (-1)^k (zeta(k) - 1) z^k / k (DLMF 5.7.3 with ln(1 + z) taken out), whose
# terms shrink by |z| / 2; past k = 27 they are below 5e-19 at |z| = 1/2
_ZETA_MINUS_ONE = (
    0.6449340668482264, 0.2020569031595943, 0.08232323371113819, 0.03692775514336993,
    0.01734306198444914, 0.008349277381922827, 0.00407735619794434, 0.0020083928260822143,
    0.0009945751278180853, 0.0004941886041194645, 0.0002460865533080483, 0.00012271334757848915,
    6.124813505870483e-05, 3.058823630702049e-05, 1.528225940865187e-05, 7.637197637899763e-06,
    3.81729326499984e-06, 1.908212716553939e-06, 9.539620338727962e-07, 4.769329867878064e-07,
    2.38450502727733e-07, 1.1921992596531106e-07, 5.960818905125948e-08, 2.980350351465228e-08,
    1.4901554828365043e-08, 7.45071178983543e-09,
)
_LN_GAMMA_2_COEFF = (1.0 - EULER_GAMMA,) + tuple(
    (-1) ** k * c / k for k, c in enumerate(_ZETA_MINUS_ONE, 2))


def _horner(coeffs, z):
    """coeffs[0] + coeffs[1] z + ... of a float or an array z, with the same bits."""
    s = coeffs[-1]
    for c in coeffs[-2::-1]:
        s *= z
        s += c
    return s


def _stirling(x, log):
    """ln Gamma(x) for x >= 10, of a float or an array, from Stirling's series (DLMF
    5.11.1); 1/(x x) is 0 where x x overflows, which is below every last bit."""
    return (x - 0.5) * log(x) - x + _HALF_LN_2PI + _horner(_LNGAMMA_COEFF, 1.0 / (x * x)) / x


def ln_gamma(x):
    """ln Gamma(x) for x > 0; accepts scalars or arrays.

    Stirling's series from x = 10 up.  Below, x = r + z with r = floor(x + 1/2) and
    |z| <= 1/2: the Taylor series of ln Gamma(2 + z) at 2, less ln x (r = 0) and
    ln(1 + z) (r <= 1), or plus one log of the product of the exact factors
    x - 1, ..., x - r + 2; both paths are within 2.3e-16 max(1, |ln Gamma|) of
    mpmath on (0, 10).
    """
    if isinstance(x, (float, int)):
        x = _positive(x, "x")
        if x >= _SHIFT:
            return _stirling(x, math.log)
        r = math.floor(x + 0.5)
        z = x - r
        out = _horner(_LN_GAMMA_2_COEFF, z) * z
        if r >= 2:
            prod = 1.0
            for i in range(1, r - 1):
                prod *= x - i
            return out + math.log(prod)
        if r == 0:
            out -= math.log(x)
        return out - math.log1p(z)
    arr = _as_positive_array(x, "ln_gamma")
    flat = arr.reshape(-1)
    out = np.empty_like(flat)
    big = flat >= _SHIFT
    if big.any():
        with np.errstate(over="ignore"):
            out[big] = _stirling(flat[big], np.log)
    if not big.all():
        xs = flat[~big]
        r = np.floor(xs + 0.5)
        r0, r01 = r == 0.0, r < 2.0
        z = np.subtract(xs, r, out=r)  # r is not needed past its masks
        lg = _horner(_LN_GAMMA_2_COEFF, z)
        lg *= z
        # the scalar path's order: ln x off first where r = 0, then ln(1 + z)
        np.subtract(lg, np.log(xs), out=lg, where=r0)
        np.subtract(lg, np.log1p(z), out=lg, where=r01)
        # the factors x - i >= 3/2, by blocks of columns: scratch memory does not grow
        i = np.arange(1.0, xs.max() - 1.0)[:, None]
        for lo in range(0, xs.size, _BLOCK_COLUMNS):
            f = xs[lo:lo + _BLOCK_COLUMNS] - i
            lg[lo:lo + _BLOCK_COLUMNS] += np.log(np.where(f >= 1.5, f, 1.0).prod(axis=0))
        out[~big] = lg
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def digamma(x):
    """psi(x) = d/dx ln Gamma(x) for x > 0; accepts scalars or arrays."""
    if isinstance(x, (float, int)):
        x = _positive(x, "x")
        shift = 0.0
        while x < _SHIFT:
            shift += 1.0 / x
            x += 1.0
        w = 1.0 / (x * x)
        s = _DIGAMMA_COEFF[-1]
        for c in _DIGAMMA_COEFF[-2::-1]:
            s = s * w + c
        return math.log(x) - 0.5 / x - s * w - shift
    arr = _as_positive_array(x, "digamma")
    z, w, ((s, shift),) = _series_array(arr, _DIGAMMA_SERIES)
    out = np.log(z) - 0.5 / z - s * w - shift
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def trigamma(x):
    """psi'(x) > 0 for x >= 1/sqrt(max float) ~ 7.46e-155, below which psi'(x) ~
    1/x^2 is not a finite double (ValueError); accepts scalars or arrays."""
    if isinstance(x, (float, int)):
        x = _positive(x, "x")
        if x < _TRIGAMMA_MIN:
            raise ValueError(_TRIGAMMA_DOMAIN.format(x))
        shift = 0.0
        while x < _SHIFT:
            shift += 1.0 / (x * x)
            x += 1.0
        w = 1.0 / (x * x)
        s = _TRIGAMMA_COEFF[-1]
        for c in _TRIGAMMA_COEFF[-2::-1]:
            s = s * w + c
        return 1.0 / x + 0.5 * w + s * w / x + shift
    arr = _as_positive_array(x, "trigamma")
    if (arr < _TRIGAMMA_MIN).any():
        raise ValueError(_TRIGAMMA_DOMAIN.format(float(arr[arr < _TRIGAMMA_MIN].flat[0])))
    z, w, ((s, shift),) = _series_array(arr, _TRIGAMMA_SERIES)
    out = 1.0 / z + 0.5 * w + s * w / z + shift
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _psi2_to_psi5(x):
    """psi''(x), psi'''(x), psi^(4)(x) and psi^(5)(x) of a float x > 0, unchecked.

    psi^(m)(x) = psi^(m)(x+1) - (-1)^m m!/x^(m+1) shifts x up to >= 10, where
    (-1)^(m+1) psi^(m)(x) ~ (m-1)!/x^m + m!/(2 x^(m+1)) + sum_k c_k/x^(2k+m)
    with c_k from the m-th Bernoulli table (DLMF 5.15.8).
    """
    shift2 = shift3 = shift4 = shift5 = 0.0
    while x < _SHIFT:
        x2 = x * x
        x4 = x2 * x2
        shift2 -= 2.0 / (x2 * x)
        shift3 += 6.0 / x4
        shift4 -= 24.0 / (x4 * x)
        shift5 += 120.0 / (x4 * x2)
        x += 1.0
    w = 1.0 / (x * x)
    s2, s3, s4, s5 = _PSI2_COEFF[-1], _PSI3_COEFF[-1], _PSI4_COEFF[-1], _PSI5_COEFF[-1]
    for c2, c3, c4, c5 in zip(
        _PSI2_COEFF[-2::-1], _PSI3_COEFF[-2::-1], _PSI4_COEFF[-2::-1], _PSI5_COEFF[-2::-1]
    ):
        s2 = s2 * w + c2
        s3 = s3 * w + c3
        s4 = s4 * w + c4
        s5 = s5 * w + c5
    return (
        shift2 - w * (1.0 + 1.0 / x + s2 * w),
        shift3 + w / x * (2.0 + 3.0 / x + s3 * w),
        shift4 - w * w * (6.0 + 12.0 / x + s4 * w),
        shift5 + w * w / x * (24.0 + 60.0 / x + s5 * w),
    )


def ln_gamma_complex(z):
    """Analytic ln Gamma(z) for Re z > 0; scalars or arrays.

    Continuous along vertical lines gamma + i t (the shift recurrence never
    crosses the negative real axis for Re z > 0) and equal to ln_gamma on
    the real axis.  The imaginary part is unwrapped, so this is the
    continuation of ln Gamma rather than the principal log of Gamma.  A lone
    argument (0-d or one-element array) may differ in the last bit from the
    same value inside a longer array, since numpy's complex loops round the
    two differently: Re ln Gamma(1e300+1e300j) is 0x1.01554915dda3ep+1006
    alone and 0x1.01554915dda3dp+1006 in an array.
    """
    arr = np.asarray(z, dtype=complex)
    if not np.isfinite(arr).all() or (arr.real <= 0.0).any():
        raise ValueError("ln_gamma_complex requires finite arguments with Re z > 0")
    zz, _, ((s, shift),) = _series_array(arr, (_LNGAMMA_COEFF, np.log))
    # (zz - 0.5) ln zz - zz + ln sqrt(2 pi) + s / zz - shift, left to right
    out = zz - 0.5
    out *= np.log(zz)
    out -= zz
    out += _HALF_LN_2PI
    s /= zz
    out += s
    out -= shift
    return complex(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


# (arctan(x) - x) / x^3 as a polynomial in y = x^2 on [0, 1/16]: mpmath 1.3.0
# chebyfit of degree 8, highest power first, within 4.1e-18 (1.2e-17 relative).
# Above |x| = 1/4, arctan(x) - x loses at most a factor 3/x^2 <= 48 of one
# rounding of arctan(x) to cancellation
_ATAN_EXCESS_POLY = (
    -0.041034266985419496, 0.057529943904780285, -0.06658687414697743, 0.07692017877237385,
    -0.09090902874969416, 0.11111111035986847, -0.1428571428525851, 0.19999999999998933,
    -0.3333333333333333,
)
_ATAN_SERIES_MAX = 0.25


def _log1p_and_atan_excess(x):
    """Re and Im of L(x) = log1p(ix) - ix = log1p(x^2) / 2 + i (arctan(x) - x) of an
    array x, neither with cancellation: arctan(x) - x is x^3 times a polynomial in x^2
    below |x| = 1/4."""
    x2 = x * x
    series = _ATAN_EXCESS_POLY[0] * x2
    for c in _ATAN_EXCESS_POLY[1:]:
        series += c
        series *= x2
    series *= x
    excess = np.arctan(x)
    excess -= x
    np.copyto(excess, series, where=x2 < _ATAN_SERIES_MAX**2)
    del series
    half_log = np.log1p(x2, out=x2)
    half_log *= 0.5
    return half_log, excess


def _line_bernoulli_coeffs(g: float) -> list:
    """E_b = sum_m c_m g^(1-2m) max(0, 2m-1-b) for b = 0, 1, ..., the coefficients of
    _ln_gamma_line at g >= 10, cut after the last |E_b| >= 2^-54 g."""
    terms, power = [], 1.0 / g
    for c in _LNGAMMA_COEFF:
        terms.append(c * power)
        power /= g * g  # underflows to 0 past g ~ 1e20, harmlessly
    # E_b - E_(b+1) is the sum of c_m g^(1-2m) over 2m - 1 > b, which gains a term
    # at every even b
    coeffs, e, tail = [], 0.0, 0.0
    for b in range(2 * len(terms) - 2, -1, -1):
        if b % 2 == 0:
            tail += terms[b // 2]
        e += tail
        coeffs.append(e)
    coeffs.reverse()
    while len(coeffs) > 1 and abs(coeffs[-1]) < 2.0**-54 * g:
        coeffs.pop()
    return coeffs


def _ln_gamma_line(gamma: float, t):
    """D(t) = ln Gamma(gamma + it) - ln Gamma(gamma) - it psi(gamma) of a real 1-D array
    t at a float gamma > 0, in real arithmetic: no complex log and no large term.

    With k = max(0, ceil(10 - gamma)) shifts, g = gamma + k, s = t/g, z = g + it,
    tau_j = t/(gamma + j) and L(x) = log1p(ix) - ix, the recurrence and the
    Stirling series (DLMF 5.5.1, 5.11.1) give

        D(t) = (z - 1/2) L(s) - t s + it sum_m B_2m / (2m g^2m)
               + sum_m c_m (z^(1-2m) - g^(1-2m)) - sum_{j<k} L(tau_j),

    c_m = B_2m / (2m (2m-1)).  Each of the last three sums vanishes at t = 0,
    so each is formed that way: (z - 1/2) L(s) - t s has real part
    (g - 1/2) Re L(s) - t arctan(s); the two Bernoulli sums are together
    -s^2 u sum_b E_b u^b with u = g/z = 1/(1 + is) and
    E_b = sum_m c_m g^(1-2m) max(0, 2m-1-b), cut where |E_b| < 2^-54 g
    (|D| >= g s^2 |u| / 2, so each term dropped is below 2^-53 of D); and
    Im L(x) = arctan(x) - x is x^3 times a polynomial in x^2 below |x| = 1/4.
    Against 60-digit mpmath D is within 8.3e-16 relative on 6000 random
    (gamma, t) in [1e-3, 1e6] x [1e-8, 1e3], and D(0) = 0.

    The shifts go through (k + 1) x _BLOCK_COLUMNS blocks of t, the row of s
    first, so that the scratch memory does not grow with t.size.
    """
    k = max(0, math.ceil(_SHIFT - gamma))
    g = gamma + k
    rows = np.concatenate(([g], gamma + np.arange(k)))[:, None]
    coeffs = _line_bernoulli_coeffs(g)
    out = np.empty(t.shape, dtype=complex)
    for lo in range(0, t.size, _BLOCK_COLUMNS):
        tc = t[lo:lo + _BLOCK_COLUMNS]
        x = tc / rows
        half_log, excess = _log1p_and_atan_excess(x)
        s = x[0]
        re = (g - 0.5) * half_log[0] - tc * np.arctan(s) - half_log[1:].sum(axis=0)
        im = (g - 0.5) * excess[0] + tc * half_log[0] - excess[1:].sum(axis=0)
        u = 1.0 / (1.0 + 1j * s)
        poly = coeffs[-1] * u
        for c in coeffs[-2::-1]:
            poly += c
            poly *= u
        poly *= s * s
        block = out[lo:lo + _BLOCK_COLUMNS]
        block.real = re
        block.imag = im
        block -= poly
    return out


def bessel_k0(x: float) -> LogValue:
    """ln K0(x) for x > 0, valid far beyond the underflow point of K0.

    Uses K0(x) = integral_0^inf exp(-x cosh t) dt, cut where x (cosh T - 1)
    = 48, with cosh t - 1 formed as 2 sinh^2(t/2) so that large x loses no
    digits.  The trapezoid rule on the even extension has error about
    exp(-pi^2 / h); max(256, 8 T) panels keep h <= 1/8 at any x.  The
    max-shift by -x keeps the sum in range for arbitrarily large x.
    """
    xf = _positive(x, "x")
    rx = math.sqrt(xf)
    T = 2.0 * math.asinh(math.sqrt(24.0) / rx)
    m = max(256, math.ceil(8.0 * T))
    # the node t = 0 has weight 1/2 and value 1
    u = np.exp(-2.0 * (rx * np.sinh(0.5 * T / m * np.arange(m + 1))) ** 2)
    return LogValue(float(-xf + np.log(T / m * (np.sum(u) - 0.5))))

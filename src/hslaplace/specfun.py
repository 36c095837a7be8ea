"""Special-function kernel: ln Gamma (real and complex), digamma, trigamma, K0.

All four Gamma-family routines, and the private psi'' to psi^(5) loop, use
one scheme: shift the argument up by the recurrence until it is >= 10, then
sum an asymptotic series with coefficients from one table of Bernoulli
numbers.  That covers the whole positive axis (and the right half plane for
the complex case) without reflection formulas, which is all this package
ever needs.

Accuracy: errors stay below tol * max(1, |f(x)|), the absolute bound the
tests check, with tol = 1e-13 for ln Gamma / digamma and 1e-12 for trigamma.
Near a zero of f that is not a few ulp: against 40-digit mpmath,
ln_gamma(1 + 1e-7) is 1.5e8 ulp (1.7e-8 relative) off and ln_gamma(2.165)
571 ulp (ROADMAP item 4).  Near the blow-up edges (x -> 0+, psi ~ -1/x) the
scaled bound is the best any fixed-precision evaluation can promise.

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
# columns per shift block: 11 rows of 2^15 doubles is 2.9 MB (5.8 MB complex)
_BLOCK_COLUMNS = 1 << 15
# below 1/sqrt(max float) psi'(x) ~ 1/x^2 is not a finite double
_TRIGAMMA_MIN = 1.0 / math.sqrt(sys.float_info.max)
_TRIGAMMA_DOMAIN = f"trigamma requires x >= 1/sqrt(max float) = {_TRIGAMMA_MIN:.3g}, got {{!r}}"

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
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all() or (arr <= 0.0).any():
        raise ValueError(f"{name} requires finite positive argument(s)")
    return arr


def _check_positive_scalar(x, name):
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"{name} requires finite positive argument(s)")


def _sum_down(a):
    """Sums the 2-D array a down its rows in place, in row order: a row at a time
    past 256 columns, where np.add.accumulate, which walks the columns one by one
    (55 ns each against 1.5 us a row add on a 2.1 GHz Xeon), costs more."""
    if a.shape[1] <= 256:
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
    in the order of z.

    Column i of a (steps + 1) x size block holds z_i over the steps 1.0 while
    z_i still shifts, 0.0 after: summed down, row j is z_i + 1.0 + ... + 1.0
    as in an element-by-element loop.  Each term is one call on the block,
    zeroed past z_i's steps and summed down (np.add.reduce would sum a single
    column pairwise); + 0.0 gives a -0.0 sum the sign of 0.0 + ... has.
    """
    z = z.reshape(-1).copy()
    shifts = [np.zeros_like(z) for _ in series]
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
            for shift, (_, term) in zip(shifts, series):
                t = np.where(active, term(block[:-1]), 0.0)
                np.add(_sum_down(t)[-1], 0.0, out=shift[lo:lo + _BLOCK_COLUMNS])
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


_DIGAMMA_SERIES = (_DIGAMMA_COEFF, lambda z: 1.0 / z)
_TRIGAMMA_SERIES = (_TRIGAMMA_COEFF, lambda z: 1.0 / (z * z))


def _digamma_trigamma_array(x):
    """psi(x) and psi'(x) of a 1-D array x > 0 from one shift-and-series pass.

    Unchecked: the caller guarantees finite positive x.  Equal bit for bit to
    digamma(x) and trigamma(x).
    """
    z, w, ((s1, shift1), (s2, shift2)) = _series_array(x, _DIGAMMA_SERIES, _TRIGAMMA_SERIES)
    psi = np.log(z) - 0.5 / z - s1 * w - shift1
    psi1 = 1.0 / z + 0.5 * w + s2 * w / z + shift2
    return psi, psi1


def ln_gamma(x):
    """ln Gamma(x) for x > 0; accepts scalars or arrays."""
    if isinstance(x, (float, int)):
        x = float(x)
        _check_positive_scalar(x, "ln_gamma")
        shift = 0.0
        while x < _SHIFT:
            shift += math.log(x)
            x += 1.0
        w = 1.0 / (x * x)
        s = _LNGAMMA_COEFF[-1]
        for c in _LNGAMMA_COEFF[-2::-1]:
            s = s * w + c
        return (x - 0.5) * math.log(x) - x + _HALF_LN_2PI + s / x - shift
    arr = _as_positive_array(x, "ln_gamma")
    z, _, ((s, shift),) = _series_array(arr, (_LNGAMMA_COEFF, np.log))
    out = (z - 0.5) * np.log(z) - z + _HALF_LN_2PI + s / z - shift
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def digamma(x):
    """psi(x) = d/dx ln Gamma(x) for x > 0; accepts scalars or arrays."""
    if isinstance(x, (float, int)):
        x = float(x)
        _check_positive_scalar(x, "digamma")
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
        x = float(x)
        _check_positive_scalar(x, "trigamma")
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


def bessel_k0(x: float) -> LogValue:
    """ln K0(x) for x > 0, valid far beyond the underflow point of K0.

    Uses K0(x) = integral_0^inf exp(-x cosh t) dt, cut where x (cosh T - 1)
    = 48, with cosh t - 1 formed as 2 sinh^2(t/2) so that large x loses no
    digits.  The trapezoid rule on the even extension has error about
    exp(-pi^2 / h); max(256, 8 T) panels keep h <= 1/8 at any x.  The
    max-shift by -x keeps the sum in range for arbitrarily large x.
    """
    xf = float(x)
    if not np.isfinite(xf) or xf <= 0.0:
        raise ValueError("bessel_k0 requires finite x > 0")
    rx = math.sqrt(xf)
    T = 2.0 * math.asinh(math.sqrt(24.0) / rx)
    m = max(256, math.ceil(8.0 * T))
    # the node t = 0 has weight 1/2 and value 1
    u = np.exp(-2.0 * (rx * np.sinh(0.5 * T / m * np.arange(m + 1))) ** 2)
    return LogValue(float(-xf + np.log(T / m * (np.sum(u) - 0.5))))

"""Cross-checks between the four ln F_n routes and the Monte Carlo estimator."""

import dataclasses
import math
import re
import time
import tracemalloc
import warnings
from decimal import Decimal

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hslaplace.oracles
from hslaplace import (
    Method,
    ROUTES,
    bessel_k0,
    cross_check,
    evaluate,
    f1_exact,
    f2_exact,
    fn_contour,
    fn_montecarlo,
    fn_quadrature,
    fn_saddle_asymptotic,
    ln_gamma,
    ln_gamma_complex,
    solve_saddle,
)
from hslaplace.saddle import _LAMBDA_MAX

K0_2 = 0.11389387274953344
K0_1 = 0.42102443824070833
GAMMA_1P3_SQ = 0.805453650728474  # Gamma(1.3)^2
LN_F2_1EM20 = 4.510298606274229414  # ln(2 K0(2e-20)), mpmath 1.3.0, 40 digits
# Large-lambda references are decimal strings: rounding them to a double would
# hide a deviation below half an ulp of the value, which is what the rounding
# terms of the error claims must cover.
# ln(2 K0(2 lambda)), mpmath 1.3.0, 40 digits
LN_F2_LARGE = {
    1e6: "-2000006.33539039855742134",
    1e8: "-200000008.6379754296764826",
    1e12: "-2000000000013.24314561504",
}
# mpmath 1.3.0 integrals of Gamma(gamma + it)^3 lambda^{-3(gamma + it)} on the
# saddle line: 30 digits at lambda = 1e-20, 40 digits at 1e8
LN_F3_1EM20 = "9.1386453630632350"
LN_F3_1E8 = "-300000017.13210982298818594"
# ln(2 K0(2 lambda)), mpmath 1.3.0, 40 digits, at both ends of lambda
LN_F2_ENDS = {
    1e-90: "6.024200058962106848931154773916447503474",
    10**-60.8: "5.630637839292205349811113840652621990197",
    3e17: "-600000000000000019.5489144918587430729872",
    1e100: "-2.000000000000000031805782219519836093672e+100",
    1e300: "-2.000000000000000105009520510408840497409e+300",
}
# The Monte Carlo grid.  At 2e4 samples, seed 3, the Gaussian importance
# proposal refused 28 of these 42 points: all but lambda in [1e-3, 5000] at
# n in {2, 3} and lambda in [1e-3, 50] at n = 8.
MC_GRID = [
    (n, lam)
    for n in (2, 3, 8, 40, 200)
    for lam in (1e-20, 1e-12, 1e-3, 0.01, 1.0, 50.0, 5000.0, 1e8)
] + [(6, 5000.0), (1000, 1.0)]

# fn_montecarlo(n, lambda, samples, seed): hex of (ln_value, err_ln), in three
# groups frozen before three rewrites.  err_ln was re-pinned in all three when
# its rounding term became ``_ln_l_rounding``, which adds 1e-14 n for the error
# of n ln Gamma(gamma); the old values are given per group.  No ln_value moved
# then.  Eight ln_values moved when ln_gamma below 10 became the Taylor series
# at 2 (ln L enters each weight); before, in the order below, skipping the five
# at lambda = 100, 1e8 and 5: 0x1.4512e9415b516p+1, 0x1.2458cc75c3fedp+3,
# 0x1.073e8d5e681d0p+6, -0x1.27b430f85c3c7p-1, 0x1.559d4bd4753dbp+3,
# -0x1.e6f1ef83c8d45p+2, -0x1.7ad2a2ac7cf7ep+0, 0x1.94bda84ec53acp+0.  Eight
# pins moved when Newton started within 1.3e-9 of the saddle root (gamma, ln L
# and sigma moved within the stopping tolerance); before, as (ln_value, err_ln) in
# the order below, skipping the five that kept their bits:
# (0x1.4512e9415b512p+1, 0x1.3497dfc5f0927p-8), (-0x1.93739a2c01c83p+7,
# 0x1.695124745b0e1p-9), (0x1.2458cc75c3ff2p+3, 0x1.cc28e902be59ap-8),
# (-0x1.27b430f85c3d4p-1, 0x1.534735292a2dfp-8), (0x1.559d4bd4753d7p+3,
# 0x1.2b8d3c25baa8cp-7), (-0x1.e6f1ef83c8d20p+2, 0x1.fc3ca43ec2011p-7),
# (-0x1.93764ffe2ffc2p+7, 0x1.4751875996a07p-10), (-0x1.7ad2a2ac7cf7ap+0,
# 0x1.786d7326b97c6p-10).  Seven pins moved when the weights became
# -gamma S - lambda expm1(-S) in one expm1 pass instead of the Taylor form of
# e^-S - 1 + S; before, in the order below, skipping the six that kept their
# bits, as (ln_value, err_ln): (0x1.4512e9415b510p+1, 0x1.3497dfc5f0926p-8),
# (-0x1.93739a2c01c83p+7, 0x1.695124745b0e4p-9), (-0x1.7d7841d8b38f5p+29,
# 0x1.e30c7f7d19367p-8), (-0x1.27b430f85c3d4p-1, 0x1.534735292a2dcp-8),
# (0x1.559d4bd4753d6p+3, 0x1.2b8d3c25baa8dp-7), (-0x1.7d7841d8ab169p+29,
# 0x1.b130e0f45032bp-9), (-0x1.7ad2a2ac7cf79p+0, 0x1.786d7326b97e6p-10).
MC_PINNED = [
    # pinned before the weight chain was rewritten in place; err_ln before the
    # re-pin, in order: 0x1.3497dfc5eaf15p-8, 0x1.695124744fcbcp-9,
    # 0x1.cc28e902b5e7ep-8, 0x1.fceb63802a302p-7, 0x1.e30c7f7d02b1dp-8
    (2, 1e-3, 20_000, 1, "0x1.4512e9415b511p+1", "0x1.3497dfc5f0927p-8"),
    (2, 100.0, 20_000, 2, "-0x1.93739a2c01c83p+7", "0x1.695124745b0e3p-9"),
    (3, 1e-20, 20_000, 3, "0x1.2458cc75c3ff2p+3", "0x1.cc28e902be59bp-8"),
    (40, 0.0944, 20_000, 4, "0x1.073e8d5e681dap+6", "0x1.fceb6380627bap-7"),
    (8, 1e8, 20_000, 5, "-0x1.7d7841d8b38f5p+29", "0x1.e30c7f7d19345p-8"),
    # pinned while the draws and the weight chain still ran on whole arrays:
    # 16384 samples fill one block of 2^14 exactly, 16385 leave a last block of
    # one element; err_ln before the re-pin, in order: 0x1.5347352921bc4p-8,
    # 0x1.2b8d3c25b39f5p-7, 0x1.fc3ca43e89b59p-7, 0x1.47518759801bep-10,
    # 0x1.b130e0f423298p-9
    (3, 0.7, 16_384, 11, "-0x1.27b430f85c3d4p-1", "0x1.534735292a2ddp-8"),
    (5, 1e-3, 16_385, 12, "0x1.559d4bd4753d6p+3", "0x1.2b8d3c25baa8bp-7"),
    (40, 1.0, 16_385, 14, "-0x1.e6f1ef83c8d21p+2", "0x1.fc3ca43ec203bp-7"),
    (2, 100.0, 100_000, 13, "-0x1.93764ffe2ffc2p+7", "0x1.4751875996a09p-10"),
    (8, 1e8, 100_000, 15, "-0x1.7d7841d8ab169p+29", "0x1.b130e0f450328p-9"),
    # pinned while _exp_excess still moved its |u| < 1/2 entries through a
    # boolean mask and the standard error came from np.std: 40%, 13% and 57% of
    # the |S| values fall below 1/2, in random order; err_ln before the re-pin,
    # in order: 0x1.786d7326a2f7cp-10, 0x1.e1ce0894c0264p-10, 0x1.33f67685c0cafp-8
    (2, 1.0, 100_000, 16, "-0x1.7ad2a2ac7cf79p+0", "0x1.786d7326b97e5p-10"),
    (2, 0.05, 100_000, 17, "0x1.94bda84ec53b6p+0", "0x1.e1ce0894d6aaep-10"),
    (3, 5.0, 16_385, 18, "-0x1.eb0c5f8725788p+3", "0x1.33f67685c93cbp-8"),
]

# fn_contour(n, lambda): hex of (ln_value, err_ln), pinned before the first
# level's nodes and midpoints went into one ln Gamma call.  err_ln was
# re-pinned when it gained the rounding floor 1e-15 n (1 + |phi0| +
# gamma |ln lambda|); before, in the order below: 0x1.1293e0ef242aep-35,
# 0x1.6616c642f94c0p-39, 0x1.30da8986e5a0ap-37, 0x1.3a93e569a6e9ep-12,
# 0x1.1000b18caf3d7p-29, 0x1.acbbb70e53956p-34.  It was re-pinned again
# when it gained 1e-14 n for the absolute error of n ln Gamma(gamma); before:
# 0x1.12a341d782c42p-35, 0x1.666796083e450p-39, 0x1.326e98613e7d9p-37,
# 0x1.40afdb1f41691p-12, 0x1.108e431a454ccp-29, 0x1.cc321c7371c85p-33.
# It was re-pinned a third time when the floor became ``_ln_l_rounding``, whose
# 2 gamma |ln lambda| doubles the old gamma |ln lambda|; before, at the four
# points that moved: 0x1.12b9c67309655p-35 (1, 1e-20), 0x1.40afdb1fc884bp-12
# (3, 1e8), 0x1.11ee1b185ce31p-29 (1000, 0.05), 0x1.4c670210dba26p-30
# (1e5, 0.918).  No ln_value moved those times.  Every pin moved when the
# integrand became n (D(t) + it (psi(gamma) - ln lambda)) from
# specfun._ln_gamma_line and phi(0) took ln Gamma(gamma) from
# its Taylor series at 2; before, in the order below, ln_value:
# -0x1.8000000000000p-49, -0x1.7ab617e77f31ap+0, -0x1.e6c44d85d5e68p+2,
# -0x1.1e1a31121d1fap+28, 0x1.ee640c80ff713p+10, -0x1.22aa8bca95512p+4, and
# err_ln: 0x1.12bc0dc559346p-35, 0x1.69382979126a7p-39, 0x1.408179956338dp-37,
# 0x1.467b48fd15452p-12, 0x1.1212b7adf9533p-29, 0x1.4fa3dbc0b3990p-30.
# F_1(1e-20) = exp(-1e-20) now gives ln F = 0.0, 1e-20 off instead of 2.7e-15.
# phi(0) is now solve_saddle's ln L, which has the same bits since ln_gamma
# below 10 is that Taylor series too; the |ln L| of _ln_l_rounding moved the
# err_ln at (1e5, 0.918) by one ulp, from 0x1.3a1cdbc0b3844p-30.  Four pins
# moved when Newton started within 1.3e-9 of the saddle root (gamma, phi(0)
# and sigma moved within the stopping tolerance); before, in the order below,
# skipping the two that kept their bits: (0x0.0p+0, 0x1.12bd0dc559346p-35),
# (-0x1.7ab617e77f317p+0, 0x1.690c2979126a5p-39), (-0x1.e6c44d85d5e39p+2,
# 0x1.3e70799563373p-37), (-0x1.22aa8bca9096ap+4, 0x1.3a1cdbc0b3843p-30).
CONTOUR_PINNED = [
    (1, 1e-20, "0x0.0p+0", "0x1.12bc0dc559346p-35"),
    (2, 1.0, "-0x1.7ab617e77f316p+0", "0x1.690c297912694p-39"),
    (40, 1.0, "-0x1.e6c44d85d5e38p+2", "0x1.3e70799563373p-37"),
    (3, 1e8, "-0x1.1e1a31121d1f5p+28", "0x1.467a07d7bd44dp-12"),
    (1000, 0.05, "0x1.ee640c80ff712p+10", "0x1.120087adf9533p-29"),
    (100_000, 0.918, "-0x1.22aa8bca9096ap+4", "0x1.3a1cdbc0b3848p-30"),
]


def _deviation(value, exact):
    """|value - exact| for a double and a decimal string, without rounding exact."""
    return float(abs(Decimal(value) - Decimal(exact)))


class TestClosedForms:
    def test_f1_values(self):
        assert f1_exact(2.0).value.ln_value == -2.0
        assert f1_exact(0.5).value.ln_value == -0.5
        assert f1_exact(1.0).method is Method.CLOSED_FORM

    def test_f2_values(self):
        assert abs(f2_exact(1.0).value.ln_value - math.log(2.0 * K0_2)) < 1e-10
        assert abs(f2_exact(0.5).value.ln_value - math.log(2.0 * K0_1)) < 1e-10

    @pytest.mark.parametrize("lam", sorted(LN_F2_LARGE))
    def test_f2_claim_covers_rounding_at_large_lambda(self, lam):
        # the flat 1e-10 claim was breached here: 5.2e-9 at 1e8, 1.8e-5 at 1e12
        res = f2_exact(lam)
        assert _deviation(res.value.ln_value, LN_F2_LARGE[lam]) <= res.err_ln

    @pytest.mark.parametrize("lam", list(LN_F2_ENDS))
    def test_f2_at_both_ends_of_lambda(self, lam):
        # 256 fixed panels broke the 1e-10 claim below lambda ~ 1e-55 (5e-8 off
        # at 1e-90), and arccosh(1 + 48/x) rounded to 0 from lambda ~ 3e17 up
        res = f2_exact(lam)
        assert _deviation(res.value.ln_value, LN_F2_ENDS[lam]) <= res.err_ln


class TestContour:
    def test_n1_cahen_mellin(self):
        for lam in (0.5, 2.0, 10.0):
            assert abs(fn_contour(1, lam).value.ln_value + lam) < 1e-9

    def test_n2_against_closed_form(self):
        for lam in (0.3, 1.0, 5.0):
            ref = f2_exact(lam).value.ln_value
            assert abs(fn_contour(2, lam).value.ln_value - ref) < 1e-9

    def test_large_n_saddle_consistency(self):
        sol = solve_saddle(1.0)
        got = fn_contour(50, 1.0).value.ln_value
        predicted = 50 * sol.ln_L - 0.5 * math.log(2.0 * math.pi * 50 * sol.sigma)
        assert abs(got - predicted) < 0.01

    def test_monotone_in_lambda(self):
        for n in (3, 7):
            vals = [fn_contour(n, lam).value.ln_value for lam in np.logspace(-2, 1, 25)]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    # rounding in n ln Gamma(gamma + iT), which the integrand no longer forms,
    # swamped the drop at these points: the contour refused with "failed to
    # truncate the contour integrand" at the first four (and, past lambda ~
    # 1e154, the edge search overflowed z * z in the ln Gamma series) and with
    # "contour sum is inf" at the rest, where n (phi(t) - phi(0)) overflowed exp
    @pytest.mark.parametrize("n, lam", [
        (1, 1e90), (40, 1e100), (3, 1e160), (3, 1e300), (1000, 10**14.5),
        (10_000, 10**13.5), (10_000, 10**14.5), (100_000, 10**13.5),
    ])
    def test_answers_within_the_claims_of_an_independent_route(self, n, lam):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = fn_contour(n, lam)
        r = f1_exact(lam) if n == 1 else fn_quadrature(n, lam)
        assert abs(c.value.ln_value - r.value.ln_value) <= c.err_ln + r.err_ln

    @pytest.mark.parametrize("lam", [1e154, 1e200, 1e300, 1e305])
    @pytest.mark.parametrize("n", [1, 1000])
    def test_no_numpy_warning_up_to_lambda_1e305(self, n, lam):
        # T0 ~ 8 (lambda / n)^(1/2) reaches 2.5e153 here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fn_contour(n, lam)
        assert math.isfinite(res.value.ln_value) and math.isfinite(res.err_ln)

    def test_cross_check_runs_the_contour_where_truncation_failed(self):
        # the contour was refused here and the closed form was the only exact route
        results, refusals, max_dev = cross_check(1, 1e90)
        assert list(results) == [Method.CLOSED_FORM, Method.CONTOUR, Method.ASYMPTOTIC]
        assert refusals == {}
        assert 0.0 < max_dev <= results[Method.CLOSED_FORM].err_ln + results[Method.CONTOUR].err_ln

    def test_large_n_lambda_between_the_refusals_still_computes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fn_contour(10_000, 1e14)
        assert math.isfinite(res.value.ln_value) and math.isfinite(res.err_ln)

    def test_cross_check_answers_where_the_contour_is_the_only_exact_route(self):
        # every exact route refused here: "contour: contour sum is inf"
        results, refusals, max_dev = cross_check(10_000, 10**13.5)
        assert list(results) == [Method.CONTOUR, Method.ASYMPTOTIC]
        assert refusals == {} and max_dev == 0.0


# 10^400 is an exact Python int that no double holds; every route computes
# with float(n), which raised an uncaught OverflowError
_HUGE_N = 10**400


@pytest.mark.parametrize("route, call", [
    ("fn_contour", lambda n: fn_contour(n, 1.0)),
    ("fn_saddle_asymptotic", lambda n: fn_saddle_asymptotic(n, 1.0)),
    ("fn_quadrature", lambda n: fn_quadrature(n, 1.0)),
    ("fn_montecarlo", lambda n: fn_montecarlo(n, 1.0, 10_000, 0)),
])
def test_refuses_an_n_beyond_the_largest_double(route, call):
    with pytest.raises(ValueError, match=f"^{route} requires n <= max float, got n = {_HUGE_N}$"):
        call(_HUGE_N)


@pytest.mark.parametrize("n, lam", [(10**303, 1e-300), (10**308, 2.0)],
                         ids=["1e303-1e-300", "1e308-2"])
def test_asymptotic_where_2_pi_n_sigma_overflows(n, lam):
    # 2 pi n sigma overflowed to inf, so ln F_n came out -inf and LogValue
    # refused "ln_value must be finite, got -inf" although n ln L is finite
    res, sol = fn_saddle_asymptotic(n, lam), solve_saddle(lam)
    assert math.isinf(2.0 * math.pi * n * sol.sigma)
    lead = n * sol.ln_L - 0.5 * (math.log(2.0 * math.pi * sol.sigma) + math.log(n))
    assert math.isfinite(res.value.ln_value) and abs(res.value.ln_value - lead) <= res.err_ln


def test_every_claim_adds_the_bound_on_n_ln_l_once(monkeypatch):
    # the contour, saddle-point and Monte Carlo claims each take the error of
    # n ln L from _ln_l_rounding, and none adds a copy of its own
    monkeypatch.setattr(hslaplace.oracles, "_ln_l_rounding", lambda n, sol: 1e3)
    for res in (fn_contour(3, 1.0), fn_saddle_asymptotic(3, 1.0),
                fn_montecarlo(3, 1.0, 10_000, 1)):
        assert 1e3 <= res.err_ln < 2e3, res


@pytest.mark.parametrize("n, lam", [(1, _LAMBDA_MAX), (2, 2.5e305)])
def test_claims_are_finite_up_to_the_last_finite_ln_l(n, lam):
    # 1e-15 n (1 + |ln L| + 2 gamma |ln lambda|) overflowed from lambda ~ 1.28e305,
    # so these routes claimed err_ln = inf
    routes = [fn_contour, fn_saddle_asymptotic]
    routes += [lambda n, lam: fn_montecarlo(n, lam, 10_000, 1)] if n >= 2 else []
    for route in routes:
        assert math.isfinite(route(n, lam).err_ln), route
    c, r = fn_contour(n, lam), _closed_form(n, lam)
    assert abs(c.value.ln_value - r.value.ln_value) <= c.err_ln + r.err_ln


def test_asymptotic_where_n_cubed_is_no_double():
    # n^3 = 1e600 raised OverflowError in the remainder term C rho^6 / n^3
    res = fn_saddle_asymptotic(10**200, 1.0)
    assert math.isfinite(res.value.ln_value) and res.err_ln >= 1e-14 * 10**200


@pytest.mark.parametrize("n, routes", [
    (40, (fn_contour, fn_saddle_asymptotic, lambda n, lam: fn_quadrature(n, lam),
          lambda n, lam: fn_montecarlo(n, lam, 10_000, 1))),
    (2_100_000, (fn_contour, fn_saddle_asymptotic)),
])
@pytest.mark.parametrize("lam", [1e-20, 1.0])
def test_a_numpy_integer_n_gives_the_int_results(n, routes, lam):
    # np.int64(2_100_000)**3 wrapped to a negative remainder term, and every
    # route returned np.float64 fields
    def fields(res):
        return [v if v is None else (type(v), v.hex())
                for v in (res.value.ln_value, res.err_ln, res.slope)]

    for route in routes:
        expected = fields(route(n, lam))
        assert fields(route(np.int64(n), lam)) == expected
        assert all(f is None or f[0] is float for f in expected)


def _closed_form(n, lam):
    return (f1_exact if n == 1 else f2_exact)(lam)


class TestContourErrorContract:
    """|contour - reference| <= the claimed errors, down to lambda = 1e-20."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2]), st.floats(min_value=-20.0, max_value=8.0))
    def test_claim_covers_the_closed_forms(self, n, exponent):
        lam = 10.0**exponent
        c, r = fn_contour(n, lam), _closed_form(n, lam)
        assert abs(c.value.ln_value - r.value.ln_value) <= c.err_ln + r.err_ln

    def test_claim_covers_the_closed_forms_on_a_grid(self):
        for n in (1, 2):
            for lam in np.logspace(-20, 8, 57):
                c, r = fn_contour(n, lam), _closed_form(n, lam)
                assert abs(c.value.ln_value - r.value.ln_value) <= c.err_ln + r.err_ln, (n, lam)

    @pytest.mark.parametrize("n, lam, exact", [
        (1, 1e-20, -1e-20),
        (1, 1e-12, -1e-12),
        (2, 1e-20, LN_F2_1EM20),
    ])
    def test_small_lambda_breaches_of_the_fixed_step(self, n, lam, exact):
        # with the step T/2000 these deviated by 5.5e-6, 1.3e-8 and 9.6e-11
        # against claims near 1e-12
        res = fn_contour(n, lam)
        assert abs(res.value.ln_value - exact) <= res.err_ln

    @pytest.mark.parametrize("n", [3, 4])
    def test_agrees_with_quadrature(self, n):
        for lam in np.logspace(-2, 1, 4):
            q, c = fn_quadrature(n, lam), fn_contour(n, lam)
            assert abs(q.value.ln_value - c.value.ln_value) <= q.err_ln + c.err_ln, (n, lam)


@pytest.mark.parametrize("n, lam, ln_f, err_ln", CONTOUR_PINNED)
def test_contour_bits_are_pinned(n, lam, ln_f, err_ln):
    res = fn_contour(n, lam)
    assert (res.value.ln_value.hex(), res.err_ln.hex()) == (ln_f, err_ln)


# the unit crossing at n = 446 684 and its two neighbouring doubles, where
# the contour's rounding over one ulp (values 3.8e-10, -4.1e-10, -6.0e-10)
# exceeded its claim (7.7e-11, 1.0e-10, 1.4e-10) before the rounding floor
# 1e-15 n (1 + |phi0| + gamma |ln lambda|) ~ 5.0e-10 joined it
_LAM_446684 = 0.9179124170549844
_NEAR_CROSSING = [math.nextafter(_LAM_446684, 0.0), _LAM_446684, math.nextafter(_LAM_446684, 1.0)]


def test_contour_claim_covers_its_rounding_at_large_n():
    n = 446_684
    results = [fn_contour(n, lam) for lam in _NEAR_CROSSING]
    for lam, res in zip(_NEAR_CROSSING, results):
        # ln F_n changes by about n gamma ulp(lambda) / lambda per ulp; allow two
        slack = 2.0 * n * solve_saddle(lam).gamma * math.ulp(lam) / lam
        assert abs(res.value.ln_value) <= res.err_ln + slack
    for a, b in zip(results, results[1:]):
        assert abs(a.value.ln_value - b.value.ln_value) <= a.err_ln + b.err_ln


# ln F_n at n = 1e5 and a lambda near lambda_cr: the expansion through 1/n^2
# at the exact saddle of this double lambda, mpmath 1.3.0, 50 digits; its
# remainder is below 5e-18.  The contour is 2.0e-10 off, against a claim of
# 1.3e-10 before it gained 1e-14 n for the error of n ln Gamma(gamma).
LN_F_1E5_NEAR_CROSSING = "12.70224604907219061929825141595240759482"


def test_contour_claim_covers_the_error_of_n_ln_gamma():
    res = fn_contour(100_000, 0.9177941675490342)
    assert _deviation(res.value.ln_value, LN_F_1E5_NEAR_CROSSING) <= res.err_ln


def test_asymptotic_route_takes_ln_gamma_to_rounding_near_the_crossing():
    # n ln L carries n times the error of ln Gamma(gamma): 9.3e-13 off with the
    # Taylor series at 2, 2.5e-10 with gamma shifted past 10 for Stirling's series
    res = fn_saddle_asymptotic(100_000, 0.9177941675490342)
    assert _deviation(res.value.ln_value, LN_F_1E5_NEAR_CROSSING) <= 1e-11


class TestContourNodes:
    """How many nodes the contour route evaluates D(t) at."""

    @pytest.fixture
    def calls(self, monkeypatch):
        sizes = []
        kernel = hslaplace.oracles._ln_gamma_line

        def counting(gamma, t):
            sizes.append((np.ndim(t), np.size(t)))
            return kernel(gamma, t)

        monkeypatch.setattr(hslaplace.oracles, "_ln_gamma_line", counting)
        return sizes

    def test_auto_mode_at_n40(self, calls):
        fn_contour(40, 1.0)
        assert all(ndim == 1 for ndim, _ in calls)
        assert sum(size for _, size in calls) <= 300

    def test_one_array_call_at_n40(self, calls):
        # the bound picks the edge k = 1: the edge, then the first level's 51
        # nodes and its 50 midpoints, in one call
        fn_contour(40, 1.0)
        assert calls == [(1, 102)]

    def test_two_array_calls_at_the_n3_crossing(self, calls):
        # the bound first passes at k = 3, one candidate after the computed
        # drop does, so the first level has 63 intervals and one more halving
        # runs: 254 nodes, where the computed edge k = 2 took 126
        fn_contour(3, 0.5668652275040658)
        assert calls == [(1, 128), (1, 126)]

    def test_refuses_before_any_call_where_the_bound_never_passes(self, calls, monkeypatch):
        monkeypatch.setattr(hslaplace.oracles, "_drop_bound", lambda gamma, T: 0.0)
        with pytest.raises(RuntimeError, match=re.escape(
                "failed to truncate the contour integrand at n = 40, lambda = 1.0")):
            fn_contour(40, 1.0)
        assert calls == []

    def test_auto_mode_stays_under_the_cap(self, calls):
        fn_contour(1, 1e-20)
        assert sum(size for _, size in calls) <= 16_001

    def test_node_cap_scratch_memory_is_bounded(self):
        # the 8014 nodes at (1, 1e-20) were shifted in one 11 x 8014 complex
        # block, a 4.36 MiB traced peak; 2048-column blocks peak at 1.75 MiB
        tracemalloc.start()
        try:
            fn_contour(1, 1e-20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


# (1, 1e-20): the bound passes at k = 12; (3, 0.5668652275040658), the n = 3
# unit crossing: at k = 3, one candidate after the computed drop
_EDGE_PATH_POINTS = [
    (n, lam)
    for n in (1, 2, 3, 5, 20, 40, 1000, 100_000, 1_000_000)
    for lam in (1e-20, 1e-3, 0.5, 1e4, 1e13)
] + [(3, 0.5668652275040658), (376_284, 2.33e8), (20, 1e-5), (40, 1.0)]
# the corners of n and lambda
_EDGE_CORNERS = [(n, lam) for n in (1, 2, 1000, 1_000_000) for lam in (5e-324, 1e-300, 1.0, 1e300)]

# the points of a 2004-point seeded corpus (n log-uniform in [1, 1e6], lambda
# in [1e-20, 1e15]) whose bits moved when the batch search, which tried the
# candidates by the computed drop wherever the bound's pick was not confirmed,
# was deleted; each moved by at most 0.0022 of its claim
_MOVED_BY_THE_ONE_RULE = [
    (2, 9.661264830484384e-19), (1, 0.009617973232950928), (2, 3.660720360249341),
    (10, 0.0033081165709019744), (2, 0.07163483808545819), (2, 0.07080971307950228),
    (2, 3.6459404734034586), (5, 0.052446811974355696), (2, 2.1614031643388325e-18),
    (2, 1.3522145101394429e-18), (2, 2.3650075275280554e-18), (5, 3.25861470406448e-20),
]


class TestContourEdge:
    """The truncation edge picked from the Gamma product before any ln Gamma call."""

    @pytest.mark.parametrize("n, lam", _EDGE_PATH_POINTS + _EDGE_CORNERS)
    def test_answers_with_no_numpy_warning(self, n, lam):
        # 25 candidates reach the edge at every point, corners included
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fn_contour(n, lam)
        assert math.isfinite(res.value.ln_value) and math.isfinite(res.err_ln)

    @pytest.mark.parametrize("n, lam", _MOVED_BY_THE_ONE_RULE)
    def test_moved_points_lie_within_the_claims_of_the_other_exact_routes(self, n, lam):
        c = fn_contour(n, lam)
        refs = [_closed_form(n, lam)] if n <= 2 else []
        refs += [fn_quadrature(n, lam)] if n >= 2 else []
        for r in refs:
            assert abs(c.value.ln_value - r.value.ln_value) <= c.err_ln + r.err_ln, r.method

    @pytest.mark.parametrize("n, lam, k", [
        (1, 1e-20, 12), (3, 0.5668652275040658, 3), (40, 1.0, 1), (376_284, 2.33e8, 1),
    ])
    def test_edge_index(self, n, lam, k):
        sol = solve_saddle(lam)
        t0 = 8.0 / math.sqrt(n * sol.sigma)
        assert hslaplace.oracles._edge(n, sol.gamma, t0) == t0 * 1.5**k

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-3.0, max_value=3.0))
    @example(-3.0, 3.0)
    @example(3.0, -3.0)
    def test_bound_lies_below_the_drop(self, gamma_exp, t_exp):
        gamma, T = 10.0**gamma_exp, 10.0**t_exp
        lower = hslaplace.oracles._drop_bound(gamma, T)
        re_lg, lg = ln_gamma_complex(gamma + 1j * T).real, ln_gamma(gamma)
        drop = -2.0 * (re_lg - lg)
        slack = 4e-13 * (1.0 + abs(re_lg) + abs(lg))
        assert lower - slack <= drop


def _exp_excess_reference(u):
    """The np.where / np.polyval form that _exp_excess must match bit for bit."""
    poly = hslaplace.oracles._EXCESS_POLY
    with np.errstate(over="ignore"):
        return np.where(np.abs(u) < 0.5, u * u * np.polyval(poly, u), np.expm1(u) - u)


class TestExpExcess:
    EDGES = [0.0, -0.0, 5e-324, 1e-8, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0),
             1.0, 30.0]

    @pytest.mark.parametrize("u", [
        np.array(EDGES + [-v for v in EDGES] + [709.8, 710.0, -1e4]),
        np.random.default_rng(11).standard_normal(4000)
        * np.repeat([1e-6, 0.1, 0.5, 1.0, 10.0, 300.0, 1e4, 1e6], 500),
        np.empty(0),
        np.array([0.25]),
        np.random.default_rng(12).normal(0.0, 0.7, 1 << 14),
        np.random.default_rng(13).uniform(-0.5, 0.5, 1 << 14),
        np.random.default_rng(14).uniform(0.5, 40.0, 1 << 14)
        * np.random.default_rng(15).choice([-1.0, 1.0], 1 << 14),
    ], ids=["edges", "normal-corpus", "empty", "length-one", "block-half-small",
            "block-all-small", "block-none-small"])
    def test_bit_identical_to_the_polyval_form(self, u):
        before = u.tobytes()
        with np.errstate(over="ignore"):
            got = hslaplace.oracles._exp_excess(u)
        assert u.tobytes() == before
        assert got.shape == u.shape
        assert got.tobytes() == _exp_excess_reference(u).tobytes()


class TestQuadrature:
    def test_pairwise_route_agreement(self):
        for n in (2, 3, 4):
            for lam in (0.3, 1.0, 3.0):
                q = fn_quadrature(n, lam, 1e-7).value.ln_value
                c = fn_contour(n, lam).value.ln_value
                assert abs(q - c) < 1e-6, (n, lam)
                if n == 2:
                    assert abs(q - f2_exact(lam).value.ln_value) < 1e-8

    def test_n4_example(self):
        q = fn_quadrature(4, 2.0, 1e-7).value.ln_value
        c = fn_contour(4, 2.0).value.ln_value
        assert abs(q - c) < 1e-6

    def test_independent_of_the_contour_kernels(self, monkeypatch):
        def broken(*args):
            raise RuntimeError("the quadrature route must not call this")

        monkeypatch.setattr(hslaplace.oracles, "solve_saddle", broken)
        monkeypatch.setattr(hslaplace.oracles, "_ln_gamma_line", broken)
        for n in (2, 3, 4, 40):
            assert math.isfinite(fn_quadrature(n, 0.7).value.ln_value)

    def test_the_node_cap_first_binds_past_n_max(self):
        # ROUTES stops at the largest power of ten where no lambda in [1e-20, 1e8]
        # needs more than 2^19 nodes; lambda = 1e-20 needs the most
        n_max = ROUTES[Method.QUADRATURE].n_max
        assert n_max == 1000
        assert math.isfinite(fn_quadrature(n_max, 1e-20).value.ln_value)
        with pytest.raises(RuntimeError, match="quadrature did not reach the requested tolerance"):
            fn_quadrature(10 * n_max, 1e-20)

    def test_refuses_past_the_node_cap(self, monkeypatch):
        monkeypatch.setattr(hslaplace.oracles, "_MAX_NODES", 100)
        with pytest.raises(RuntimeError, match="quadrature did not reach the requested tolerance"):
            fn_quadrature(3, 1.0)

    def test_refuses_where_ln_f_is_below_the_largest_double(self):
        # ln F_n ~ -n lambda; it was "ln_value must be finite, got -inf"
        assert fn_quadrature(2, 5e307).value.ln_value == -1e308
        for n, lam in ((3, 1.7e308), (4, 5e307)):
            with pytest.raises(ValueError, match=re.escape(f"n = {n}, lambda = {lam!r}")):
                fn_quadrature(n, lam)

    def test_bits_do_not_depend_on_the_blas_thread_count(self, stdout_at_one_and_two_blas_threads):
        # OpenBLAS splits the dot products q @ i and q @ (i - mu)^2 over threads
        # for long lattices: (100, 1e-6) printed ln_F ...370e+02 with one thread
        # and ...376e+02 with two while the moments went through BLAS
        outputs = stdout_at_one_and_two_blas_threads(
            "from hslaplace import fn_quadrature\n"
            "for n, lam in ((100, 1e-6), (2, 1e-20), (3, 1.0)):\n"
            "    r = fn_quadrature(n, lam)\n"
            "    print(r.value.ln_value.hex(), r.err_ln.hex())\n")
        assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 3

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            fn_quadrature(1, 1.0)
        with pytest.raises(ValueError):
            fn_quadrature(2.0, 1.0)
        with pytest.raises(ValueError):
            fn_quadrature(2, 1.0, tol=1e-2)
        with pytest.raises(ValueError):
            fn_quadrature(2, -1.0)


class TestQuadratureErrorContract:
    """|quadrature - reference| <= the claimed errors, down to lambda = 1e-20."""

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=-20.0, max_value=12.0))
    def test_claim_covers_the_closed_form(self, exponent):
        lam = 10.0**exponent
        q, r = fn_quadrature(2, lam), f2_exact(lam)
        assert abs(q.value.ln_value - r.value.ln_value) <= q.err_ln + r.err_ln

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([3, 4]),
        st.floats(min_value=-20.0, max_value=8.0),
        st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12]),
    )
    def test_claim_covers_the_contour(self, n, exponent, tol):
        lam = 10.0**exponent
        q, c = fn_quadrature(n, lam, tol), fn_contour(n, lam)
        assert abs(q.value.ln_value - c.value.ln_value) <= q.err_ln + c.err_ln

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=5, max_value=1000), st.floats(min_value=-20.0, max_value=8.0))
    def test_claim_covers_the_contour_past_n4(self, n, exponent):
        # n = 5 .. n_max, where the quadrature is the contour's only exact cross-check
        lam = 10.0**exponent
        q, c = fn_quadrature(n, lam), fn_contour(n, lam)
        assert abs(q.value.ln_value - c.value.ln_value) <= q.err_ln + c.err_ln

    def test_claim_covers_the_contour_on_a_grid(self):
        for n in (3, 4):
            for lam in np.logspace(-20, 8, 29):
                q, c = fn_quadrature(n, lam), fn_contour(n, lam)
                assert abs(q.value.ln_value - c.value.ln_value) <= q.err_ln + c.err_ln, (n, lam)

    @pytest.mark.parametrize("n, lam, exact", [
        (3, 1e-20, LN_F3_1EM20),
        (3, 1e8, LN_F3_1E8),
        (2, 1e12, LN_F2_LARGE[1e12]),
    ])
    def test_failures_of_the_box_quadrature(self, n, lam, exact):
        # the nested box quadrature deviated by 2.0e-7 against a claim of
        # 1e-9, refused, and deviated by 1.08
        res = fn_quadrature(n, lam)
        assert _deviation(res.value.ln_value, exact) <= res.err_ln


class TestSaddleAsymptotic:
    def test_n2_lambda5_within_five_percent(self):
        approx = fn_saddle_asymptotic(2, 5.0).value.ln_value
        exact = f2_exact(5.0).value.ln_value
        assert abs(approx - exact) <= 0.05 * abs(exact)

    def test_n20_against_contour(self):
        approx = fn_saddle_asymptotic(20, 1.0).value.ln_value
        exact = fn_contour(20, 1.0).value.ln_value
        assert abs(approx - exact) < 0.01

    @pytest.mark.parametrize("lam", [1e110, 1e200, 1e300])
    def test_large_lambda_does_not_underflow(self, lam):
        # sigma^3 underflowed to zero here and raised ZeroDivisionError
        res = fn_saddle_asymptotic(3, lam)
        assert math.isfinite(res.value.ln_value) and math.isfinite(res.err_ln)
        assert abs(res.value.ln_value + 3.0 * lam) <= 1e-12 * 3.0 * lam

    @pytest.mark.parametrize("lam", [1e110, 1e200, 1e300])
    def test_claim_covers_the_rounding_of_n_ln_l(self, lam):
        # without its rounding term the claim was 1e-10 at n = 3, lambda = 1e200,
        # 4.6e186 off the quadrature
        a, q = fn_saddle_asymptotic(3, lam), fn_quadrature(3, lam)
        assert abs(a.value.ln_value - q.value.ln_value) <= a.err_ln + q.err_ln

    def test_claim_alone_covers_the_deviation_at_large_n(self):
        # psi'' and psi''' by central differences of trigamma biased t1 - t2
        # here: at n = 1e4, lambda = 0.0944 the deviation was 1.44e-9 against
        # a claim of 1.42e-9
        for n in (1000, 3000, 10_000, 100_000):
            for lam in np.linspace(0.0940, 0.0948, 81):
                a = fn_saddle_asymptotic(n, lam)
                diff = abs(a.value.ln_value - fn_contour(n, lam).value.ln_value)
                assert diff <= a.err_ln, (n, lam, diff, a.err_ln)

    def test_n1_crude_sanity(self):
        assert abs(fn_saddle_asymptotic(1, 1.0).value.ln_value - (-1.0)) < 1.0

    def test_error_claims_are_upper_bounds(self):
        for n in (1, 2, 5, 20):
            for lam in (0.5, 1.0, 5.0):
                a = fn_saddle_asymptotic(n, lam)
                c = fn_contour(n, lam)
                diff = abs(a.value.ln_value - c.value.ln_value)
                assert diff <= a.err_ln + c.err_ln, (n, lam, diff, a.err_ln)

    def test_error_claim_holds_where_the_first_order_term_vanishes(self):
        # t1 - t2 changes sign near lambda = 0.0944; without the 1/n^2 term the
        # claim fell below the deviation there (n = 8, lambda = 0.095: 3.3e-4
        # against 6.4e-5)
        for lam in np.linspace(0.05, 0.2, 31):
            for n in (1, 2, 4, 8, 40, 1000):
                a = fn_saddle_asymptotic(n, lam)
                c = fn_contour(n, lam)
                diff = abs(a.value.ln_value - c.value.ln_value)
                assert diff <= a.err_ln + c.err_ln, (n, lam, diff, a.err_ln)


# ln F_n(lambda), mpmath 1.3.0, 40 digits: -lambda at n = 1, ln(2 K0(2 lambda))
# at n = 2, the contour integral of Gamma(gamma + it)^n lambda^{-n(gamma + it)}
# on the saddle line at n >= 3
LN_F_BAND = {
    (1, 1e-20): "-9.999999999999999451532714542095716517295e-21",
    (1, 1e-3): "-0.001000000000000000020816681711721685132943",
    (1, 0.0944): "-0.09439999999999999780175841124219004996121",
    (1, 1.0): "-1.0",
    (2, 1e-20): "4.510298606274229415359191313009190373118",
    (2, 1e-3): "2.538533818136902149642192805717684569747",
    (2, 0.0944): "1.285293269120460964792220989798721501754",
    (2, 1.0): "-1.479341024415764625321181214979002663364",
    (3, 1e-20): "9.138645363063431312392965466375489163805",
    (3, 1e-3): "5.208437482845788361082476616868390806055",
    (3, 0.0944): "2.817838459629957894616116209856094173383",
    (3, 1.0): "-1.807635183649041844464035182530794820288",
    (10, 1e-20): "42.2786418516567337022174865759324664796",
    (10, 1e-3): "24.66642221932906172841739914845436904849",
    (10, 0.0944): "14.378938494117217554537982937604877907",
    (10, 1.0): "-3.266009341865721601038912551275033399238",
    (40, 1e-20): "186.1180249997997824794287414940985072799",
    (40, 1e-3): "109.8927087522600200210227796774854137847",
    (40, 0.0944): "65.82152382001833374277837663354221331796",
    (40, 1.0): "-7.605731373499615514242617170108166834059",
    (100, 1e-20): "474.7137971193490747485579300090213802821",
    (100, 1e-3): "281.2655758280806768250436191181624744136",
    (100, 0.0944): "169.6351935572924042172918390737680778437",
    (100, 1.0): "-15.35345442493380294688782017995612881182",
    (300, 1e-20): "1437.673970734052673482415716708740232167",
    (300, 1e-3): "853.4837684928595035485071870589798990346",
    (300, 0.0944): "516.6586362440844534216556546564897225544",
    (300, 1.0): "-40.20019685706697470148471910829796642373",
}


def _n3_deviation(n, lam):
    """n^3 (exact - asymptotic) and n^3 times the relative rounding of n ln L
    (without _ln_l_rounding's 1e-14 n)."""
    a = fn_saddle_asymptotic(n, lam)
    # the relative rounding of n ln L, written out: _ln_l_rounding's 1e-14 n
    # would add 8.1e-5 to n^3 rounding at n = 300, 40% of the 2e-4 bound below
    sol = solve_saddle(lam)
    rounding = 1e-15 * n * (1.0 + abs(sol.ln_L) + 2.0 * sol.gamma * abs(math.log(lam)))
    return n**3 * float(Decimal(LN_F_BAND[n, lam]) - Decimal(a.value.ln_value)), n**3 * rounding


class TestSaddleAsymptoticThroughOneOverNSquared:
    """The route through 1/n^2 is off by O(1/n^3), and its claim says so."""

    @pytest.mark.parametrize("n, lam", sorted(LN_F_BAND))
    def test_n3_deviation_stays_in_its_band(self, n, lam):
        # -0.0029 to +0.0045 here; the route through 1/n was off by 8e-2 at n = 1
        dev, rounding = _n3_deviation(n, lam)
        assert abs(dev) <= 0.005 + rounding
        assert abs(dev) / n**3 <= fn_saddle_asymptotic(n, lam).err_ln

    @pytest.mark.parametrize("lam", [1e-20, 1e-3, 0.0944, 1.0])
    def test_n3_deviation_levels_off(self, lam):
        # a wrong 1/n^2 coefficient would leave n^3 (exact - asymptotic) growing like n
        (d100, r100), (d300, r300) = _n3_deviation(100, lam), _n3_deviation(300, lam)
        assert abs(d300 - d100) <= 2e-4 + r100 + r300

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=100_000), st.floats(min_value=-20.0, max_value=8.0))
    @example(40, 0.0)
    @example(10_000, 0.0)
    @example(10_000, -1.025)  # lambda ~ 0.0944, where the 1/n term changes sign
    def test_claim_covers_the_contour(self, n, exponent):
        lam = 10.0**exponent
        try:
            c = fn_contour(n, lam)
        except RuntimeError:
            assume(False)
        a = fn_saddle_asymptotic(n, lam)
        assert abs(a.value.ln_value - c.value.ln_value) <= a.err_ln + c.err_ln

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2]), st.floats(min_value=-20.0, max_value=8.0))
    def test_claim_covers_the_closed_forms(self, n, exponent):
        lam = 10.0**exponent
        a, r = fn_saddle_asymptotic(n, lam), _closed_form(n, lam)
        assert abs(a.value.ln_value - r.value.ln_value) <= a.err_ln + r.err_ln


class TestContourSlope:
    """d ln F_n / d ln lambda from the contour's own nodes."""

    @staticmethod
    def _scale(n, lam, ref):
        # the slope is -n gamma plus a moment ratio of the same size
        return n * solve_saddle(lam).gamma + abs(ref)

    @pytest.mark.parametrize("lam", np.logspace(-20, 8, 15))
    def test_n1_is_minus_lambda(self, lam):
        res = fn_contour(1, lam)
        assert abs(res.slope + lam) <= 1e-11 * self._scale(1, lam, lam)

    @pytest.mark.parametrize("lam", np.logspace(-20, 8, 15))
    def test_n2_is_the_bessel_ratio(self, lam):
        # d ln K0(2 lambda) / d ln lambda = -2 lambda K1(2 lambda) / K0(2 lambda)
        ref = -2.0 * lam * scipy.special.k1e(2.0 * lam) / scipy.special.k0e(2.0 * lam)
        res = fn_contour(2, lam)
        assert abs(res.slope - ref) <= 1e-11 * self._scale(2, lam, ref)

    @pytest.mark.parametrize("n", [40, 1000])
    @pytest.mark.parametrize("lam", [1e-3, 0.0944, 0.918, 50.0])
    def test_central_difference(self, n, lam):
        h = 1e-5
        up, down = fn_contour(n, lam * math.exp(h)), fn_contour(n, lam * math.exp(-h))
        diff = (up.value.ln_value - down.value.ln_value) / (2.0 * h)
        assert abs(fn_contour(n, lam).slope - diff) <= 1e-8 * abs(diff)

    def test_other_routes_carry_no_slope(self):
        for res in (f1_exact(1.0), f2_exact(1.0), fn_quadrature(3, 1.0),
                    fn_saddle_asymptotic(3, 1.0), fn_montecarlo(3, 1.0, 10_000, 0)):
            assert res.slope is None


class TestPerDimensionRateConvergence:
    """(ln F_n)/n converges to ln L at the slow rate ln(2 pi n sigma)/(2 n)."""

    def test_defect_law(self):
        for lam in (0.5, 1.0, 2.0):
            sol = solve_saddle(lam)
            defects = []
            for n in (5, 10, 20, 40):
                a_n = fn_contour(n, lam).value.ln_value / n
                defect = abs(a_n - sol.ln_L)
                predicted = math.log(2.0 * math.pi * n * sol.sigma) / (2.0 * n)
                assert abs(defect - predicted) < 0.01, (n, lam)
                defects.append(defect)
            assert all(b < a for a, b in zip(defects, defects[1:]))


class TestPrefactorArbitration:
    def test_corrected_prefactor_wins(self):
        n = 40
        for lam in (0.5, 1.0, 2.0):
            sol = solve_saddle(lam)
            ln_f = fn_contour(n, lam).value.ln_value
            corrected = abs(ln_f - n * sol.ln_L + 0.5 * math.log(2.0 * math.pi * n * sol.sigma))
            variant = abs(ln_f - n * sol.ln_L + 0.5 * math.log(2.0 * math.pi * n / sol.sigma))
            assert corrected < 0.01
            assert variant > 0.01  # the sigma^{-1} form misses by |ln sigma|


class TestMellinForwardIdentity:
    def test_fn_pairs_with_gamma_power(self):
        # integral over (0, inf) of 2 F_2(lambda) lambda^{2s-1} dlambda at s=1.3
        # equals Gamma(1.3)^2; log substitution lambda = e^u, trapezoid.
        s = 1.3
        u = np.linspace(-30.0, 4.0, 3401)
        h = u[1] - u[0]
        ln_f2 = np.array([math.log(2.0) + bessel_k0(2.0 * math.exp(v)).ln_value for v in u])
        integrand = 2.0 * np.exp(ln_f2 + 2.0 * s * u)
        val = h * (integrand.sum() - 0.5 * (integrand[0] + integrand[-1]))
        assert abs(val - GAMMA_1P3_SQ) < 1e-6
        assert abs(val - math.exp(2.0 * ln_gamma(1.3))) < 1e-6


class TestMonteCarlo:
    def test_n2_against_closed_form(self):
        res = fn_montecarlo(2, 1.0, 10**6, seed=20240401)
        ref = f2_exact(1.0).value.ln_value
        assert abs(res.value.ln_value - ref) <= 3.0 * res.err_ln

    def test_n6_against_contour(self):
        res = fn_montecarlo(6, 1.0, 10**6, seed=20240402)
        ref = fn_contour(6, 1.0).value.ln_value
        assert abs(res.value.ln_value - ref) <= 3.0 * res.err_ln

    def test_seed_determinism(self):
        a = fn_montecarlo(3, 0.7, 20_000, seed=99)
        b = fn_montecarlo(3, 0.7, 20_000, seed=99)
        assert a.value.ln_value == b.value.ln_value
        assert a.err_ln == b.err_ln

    @pytest.mark.parametrize("n, lam, samples, seed, ln_f, err_ln", MC_PINNED)
    def test_seeded_bits_are_pinned(self, n, lam, samples, seed, ln_f, err_ln):
        res = fn_montecarlo(n, lam, samples, seed=seed)
        assert (res.value.ln_value.hex(), res.err_ln.hex()) == (ln_f, err_ln)

    def test_different_seeds_differ(self):
        a = fn_montecarlo(3, 0.7, 20_000, seed=1)
        b = fn_montecarlo(3, 0.7, 20_000, seed=2)
        assert a.value.ln_value != b.value.ln_value

    @pytest.mark.parametrize("n, lam", MC_GRID)
    def test_within_five_standard_errors_on_a_grid(self, n, lam):
        res = fn_montecarlo(n, lam, 20_000, seed=3)
        ref = f2_exact(lam) if n == 2 else fn_contour(n, lam)
        assert abs(res.value.ln_value - ref.value.ln_value) <= 5.0 * res.err_ln + ref.err_ln

    @pytest.mark.parametrize("n, lam", MC_GRID + [(2, 1e13), (3, 1e13), (8, 1e13)])
    def test_weights_match_the_cancellation_free_form(self, n, lam):
        # the same seeded draws, whole-array, weighted through _exp_excess:
        # -gamma S - lambda expm1(-S) cancels where lambda |S| is large, and
        # moves ln F by far less than the rounding of n ln L already claimed
        sol = solve_saddle(lam)
        rng = np.random.Generator(np.random.PCG64(3))
        s = -rng.standard_gamma(n - 1.0, 20_000) / sol.gamma - (n - 1) * math.log(lam)
        for _ in range(n - 1):
            s += np.log(rng.standard_gamma(sol.gamma + 1.0, 20_000))
        with np.errstate(over="ignore"):
            w = -lam * hslaplace.oracles._exp_excess(-s) - (sol.gamma - lam) * s
        m = w.max()
        ref = (n - 1) * sol.ln_L - lam + m + math.log(np.exp(w - m).mean())
        got = fn_montecarlo(n, lam, 20_000, seed=3).value.ln_value
        assert abs(got - ref) <= hslaplace.oracles._ln_l_rounding(n, sol)

    @pytest.mark.parametrize("lam", [1e110, 1e200, 1e300])
    def test_claim_covers_the_rounding_of_n_ln_l(self, lam):
        res, q = fn_montecarlo(3, lam, 10_000, seed=3), fn_quadrature(3, lam)
        assert abs(res.value.ln_value - q.value.ln_value) <= res.err_ln + q.err_ln

    def test_memory_is_linear_in_samples(self):
        # the Gaussian proposal held several (samples x n) arrays: 96 MB at
        # n = 200.  At 2e5 samples the whole-array draw and weight chain peaked at
        # 4.13 and 5.13 x samples x 8 bytes, and S with np.std's sample-length
        # temporary at 2.00; S with one block's temporaries and the standard error
        # in place in S peak at 1.08 (2e5 samples) and 1.02 (1e6).  The first call
        # of a process also imports numpy.random lazily, 1.56-1.83 x at 2e5, so an
        # untraced call comes first and no point depends on the order of the tests
        fn_montecarlo(2, 1.0, 10_000, seed=3)
        for samples, bound, points in ((20_000, 10, ((200, 1.0), (2, 100.0))),
                                       (200_000, 1.75, ((3, 1.0), (2, 100.0))),
                                       (1_000_000, 1.25, ((3, 1.0), (2, 100.0)))):
            for n, lam in points:
                tracemalloc.start()
                try:
                    fn_montecarlo(n, lam, samples, seed=3)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < bound * samples * 8, (samples, n, lam)

    @pytest.mark.parametrize("n, lam", [(10**6, 1e305), (1000, 2e305)])
    def test_saddle_routes_refuse_where_n_ln_l_overflows(self, n, lam):
        # ln L is finite here but n ln L is not; both routes raised LogValue's
        # bare "ln_value must be finite, got -inf"
        message = re.escape(f"n ln L is not a finite double at n = {n}, lambda = {lam!r}")
        for call in (lambda: fn_montecarlo(n, lam, 10_000, seed=1),
                     lambda: fn_saddle_asymptotic(n, lam)):
            with pytest.raises(ValueError, match=message):
                call()
        with pytest.raises(RuntimeError, match=re.escape(f"at n = {n}, lambda = {lam!r}")):
            fn_contour(n, lam)

    def test_saddle_routes_refuse_where_ln_l_overflows(self):
        # both failed with "ln_value must be finite, got nan", naming nothing
        for call in (lambda: fn_montecarlo(2, 5e307, 10_000, seed=0),
                     lambda: fn_saddle_asymptotic(2, 5e307)):
            with pytest.raises(ValueError, match=re.escape("at lambda = 5e+307")):
                call()

    def test_refuses_an_n_beyond_the_route_at_once(self):
        # it drew n - 1 arrays of samples variates: at n = 1e20 it ran for
        # minutes before it was killed
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^fn_montecarlo requires n <= 1000, got n = {10**20}$"):
            fn_montecarlo(10**20, 1.0, 10_000, 0)
        assert time.perf_counter() - start < 1.0
        assert math.isfinite(fn_montecarlo(1000, 1.0, 10_000, 0).value.ln_value)


class TestErrorClaimsAcrossRoutes:
    def test_exact_routes_mutually_consistent(self):
        for n in (2, 3):
            for lam in (0.5, 2.0):
                routes = [fn_quadrature(n, lam, 1e-8), fn_contour(n, lam)]
                if n == 2:
                    routes.append(f2_exact(lam))
                for i in range(len(routes)):
                    for j in range(i + 1, len(routes)):
                        diff = abs(routes[i].value.ln_value - routes[j].value.ln_value)
                        assert diff <= routes[i].err_ln + routes[j].err_ln


class TestRouteTable:
    def test_evaluate_refuses_exactly_outside_coverage(self):
        for method, route in ROUTES.items():
            for n in (*range(0, 6), 1000, 1001):
                if route.covers(n):
                    res = evaluate(method, n, 1.0, samples=10_000, seed=1)
                    assert res.method is method and math.isfinite(res.value.ln_value)
                else:
                    message = f"the {method.value} route covers" if n else (
                        "evaluate requires integer n >= 1")
                    with pytest.raises(ValueError, match=message):
                        evaluate(method.value, n, 1.0)
        with pytest.raises(ValueError, match="unknown method"):
            evaluate("no-such-route", 2, 1.0)

    def test_cross_check_runs_each_covering_route_once(self):
        results, refusals, max_dev = cross_check(3, 0.5, samples=20_000, seed=3)
        assert list(results) == [Method.QUADRATURE, Method.CONTOUR, Method.MONTE_CARLO,
                                 Method.ASYMPTOTIC]
        assert refusals == {}
        for method, res in results.items():
            assert res == evaluate(method, 3, 0.5, samples=20_000, seed=3)
        exact = [results[m].value.ln_value for m in (Method.QUADRATURE, Method.CONTOUR)]
        assert max_dev == abs(exact[0] - exact[1]) < 1e-8
        assert Method.MONTE_CARLO not in cross_check(3, 0.5)[0]
        with pytest.raises(ValueError, match="cross_check requires integer n >= 1, got n = 0"):
            cross_check(0, 1.0)

    def test_cross_check_records_refusals_and_runs_the_rest(self, monkeypatch):
        results, refusals, max_dev = cross_check(3, 1e8, tol=1e-2)
        assert list(results) == [Method.CONTOUR, Method.ASYMPTOTIC]
        assert refusals == {Method.QUADRATURE: "tol must lie in [1e-12, 1e-3]"}
        assert max_dev == 0.0

        def refuse(*args):
            raise RuntimeError("no value here")

        refusing = dataclasses.replace(ROUTES[Method.CONTOUR], call=refuse)
        monkeypatch.setitem(ROUTES, Method.CONTOUR, refusing)
        results, refusals, _ = cross_check(2, 1.0)
        assert list(results) == [Method.CLOSED_FORM, Method.QUADRATURE, Method.ASYMPTOTIC]
        assert refusals == {Method.CONTOUR: "no value here"}
        # past the quadrature's n_max the contour is the only exact route
        with pytest.raises(ValueError, match="every exact route refused: contour: no value here"):
            cross_check(1001, 1.0)
        with pytest.raises(ValueError, match="lambda must be a finite positive real"):
            cross_check(2, -1.0)

"""Saddle layer: inverse digamma, the two L routes, the critical point."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hslaplace import (
    EULER_GAMMA,
    L_value,
    L_value_legendre,
    critical_point,
    digamma,
    gamma_asymptotic_zero,
    inverse_digamma,
    ln_gamma,
    solve_saddle,
    tabulate,
    trigamma,
)
from hslaplace.saddle import _legendre_argmin

# frozen references (mpmath):
GAMMA_MIN = 1.4616321449683623        # psi(x) = 0, the minimiser of Gamma
LN_GAMMA_AT_MIN = -0.1214862905358496  # ln Gamma(GAMMA_MIN) = ln 0.88560319...
GAMMA_CR = 1.3766109186462146          # root of ln Gamma(g) = g psi(g)
LAMBDA_CR = 0.9179235347379753         # exp(psi(GAMMA_CR))
INV_DIGAMMA_LN_001 = 0.22971839846991753  # inverse digamma of ln(0.01)


def _bisect_digamma(y, lo, hi, tol=1e-13):
    """Independent bisection oracle for the inverse of psi."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if digamma(mid) < y:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


class TestInverseDigamma:
    def test_at_minus_euler(self):
        assert abs(inverse_digamma(-EULER_GAMMA) - 1.0) < 1e-12

    def test_at_psi_two(self):
        assert abs(inverse_digamma(1.0 - EULER_GAMMA) - 2.0) < 1e-12

    def test_gamma_minimum_vs_bisection_oracle(self):
        oracle = _bisect_digamma(0.0, 1.0, 2.0)
        got = inverse_digamma(0.0)
        assert abs(got - oracle) < 1e-11
        assert abs(got - GAMMA_MIN) < 1e-11

    def test_residuals_across_range(self):
        for y in (-700.0, -13.8, -2.6, -0.1, 0.0, 2.3, 9.2103):
            g = inverse_digamma(y)
            assert g > 0.0
            assert abs(digamma(g) - y) < 1e-12

    @settings(max_examples=80, deadline=None)
    @given(st.floats(min_value=-13.8, max_value=9.2))
    def test_round_trip_property(self, y):
        lam = math.exp(y)
        g = inverse_digamma(math.log(lam))
        assert abs(math.exp(digamma(g)) - lam) <= 1e-10 * lam

    def test_round_trip_grid(self):
        lams = np.logspace(-6, 4, 1000)
        for lam in lams:
            g = inverse_digamma(math.log(lam))
            assert abs(math.exp(digamma(g)) - lam) <= 1e-10 * lam

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            inverse_digamma(math.nan)


class TestSolveSaddle:
    def test_lambda_one(self):
        sol = solve_saddle(1.0)
        assert abs(sol.gamma - GAMMA_MIN) < 1e-11
        assert abs(sol.ln_L - LN_GAMMA_AT_MIN) < 1e-11

    def test_gamma_two_point(self):
        lam = math.exp(1.0 - EULER_GAMMA)
        assert abs(solve_saddle(lam).gamma - 2.0) < 1e-11

    def test_large_lambda_stirling_shift(self):
        sol = solve_saddle(1e6)
        assert abs(sol.gamma - 1e6 - 0.5) < 1e-5

    def test_type_invariants(self):
        for lam in (1e-4, 0.3, 1.0, 7.0, 1e3):
            sol = solve_saddle(lam)
            assert abs(digamma(sol.gamma) - math.log(lam)) < 1e-11
            assert sol.ln_L == ln_gamma(sol.gamma) - sol.gamma * math.log(lam)
            assert sol.sigma == trigamma(sol.gamma) > 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            solve_saddle(0.0)
        with pytest.raises(ValueError):
            solve_saddle(-1.0)


class TestLValue:
    def test_at_one_is_gamma_minimum(self):
        assert abs(L_value(1.0).ln_value - LN_GAMMA_AT_MIN) < 1e-11

    def test_large_lambda_exponential_decay(self):
        lam = 50.0
        defect = L_value(lam).ln_value + lam - 0.5 * math.log(2.0 * math.pi / lam)
        assert abs(defect) < 2e-3

    def test_critical_value_is_one(self):
        assert abs(L_value(critical_point().lambda_cr).ln_value) < 1e-10

    def test_strictly_decreasing(self):
        grid = np.logspace(-3, 3, 200)
        vals = [L_value(l).ln_value for l in grid]
        assert np.all(np.diff(vals) < 0.0)

    def test_small_lambda_corrected_form(self):
        # ln L = 1 + ln(|ln lam| - C) + O(1/(|ln lam| - C)^2); the magnitude
        # of the defect shrinks monotonically as lambda -> 0
        defects = []
        for k in range(3, 9):
            lam = 10.0 ** (-k)
            u = -math.log(lam)
            defects.append(abs(L_value(lam).ln_value - 1.0 - math.log(u - EULER_GAMMA)))
        assert all(b < a for a, b in zip(defects, defects[1:]))


class TestLegendreRoute:
    def test_route_agreement_grid(self):
        for lam in np.logspace(-3, 3, 40):
            a = L_value(lam).ln_value
            b = L_value_legendre(lam).ln_value
            assert abs(a - b) < 1e-9

    def test_route_agreement_examples(self):
        for lam in (1.0, 0.5):
            assert abs(L_value(lam).ln_value - L_value_legendre(lam).ln_value) < 1e-9

    def test_minimiser_matches_saddle_abscissa(self):
        for lam in (0.5, 1.0, 2.0):
            g_min, _ = _legendre_argmin(lam)
            assert abs(g_min - solve_saddle(lam).gamma) < 1e-7

    def test_domain_error(self):
        with pytest.raises(ValueError):
            L_value_legendre(-2.0)


class TestCriticalPoint:
    def test_bracket_endpoint_signs(self):
        h1 = ln_gamma(1.0) - 1.0 * digamma(1.0)
        h2 = ln_gamma(2.0) - 2.0 * digamma(2.0)
        assert abs(h1 - EULER_GAMMA) < 1e-14
        assert abs(h2 - (2.0 * EULER_GAMMA - 2.0)) < 1e-13
        assert h1 > 0.0 > h2

    def test_values_and_residual(self):
        cp = critical_point()
        assert 1.37 <= cp.gamma_cr <= 1.39
        assert abs(cp.gamma_cr - GAMMA_CR) < 1e-12
        assert abs(cp.lambda_cr - LAMBDA_CR) < 1e-12
        assert cp.residual < 1e-12
        assert abs(cp.lambda_cr - math.exp(digamma(cp.gamma_cr))) < 1e-15
        # solved once and cached; the cached value is what a fresh solve gives
        assert critical_point() is cp
        assert critical_point.__wrapped__() == cp

    def test_h_strictly_decreasing(self):
        g = np.linspace(1.0, 2.0, 100)
        h = ln_gamma(g) - g * digamma(g)
        assert np.all(np.diff(h) < 0.0)


class TestGammaAsymptoticZero:
    def test_formula_values(self):
        for lam in (0.01, 1e-8):
            expected = 1.0 / (-math.log(lam) - EULER_GAMMA)
            assert gamma_asymptotic_zero(lam) == expected

    def test_agreement_improves_toward_zero(self):
        rel = []
        for lam in (1e-2, 1e-4, 1e-6, 1e-8):
            exact = inverse_digamma(math.log(lam))
            rel.append(abs(gamma_asymptotic_zero(lam) / exact - 1.0))
        assert all(b < a for a, b in zip(rel, rel[1:]))

    def test_exact_inverse_at_001(self):
        assert abs(inverse_digamma(math.log(0.01)) - INV_DIGAMMA_LN_001) < 1e-10

    def test_corrected_sign_beats_plus_c_variant(self):
        lam = 1e-6
        u = -math.log(lam)
        g = inverse_digamma(math.log(lam))
        corrected = abs(1.0 / g - (u - EULER_GAMMA))
        plus_c = abs(1.0 / g - (u + EULER_GAMMA))
        assert plus_c - corrected > 0.8  # the variants differ by 2C ~ 1.154

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gamma_asymptotic_zero(1.0)
        with pytest.raises(ValueError):
            gamma_asymptotic_zero(1.5)
        with pytest.raises(ValueError):
            gamma_asymptotic_zero(-0.1)


class TestTabulate:
    def test_single_point(self):
        rows = tabulate([1.0])
        assert len(rows) == 1
        assert abs(rows[0].gamma - GAMMA_MIN) < 1e-11

    def test_monotone_columns(self):
        rows = tabulate([0.5, 1.0, 2.0])
        gammas = [r.gamma for r in rows]
        ln_ls = [r.ln_L for r in rows]
        assert all(b > a for a, b in zip(gammas, gammas[1:]))
        assert all(b < a for a, b in zip(ln_ls, ln_ls[1:]))

    def test_monotone_columns_wide_grid(self):
        rows = tabulate(np.logspace(-3, 3, 150))
        gammas = [r.gamma for r in rows]
        ln_ls = [r.ln_L for r in rows]
        assert all(b > a for a, b in zip(gammas, gammas[1:]))
        assert all(b < a for a, b in zip(ln_ls, ln_ls[1:]))

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            tabulate([1.0, 0.5])
        with pytest.raises(ValueError):
            tabulate([0.0, 1.0])


class TestEnvelopeIdentity:
    def test_log_derivative_is_minus_gamma(self):
        # d ln L / d ln lambda = -gamma(lambda): first-order condition at the saddle
        h = 1e-5
        for lam in np.logspace(-3, 3, 100):
            up = L_value(lam * math.exp(h)).ln_value
            dn = L_value(lam * math.exp(-h)).ln_value
            fd = (up - dn) / (2.0 * h)
            assert abs(fd + solve_saddle(lam).gamma) < 1e-5


class TestLargeLambdaAbscissa:
    def test_half_shift(self):
        for lam in (100.0, 1e3, 1e4):
            g = solve_saddle(lam).gamma
            assert abs(g - lam - 0.5) < 1.0 / lam

"""Saddle layer: inverse digamma, the two L routes, the critical point."""

import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hslaplace import (
    EULER_GAMMA,
    L_value,
    L_value_legendre,
    SaddleSolution,
    critical_point,
    digamma,
    gamma_asymptotic_zero,
    inverse_digamma,
    ln_gamma,
    solve_saddle,
    tabulate,
    trigamma,
)
import hslaplace.saddle
from hslaplace.saddle import _legendre_argmin
from hslaplace.specfun import _digamma_trigamma_array

# frozen references (mpmath):
GAMMA_MIN = 1.4616321449683623        # psi(x) = 0, the minimiser of Gamma
LN_GAMMA_AT_MIN = -0.1214862905358496  # ln Gamma(GAMMA_MIN) = ln 0.88560319...
GAMMA_CR = 1.3766109186462146          # root of ln Gamma(g) = g psi(g)
LAMBDA_CR = 0.9179235347379753         # exp(psi(GAMMA_CR))
INV_DIGAMMA_LN_001 = 0.22971839846991753  # inverse digamma of ln(0.01)

# tabulate(np.logspace(-8, 6, 200)): index and hex of (gamma, ln_L, sigma),
# pinned before the array kernel's shift loop moved to prefix slices
TABULATE_PINNED = [
    (0, "0x1.c8d89d3b05c71p-5", "0x1.f12b82dbf7f60p+1", "0x1.43105edb63ddcp+8"),
    (117, "0x1.16ed28f672504p+1", "-0x1.12faedbf91823p+0", "0x1.28cf693b891f1p-1"),
    (199, "0x1.e8480fffffffcp+19", "-0x1.e848bfa4631a0p+19", "0x1.0c6f7a0b5ec06p-20"),
]


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

    def test_few_digamma_calls(self, monkeypatch):
        # the bracket starts at (0, inf); a pre-pass that bracketed the root
        # first took 7 calls at lambda = 1
        calls = []

        def counting(x):
            calls.append(x)
            return digamma(x)

        monkeypatch.setattr(hslaplace.saddle, "digamma", counting)
        solve_saddle(1.0)
        assert len(calls) <= 4

    @pytest.mark.parametrize("lam", [3e305, 5e307, 1.7e308])
    def test_refuses_where_ln_l_overflows(self, lam):
        # ln Gamma(gamma) overflows from lambda ~ 2.56e305 on; ln L was nan
        with pytest.raises(ValueError, match=re.escape(f"at lambda = {lam!r}")):
            solve_saddle(lam)

    def test_largest_finite_ln_l(self):
        sol = solve_saddle(2.5e305)
        assert math.isfinite(sol.ln_L) and sol.ln_L < -2.4e305


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

    def test_bits_are_pinned(self):
        rows = tabulate(np.logspace(-8, 6, 200))
        got = [(i, rows[i].gamma.hex(), rows[i].ln_L.hex(), rows[i].sigma.hex())
               for i, *_ in TABULATE_PINNED]
        assert got == TABULATE_PINNED

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            tabulate([1.0, 0.5])
        with pytest.raises(ValueError):
            tabulate([0.0, 1.0])

    @pytest.mark.parametrize("grid, message", [
        ([1.0, math.nan], "tabulate requires positive grid points"),
        ([0.0, 1.0], "tabulate requires positive grid points"),
        ([-1.0, 1.0], "tabulate requires positive grid points"),
        ([1.0, math.inf], "tabulate requires positive grid points"),
        # both faults: the point check comes first
        ([2.0, 0.0], "tabulate requires positive grid points"),
        ([1.0, 0.5], "tabulate requires a strictly increasing grid"),
        ([0.5, 1.0, 1.0], "tabulate requires a strictly increasing grid"),
    ])
    def test_bad_grid_messages(self, grid, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            tabulate(grid)

    def test_accepts_any_iterable(self):
        grid = np.logspace(-3, 3, 40)
        rows = tabulate(grid.tolist())
        assert tabulate(grid) == rows
        assert tabulate(float(v) for v in grid) == rows

    @pytest.mark.parametrize("size", [1, 2, 257, 2000])
    def test_columns_are_the_kernels_bit_for_bit(self, size):
        # sigma is the psi' of the Newton pass that accepted gamma; it must be
        # trigamma(gamma) in every bit, as ln L must be ln_gamma's
        rng = np.random.default_rng(size)
        grids = [np.unique(10.0 ** rng.uniform(-320.0, 305.0, size)), np.logspace(-8, 6, 200)]
        for grid in grids:
            rows = tabulate(grid)
            ln_lam = np.array([math.log(v) for v in grid.tolist()])
            gamma = inverse_digamma(ln_lam)
            ln_l = ln_gamma(gamma) - gamma * ln_lam
            want = [(g.hex(), l.hex(), s.hex()) for g, l, s in
                    zip(gamma.tolist(), ln_l.tolist(), trigamma(gamma).tolist())]
            got = [(r.gamma.hex(), r.ln_L.hex(), r.sigma.hex()) for r in rows]
            assert got == want

    def test_sigma_of_roots_accepted_at_the_cap(self, monkeypatch):
        # with no residual below the stopping tolerance every root is taken
        # by the cap branch, within 1e-12, which supplies sigma itself
        monkeypatch.setattr(hslaplace.saddle, "_NEWTON_TOL", 0.0)
        rows = tabulate(np.logspace(-300, 300, 50))
        assert [r.sigma.hex() for r in rows] == [trigamma(r.gamma).hex() for r in rows]


class TestSaddleSolution:
    def test_fields_in_order(self):
        assert SaddleSolution._fields == ("lam", "gamma", "ln_L", "sigma")
        sol = solve_saddle(2.0)
        assert tuple(sol) == (sol.lam, sol.gamma, sol.ln_L, sol.sigma)

    def test_immutable(self):
        sol = solve_saddle(1.0)
        with pytest.raises(AttributeError):
            sol.gamma = 2.0
        with pytest.raises(AttributeError):
            sol.extra = 2.0

    def test_equality_hash_and_repr(self):
        assert solve_saddle(1.0) == solve_saddle(1.0)
        assert hash(solve_saddle(1.0)) == hash(solve_saddle(1.0))
        assert solve_saddle(1.0) != solve_saddle(2.0)
        # the text of the frozen dataclass this type used to be
        assert repr(solve_saddle(1.0)) == (
            "SaddleSolution(lam=1.0, gamma=1.4616321449683431, "
            "ln_L=-0.12148629053585047, sigma=0.9676722454476383)"
        )


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


def _assert_matches_scalar_route(rows):
    """Each row agrees with solve_saddle at its lambda: gamma and sigma to
    1e-13 relative, ln L to 1e-13 * max(1, |ln L|) (ln L crosses zero at
    lambda_cr, where its ulp-level differences have no relative scale)."""
    for row in rows:
        ref = solve_saddle(row.lam)
        assert abs(row.gamma - ref.gamma) <= 1e-13 * ref.gamma, row
        assert abs(row.sigma - ref.sigma) <= 1e-13 * ref.sigma, row
        assert abs(row.ln_L - ref.ln_L) <= 1e-13 * max(1.0, abs(ref.ln_L)), row


class TestArrayRoute:
    """inverse_digamma on arrays and tabulate against the scalar route."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=-300.0, max_value=300.0), min_size=1, max_size=40))
    def test_agrees_with_scalar_route(self, exponents):
        grid = sorted({10.0**e for e in exponents})
        _assert_matches_scalar_route(tabulate(grid))
        ys = np.log(grid)
        gammas = inverse_digamma(ys)
        for y, g in zip(ys.tolist(), gammas.tolist()):
            ref = inverse_digamma(y)
            assert abs(g - ref) <= 1e-13 * ref

    def test_seeded_grids_across_the_range(self):
        rng = np.random.default_rng(5)
        for lo, hi in ((-300.0, 300.0), (-8.0, 6.0), (-0.06, 0.0), (5.5, 6.1)):
            _assert_matches_scalar_route(tabulate(np.unique(10.0 ** rng.uniform(lo, hi, 500))))

    def test_extreme_y_and_shapes(self):
        ys = np.array([[-700.0, 700.0], [0.0, -2.22]])
        got = inverse_digamma(ys)
        assert got.shape == (2, 2)
        for y, g in zip(ys.ravel().tolist(), got.ravel().tolist()):
            assert abs(g - inverse_digamma(y)) <= 1e-13 * g
        zero_d = inverse_digamma(np.array(-700.0))
        assert type(zero_d) is float
        assert abs(zero_d - inverse_digamma(-700.0)) <= 1e-13 * zero_d
        assert inverse_digamma(np.array([])).shape == (0,)
        assert tabulate([]) == []

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            inverse_digamma(np.array([0.0, math.nan]))
        with pytest.raises(ValueError):
            inverse_digamma(np.array([math.inf]))
        for bad in ([1.0, math.nan], [0.0, 1.0], [-1.0, 1.0]):
            with pytest.raises(ValueError):
                tabulate(bad)

    def test_rejects_y_beyond_the_largest_double(self):
        # the root is about e^y, which is not a finite double above 709.78;
        # the initial guess used to raise OverflowError there
        edge = math.log(sys.float_info.max)
        for y in (709.79, 710.0, 1e3):
            with pytest.raises(ValueError, match=r"y <= ln\(max float\) = 709\.78"):
                inverse_digamma(y)
            with pytest.raises(ValueError, match=r"y <= ln\(max float\) = 709\.78"):
                inverse_digamma(np.array([1.0, y]))
        for g in (inverse_digamma(edge), float(inverse_digamma(np.array([edge]))[0])):
            assert abs(g / sys.float_info.max - 1.0) < 1e-11

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(hslaplace.saddle, "_NEWTON_CAP", 1)
        with pytest.raises(RuntimeError, match="failed to converge"):
            inverse_digamma(-2.0)
        with pytest.raises(RuntimeError, match="failed to converge"):
            inverse_digamma(np.array([0.0, -2.0]))
        with pytest.raises(RuntimeError, match="failed to converge"):
            tabulate([0.5, 1.0])

    def test_refuses_where_ln_l_overflows_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape("at lambda = 3e+305")):
                tabulate([1e300, 2.5e305, 3e305, 1e308])

    def test_no_numpy_warnings(self):
        # above lambda ~ 1e154 the series' z * z overflows to inf (harmlessly)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = tabulate(np.logspace(-300, 300, 601))
            inverse_digamma(np.array([-700.0, 700.0]))
        assert len(rows) == 601

    def test_fused_pass_equals_the_kernels(self):
        x = np.concatenate([np.logspace(-8, 12, 2000), np.linspace(0.1, 12.0, 500)])
        psi, psi1 = _digamma_trigamma_array(x)
        assert np.array_equal(psi, digamma(x))
        assert np.array_equal(psi1, trigamma(x))

    def test_tabulate_makes_few_array_passes(self, monkeypatch):
        calls = {"scalar": 0, "array": 0}
        names = []

        def counting(fn):
            def wrapped(x, *args):
                calls["scalar" if isinstance(x, (float, int)) else "array"] += 1
                names.append(fn.__name__)
                return fn(x, *args)
            return wrapped

        for name in ("digamma", "trigamma", "ln_gamma", "_digamma_trigamma_array"):
            monkeypatch.setattr(hslaplace.saddle, name, counting(getattr(hslaplace.saddle, name)))
        rows = tabulate(np.logspace(-8, 6, 200))
        assert len(rows) == 200
        assert calls["scalar"] == 0
        assert calls["array"] <= 12
        # sigma comes from the Newton pass's own psi'
        assert "trigamma" not in names

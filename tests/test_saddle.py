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
    inverse_digamma,
    ln_gamma,
    solve_saddle,
    tabulate,
    trigamma,
)
import hslaplace.saddle
from hslaplace.saddle import (
    _DOMAIN, _LAMBDA_MAX, _START_EDGES, _Y_MAX, _Y_MIN, _initial_guess, _initial_guess_array,
    _inverse_digamma_array, _legendre_argmin,
)
from hslaplace.specfun import _digamma_trigamma_array

# frozen references (mpmath):
GAMMA_MIN = 1.4616321449683623        # psi(x) = 0, the minimiser of Gamma
LN_GAMMA_AT_MIN = -0.1214862905358496  # ln Gamma(GAMMA_MIN) = ln 0.88560319...
GAMMA_CR = 1.3766109186462146          # root of ln Gamma(g) = g psi(g)
LAMBDA_CR = 0.9179235347379753         # exp(psi(GAMMA_CR))
INV_DIGAMMA_LN_001 = 0.22971839846991753  # inverse digamma of ln(0.01)

# tabulate(np.logspace(-8, 6, 200)): index and hex of (gamma, ln_L, sigma),
# pinned before the array kernel's shift loop moved to prefix slices.  ln_L at
# rows 0 and 117 moved when ln_gamma below 10 became the Taylor series at 2;
# before: 0x1.f12b82dbf7f60p+1 and -0x1.12faedbf91823p+0.  Every row moved,
# within the stopping tolerance, when Newton started within 1.3e-9 of the root
# instead of from Minka's guess; before, in the order below: (0x1.c8d89d3b05c71p-5,
# 0x1.f12b82dbf7f63p+1, 0x1.43105edb63ddcp+8), (0x1.16ed28f672504p+1,
# -0x1.12faedbf91826p+0, 0x1.28cf693b891f1p-1) and (0x1.e8480fffffffcp+19,
# -0x1.e848bfa4631a0p+19, 0x1.0c6f7a0b5ec06p-20)
TABULATE_PINNED = [
    (0, "0x1.c8d89d3b05c74p-5", "0x1.f12b82dbf7f64p+1", "0x1.43105edb63dd8p+8"),
    (117, "0x1.16ed28f672503p+1", "-0x1.12faedbf91826p+0", "0x1.28cf693b891f2p-1"),
    (199, "0x1.e8480fffffe96p+19", "-0x1.e848bfa463190p+19", "0x1.0c6f7a0b5eccap-20"),
]

# the 15 of 20 000 lam = exp(U(ln 1e-320, ln 1e305)) (default_rng(99)) at which
# Newton ran to its 50-step cap, with the root it returned there and psi' at it
REPEATED_ITERATE = [
    (1.744163723899828e-280, "0x1.97503a386d996p-10", "0x1.94815c9978acep+18"),
    (3.484969027e-314, "0x1.6b7d2d137bd8ap-10", "0x1.fbec8f47a013ap+18"),
    (1.043919070549343e-306, "0x1.7460b928d921ep-10", "0x1.e3f6f7da6f4f1p+18"),
    (8.956e-320, "0x1.651d81351796cp-10", "0x1.071bb440a9232p+19"),
    (6.692171209086888e-234, "0x1.e8c61c1998b22p-10", "0x1.18e8d44820efdp+18"),
    (7.407786038668901e-298, "0x1.7f7ac966bbf16p-10", "0x1.c859433a82b84p+18"),
    (1.422180262626685e-269, "0x1.a7dc1c7db75c0p-10", "0x1.758a465df5abep+18"),
    (2.17863e-319, "0x1.658c5a4064decp-10", "0x1.0678aa2a801e9p+19"),
    (1.51787719112638e-273, "0x1.a1af00717504ap-10", "0x1.80ab2fde90583p+18"),
    (5.174807599278336e-280, "0x1.9800b8b5fddcap-10", "0x1.9323b24bfca8ap+18"),
    (6.89023159908986e-301, "0x1.7b9a7fa0aef04p-10", "0x1.d1b73ca372ed2p+18"),
    (2.0947796562897123e-233, "0x1.e9d0e4e4537d0p-10", "0x1.17b727a2d366bp+18"),
    (1.63707e-318, "0x1.6688d5108b5f4p-10", "0x1.0507828f7497ep+19"),
    (1.4125e-320, "0x1.64380fcdebe3ap-10", "0x1.086f11a4abe78p+19"),
    (1.0960569713005e-311, "0x1.6e692d9532318p-10", "0x1.f3db0d5f28093p+18"),
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


class TestNewtonStart:
    """The closed-form start of Newton, against the roots it starts from."""

    @staticmethod
    def _grid():
        # dense in y where the three polynomials join, log-spaced out to both
        # ends of the domain, and each edge with its neighbouring doubles
        edges = [v for e in (*_START_EDGES, _Y_MIN, _Y_MAX)
                 for v in (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf))]
        ys = np.concatenate([
            np.linspace(-40.0, 40.0, 80_001),
            -np.logspace(0.0, math.log10(-_Y_MIN), 20_000),
            np.logspace(0.0, math.log10(_Y_MAX), 2_000),
            np.array(edges),
        ])
        return ys[(ys >= _Y_MIN) & (ys <= _Y_MAX)]

    def test_within_3e_8_of_the_root(self):
        # 1.31e-9 at worst, near y = -3; Minka's guess was 35% off
        ys = self._grid()
        rel = np.abs(_initial_guess_array(ys) / inverse_digamma(ys) - 1.0)
        assert rel.max() <= 3e-8, ys[rel.argmax()]

    def test_scalar_and_array_starts_are_equal(self):
        ys = self._grid()
        got = [v.hex() for v in _initial_guess_array(ys).tolist()]
        assert got == [_initial_guess(y).hex() for y in ys.tolist()]

    def test_minkas_guess_at_the_ends_of_the_domain(self):
        # the fits keep exact leading coefficients: -1/(y + C) at the left edge,
        # e^y + 1/2 at the right
        assert _initial_guess(_Y_MIN) == -1.0 / (_Y_MIN + EULER_GAMMA)
        assert _initial_guess(_Y_MAX) == math.exp(_Y_MAX) + 0.5


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

    def test_few_digamma_calls(self, monkeypatch):
        # the start lies within 1.3e-9 of the root, so one Newton step meets the
        # stop; from Minka's guess it took up to 6 calls on this grid (4 at
        # lambda = 1), and a pre-pass that bracketed the root first 7 at lambda = 1
        calls = []

        def counting(x):
            calls.append(x)
            return digamma(x)

        monkeypatch.setattr(hslaplace.saddle, "digamma", counting)
        counts = {}
        for lam in np.logspace(-8, 6, 57).tolist():
            calls.clear()
            solve_saddle(lam)
            counts[lam] = len(calls)
        assert max(counts.values()) <= 2, counts

    def test_stops_at_its_first_repeated_iterate(self, monkeypatch):
        # from y = -512 down an ulp of y exceeds the 1e-13 stop; at these lam the
        # bracket closed on two adjacent doubles, the iterate repeated by step 6,
        # and Newton ran on to its 50-step cap (51 psi calls) for the same root
        calls = []

        def counting(x):
            calls.append(x)
            return digamma(x)

        monkeypatch.setattr(hslaplace.saddle, "digamma", counting)
        for lam, gamma, _ in REPEATED_ITERATE:
            calls.clear()
            assert inverse_digamma(math.log(lam)).hex() == gamma
            assert len(calls) <= 7, lam
        passes = []

        def counting_passes(x):
            passes.append(x)
            return _digamma_trigamma_array(x)

        monkeypatch.setattr(hslaplace.saddle, "_digamma_trigamma_array", counting_passes)
        gamma, sigma = _inverse_digamma_array(np.array([math.log(v) for v, *_ in REPEATED_ITERATE]))
        assert [(g.hex(), s.hex()) for g, s in zip(gamma.tolist(), sigma.tolist())] == [
            (g, s) for _, g, s in REPEATED_ITERATE]
        assert len(passes) <= 7

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


@pytest.fixture
def ln_gamma_calls(monkeypatch):
    """The arguments of every ln_gamma call the saddle module makes."""
    calls = []

    def counting(x):
        calls.append(x)
        return ln_gamma(x)

    monkeypatch.setattr(hslaplace.saddle, "ln_gamma", counting)
    return calls


def _phi(g, lam):
    """The Legendre route's objective ln Gamma(g) - g ln(lam), +inf where it
    overflows, as the route counts it."""
    f = ln_gamma(g) - g * math.log(lam)
    return f if math.isfinite(f) else math.inf


class TestLegendreRoute:
    def test_route_agreement_grid(self):
        # the whole range where ln L is a finite double, up to _LAMBDA_MAX,
        # solve_saddle's last (tests/test_refusals.py refuses the next double);
        # at worst 2.6e-16 here, and 2.6e-13 while Brent's method refined the start
        grid = np.logspace(math.log10(5e-324), math.log10(2.5e305), 400).tolist()
        for lam in [*grid, 5e-324, 1e24, 1e100, 1e270, 1e300, _LAMBDA_MAX]:
            a = L_value(lam).ln_value
            b = L_value_legendre(lam).ln_value
            assert abs(a - b) <= 1e-14 * (1.0 + abs(a)), lam

    def test_route_agreement_examples(self):
        for lam in (1.0, 0.5):
            assert abs(L_value(lam).ln_value - L_value_legendre(lam).ln_value) < 1e-9

    def test_minimiser_matches_saddle_abscissa(self):
        for lam in (0.5, 1.0, 2.0):
            g_min, _ = _legendre_argmin(lam)
            assert abs(g_min - solve_saddle(lam).gamma) < 1e-7

    @pytest.mark.parametrize("lam", np.logspace(-8, 6, 10).tolist()
                             + np.logspace(100, math.log10(2.5e305), 6).tolist())
    def test_few_ln_gamma_calls_and_no_psi(self, monkeypatch, ln_gamma_calls, lam):
        # the start and its bracket; Brent's method from that bracket took 11.5
        # calls on average over [1e-8, 1e6] and 18 above 1e100
        def forbidden(x):
            raise AssertionError("the Legendre route calls psi")

        monkeypatch.setattr(hslaplace.saddle, "digamma", forbidden)
        monkeypatch.setattr(hslaplace.saddle, "trigamma", forbidden)
        L_value_legendre(lam)
        assert len(ln_gamma_calls) == 3

    def test_the_start_is_bracketed_over_the_whole_domain(self, ln_gamma_calls):
        # x (1 -+ 1e-6) around a start within 1.31e-9 of the minimiser: from
        # lam ~ 1e100 up phi(a) - phi(x) is only an ulp or so of phi's terms.
        # By convexity min phi >= phi(x) - [max(phi(a), phi(b)) - phi(x)], a
        # gap of at most 8.5e-13 (1 + |ln L|) here
        rng = np.random.default_rng(33)
        lams = np.exp(rng.uniform(math.log(5e-324), math.log(_LAMBDA_MAX), 2000))
        for lam in np.minimum(lams, _LAMBDA_MAX).tolist():
            ln_gamma_calls.clear()
            x, fx = _legendre_argmin(lam)
            assert len(ln_gamma_calls) == 3, lam
            a, b = min(ln_gamma_calls), max(ln_gamma_calls)
            fa, fb = _phi(a, lam), _phi(b, lam)
            assert a < x < b and fa >= fx and fb >= fx, lam
            assert max(fa, fb) - fx <= 1e-12 * (1.0 + abs(fx)), lam

    @pytest.mark.parametrize("miss", [1e-3, -1e-3])
    def test_the_walk_brackets_a_start_that_misses(self, monkeypatch, ln_gamma_calls, miss):
        # the walk runs at no lam from the true start, so the start is moved
        start = hslaplace.saddle._initial_guess
        monkeypatch.setattr(hslaplace.saddle, "_initial_guess", lambda y: start(y) * (1.0 + miss))
        for lam in (1e-300, 1e-8, 0.5, 1.0, 30.0, 1e6, 1e100, 1e300):
            ln_gamma_calls.clear()
            x, fx = _legendre_argmin(lam)
            assert len(ln_gamma_calls) > 3, lam
            # the bracket the walk ended on: x's neighbours among the points it took
            a = max(g for g in ln_gamma_calls if g < x)
            b = min(g for g in ln_gamma_calls if g > x)
            fa, fb = _phi(a, lam), _phi(b, lam)
            assert fa >= fx and fb >= fx, lam
            # by convexity phi on (a, b) lies above the lines through (a, x) and
            # (x, b), so min phi is at least fx less the larger of these gaps
            gap = max((fa - fx) * (b - x) / (x - a), (fb - fx) * (x - a) / (b - x))
            ref = L_value(lam).ln_value
            eps = 1e-14 * (1.0 + abs(ref))
            assert fx - gap - eps <= ref <= fx + eps, lam

    def test_refuses_before_any_ln_gamma_call(self, monkeypatch):
        def forbidden(x):
            raise AssertionError("ln_gamma called")

        monkeypatch.setattr(hslaplace.saddle, "ln_gamma", forbidden)
        with pytest.raises(ValueError, match="ln L is not a finite double"):
            L_value_legendre(1e306)


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
    def test_agreement_improves_toward_zero(self):
        # the small-lambda closed form 1 / (|ln lambda| - C), from
        # psi(g) = -1/g - C + O(g) (DLMF 5.7.4), which omits zeta(2) g
        rel = []
        for lam in (1e-2, 1e-4, 1e-6, 1e-8):
            exact = inverse_digamma(math.log(lam))
            rel.append(abs(1.0 / (-math.log(lam) - EULER_GAMMA) / exact - 1.0))
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
        # at a repeated iterate or the cap, within 1e-12, with its pass's psi'
        # as sigma
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
        # the text of the frozen dataclass this type used to be; ln_L was
        # -0.12148629053585047 before ln_gamma below 10 became the Taylor series at 2;
        # gamma 1.4616321449683431 and sigma 0.9676722454476383 before Newton
        # started within 1.3e-9 of the root (gamma is now 1e-16 off GAMMA_MIN)
        assert repr(solve_saddle(1.0)) == (
            "SaddleSolution(lam=1.0, gamma=1.4616321449683622, "
            "ln_L=-0.12148629053584964, sigma=0.9676722454476213)"
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


def _psi_rounds_apart(y):
    """Whether the array pass and scalar digamma give psi different bits (their
    logs are np.log and math.log) at some iterate of the scalar Newton path of y."""
    g = _initial_guess(y)
    for _ in range(hslaplace.saddle._NEWTON_CAP + 1):
        psi = digamma(g)
        if psi != _digamma_trigamma_array(np.array([g]))[0][0]:
            return True
        if abs(psi - y) < hslaplace.saddle._NEWTON_TOL:
            return False
        g_new = g - (psi - y) / trigamma(g)
        if g_new == g:
            return False
        g = g_new
    return False


def _assert_equals_scalar_root(g, y):
    """The array route's root g of psi = y is the scalar route's bit for bit,
    unless np.log and math.log round psi apart on the Newton path (3 of 847 000
    log-uniform lambda), where the two differ by a few ulp: 1e-13 relative."""
    ref = inverse_digamma(y)
    if g != ref:
        assert _psi_rounds_apart(y), (y, g, ref)
        assert abs(g - ref) <= 1e-13 * ref, (y, g, ref)


def _assert_matches_scalar_route(rows):
    """Each row equals solve_saddle at its lambda: gamma and sigma bit for bit, as
    _assert_equals_scalar_root allows, and ln L within 2 ulp of max(1,
    |ln Gamma(gamma)|), the gap between ln_gamma's math.log and np.log paths (ln L
    crosses zero at lambda_cr, where its ulp-level differences have no relative
    scale)."""
    for row in rows:
        ref = solve_saddle(row.lam)
        if row.gamma == ref.gamma:
            assert row.sigma == ref.sigma, row
        else:
            _assert_equals_scalar_root(row.gamma, math.log(row.lam))
            assert abs(row.sigma - ref.sigma) <= 1e-13 * ref.sigma, row
        assert abs(row.ln_L - ref.ln_L) <= 2.0 * math.ulp(max(1.0, abs(ln_gamma(ref.gamma)))), row


class TestArrayRoute:
    """inverse_digamma on arrays and tabulate against the scalar route."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=-300.0, max_value=300.0), min_size=1, max_size=40))
    def test_agrees_with_scalar_route(self, exponents):
        grid = sorted({10.0**e for e in exponents})
        _assert_matches_scalar_route(tabulate(grid))
        ys = np.log(grid)
        for y, g in zip(ys.tolist(), inverse_digamma(ys).tolist()):
            _assert_equals_scalar_root(g, y)

    @pytest.mark.parametrize("lam, ulps", [
        (1.3459128530601215e-33, 1), (2.4567423495242374e-197, 1), (734.9435067157841, 6)])
    def test_routes_part_only_where_psi_rounds_apart(self, lam, ulps):
        # the only three lambda of 847 000 log-uniform ones in [5e-324, 2.55e305]
        # where the routes' gamma differ: np.log and math.log round the log in
        # psi apart at a Newton iterate, which moves the next one
        (row,) = tabulate([lam])
        ref = solve_saddle(lam)
        assert _psi_rounds_apart(math.log(lam))
        assert abs(row.gamma - ref.gamma) == ulps * math.ulp(ref.gamma)
        _assert_matches_scalar_route([row])

    def test_seeded_grids_across_the_range(self):
        rng = np.random.default_rng(5)
        for lo, hi in ((-300.0, 300.0), (-8.0, 6.0), (-0.06, 0.0), (5.5, 6.1)):
            _assert_matches_scalar_route(tabulate(np.unique(10.0 ** rng.uniform(lo, hi, 500))))

    def test_extreme_y_and_shapes(self):
        ys = np.array([[-700.0, 700.0], [0.0, -2.22]])
        got = inverse_digamma(ys)
        assert got.shape == (2, 2)
        for y, g in zip(ys.ravel().tolist(), got.ravel().tolist()):
            assert g == inverse_digamma(y)
        zero_d = inverse_digamma(np.array(-700.0))
        assert type(zero_d) is float
        assert zero_d == inverse_digamma(-700.0)
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

    @pytest.mark.parametrize("y", [math.nextafter(_Y_MIN, -math.inf), -1e200, -1e300,
                                   -sys.float_info.max, -math.inf])
    def test_rejects_y_below_the_left_edge(self, y):
        # the root, about -1/y, is below 1/sqrt(max float), where psi' is not a
        # finite double: the array path gave sigma = inf (with a divide-by-zero
        # warning at -1e200) and the scalar path 1e-200 or trigamma's refusal
        message = f"^{re.escape(f'{_DOMAIN}, got {y!r}')}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                inverse_digamma(y)
            with pytest.raises(ValueError, match=message):
                inverse_digamma(np.array([1.0, y]))

    def test_both_paths_answer_down_to_the_left_edge(self):
        # below y ~ -1.5e4 an ulp of y exceeds the cap's old absolute 1e-12, so
        # where no double g gave psi(g) = y exactly both paths raised
        # RuntimeError: at 2741 of 20 000 log-uniform y, these three among them
        rng = np.random.default_rng(7)
        ys = [_Y_MIN, -1.3e154, -1.3010841832100548e154, -32464.102761385835,
              -14947.1892777107, *(-10.0 ** rng.uniform(0.0, 154.0, 500))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gamma, sigma = _inverse_digamma_array(np.array(ys))
        assert np.isfinite(sigma).all()
        for y, g in zip(ys, gamma.tolist()):
            assert inverse_digamma(y) == g
            assert abs(digamma(g) - y) <= 1e-12 * max(1.0, abs(y))

    def test_non_convergence_raises(self, monkeypatch):
        # with no Newton step the start alone, 1e-9 off the root, must pass the
        # cap's tolerance; one step (the cap of 1 this test used) now meets it
        monkeypatch.setattr(hslaplace.saddle, "_NEWTON_CAP", 0)
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
        # two Newton passes from a start within 1.3e-9 of each root, the second
        # the last, and one ln_gamma call; sigma comes from the Newton pass's own
        # psi'.  From Minka's guess each grid took 5 to 6 passes
        assert names == ["_digamma_trigamma_array", "_digamma_trigamma_array", "ln_gamma"]

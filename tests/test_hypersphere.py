"""Measure-level layer: D_n, regimes, unit crossings, the ensemble exhibit."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hslaplace.hypersphere
from hslaplace import (
    GrandEnsembleSpec,
    HypersphereSpec,
    ROUTES,
    Regime,
    classify_regime,
    critical_point,
    ensemble_comparison,
    evaluate,
    f2_exact,
    fn_contour,
    fn_quadrature,
    fn_saddle_asymptotic,
    geometric_mean,
    laplace_dn,
    psi_theta,
    solve_saddle,
    unit_crossing,
)

K0_2 = 0.11389387274953344

positive_floats = st.floats(min_value=1e-6, max_value=1e6)

BAD_ENTRIES = [math.nan, math.inf, -math.inf, 0.0, -1.0]
BAD_F_MESSAGE = "^all entries of f must be finite positive reals$"


class TestGeometricMean:
    def test_identity_vector(self):
        assert geometric_mean([1.0, 1.0, 1.0, 1.0]) == 1.0

    def test_two_eight(self):
        assert abs(geometric_mean([2.0, 8.0]) - 4.0) < 1e-14

    def test_log_space_robustness(self):
        assert abs(geometric_mean([1e-300, 1e300]) - 1.0) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.lists(positive_floats, min_size=1, max_size=8), st.randoms())
    def test_permutation_bitwise(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        assert geometric_mean(values) == geometric_mean(shuffled)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="^f must have at least one entry$"):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
        with pytest.raises(ValueError):
            geometric_mean([1.0, -2.0])

    @pytest.mark.parametrize("bad", BAD_ENTRIES)
    def test_one_message_for_every_bad_entry(self, bad):
        # geometric_mean is the one check of f; both specs go through it
        with pytest.raises(ValueError, match=BAD_F_MESSAGE):
            geometric_mean([1.0, bad])
        with pytest.raises(ValueError, match=BAD_F_MESSAGE):
            HypersphereSpec(n=2, r=1.0, f=(1.0, bad))
        with pytest.raises(ValueError, match=BAD_F_MESSAGE):
            GrandEnsembleSpec(theta=1.0, f=(1.0, bad), weights=(0.5, 0.5))


class TestHypersphereSpecValidation:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            HypersphereSpec(n=3, r=1.0, f=(1.0, 2.0))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            HypersphereSpec(n=2, r=-1.0, f=(1.0, 2.0))
        with pytest.raises(ValueError):
            HypersphereSpec(n=2, r=1.0, f=(1.0, 0.0))
        with pytest.raises(ValueError):
            HypersphereSpec(n=0, r=1.0, f=())

    def test_rho_is_the_geometric_mean_bitwise(self):
        f = [0.5, 2.2, 1.3, 7.0e-3, 4.1e2]
        spec = HypersphereSpec(n=5, r=0.7, f=f)
        assert spec.f == tuple(f)
        assert spec.rho == geometric_mean(f)

    def test_f_checked_once_per_spec_and_never_by_laplace_dn(self, monkeypatch):
        calls = []

        def counting(f):
            calls.append(f)
            return geometric_mean(f)

        monkeypatch.setattr(hslaplace.hypersphere, "geometric_mean", counting)
        spec = HypersphereSpec(n=3, r=0.8, f=(0.5, 2.2, 1.3))
        assert len(calls) == 1
        laplace_dn(spec)
        laplace_dn(spec, method="quadrature")
        assert len(calls) == 1
        # ensemble_comparison also checked f inside GrandEnsembleSpec
        calls.clear()
        ensemble_comparison((0.5, 2.2, 1.3), 1.0, (1.0, 0.0), (2, 3), epsilon=0.05)
        assert len(calls) == 1


class TestLaplaceDn:
    def test_n1_closed_form(self):
        spec = HypersphereSpec(n=1, r=1.0, f=(2.0,))
        assert laplace_dn(spec).value.ln_value == -2.0

    def test_n2_reduces_to_effective_lambda(self):
        # rho = 4, lambda_eff = 4 * (1/4) = 1
        spec = HypersphereSpec(n=2, r=0.25, f=(2.0, 8.0))
        assert abs(laplace_dn(spec).value.ln_value - math.log(2.0 * K0_2)) < 1e-10

    def test_permutation_invariance_bitwise(self):
        a = HypersphereSpec(n=3, r=0.8, f=(0.5, 2.2, 1.3))
        b = HypersphereSpec(n=3, r=0.8, f=(2.2, 1.3, 0.5))
        ra = laplace_dn(a, method="contour")
        rb = laplace_dn(b, method="contour")
        assert ra.value.ln_value == rb.value.ln_value

    def test_scale_covariance(self):
        for s in (3.0, 1e5):
            a = HypersphereSpec(n=3, r=0.9, f=(0.5, 2.2, 1.3))
            b = HypersphereSpec(n=3, r=0.9 / s, f=(0.5 * s, 2.2 * s, 1.3 * s))
            va = laplace_dn(a, method="contour").value.ln_value
            vb = laplace_dn(b, method="contour").value.ln_value
            assert abs(va - vb) < 1e-12

    def test_method_dispatch(self):
        spec = HypersphereSpec(n=2, r=1.0, f=(1.0, 1.0))
        closed = laplace_dn(spec, method="closed-form").value.ln_value
        quad = laplace_dn(spec, method="quadrature").value.ln_value
        cont = laplace_dn(spec, method="contour").value.ln_value
        assert abs(closed - quad) < 1e-8
        assert abs(closed - cont) < 1e-9

    @pytest.mark.parametrize("n", [2, 40])
    def test_every_route_equals_evaluate_at_rho_r(self, n):
        f = [1.0 + 0.1 * k for k in range(n)]
        spec = HypersphereSpec(n=n, r=0.6, f=f)
        methods = [m for m, route in ROUTES.items() if route.covers(n)]
        assert len(methods) >= 4
        for m in methods:
            via_dn = laplace_dn(spec, method=m)
            direct = evaluate(m, spec.n, spec.rho * spec.r)
            assert via_dn.value.ln_value == direct.value.ln_value
            assert via_dn.err_ln == direct.err_ln

    def test_mutating_the_source_list_changes_nothing(self):
        f = [0.5, 2.2, 1.3]
        spec = HypersphereSpec(n=3, r=0.8, f=f)
        before = laplace_dn(spec)
        f[0] = 1e6
        after = laplace_dn(spec)
        assert spec.f == (0.5, 2.2, 1.3)
        assert (after.value.ln_value, after.err_ln) == (before.value.ln_value, before.err_ln)

    def test_method_availability_errors(self):
        spec = HypersphereSpec(n=3, r=1.0, f=(1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            laplace_dn(spec, method="closed-form")
        # the quadrature covers n <= 1000
        spec_big = HypersphereSpec(n=1001, r=1.0, f=(1.0,) * 1001)
        with pytest.raises(ValueError):
            laplace_dn(spec_big, method="quadrature")
        with pytest.raises(ValueError):
            laplace_dn(spec_big, method="no-such-route")
        # one refusal text per route, whichever entry point is used
        spec1 = HypersphereSpec(n=1, r=1.0, f=(1.0,))
        for sp, method in (
            (spec, "closed-form"),
            (spec_big, "quadrature"),
            (spec1, "quadrature"),
            (spec1, "monte-carlo"),
            (spec_big, "no-such-route"),
        ):
            with pytest.raises(ValueError) as via_dn:
                laplace_dn(sp, method=method)
            with pytest.raises(ValueError) as via_evaluate:
                evaluate(method, sp.n, 1.0)
            assert str(via_dn.value) == str(via_evaluate.value)


class TestClassifyRegime:
    def test_dichotomy(self):
        lam_cr = critical_point().lambda_cr
        assert classify_regime(lam_cr - 0.1, 0.05).regime is Regime.DIVERGES
        assert classify_regime(lam_cr + 0.1, 0.05).regime is Regime.VANISHES

    def test_critical_band(self):
        lam_cr = critical_point().lambda_cr
        rep = classify_regime(lam_cr, 0.01)
        assert rep.regime is Regime.CRITICAL_BAND
        assert abs(rep.margin) < 1e-12

    def test_epsilon_required_positive(self):
        with pytest.raises(ValueError):
            classify_regime(1.0, 0.0)
        with pytest.raises(ValueError):
            classify_regime(1.0, -0.1)
        with pytest.raises(ValueError):
            classify_regime(-1.0, 0.1)


class TestUnitCrossing:
    def test_n2_against_closed_form(self):
        lam_2 = unit_crossing(2)
        # independent check: 2 K0(2 lambda_2) must be 1
        assert abs(f2_exact(lam_2).value.ln_value) < 1e-9
        # and against a bisection on the closed form alone
        lo, hi = 0.2, 1.5
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if f2_exact(mid).value.ln_value > 0.0:
                lo = mid
            else:
                hi = mid
        assert abs(lam_2 - 0.5 * (lo + hi)) < 1e-9

    def test_contour_residual_small(self):
        for n in (5, 2, 3, 40, 1000, 10000):
            lam_n = unit_crossing(n)
            assert abs(fn_contour(n, lam_n).value.ln_value) < 1e-9

    # contour calls per crossing: the saddle-point run through 1/n^2 leaves
    # Newton 1-3 contour calls, one from n ~ 340 up (the secant on the route
    # through 1/n took up to 5 at n <= 3, 4 at n = 5 and 10, 3 from n = 30)
    CALL_BUDGET = {2: 3, 3: 3, 5: 3, 10: 2, 30: 2, 40: 2, 1000: 1, 10000: 1}

    @pytest.mark.parametrize("n", sorted(CALL_BUDGET))
    def test_few_contour_calls(self, monkeypatch, n):
        calls = []

        def counting(dim, lam):
            calls.append(("contour", lam))
            return fn_contour(dim, lam)

        def saddle(dim, lam):
            calls.append(("saddle", lam))
            return fn_saddle_asymptotic(dim, lam)

        monkeypatch.setattr(hslaplace.hypersphere, "fn_contour", counting)
        monkeypatch.setattr(hslaplace.hypersphere, "fn_saddle_asymptotic", saddle)
        lam_n = unit_crossing(n)
        contour = [lam for kind, lam in calls if kind == "contour"]
        assert len(contour) <= self.CALL_BUDGET[n]
        assert contour[-1] == lam_n
        # the saddle-point run comes first and makes no contour call
        kinds = [kind for kind, _ in calls]
        first = kinds.index("contour")
        assert first > 0 and "saddle" not in kinds[first:]
        # and hands the contour a lambda within the asymptotic route's own claim
        start = fn_saddle_asymptotic(n, contour[0])
        assert abs(start.value.ln_value) <= start.err_ln

    @pytest.mark.parametrize("n", [250_000, 300_000, 446_684, 700_000, 2_000_000])
    def test_large_n_closes_on_adjacent_doubles(self, monkeypatch, n):
        # ln F_n moves by about n gamma ulp(lambda) / lambda = 1.7e-16 n between
        # adjacent doubles here, plus the contour's rounding, so |ln F_n| < 1e-10
        # may hold at none of them and the bracket closes on two adjacent
        # doubles.  While phi(0) took ln Gamma(gamma) from a kernel up to 7.5e-15
        # off near gamma_cr, n times that error moved it by up to 7e-9: at
        # n = 2e6 the bracket closed on 0x1.d5f9b720168b0p-1 and
        # 0x1.d5f9b720168b1p-1, where ln F_n was 6.39e-9 and -1.02e-9
        calls = []

        def counting(dim, lam):
            calls.append(lam)
            return fn_contour(dim, lam)

        monkeypatch.setattr(hslaplace.hypersphere, "fn_contour", counting)
        lam_n = unit_crossing(n)
        assert len(calls) <= 16
        assert abs(fn_contour(n, lam_n).value.ln_value) < 1e-9

    @pytest.mark.parametrize("n", [3, 40, 1000])
    def test_quadrature_confirms_the_crossing(self, n):
        # an exact route that shares no code with the contour
        res = fn_quadrature(n, unit_crossing(n))
        assert abs(res.value.ln_value) <= 1e-10 + res.err_ln

    @pytest.mark.parametrize("lam_fixed, end", [(1e-3, 3.0 * 2.0**10), (10.0, 0.3 / 2.0**10)])
    def test_no_sign_change_raises_after_ten_widenings(self, monkeypatch, lam_fixed, end):
        # ln F_2(1e-3) > 0 and ln F_2(10) < 0: a contour without a sign change
        calls = []

        def one_sign(dim, lam):
            calls.append(lam)
            return f2_exact(lam_fixed)

        monkeypatch.setattr(hslaplace.hypersphere, "fn_contour", one_sign)
        with pytest.raises(RuntimeError, match="bracket"):
            unit_crossing(5)
        # the last end tried is the initial one moved out by ten factors of 2
        farthest = max(calls) if end > 1.0 else min(calls)
        assert abs(farthest / (end * critical_point().lambda_cr) - 1.0) < 1e-12

    def test_sequence_moves_toward_critical(self):
        lam_cr = critical_point().lambda_cr
        lams = [unit_crossing(n) for n in (2, 3, 5, 10, 40, 1000, 10**4, 10**5, 10**6)]
        assert all(a < b for a, b in zip(lams, lams[1:]))
        assert lams[-1] < lam_cr

    def test_rejects_an_n_beyond_the_largest_double(self):
        # it raised an uncaught OverflowError
        with pytest.raises(ValueError, match="^unit_crossing requires n <= max float, got n = 10{400}$"):
            unit_crossing(10**400)


class TestPsiTheta:
    def test_flat_f_gives_zero(self):
        spec = GrandEnsembleSpec(theta=2.7, f=(1.0, 1.0, 1.0), weights=(0.2, 0.3, 0.5))
        assert psi_theta(spec).ln_value == 0.0

    def test_two_point_example(self):
        spec = GrandEnsembleSpec(theta=1.0, f=(2.0, 8.0), weights=(0.5, 0.5))
        assert abs(psi_theta(spec).ln_value + math.log(4.0)) < 1e-14

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_linear_in_theta(self, theta):
        base = GrandEnsembleSpec(theta=1.0, f=(2.0, 0.3, 1.7), weights=(0.25, 0.5, 0.25))
        spec = GrandEnsembleSpec(theta=theta, f=base.f, weights=base.weights)
        assert abs(psi_theta(spec).ln_value - theta * psi_theta(base).ln_value) < 1e-12

    def test_refinement_invariance(self):
        coarse = GrandEnsembleSpec(theta=1.3, f=(2.0, 5.0), weights=(0.4, 0.6))
        fine = GrandEnsembleSpec(
            theta=1.3,
            f=(2.0, 2.0, 5.0, 5.0, 5.0),
            weights=(0.2, 0.2, 0.2, 0.2, 0.2),
        )
        assert abs(psi_theta(coarse).ln_value - psi_theta(fine).ln_value) < 1e-12

    def test_bits_do_not_depend_on_the_blas_thread_count(self, stdout_at_one_and_two_blas_threads):
        # np.dot(w, ln f) went to OpenBLAS, which splits 1e5 entries over its
        # threads: one thread printed 0x1.35852e4f1c1cap-10 and two ...1ccp-10
        outputs = stdout_at_one_and_two_blas_threads(
            "import numpy as np\n"
            "from hslaplace import GrandEnsembleSpec, psi_theta\n"
            "f = np.exp(np.random.default_rng(0).standard_normal(100_000))\n"
            "spec = GrandEnsembleSpec(theta=1.3, f=tuple(f.tolist()), weights=(1e-5,) * 100_000)\n"
            "print(psi_theta(spec).ln_value.hex())\n")
        assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 1

    def test_spec_stores_tuples_and_hashes(self):
        # a list f or weights was stored as passed, so hash() raised TypeError
        spec = GrandEnsembleSpec(1.0, [1.0, 2.0], [0.5, 0.5])
        same = GrandEnsembleSpec(1.0, (1.0, 2.0), np.array([0.5, 0.5]))
        assert (spec.f, spec.weights) == ((1.0, 2.0), (0.5, 0.5))
        assert spec == same and hash(spec) == hash(same)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            GrandEnsembleSpec(theta=1.0, f=(1.0, 2.0), weights=(0.5, 0.6))
        with pytest.raises(ValueError):
            GrandEnsembleSpec(theta=1.0, f=(1.0, -2.0), weights=(0.5, 0.5))
        with pytest.raises(ValueError):
            GrandEnsembleSpec(theta=-1.0, f=(1.0, 2.0), weights=(0.5, 0.5))

    @pytest.mark.parametrize("f, weights, message", [
        ((1.0, 2.0), (1.0,), "f and weights must be nonempty and of equal length"),
        ((), (), "f and weights must be nonempty and of equal length"),
        ((1.0, 2.0), (1.5, -0.5), "weights must be nonnegative"),
    ], ids=["unequal-lengths", "empty", "negative-weight"])
    def test_refusal_messages(self, f, weights, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GrandEnsembleSpec(theta=1.0, f=f, weights=weights)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_weights(self, bad):
        # w < 0 and |fsum - 1| > 1e-12 are both False for NaN, so a NaN weight
        # passed and psi_theta failed later with LogValue's bare message
        message = re.escape(f"weights must be finite, got (1.0, {bad})")
        with pytest.raises(ValueError, match=message):
            GrandEnsembleSpec(theta=1.0, f=(1.0, 2.0), weights=(1.0, bad))


class TestEnsembleComparison:
    def test_pinned_critical_schedule_drives_rate_to_zero(self):
        rows = ensemble_comparison(
            (1.0, 1.0, 1.0), 1.0, "critical", (5, 10, 20, 40), epsilon=0.02
        )
        lam_cr = critical_point().lambda_cr
        rates = [abs(r.ln_dn_per_n) for r in rows]
        assert all(abs(r.lambda_eff - lam_cr) < 1e-12 for r in rows)
        assert all(r.regime is Regime.CRITICAL_BAND for r in rows)
        assert all(b < a for a, b in zip(rates, rates[1:]))
        # the finite-n defect follows ln(2 pi n sigma)/(2n): ~0.07 at n=40
        sigma = solve_saddle(lam_cr).sigma
        assert abs(rates[-1] - math.log(2.0 * math.pi * 40 * sigma) / 80.0) < 0.01

    def test_double_critical_schedule_vanishes(self):
        lam_cr = critical_point().lambda_cr
        rows = ensemble_comparison(
            (1.0, 1.0), 1.0, (2.0 * lam_cr, 0.0), (5, 10, 20, 40), epsilon=0.05
        )
        assert all(r.regime is Regime.VANISHES for r in rows)
        target = solve_saddle(2.0 * lam_cr).ln_L
        defects = [abs(r.ln_dn_per_n - target) for r in rows]
        assert all(b < a for a, b in zip(defects, defects[1:]))
        assert defects[-1] < 0.08
        # the per-n rate separates from the fixed grand-ensemble value (0 here)
        assert abs(rows[-1].ln_dn_per_n - rows[-1].ln_psi_theta) > 0.5

    def test_growing_schedule_crosses_threshold(self):
        rows = ensemble_comparison(
            (1.0, 1.0), 1.0, (0.3, 0.5), (1, 4, 16, 25), epsilon=0.05
        )
        assert rows[0].regime is Regime.DIVERGES
        assert rows[-1].regime is Regime.VANISHES
        seen_vanish = False
        for r in rows:
            if r.regime is Regime.VANISHES:
                seen_vanish = True
            elif seen_vanish:
                pytest.fail("regime flipped back after vanishing")

    def test_psi_theta_column_constant(self):
        rows = ensemble_comparison(
            (2.0, 0.5), 1.5, (1.0, 0.0), (2, 3), epsilon=0.05
        )
        assert rows[0].ln_psi_theta == rows[1].ln_psi_theta
        assert abs(rows[0].ln_psi_theta - 0.0) < 1e-12  # rho = 1 for (2, 1/2)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            ensemble_comparison((1.0,), 1.0, (1.0, 0.0), (5, 5), epsilon=0.05)
        with pytest.raises(ValueError):
            ensemble_comparison((1.0,), 1.0, (-1.0, 0.0), (2, 3), epsilon=0.05)
        with pytest.raises(ValueError):
            ensemble_comparison((1.0,), 1.0, "pinned", (2, 3), epsilon=0.05)
        # n^alpha overflowed (OverflowError) or underflowed to lambda_eff = 0
        for alpha in (1000.0, -1000.0):
            with pytest.raises(ValueError, match="at n = 5"):
                ensemble_comparison((1.0,), 1.0, (1.0, alpha), (5, 10), epsilon=0.05)
        with pytest.raises(ValueError, match="alpha must be a finite real"):
            ensemble_comparison((1.0,), 1.0, (1.0, math.nan), (5, 10), epsilon=0.05)
        # n^0 = 1, but 10^400 ** 0.0 raised OverflowError, read as lambda_eff = inf
        with pytest.raises(ValueError, match="^ensemble_comparison requires n <= max float"):
            ensemble_comparison((1.0, 2.0), 1.0, (1.0, 0.0), (5, 10**400), epsilon=0.02)
        # an empty grid used to return [] without checking epsilon
        with pytest.raises(ValueError, match="n_grid"):
            ensemble_comparison((1.0, 2.0), 1.0, (1.0, 0.0), (), epsilon=-1.0)

    def test_refuses_an_ln_psi_theta_that_overflows(self):
        # -theta ln f = 1e306 * 690.8 passes the largest double
        with pytest.raises(ValueError, match="^ln_value must be finite, got inf$"):
            ensemble_comparison((1e-300,), 1e306, (1.0, 0.0), (2, 3), epsilon=0.05)

    def test_an_overflowing_ln_psi_theta_is_refused_without_a_warning(self):
        # numpy's overflow RuntimeWarning came before LogValue's refusal; the
        # suite's error::RuntimeWarning filter turns a leaked one into a failure
        with pytest.raises(ValueError, match="^ln_value must be finite, got inf$"):
            ensemble_comparison((1e-300,), 1e306, (1.0, 0.0), (2, 3), epsilon=0.05)
        with pytest.raises(ValueError, match="^ln_value must be finite, got inf$"):
            psi_theta(GrandEnsembleSpec(theta=1e306, f=(1e-300,), weights=(1.0,)))

    def test_a_bad_epsilon_makes_no_contour_call(self, monkeypatch):
        # it ran fn_contour(5, ...) before classify_regime refused epsilon
        calls = []
        monkeypatch.setattr(hslaplace.hypersphere, "fn_contour",
                            lambda *a: calls.append(a) or fn_contour(*a))
        with pytest.raises(ValueError, match="^epsilon must be a finite positive real, got -1$"):
            ensemble_comparison([1, 2, 3], 1.0, (1.0, 0.0), [5, 10, 2000], epsilon=-1)
        assert calls == []

    def test_integer_grids_of_either_kind_agree(self):
        args = ((1.0, 2.0), 1.0, (1.0, 0.0))
        assert (ensemble_comparison(*args, (np.int64(5), np.int64(10)), epsilon=0.02)
                == ensemble_comparison(*args, (5, 10), epsilon=0.02))

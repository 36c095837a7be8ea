"""Kernel checks: closed-form identities, recurrences, independent references.

scipy.special serves as the independent library reference; the quadrature
and path-integration oracles are built in-test from scipy primitives only,
so they share no code with the package kernel.
"""

import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import hslaplace.oracles
from hslaplace import (
    EULER_GAMMA,
    bessel_k0,
    digamma,
    ln_gamma,
    ln_gamma_complex,
    trigamma,
)
from hslaplace import specfun

# frozen external references (mpmath, 40 significant digits)
DIGAMMA_1E4 = 9.210290371142849
LN_GAMMA_1P5_2I = complex(-1.4991963725850955, 0.7332806816909979)
K0_2 = 0.11389387274953344
K0_1 = 0.42102443824070833


def scaled(err, value, tol):
    """err <= tol * max(1, |value|): relative when large, absolute when small."""
    return err <= tol * max(1.0, abs(value))


class TestLnGamma:
    def test_gamma_one_is_one(self):
        assert abs(ln_gamma(1.0)) < 1e-13

    def test_gamma_half_is_sqrt_pi(self):
        assert abs(ln_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-13

    def test_gamma_five_is_24(self):
        assert abs(ln_gamma(5.0) - math.log(24.0)) < 1e-13

    def test_against_scipy_sweep(self):
        xs = np.logspace(-6, 4, 400)
        ref = scipy.special.gammaln(xs)
        err = np.abs(ln_gamma(xs) - ref)
        assert np.all(err <= 1e-13 * np.maximum(1.0, np.abs(ref)))

    def test_domain_errors(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                ln_gamma(bad)
        with pytest.raises(ValueError):
            ln_gamma(np.array([1.0, -2.0]))


class TestDigamma:
    def test_at_one_is_minus_euler(self):
        assert abs(digamma(1.0) + EULER_GAMMA) < 1e-14

    def test_at_two(self):
        assert abs(digamma(2.0) - (1.0 - EULER_GAMMA)) < 1e-13

    def test_at_1e4_stirling_reference(self):
        assert abs(digamma(1e4) - DIGAMMA_1E4) < 1e-12

    def test_against_scipy_sweep(self):
        xs = np.logspace(-6, 4, 400)
        ref = scipy.special.digamma(xs)
        err = np.abs(digamma(xs) - ref)
        assert np.all(err <= 1e-13 * np.maximum(1.0, np.abs(ref)))

    @settings(max_examples=80, deadline=None)
    @given(st.floats(min_value=1e-4, max_value=1e3))
    def test_recurrence_property(self, x):
        res = abs(digamma(x + 1.0) - digamma(x) - 1.0 / x)
        # floor: one ulp of the 1/x term itself
        assert res <= max(1e-12, 2e-15 / x)

    def test_recurrence_bulk(self):
        rng = np.random.Generator(np.random.PCG64(20240301))
        x = np.exp(rng.uniform(math.log(1e-4), math.log(1e3), 10_000))
        res = np.abs(digamma(x + 1.0) - digamma(x) - 1.0 / x)
        assert np.all(res <= np.maximum(1e-12, 2e-15 / x))

    def test_asymptotic_bound(self):
        xs = np.logspace(1, 4, 200)
        lhs = np.abs(digamma(xs) - np.log(xs) + 1.0 / (2.0 * xs))
        assert np.all(lhs <= 1.0 / (10.0 * xs * xs))

    def test_strictly_increasing(self):
        xs = np.logspace(-4, 4, 500)
        assert np.all(np.diff(digamma(xs)) > 0.0)


class TestTrigamma:
    def test_zeta_two(self):
        assert abs(trigamma(1.0) - math.pi**2 / 6.0) < 1e-12

    def test_recurrence_from_one(self):
        assert abs(trigamma(2.0) - (math.pi**2 / 6.0 - 1.0)) < 1e-12

    def test_half_integer(self):
        assert abs(trigamma(0.5) - math.pi**2 / 2.0) < 1e-12

    def test_against_scipy_sweep(self):
        xs = np.logspace(-6, 4, 400)
        ref = scipy.special.polygamma(1, xs)
        err = np.abs(trigamma(xs) - ref)
        assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    def test_positive(self):
        xs = np.logspace(-4, 4, 500)
        assert np.all(trigamma(xs) > 0.0)

    def test_refuses_where_the_value_is_not_a_finite_double(self):
        # psi'(x) ~ 1/x^2 passes the largest double below x = 1/sqrt(max float):
        # the scalar route returned inf and raised ZeroDivisionError below ~2e-162,
        # the array route returned inf with a RuntimeWarning
        x_min = 1.0 / math.sqrt(sys.float_info.max)
        assert math.isfinite(trigamma(x_min)) and np.isfinite(trigamma(np.array([x_min])))[0]
        below = math.nextafter(x_min, 0.0)
        for x in (below, 1e-155, 1e-200, 5e-324):
            message = f"trigamma requires x >= 1/sqrt(max float) = 7.46e-155, got {x!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                trigamma(x)
            with pytest.raises(ValueError, match=re.escape(f"got {x!r}")):
                trigamma(np.array([1.0, x]))


class TestDerivativeConsistency:
    """Central differences tie the three functions together, step 1e-5."""

    def test_ln_gamma_vs_digamma(self):
        h = 1e-5
        xs = np.logspace(math.log10(0.01), 2, 120)
        fd = (ln_gamma(xs + h) - ln_gamma(xs - h)) / (2.0 * h)
        err = np.abs(fd - digamma(xs))
        assert np.all(err <= 1e-6 * np.maximum(1.0, np.abs(digamma(xs))))

    def test_digamma_vs_trigamma(self):
        h = 1e-5
        xs = np.logspace(math.log10(0.01), 2, 120)
        fd = (digamma(xs + h) - digamma(xs - h)) / (2.0 * h)
        err = np.abs(fd - trigamma(xs))
        assert np.all(err <= 1e-6 * np.maximum(1.0, trigamma(xs)))


class TestLnGammaComplex:
    def test_real_axis_matches_real_kernel(self):
        xs = np.logspace(-6, 4, 300)
        vals = ln_gamma_complex(xs.astype(complex))
        err = np.abs(vals.real - ln_gamma(xs))
        assert np.all(err <= 1e-13 * np.maximum(1.0, np.abs(ln_gamma(xs))))
        assert np.all(vals.imag == 0.0)

    def test_at_one(self):
        assert abs(ln_gamma_complex(1.0 + 0.0j)) < 1e-13

    def test_at_half(self):
        assert abs(ln_gamma_complex(0.5 + 0.0j) - 0.5 * math.log(math.pi)) < 1e-13

    def test_reference_point(self):
        assert abs(ln_gamma_complex(1.5 + 2.0j) - LN_GAMMA_1P5_2I) < 1e-12

    def test_path_integration_oracle(self):
        # d/ds ln Gamma = psi: integrate i psi(1.5 + i t) from t=0 to 2
        # (composite Simpson on scipy's complex digamma) and compare endpoints.
        m = 2000
        t = np.linspace(0.0, 2.0, m + 1)
        vals = 1j * scipy.special.digamma(1.5 + 1j * t)
        w = np.ones(m + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        oracle = scipy.special.gammaln(1.5) + np.sum(w * vals) * (2.0 / (3.0 * m))
        assert abs(ln_gamma_complex(1.5 + 2.0j) - oracle) < 1e-10

    def test_against_scipy_on_vertical_lines(self):
        for re in (0.05, 0.5, 1.5, 3.0, 20.0):
            t = np.concatenate([np.linspace(0.0, 5.0, 41), np.logspace(0.7, 2, 25)])
            z = re + 1j * t
            ref = scipy.special.loggamma(z)
            err = np.abs(ln_gamma_complex(z) - ref)
            assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    def test_continuity_along_vertical_line(self):
        t = np.linspace(-30.0, 30.0, 4001)
        vals = ln_gamma_complex(0.3 + 1j * t)
        # no branch jumps: increments stay far below 2 pi
        assert np.max(np.abs(np.diff(vals.imag))) < 0.2

    def test_domain_errors(self):
        for bad in (0.0 + 1j, -1.0 + 2j, complex(math.nan, 0.0)):
            with pytest.raises(ValueError):
                ln_gamma_complex(bad)


class TestBesselK0:
    def _quad_oracle(self, x):
        # independent adaptive-quadrature route for K0
        hi = math.acosh(1.0 + 60.0 / x)
        val, _ = scipy.integrate.quad(
            lambda t: math.exp(-x * math.cosh(t)), 0.0, hi, epsabs=1e-300, epsrel=1e-12, limit=400
        )
        return math.log(val)

    def test_against_quadrature_oracle(self):
        for x in (1e-3, 0.1, 0.5, 2.0, 10.0, 50.0):
            assert abs(bessel_k0(x).ln_value - self._quad_oracle(x)) <= 1e-10

    def test_reference_values(self):
        assert abs(bessel_k0(2.0).ln_value - math.log(K0_2)) < 1e-12
        assert abs(bessel_k0(1.0).ln_value - math.log(K0_1)) < 1e-12

    def test_large_x_asymptotic(self):
        # K0(x) = sqrt(pi/2x) e^-x (1 - 1/8x + ...): defect at x=50 is ~1/(8x)
        x = 50.0
        defect = bessel_k0(x).ln_value + x + 0.5 * math.log(2.0 * x / math.pi)
        assert abs(defect) < 3e-3
        assert abs(defect + 1.0 / (8.0 * x)) < 1e-4

    def test_small_x_logarithmic_singularity(self):
        x = 1e-3
        approx = math.log(-math.log(x / 2.0) - EULER_GAMMA)
        assert abs(bessel_k0(x).ln_value - approx) <= 1e-3 * abs(bessel_k0(x).ln_value)

    def test_log_form_beyond_underflow(self):
        # K0(5000) underflows float64; the log form stays accurate
        x = 5000.0
        val = bessel_k0(x).ln_value
        asym = -x - 0.5 * math.log(2.0 * x / math.pi) - 1.0 / (8.0 * x)
        assert abs(val - asym) < 1e-6


def test_euler_constant_invariant():
    assert abs(digamma(1.0) + EULER_GAMMA) < 1e-14


class TestBernoulliTables:
    """Every series table derives from one Bernoulli table; each entry must
    equal the literal fraction it replaced, bit for bit."""

    @pytest.mark.parametrize("table,literals", [
        ("_LNGAMMA_COEFF", (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
                            1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0)),
        ("_DIGAMMA_COEFF", (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0,
                            1.0 / 132.0, -691.0 / 32760.0, 1.0 / 12.0, -3617.0 / 8160.0)),
        ("_TRIGAMMA_COEFF", (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0,
                             5.0 / 66.0, -691.0 / 2730.0, 7.0 / 6.0, -3617.0 / 510.0)),
        # B_2k (2k + 1) and B_2k (2k + 1)(2k + 2)
        ("_PSI2_COEFF", (1.0 / 2.0, -1.0 / 6.0, 1.0 / 6.0, -3.0 / 10.0,
                         5.0 / 6.0, -691.0 / 210.0, 35.0 / 2.0, -3617.0 / 30.0)),
        ("_PSI3_COEFF", (2.0, -1.0, 4.0 / 3.0, -3.0,
                         10.0, -691.0 / 15.0, 280.0, -10851.0 / 5.0)),
        # B_2k (2k + 1)(2k + 2)(2k + 3) and B_2k (2k + 1)(2k + 2)(2k + 3)(2k + 4)
        ("_PSI4_COEFF", (10.0, -7.0, 12.0, -33.0,
                         130.0, -691.0, 4760.0, -206169.0 / 5.0)),
        ("_PSI5_COEFF", (60.0, -56.0, 120.0, -396.0,
                         1820.0, -11056.0, 85680.0, -824676.0)),
    ])
    def test_derived_table_equals_the_literal_fractions(self, table, literals):
        assert getattr(specfun, table) == literals


# psi''(x) and psi'''(x): frozen mpmath polygamma(2, x) and polygamma(3, x),
# 40 significant digits; 1.376610918646214 lies 6e-16 below the root gamma_cr
PSI2_PSI3_REFERENCE = [
    (1e-3, "-2.000000002397632164833240315048728091608e+9",
     "6.000000000006468614455574632804812484504e+12"),
    (0.1, "-2001.861457378343673222050830029333882111", "60004.51287679025338427076939422380056188"),
    (1.0, "-2.40411380631918857079947632302289998153", "6.493939402266829149096022179247007416649"),
    (1.376610918646214, "-1.033063454749687871116859529218771700765",
     "1.938204732977586189902008000366855073349"),
    (9.99, "-0.0110730705314610511582195583612192777045",
     "0.002327215939964079797715300987072063896561"),
    (10.0, "-0.01104983497080206746210374906680372762571",
     "0.002319901304289868385557651340158666118367"),
    (1e3, "-1.001000499999833333499999700000833330043e-6",
     "2.003001999999000001333330333343333287267e-9"),
    (1e8, "-1.000000010000000049999999999999998333333e-16",
     "2.00000003000000019999999999999999e-24"),
]


@pytest.mark.parametrize("x,psi2,psi3", PSI2_PSI3_REFERENCE)
def test_psi2_psi3_against_mpmath(x, psi2, psi3):
    got2, got3, _, _ = specfun._psi2_to_psi5(x)
    assert abs(got2 - float(psi2)) <= 1e-13 * abs(float(psi2))
    assert abs(got3 - float(psi3)) <= 1e-13 * abs(float(psi3))


# psi^(4)(x) and psi^(5)(x): frozen mpmath polygamma(4, x) and polygamma(5, x),
# 40 significant digits; 1.4616 is near the minimum of Gamma
PSI4_PSI5_REFERENCE = [
    (1e-3, "-24000000000000022.26654531459137268558559",
     "119999999999999985133.3468470753527660175"),
    (0.5, "-771.4742498266672251905359219240334210345",
     "7691.113548602435496241755549219359190938"),
    (1.4616, "-3.935040877560242850508500580464472965151",
     "12.94055722392193008389621443387854864881"),
    (9.99, "-0.0007329986441825547378080551340161444436132",
     "0.00030755170866456328921214527056782314359"),
    (10.0, "-0.0007299311682352866345036030927121823110961",
     "0.0003059451621172682090485824456222941317775"),
    (1e3, "-6.012009999993000011999967000129999309005e-12",
     "2.406005999994400011999960400181998894409e-14"),
]


@pytest.mark.parametrize("x,psi4,psi5", PSI4_PSI5_REFERENCE)
def test_psi4_psi5_against_mpmath(x, psi4, psi5):
    # the series stops at B_16: its next term is 4e-13 of psi^(5)(10)
    _, _, got4, got5 = specfun._psi2_to_psi5(x)
    assert abs(got4 - float(psi4)) <= 1e-13 * abs(float(psi4))
    assert abs(got5 - float(psi5)) <= 1e-12 * abs(float(psi5))


def _series_array_reference(z, *series):
    """The boolean-mask shift loop that _series_array must match bit for bit."""
    z = z.reshape(-1).copy()
    k = np.maximum(0, np.ceil(specfun._SHIFT - z.real)).astype(int)
    shifts = [np.zeros_like(z) for _ in series]
    for j in range(int(k.max(initial=0))):
        m = j < k
        zm = z[m]
        for shift, (_, term) in zip(shifts, series):
            shift[m] += term(zm)
        z[m] = zm + 1.0
    with np.errstate(over="ignore"):
        w = 1.0 / (z * z)
    sums = []
    for (coeffs, _), shift in zip(series, shifts):
        s = np.full_like(z, coeffs[-1])
        for c in coeffs[-2::-1]:
            s = s * w + c
        sums.append((s, shift))
    return z, w, sums


_LNGAMMA_SERIES = (specfun._LNGAMMA_COEFF, np.log)
_RNG = np.random.default_rng(13)


def _shift_count_cases():
    """For every shift count k from 0 to 10: one element, two elements (complex)
    and a (k, 1) column; a single column is where np.add.reduce sums pairwise."""
    rng = np.random.default_rng(15)
    cases, ids = [], []
    for k in range(11):
        lo = specfun._SHIFT - k  # ceil(_SHIFT - x) = k on [lo, lo + 1)
        cases += [np.array([lo + 0.3]), np.array([lo + 0.7 - 1j, lo + 0.2 + 3j]),
                  rng.uniform(lo + 0.01, lo + 0.99, (k, 1))]
        ids += [f"size-1-k{k}", f"size-2-complex-k{k}", f"column-k{k}"]
    return cases, ids


_SHIFT_CASES, _SHIFT_IDS = _shift_count_cases()


class TestSeriesArray:
    """The block shift against the boolean-mask loop, bit for bit."""

    @pytest.mark.parametrize("z", [
        # every shift count from 0 to 10, interleaved and unsorted
        _RNG.permutation(np.concatenate([_RNG.uniform(lo, lo + 1.0, 7)
                                         for lo in [1e-9, *range(10)]])),
        _RNG.uniform(10.0, 1e6, 50),
        np.array([3.0, 3.5, 0.25, 1e-150, 12.0, 7.0, 1e200]),
        np.linspace(0.01, 30.0, 64),
        np.full(1, 0.5),
        1.3766 + 1j * np.linspace(0.0, 300.0, 101),
        _RNG.uniform(1e-3, 15.0, 40) + 1j * _RNG.standard_normal(40),
        _RNG.uniform(1e-3, 15.0, (3, 4)),
        _RNG.uniform(1e-3, 15.0, (2, 3)) + 1j * _RNG.uniform(-5.0, 5.0, (2, 3)),
        np.empty(0),
        np.empty(0, dtype=complex),
        np.array(2.5),
        np.array(0.7 + 4j),
        # one shift from Im z = -0.0: the shift sum is 0.0 + (-0.0) = +0.0
        np.array([complex(9.5, -0.0), complex(9.25, -0.0)]),
        # no shift next to shifts: z keeps Im z = -0.0 (z + 0.0 would not)
        np.array([complex(12.0, -0.0), complex(5.0, -0.0), complex(0.5, -0.0)]),
        # wider than 16 columns a row: summed a row at a time
        _RNG.uniform(1e-3, 15.0, 700),
        _RNG.uniform(1e-3, 15.0, 300) + 1j * _RNG.standard_normal(300),
        *_SHIFT_CASES,
    ], ids=["k-0-to-10-unsorted", "no-shift", "mixed", "ascending", "one",
            "vertical-line", "mixed-real-parts", "2-d", "2-d-complex", "empty",
            "empty-complex", "0-d", "0-d-complex", "minus-zero-imag",
            "minus-zero-imag-no-shift", "wide",
            "wide-complex", *_SHIFT_IDS])
    @pytest.mark.parametrize("series", [
        (_LNGAMMA_SERIES,),
        (specfun._DIGAMMA_SERIES, specfun._TRIGAMMA_SERIES),
    ], ids=["one-series", "two-series"])
    def test_bit_identical_to_the_mask_loop(self, z, series):
        before = z.tobytes()
        got_z, got_w, got_sums = specfun._series_array(z, *series)
        assert z.tobytes() == before
        ref_z, ref_w, ref_sums = _series_array_reference(z, *series)
        assert got_z.tobytes() == ref_z.tobytes()
        assert got_w.tobytes() == ref_w.tobytes()
        assert len(got_sums) == len(ref_sums) == len(series)
        for (s, shift), (ref_s, ref_shift) in zip(got_sums, ref_sums):
            assert s.tobytes() == ref_s.tobytes()
            assert shift.tobytes() == ref_shift.tobytes()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_blocks_of_fewer_columns_give_the_same_bits(self, dtype, monkeypatch):
        # blocks of 300, 300 and 100 columns: two summed a row at a time, then
        # one by np.add.accumulate
        monkeypatch.setattr(specfun, "_BLOCK_COLUMNS", 300)
        z = _RNG.uniform(1e-3, 15.0, 700).astype(dtype)
        if dtype is complex:
            z += 1j * _RNG.standard_normal(700)
        self.test_bit_identical_to_the_mask_loop(
            z, (specfun._DIGAMMA_SERIES, specfun._TRIGAMMA_SERIES))


@pytest.mark.parametrize("z", [
    np.array([1e-3, 1e300, 0.5, 1e300, 12.0]),
    np.array([1e-3 + 1j, 1e300 + 1e300j, 0.5 - 2j, 1e300 - 1e300j, 12.0 + 0j]),
], ids=["real", "complex"])
def test_small_and_huge_arguments_in_one_array(z):
    # the huge elements' columns are padded with 1e300 rows, where 1/(z z)
    # overflows (inf - inf = nan when complex); the padding must not warn
    # (pytest fails on a RuntimeWarning) nor reach any element
    if z.dtype == complex:
        # numpy's complex kernels may round a lone element differently, so the
        # reference is each magnitude in an array of its own
        got = ln_gamma_complex(z)
        huge = np.abs(z) > 1e3
        assert got[huge].tobytes() == ln_gamma_complex(z[huge]).tobytes()
        assert got[~huge].tobytes() == ln_gamma_complex(z[~huge]).tobytes()
        assert np.isfinite(got).all()
        return
    for f in (ln_gamma, digamma, trigamma):
        got = f(z)
        assert [v.hex() for v in got.tolist()] == [f(v).hex() for v in z.tolist()]


def test_blocks_of_2_11_and_2_15_columns_give_the_same_bits(monkeypatch):
    # columns are independent, so the block width moves no bit at the widths
    # the package runs: 1e5 values, and the contour's node-cap row, taken from
    # the call of D(t) that the contour makes at (1, 1e-20)
    x = np.random.default_rng(5).uniform(0.0, 15.0, 100_000)
    x[x == 0.0] = 0.5
    args = []
    kernel = hslaplace.oracles._ln_gamma_line
    monkeypatch.setattr(hslaplace.oracles, "_ln_gamma_line",
                        lambda gamma, t: args.append((gamma, t)) or kernel(gamma, t))
    hslaplace.oracles.fn_contour(1, 1e-20)
    gamma, t = max(args, key=lambda a: a[1].size)
    assert t.size == 8002

    def outputs(columns):
        monkeypatch.setattr(specfun, "_BLOCK_COLUMNS", columns)
        return [f(x).tobytes() for f in (ln_gamma, digamma, trigamma)] + [
            ln_gamma_complex(gamma + 1j * t).tobytes(), specfun._ln_gamma_line(gamma, t).tobytes()]

    assert outputs(1 << 15) == outputs(1 << 11)


def test_ln_gamma_scratch_memory_is_bounded():
    # below 10 no element is shifted: at 1e6 values below 1 the peak is the
    # output, the copy of the input, z, the Taylor sum and one log term, 5.38 x
    # the input's bytes (6.00 x while each element was shifted past 10 in
    # blocks of 2^11 columns)
    x = np.random.default_rng(0).uniform(0.0, 1.0, 1_000_000)
    x[x == 0.0] = 0.5
    tracemalloc.start()
    try:
        ln_gamma(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.5 * x.nbytes


@pytest.mark.parametrize("x", [1.34e154, 1e155, 1e200, 1e300])
def test_array_kernels_match_the_scalar_path_where_z_squared_overflows(x):
    # z * z overflowed to inf with a RuntimeWarning on the array path only
    for f in (ln_gamma, digamma, trigamma):
        assert f(np.array([x]))[0].hex() == f(x).hex()
    got = ln_gamma_complex(np.array([complex(x, 1.0)]))[0]
    assert got == ln_gamma_complex(complex(x, 1.0)) and np.isfinite(got)


# ln Gamma(z) where Re z and |Im z| both pass sqrt(max float) ~ 1.34e154, so
# that z * z is inf - inf: frozen mpmath 1.3.0 loggamma, 40 digits
LN_GAMMA_COMPLEX_FAR = [
    (1e160 + 1e155j, "3.674136148789973118480337628473956560972e+162",
     "3.684136148790639787598946103571253704911e+157"),
    (2e154 + 2e154j, "7.077048538570510362084142556355978267509e+156",
     "7.10846446510640829562951037120654296597e+156"),
    (1e200 + 1e200j, "4.590781940256916472235607748872270849741e+202",
     "4.606489903524865437952489961267280649199e+202"),
    (1e300 - 1e300j, "6.893367033250962657964534950725761341582e+302",
     "-6.909074996518911624981591013123376677263e+302"),
]


@pytest.mark.parametrize("z, re, im", LN_GAMMA_COMPLEX_FAR,
                         ids=[repr(z) for z, _, _ in LN_GAMMA_COMPLEX_FAR])
def test_ln_gamma_complex_where_z_squared_is_inf_minus_inf(z, re, im):
    # w = 1/z^2 was nan there, and so was ln Gamma
    ref = complex(float(re), float(im))
    assert abs(ln_gamma_complex(z) - ref) <= 4.4e-16 * abs(ref)


# D(t) = ln Gamma(gamma + it) - ln Gamma(gamma) - it psi(gamma): mpmath 1.3.0
# loggamma and digamma at 60 digits, printed to 25.  gamma spans 1e-3 to 1e6
# with both neighbours of 10, where the shift count drops from 1 to 0, and t
# spans 1e-8 to 1e3.  _ln_gamma_line is within 3.7e-16 relative of these, and
# within 8.3e-16 of 6000 random (gamma, t) of the same ranges.
LN_GAMMA_LINE_REFERENCE = [
    (0.001, 1e-08, "-5.000008212415979345965697e-11", "3.333333337129387150628628e-16"),
    (0.001, 0.001, "-0.3465744115463010429472216", "0.214601837002156865635478"),
    (0.001, 2.0, "-9.475690323357927947678879", "1999.711814421484420039632"),
    (0.001, 1000.0, "-1580.231537031204803031723", "1006482.543300591509942369"),
    (0.05, 1e-05, "-2.007661746710352256171253e-8", "2.667017962336976616236161e-12"),
    (0.05, 0.3, "-1.872683731803415751500529", "4.603463383318568275256159"),
    (0.05, 30.0, "-50.70436533460583699893412", "686.262426634744008579709"),
    (0.3, 1e-08, "-6.122682273053862810363683e-16", "1.25454227647876657041067e-23"),
    (0.3, 0.3, "-0.3968297889212830660886224", "0.2198595604816301664009127"),
    (0.3, 7.0, "-11.56147244152099445617205", "30.82797920244170002984925"),
    (1.0, 0.001, "-0.0000008224667628434743817451939", "4.006854270011244746008432e-10"),
    (1.0, 2.0, "-1.876078786430929341229996", "1.284077646112854032596732"),
    (1.0, 1000.0, "-1566.423510622200877963514", "6485.756258713731249858197"),
    (1.4616321449683431, 1e-08, "-4.838361227238190962141444e-17", "1.47587722994535668971603e-25"),
    (1.4616321449683431, 0.25, "-0.02999161288650363441842436", "0.002274653913098538397839278"),
    (1.4616321449683431, 1.9, "-1.297720344483244842930049", "0.6136341521861059566566556"),
    (1.4616321449683431, 30.0, "-42.81264410311640682029039", "73.53242760889042329305192"),
    (3.7, 1e-05, "-1.550189288347763463663497e-11", "1.58992181213814773063442e-17"),
    (3.7, 0.9, "-0.1240175689345759278742527", "0.01133826571130158656189702"),
    (3.7, 100.0, "-142.8516892320720682399714", "248.7774378858100140730501"),
    (9.999999999999998, 1e-08, "-5.258316784084288506600827e-18", "1.841639161800345378833196e-27"),
    (9.999999999999998, 2.5, "-0.3249690096778326524140296", "0.02820024681443806766618384"),
    (9.999999999999998, 30.0, "-26.54159113807863122757123", "17.92718630051480721964258"),
    (10.0, 1e-08, "-5.25831678408428752517833e-18", "1.841639161800344692004438e-27"),
    (10.0, 0.001, "-5.258316774418032132982728e-8", "1.841639155717584988509651e-12"),
    (10.0, 2.5, "-0.3249690096778325930937287", "0.02820024681443805735622448"),
    (10.0, 1000.0, "-1517.055398095276201047202", "3670.880172361607187331594"),
    (10.000000000000002, 1e-08, "-5.258316784084286543755834e-18", "1.84163916180034400517568e-27"),
    (10.000000000000002, 2.5, "-0.3249690096778325337734277", "0.02820024681443804704626512"),
    (10.000000000000002, 30.0, "-26.54159113807862697429183", "17.92718630051480050183657"),
    (25.0, 0.001, "-2.040533162295093059248034e-8", "2.775465529318304262633642e-13"),
    (25.0, 6.25, "-0.7886610484269222829046135", "0.06647818493984609818086848"),
    (25.0, 300.0, "-385.3348502943904278404557", "488.9973289309947062649794"),
    (400.0, 1e-08, "-1.251563802081705788804402e-19", "1.044274088534885090570405e-30"),
    (400.0, 0.001, "-1.251563802080398814255678e-9", "1.044274088532922179268944e-15"),
    (400.0, 30.0, "-1.125351153430642905989356", "0.02814782931784497213177181"),
    (1000000.0, 1e-08, "-5.000002500000833542559046e-23", "1.666668333334166771279575e-37"),
    (1000000.0, 1.0, "-0.0000005000002499999999998749999", "1.666668333333666665666666e-13"),
    (1000000.0, 1000.0, "-0.5000001666666583333154762", "0.0001666667833333404761646825"),
]


@pytest.mark.parametrize("gamma, t, re, im", LN_GAMMA_LINE_REFERENCE)
def test_ln_gamma_line_against_mpmath(gamma, t, re, im):
    ref = complex(float(re), float(im))
    got = specfun._ln_gamma_line(gamma, np.array([t]))[0]
    assert abs(got - ref) <= 1e-15 * abs(ref)


@pytest.mark.parametrize("gamma", [1e-3, 1.4616321449683431, 9.999999999999998, 10.0, 400.0])
def test_ln_gamma_line_is_zero_at_zero(gamma):
    # the Bernoulli part left 1.7e-18 at gamma = 10 as a difference of two
    # Horner sums; formed as -s^2 u E(u) it vanishes with s
    got = specfun._ln_gamma_line(gamma, np.array([0.0, 1.0, 0.0]))
    assert got[0] == 0.0 and got[2] == 0.0 and got[1] != 0.0


def test_ln_gamma_line_is_conjugate_symmetric():
    t = np.array([1e-8, 0.3, 2.0, 30.0])
    for gamma in (0.05, 1.4616321449683431, 25.0):
        assert (specfun._ln_gamma_line(gamma, -t) == np.conj(specfun._ln_gamma_line(gamma, t))).all()


# ln Gamma(x), mpmath 1.3.0 at 60 digits, printed to 25
LN_GAMMA_REFERENCE = [
    (1e-300, "690.7755278982137051803383"),
    (0.001, "6.907178885383853661683681"),
    (0.3, "1.095797994818075560562999"),
    (0.5, "0.5723649429247000870717137"),
    (0.9999999999999999, "6.408381213480007242629897e-17"),
    (1.0, "0.0"),
    (1.4616321449683431, "-0.1214862905358496080955146"),
    (1.5, "-0.1207822376352452223455184"),
    (2.0, "0.0"),
    (2.5, "0.2846828704729191596324947"),
    (3.7, "1.428072326665388129200498"),
    (9.999999999999998, "12.80182748008146561129161"),
    (10.0, "12.80182748008146961120772"),
    (25.0, "54.78472939811231919009334"),
]


LN_GAMMA_PATHS = {
    "scalar": ln_gamma,
    "array": lambda x: float(ln_gamma(np.array([x, 0.5, 5.5, 12.0]))[0]),
}


@pytest.mark.parametrize("path", sorted(LN_GAMMA_PATHS))
@pytest.mark.parametrize("x, ref", LN_GAMMA_REFERENCE)
def test_ln_gamma_against_mpmath(x, ref, path):
    # each path: the Taylor series at 2 below 10 is within 2.3e-16
    # max(1, |ln Gamma|) on 3000 random x in (0, 10), where shifting x past 10
    # for Stirling's series was up to 7.9e-15 off
    got = LN_GAMMA_PATHS[path](x)
    assert scaled(abs(got - float(ref)), float(ref), 3e-16)
    if x in (1.0, 2.0):
        assert got == 0.0

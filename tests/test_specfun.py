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

    def test_domain_errors(self):
        for bad in (0.0, -3.0, math.nan):
            with pytest.raises(ValueError):
                digamma(bad)


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

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            trigamma(-0.5)

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

    def test_domain_errors(self):
        for bad in (0.0, -2.0, math.inf):
            with pytest.raises(ValueError):
                bessel_k0(bad)


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
# 40 significant digits; 1.376610918646214 is gamma_cr as critical_point() returns it
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
        # wider than 256 columns: summed a row at a time
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


def test_ln_gamma_scratch_memory_is_bounded():
    # a (steps + 1) x size block would need 11 x the input's bytes below 1,
    # plus the terms; shifted _BLOCK_COLUMNS columns at a time the peak is
    # 6.00 x the input's bytes, as with the prefix-slice loop before (6.00 x)
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

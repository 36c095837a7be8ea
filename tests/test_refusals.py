"""One refusal table: every public entry point, crossed with the bad values of
each kind of argument it takes, raises ValueError with that kind's one message.

A positive real (lambda, x, r, theta, epsilon, the schedule's c, tol) is
refused as "<name> must be a finite positive real, got <value>"; a real of
either sign (the schedule's alpha) as "<name> must be a finite real, got
<value>"; an integer (n, an n_grid entry, samples, seed) as "<caller> requires
integer <name> >= <minimum>, got <name> = <value>".  A tabulate grid point that
is no real number (a bool, a str or bytes, a list, a complex, None, a row of a
2-D array) is refused as a lambda, naming the point (a bytes grid whole).  A
lambda above the largest at which ln L is a finite double is refused by every
ln L route with solve_saddle's one message.  A dual vector f that is no tuple, list or array
of reals is refused as "all entries of f must be finite positive reals", and
weights that are no tuple, list or array of reals as "weights must be finite,
got <weights>".
"""

import math
import re
import sys

import numpy as np
import pytest

from hslaplace import (
    Method,
    GrandEnsembleSpec,
    HypersphereSpec,
    L_value,
    L_value_legendre,
    bessel_k0,
    classify_regime,
    cross_check,
    digamma,
    ensemble_comparison,
    evaluate,
    f1_exact,
    f2_exact,
    fn_contour,
    fn_montecarlo,
    fn_quadrature,
    fn_saddle_asymptotic,
    geometric_mean,
    laplace_dn,
    ln_gamma,
    solve_saddle,
    tabulate,
    trigamma,
    unit_crossing,
)

F = (1.0, 2.0)
LINEAR = (1.0, 0.0)  # the schedule r_n = 1

# (entry point, name in the message, the call with the bad value in its place)
POSITIVE = [
    ("ln_gamma", "x", ln_gamma),
    ("digamma", "x", digamma),
    ("trigamma", "x", trigamma),
    ("bessel_k0", "x", bessel_k0),
    ("solve_saddle", "lambda", solve_saddle),
    ("L_value", "lambda", L_value),
    ("L_value_legendre", "lambda", L_value_legendre),
    ("f1_exact", "lambda", f1_exact),
    ("f2_exact", "lambda", f2_exact),
    ("fn_quadrature", "lambda", lambda v: fn_quadrature(2, v)),
    # a str tol raised TypeError at the range test
    ("fn_quadrature", "tol", lambda v: fn_quadrature(2, 1.0, v)),
    ("fn_contour", "lambda", lambda v: fn_contour(2, v)),
    ("fn_saddle_asymptotic", "lambda", lambda v: fn_saddle_asymptotic(2, v)),
    ("fn_montecarlo", "lambda", lambda v: fn_montecarlo(2, v, 10_000, 0)),
    ("evaluate", "lambda", lambda v: evaluate("closed-form", 2, v)),
    ("cross_check", "lambda", lambda v: cross_check(2, v)),
    ("HypersphereSpec", "r", lambda v: HypersphereSpec(2, v, F)),
    ("GrandEnsembleSpec", "theta", lambda v: GrandEnsembleSpec(v, F, (0.5, 0.5))),
    ("classify_regime", "lambda_eff", lambda v: classify_regime(v, 0.1)),
    ("classify_regime", "epsilon", lambda v: classify_regime(1.0, v)),
    ("ensemble_comparison", "theta", lambda v: ensemble_comparison(F, v, LINEAR, (2, 3), 0.05)),
    ("ensemble_comparison", "schedule coefficient c",
     lambda v: ensemble_comparison(F, 1.0, (v, 0.0), (2, 3), 0.05)),
    ("ensemble_comparison", "epsilon", lambda v: ensemble_comparison(F, 1.0, LINEAR, (2, 3), v)),
]
BAD_POSITIVE = [math.nan, math.inf, -math.inf, 0.0, -1.0, True, "1.0"]
# ln_gamma, digamma and trigamma also take arrays, and numpy's conversion read
# a str, bytes or bool in them: ln_gamma("1.0") was 0.0, digamma(["2.0"]) an array
ARRAY_KERNELS = [("ln_gamma", ln_gamma), ("digamma", digamma), ("trigamma", trigamma)]
BAD_ARRAYS = [["2.0"], b"1.0", np.array([True, False]), np.str_("1.0")]
# a sequence mixing bools into floats: np.asarray casts it to float64, so
# ln_gamma([True, 2.0]) was [0., 0.]
BAD_ARRAYS += [[True, 2.0], (2.0, True), [np.True_, 2.0], (np.True_, 2.0), [[2.0], [True]]]

# (grid, the point named): tabulate read a bool, a str or bytes as a grid point,
# tabulate([True, 2.0]) had a row at lambda = 1.0 and tabulate(b"12") rows at
# 49.0 and 50.0; a bytes grid, whose points are ints, is named whole.  A list, a
# complex, None or a row of a 2-D array met a bare TypeError from float()
BAD_GRIDS = [([True, 2.0], True), ((0.5, np.True_), np.True_), (["0.5", "1.0"], "0.5"),
             ([0.5, b"1"], b"1"), ([np.str_("1.0")], np.str_("1.0")), ("12", "1"),
             (b"12", b"12"), (np.array([True, False]), np.True_),
             (np.array(["0.5", "1.0"]), np.str_("0.5")),
             ([[0.5], [1.0]], [0.5]), ([1.0 + 0j, 2.0], 1.0 + 0j), ([0.5, None], None),
             (np.ones((2, 2)), np.ones(2))]

# every ln L route refuses where ln L is not a finite double with solve_saddle's
# message (ln L was nan); the Legendre route's scan stopped at 2^79 and raised
# "failed to bracket" from lambda ~ 1e24 on
LN_L_ROUTES = [("solve_saddle", solve_saddle), ("L_value", L_value),
               ("L_value_legendre", L_value_legendre), ("tabulate", lambda v: tabulate([v]))]
LN_L_OVERFLOWS = [math.nextafter(2.5563481638717604e305, math.inf), 3e305, 5e307, 1.7e308,
                  sys.float_info.max]

# (entry point, name in the message, the call with the bad value in its place);
# float() read True and "0.5" as alpha
FINITE = [
    ("ensemble_comparison", "schedule exponent alpha",
     lambda v: ensemble_comparison(F, 1.0, (1.0, v), (2, 3), 0.05)),
]
BAD_FINITE = [math.nan, math.inf, -math.inf, True, "0.5"]

# (entry point, name, minimum, the call with the bad value in its place); the
# message names the entry point, but fn_montecarlo for the samples and seed that
# evaluate passes on
INTEGER = [
    ("fn_quadrature", "n", 2, lambda v: fn_quadrature(v, 1.0)),
    ("fn_contour", "n", 1, lambda v: fn_contour(v, 1.0)),
    ("fn_saddle_asymptotic", "n", 1, lambda v: fn_saddle_asymptotic(v, 1.0)),
    ("fn_montecarlo", "n", 2, lambda v: fn_montecarlo(v, 1.0, 10_000, 0)),
    ("fn_montecarlo", "samples", 10_000, lambda v: fn_montecarlo(2, 1.0, v, 0)),
    # a negative seed met numpy's bare "expected non-negative integer"
    ("fn_montecarlo", "seed", 0, lambda v: fn_montecarlo(2, 1.0, 10_000, v)),
    ("evaluate", "samples", 10_000, lambda v: evaluate("monte-carlo", 2, 1.0, samples=v)),
    ("evaluate", "seed", 0, lambda v: evaluate("monte-carlo", 2, 1.0, 1e-9, 10_000, v)),
    ("evaluate", "n", 1, lambda v: evaluate("closed-form", v, 1.0)),
    ("cross_check", "n", 1, lambda v: cross_check(v, 1.0)),
    # 0 turns Monte Carlo off; a str raised TypeError, and True, 5.5 or inf
    # reached fn_montecarlo's refusal
    ("cross_check", "samples", 0, lambda v: cross_check(2, 1.0, samples=v)),
    ("unit_crossing", "n", 2, unit_crossing),
    ("HypersphereSpec", "n", 1, lambda v: HypersphereSpec(v, 1.0, F)),
    # int() once truncated an n_grid entry 5.5 to 5 and parsed '5'
    ("ensemble_comparison", "n", 1, lambda v: ensemble_comparison(F, 1.0, LINEAR, (v, 50), 0.05)),
]
# an integral float is not an integer either
BAD_INTEGER = [True, 5.5, np.float64(5.0), "5"]

# every entry point that takes a dual vector f: np.asarray parsed a str or bytes
# entry and read a bool as 1.0 (laplace_dn gave -2.4677 for (b"1", 2.0)), and a
# generator met a TypeError or was read by tuple()
DUAL = [
    ("geometric_mean", geometric_mean),
    ("HypersphereSpec", lambda f: HypersphereSpec(2, 1.0, f)),
    ("laplace_dn", lambda f: laplace_dn(HypersphereSpec(2, 1.0, f))),
    ("GrandEnsembleSpec", lambda f: GrandEnsembleSpec(1.0, f, (0.5, 0.5))),
    ("ensemble_comparison", lambda f: ensemble_comparison(f, 1.0, LINEAR, (2, 3), 0.05)),
]
# (id, a maker of the bad f: a generator can be read only once)
BAD_DUAL = [
    ("str", lambda: ("1.0", 2.0)),
    ("bytes", lambda: (b"1", 2.0)),
    ("np.str_", lambda: (np.str_("1.5"), 2.0)),
    ("np.True_", lambda: (np.True_, 2.0)),
    ("True", lambda: [2.0, True]),
    ("bool-array", lambda: np.array([True, True])),
    ("str-array", lambda: np.array(["1.0", "2.0"])),
    ("generator", lambda: (v for v in (1.0, 2.0))),
    ("a-str", lambda: "12"),
    ("a-bytes", lambda: b"12"),
]
# GrandEnsembleSpec accepted the weights (True, False) and raised TypeError on
# ("0.5", "0.5")
BAD_WEIGHTS = [(True, False), (np.True_, np.False_), ("0.5", "0.5"), (b"1", 0.0)]
# (id, a maker of weights that are no tuple, list or array): a generator met a
# bare TypeError from len()
BAD_WEIGHT_CONTAINERS = [
    ("generator", lambda: (v for v in (0.5, 0.5))),
    ("float", lambda: 1.0),
    ("None", lambda: None),
    ("set", lambda: {0.25, 0.75}),
    ("dict", lambda: {0: 0.5, 1: 0.5}),
]


def _positive_cases():
    for caller, name, call in POSITIVE:
        for bad in BAD_POSITIVE:
            yield pytest.param(name, call, bad, id=f"{caller}-{name}-{bad!r}")
    for caller, call in ARRAY_KERNELS:
        for bad in BAD_ARRAYS:
            yield pytest.param("x", call, bad, id=f"{caller}-x-{bad!r}")


def _integer_bad_values(name, minimum):
    # int() truncated samples = 10000.5 to 10000 and raised OverflowError at inf
    extra = [10_000.5, math.inf] if name == "samples" else []
    return [*BAD_INTEGER, minimum - 1, *extra]


def _integer_cases():
    for entry, name, minimum, call in INTEGER:
        caller = "fn_montecarlo" if entry == "evaluate" and name != "n" else entry
        for bad in _integer_bad_values(name, minimum):
            yield pytest.param(caller, name, minimum, call, bad, id=f"{entry}-{name}-{bad!r}")


def _integer_message(caller, name, minimum, bad):
    return f"{caller} requires integer {name} >= {minimum}, got {name} = {bad!r}"


@pytest.mark.parametrize("name, call, bad", _positive_cases())
def test_a_positive_real_has_one_refusal(name, call, bad):
    message = f"{name} must be a finite positive real, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


@pytest.mark.parametrize("grid, bad", BAD_GRIDS, ids=repr)
def test_a_grid_point_has_the_positive_real_refusal(grid, bad):
    message = f"lambda must be a finite positive real, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        tabulate(grid)


@pytest.mark.parametrize("name, call, bad", [
    pytest.param(name, call, bad, id=f"{caller}-{name}-{bad!r}")
    for caller, name, call in FINITE for bad in BAD_FINITE
])
def test_a_finite_real_has_one_refusal(name, call, bad):
    message = f"{name} must be a finite real, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


@pytest.mark.parametrize("caller, name, minimum, call, bad", _integer_cases())
def test_an_integer_has_one_refusal(caller, name, minimum, call, bad):
    message = _integer_message(caller, name, minimum, bad)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


@pytest.mark.parametrize("call, lam", [
    pytest.param(call, lam, id=f"{name}-{lam!r}") for name, call in LN_L_ROUTES for lam in LN_L_OVERFLOWS
])
def test_ln_l_beyond_a_finite_double_has_one_refusal(call, lam):
    message = f"ln L is not a finite double at lambda = {lam!r}: ln Gamma(gamma) overflows"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(lam)


# cross_check refuses a samples that is no integer >= 0 itself (see INTEGER)
@pytest.mark.parametrize("name, kwargs", [
    ("samples", {"samples": 9_999}),
    *(("seed", {"samples": 10_000, "seed": bad}) for bad in _integer_bad_values("seed", 0)),
], ids=repr)
def test_cross_check_records_a_monte_carlo_refusal(name, kwargs):
    minimum = 10_000 if name == "samples" else 0
    results, refusals, _ = cross_check(2, 1.0, **kwargs)
    assert Method.MONTE_CARLO not in results
    assert refusals == {
        Method.MONTE_CARLO: _integer_message("fn_montecarlo", name, minimum, kwargs[name])
    }


@pytest.mark.parametrize("call, make", [
    pytest.param(call, make, id=f"{caller}-{kind}") for caller, call in DUAL for kind, make in BAD_DUAL
])
def test_a_dual_vector_has_one_refusal(call, make):
    with pytest.raises(ValueError, match="^all entries of f must be finite positive reals$"):
        call(make())


@pytest.mark.parametrize("bad", BAD_WEIGHTS, ids=repr)
def test_weights_have_one_refusal(bad):
    message = f"weights must be finite, got {bad}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GrandEnsembleSpec(1.0, (1.0, 2.0), bad)


@pytest.mark.parametrize("make", [make for _, make in BAD_WEIGHT_CONTAINERS],
                         ids=[kind for kind, _ in BAD_WEIGHT_CONTAINERS])
def test_weights_that_are_no_sequence_have_the_same_refusal(make):
    bad = make()
    message = f"weights must be finite, got {bad}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GrandEnsembleSpec(1.0, (1.0, 2.0), bad)

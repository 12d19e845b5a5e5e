"""Properties of the closed-form call prices on their array paths: the
second-order expansion price_sa2_rel, the implied-vol expansion price
price_d, which is c_rel(y, sigma_d(...), t), and the Hagan price price_h,
which is c_rel(y, sigma_h(...), t).

Parameter domain (K = 1, F = e^y, r = 0):
    sigma0 in [0.1, 0.5], rho in [-0.9, 0.9], t in [0.1, 2], y in [-1, 1];
    nu in [0, 1] for the Hagan price, and nu sqrt(t) <= 0.125 (table 4's
    largest nu sqrt(t)) for the two expansions, which are series in nu.

The checked properties are the no-arbitrage bounds (e^y - 1)^+ <= c <= e^y,
call prices falling and convex in the strike with slope at least -1, the
(S, K) scaling of price_sa2, the collapse to c_rel as nu -> 0, and array
calls agreeing with float calls.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from sabrkit import (
    OptionQuery,
    SabrParams,
    c_rel,
    price_d,
    price_h,
    price_sa2,
    price_sa2_rel,
)

# rounding allowance: prices are O(1), and strike slopes come from
# differences over strike steps of about 1 %
ATOL = 1e-12
SLOPE_TOL = 1e-10

# log-moneyness of the strike grid: K = e^{-y} increases along it
Y = np.linspace(1.0, -1.0, 101)

NU_SQRT_T_MAX = 0.125


def floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def cases(draw, model):
    """(kernel, params, t) inside the stated domain."""
    t = draw(floats(0.1, 2.0))
    nu_max = 1.0 if model == "h" else NU_SQRT_T_MAX / math.sqrt(t)
    params = SabrParams(
        sigma0=draw(floats(0.1, 0.5)),
        nu=draw(floats(0.0, nu_max)),
        rho=draw(floats(-0.9, 0.9)),
    )
    return KERNELS[model], params, t


KERNELS = {"sa2": price_sa2_rel, "d": price_d, "h": price_h}


@st.composite
def every_model(draw):
    """One case per model, each drawn on its own, so every example checks
    every model."""
    return [draw(cases(model)) for model in KERNELS]


@given(every_model())
def test_no_arbitrage_bounds(cases_):
    for kernel, params, t in cases_:
        c = kernel(Y, t, params)
        assert np.all(c >= np.maximum(np.exp(Y) - 1.0, 0.0) - ATOL)
        assert np.all(c <= np.exp(Y) + ATOL)


@given(every_model())
def test_falling_and_convex_in_strike(cases_):
    strikes = np.exp(-Y)  # increasing
    for kernel, params, t in cases_:
        calls = strikes * kernel(Y, t, params)  # K c_rel(ln(F/K)) with F = 1
        slopes = np.diff(calls) / np.diff(strikes)
        assert np.all(slopes <= SLOPE_TOL)
        assert np.all(slopes >= -1.0 - SLOPE_TOL)
        assert np.all(np.diff(slopes) >= -SLOPE_TOL)


@given(
    cases("sa2"),
    floats(0.5, 2.0),
    floats(-1.0, 1.0),
    floats(-0.05, 0.1),
    st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
)
def test_price_sa2_scales_with_spot_and_strike(case, spot, y, rate, scale):
    _, params, t = case
    strike = spot * math.exp(rate * t - y)
    base = price_sa2(OptionQuery(spot, strike, rate, t), params)
    scaled = price_sa2(OptionQuery(scale * spot, scale * strike, rate, t), params)
    # ln(S/K) of the scaled pair rounds differently, so relative, not exact
    for got, want in zip(scaled, base):
        assert math.isclose(got, scale * want, rel_tol=1e-10, abs_tol=1e-12 * scale)


@given(every_model())
def test_collapse_to_black_scholes_as_nu_vanishes(cases_):
    for kernel, params, t in cases_:
        flat = c_rel(Y, params.sigma0, t)
        np.testing.assert_array_equal(kernel(Y, t, replace(params, nu=0.0)), flat)
        gaps = [
            np.abs(kernel(Y, t, replace(params, nu=nu)) - flat).max()
            for nu in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
        ]
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-5


@given(every_model(), st.lists(floats(-1.0, 1.0), min_size=1, max_size=12))
def test_array_equals_scalar(cases_, ys):
    ys = np.array(ys)
    for kernel, params, t in cases_:
        got = kernel(ys, t, params)
        want = np.array([kernel(float(y), t, params) for y in ys])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

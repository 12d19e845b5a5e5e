"""The second-order kernel evaluated in one pass against its per-term form.

`price_sa2_rel` and `delta_sa2` sum the Gaussian-kernel terms
a_i h_tilde(i) phi_t from one Hermite recurrence. The references here
build every term from its own `h_tilde` and `phi_t` call, with the kernel
coefficients written out as the paper's formulas. The two agree to 1e-13
of the summed term sizes: the terms can be much larger than their sum, so
rounding is measured against them.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sabrkit import (
    DomainError,
    OptionQuery,
    SabrParams,
    bs_implied_vol,
    c_rel,
    d_minus,
    delta_sa2,
    h_tilde,
    norm_cdf,
    norm_pdf,
    phi_t,
    price_sa2,
    price_sa2_rel,
)

RTOL = 1e-13


def floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


def expiries():
    # t = 0 (the payoff) or far enough from it that d_- stays moderate
    return st.one_of(st.just(0.0), floats(0.01, 3.0))


def params_strategy(kappa):
    return st.builds(
        SabrParams,
        sigma0=floats(0.05, 0.8),
        nu=floats(0.0, 2.0),
        rho=floats(-0.95, 0.95),
        kappa0=floats(0.0, 2.0) if kappa else st.just(0.0),
        theta=floats(0.05, 0.6) if kappa else st.just(0.0),
    )


def f1_coeffs_ref(s, t, rho, k0, theta):
    return (
        0.5 * t**2 * s * k0 * (theta - s),
        0.5 * t**2 * rho * s**3,
    )


def f2_coeffs_ref(s, t, rho, k0, theta):
    dev = theta - s
    return (
        t**2 * s**2 / 4 + t**3 * k0**2 / 6 * dev * (theta - 2 * s),
        -(t**3) * s**4 / 6
        + t**3 * k0 * rho * s**2 / 6 * (4 * theta - 5 * s)
        - t**4 * k0**2 * s**2 / 8 * dev**2,
        t**3 * s**4 / 6
        + t**3 * rho**2 * s**4 / 2
        + t**4 * k0**2 * s**2 / 8 * dev**2
        - t**4 * k0 * rho * s**4 / 4 * dev,
        t**4 * k0 * rho * s**4 / 4 * dev - t**4 * rho**2 * s**6 / 8,
        t**4 * rho**2 * s**6 / 8,
    )


def per_term_price(y, t, params, sigma):
    """(price, summed term sizes) of the strike-normalized second-order
    price: c_rel + nu F1 + nu^2 F2 with F2 = sum_i a2i h_tilde(i) phi_t,
    one kernel call per term; at t = 0 the payoff."""
    y, t, s = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (y, t, sigma)))
    nu, rho, k0, theta = params.nu, params.rho, params.kappa0, params.theta
    live = t > 0.0
    tt = np.where(live, t, 1.0)
    f_bs = c_rel(y, s, t)
    dm = d_minus(y, s, tt)
    f1 = 0.5 * tt * (k0 * (theta - s) * np.sqrt(tt) - rho * s * dm) * norm_pdf(dm)
    phi = phi_t(y, s, tt)
    terms = [
        a * h_tilde(i, y, s, tt) * phi
        for i, a in enumerate(f2_coeffs_ref(s, tt, rho, k0, theta))
    ]
    price = np.where(live, f_bs + nu * f1 + nu * nu * sum(terms), f_bs)
    size = np.abs(f_bs) + np.where(
        live, nu * np.abs(f1) + nu * nu * sum(np.abs(x) for x in terms), 0.0
    )
    return price, size


def per_term_delta(query, params):
    """(delta, summed term sizes) with each x-derivative term
    a_i h_tilde(i + 1) phi_t from its own kernel call."""
    s, nu, rho, t = params.sigma0, params.nu, params.rho, query.expiry
    y = query.log_moneyness
    base = norm_cdf(d_minus(y, s, t) + s * math.sqrt(t))
    scale = query.strike * math.exp(-query.log_price)
    phi = phi_t(y, s, t)
    dx1 = [a * h_tilde(i + 1, y, s, t) * phi for i, a in enumerate(f1_coeffs_ref(s, t, rho, 0, 0))]
    dx2 = [a * h_tilde(i + 1, y, s, t) * phi for i, a in enumerate(f2_coeffs_ref(s, t, rho, 0, 0))]
    delta = base + nu * scale * (sum(dx1) + nu * sum(dx2))
    size = abs(base) + nu * scale * (
        sum(abs(x) for x in dx1) + nu * sum(abs(x) for x in dx2)
    )
    return delta, size


class TestFusedPrice:
    @pytest.mark.parametrize("kappa", [False, True])
    @given(data=st.data())
    def test_float_call(self, kappa, data):
        params = data.draw(params_strategy(kappa))
        y, t = data.draw(floats(-1.0, 1.0)), data.draw(expiries())
        got = price_sa2_rel(y, t, params)
        want, size = per_term_price(y, t, params, params.sigma0)
        assert type(got) is float
        assert abs(got - float(want)) <= RTOL * float(size)

    @pytest.mark.parametrize("kappa", [False, True])
    @given(data=st.data())
    def test_array_call_with_expired_points(self, kappa, data):
        params = data.draw(params_strategy(kappa))
        n = data.draw(st.integers(min_value=1, max_value=12))
        y = np.array(data.draw(st.lists(floats(-1.0, 1.0), min_size=n, max_size=n)))
        t = np.array(data.draw(st.lists(expiries(), min_size=n, max_size=n)))
        s = np.array(data.draw(st.lists(floats(0.05, 0.8), min_size=n, max_size=n)))
        t[0] = 0.0  # every array holds at least one expired point
        got = price_sa2_rel(y, t, params, sigma=s)
        want, size = per_term_price(y, t, params, s)
        assert np.all(np.abs(got - want) <= RTOL * size)
        assert np.array_equal(got[t == 0.0], np.maximum(np.exp(y[t == 0.0]) - 1.0, 0.0))

    @given(data=st.data())
    def test_option_query_form(self, data):
        params = data.draw(params_strategy(kappa=True))
        t = data.draw(floats(0.01, 3.0))
        query = OptionQuery(spot=data.draw(floats(50.0, 150.0)), strike=100.0, expiry=t)
        got = price_sa2(query, params).total
        want, size = per_term_price(query.log_moneyness, t, params, params.sigma0)
        assert abs(got - 100.0 * float(want)) <= RTOL * 100.0 * float(size)


@given(data=st.data())
def test_delta_matches_per_term_derivatives(data):
    params = data.draw(params_strategy(kappa=False))
    query = OptionQuery(
        spot=data.draw(floats(50.0, 150.0)),
        strike=100.0,
        rate=data.draw(floats(-0.05, 0.1)),
        expiry=data.draw(floats(0.01, 3.0)),
    )
    want, size = per_term_delta(query, params)
    assert abs(delta_sa2(query, params) - want) <= RTOL * size


def test_deep_in_the_money_lattice_point_is_pinned():
    # price-lattice variant 1's (sigma0, nu, rho) at y = 0.5, t = 0.25. Vega
    # is near 4e-10 there, so bs_implied_vol's 1e-12 price tolerance leaves
    # the vol good to only about 1e-6 relative, and a rounding change in the
    # price can move it by that much
    params = SabrParams(sigma0=0.14, nu=0.878, rho=-0.165)
    price = price_sa2_rel(0.5, 0.25, params)
    assert price == pytest.approx(0.64872127070119, rel=1e-9)
    assert bs_implied_vol(price, 0.5, 0.25) == pytest.approx(0.15693522510475458, rel=1e-9)


class TestNuSquaredOverflow:
    P = SabrParams(sigma0=0.2, nu=1e300, rho=-0.2)

    @pytest.mark.parametrize(
        "call",
        [
            lambda p: price_sa2_rel(0.0, 1.0, p),
            lambda p: price_sa2_rel(np.array([0.0, 0.1]), 1.0, p),
            lambda p: price_sa2(OptionQuery(spot=100.0, strike=100.0), p),
            lambda p: delta_sa2(OptionQuery(spot=100.0, strike=100.0), p),
        ],
    )
    def test_names_nu(self, call):
        with pytest.raises(DomainError, match=r"^nu\*\*2 overflows a float, got nu = 1e\+300$"):
            call(self.P)

import logging
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from sabrkit import (
    DomainError,
    OptionQuery,
    bs_call,
    bs_implied_vol,
    c_rel,
    d_minus,
    h_tilde,
    hermite,
    norm_cdf,
    norm_pdf,
    phi_t,
)
from sabrkit import core


def d_pair(q, sigma):
    # (d_+, d_-) of a query: d_- from its log-moneyness, d_+ = d_- + sigma sqrt(t)
    dm = d_minus(q.log_moneyness, sigma, q.expiry)
    return dm + sigma * math.sqrt(q.expiry), dm


class TestNormal:
    def test_cdf_center(self):
        assert norm_cdf(0.0) == 0.5

    def test_cdf_tail_saturation(self):
        assert abs(norm_cdf(40.0) - 1.0) <= 1e-15

    def test_cdf_reference_value(self):
        # high-precision erf evaluation
        assert abs(norm_cdf(0.1) - 0.539827837277029) <= 1e-15

    def test_cdf_symmetry(self):
        for x in (0.3, 1.7, 4.2):
            assert abs(norm_cdf(-x) - (1.0 - norm_cdf(x))) <= 1e-15

    def test_pdf_center(self):
        assert abs(norm_pdf(0.0) - 0.3989422804014327) <= 1e-16

    def test_pdf_even(self):
        assert norm_pdf(1.3) == norm_pdf(-1.3)

    def test_pdf_is_cdf_derivative(self):
        h = 1e-6
        for x in (-0.8, 0.0, 1.2):
            fd = (norm_cdf(x + h) - norm_cdf(x - h)) / (2 * h)
            assert abs(fd - norm_pdf(x)) <= 1e-9


class TestHermite:
    def test_known_values(self):
        assert hermite(4, 0.0) == 3.0
        assert hermite(1, 2.5) == 2.5
        assert hermite(3, 1.0) == -2.0

    def test_against_numpy(self):
        xs = np.linspace(-3, 3, 41)
        for n in range(6):
            coeffs = [0.0] * n + [1.0]
            expected = np.polynomial.hermite_e.hermeval(xs, coeffs)
            got = np.array([hermite(n, float(x)) for x in xs])
            assert np.allclose(got, expected, rtol=1e-13, atol=1e-12)

    def test_derivative_identity(self):
        # H_n' = n H_{n-1}
        h = 1e-6
        for n in range(1, 6):
            for x in (-1.1, 0.4, 2.0):
                fd = (hermite(n, x + h) - hermite(n, x - h)) / (2 * h)
                assert abs(fd - n * hermite(n - 1, x)) <= 1e-6 * max(1, abs(fd))

    def test_order_out_of_range(self):
        with pytest.raises(DomainError):
            hermite(6, 0.0)
        with pytest.raises(DomainError):
            hermite(-1, 0.0)

    @pytest.mark.parametrize("order", [True, False, 1.5, 2.0, "2"])
    def test_order_must_be_an_integer(self, order):
        message = f"^hermite order must be an integer, got {re.escape(repr(order))}$"
        with pytest.raises(DomainError, match=message):
            hermite(order, 0.5)
        with pytest.raises(DomainError, match=message):
            h_tilde(order, 0.1, 0.2, 1.0)

    def test_numpy_integer_order_is_the_int_order(self):
        for n in range(6):
            assert hermite(np.int64(n), 0.5) == hermite(n, 0.5)
            assert h_tilde(np.int32(n), 0.1, 0.2, 1.0) == h_tilde(n, 0.1, 0.2, 1.0)
        message = r"^hermite order must be an integer in 0\.\.5, got 6$"
        with pytest.raises(DomainError, match=message):
            hermite(np.int64(6), 0.5)


class TestKernel:
    def test_h_tilde_order_zero(self):
        assert h_tilde(0, 0.37, 0.2, 1.0) == 1.0

    def test_h_tilde_matches_d_minus(self):
        y, s, t = 0.15, 0.25, 0.7
        dm = d_minus(y, s, t)
        assert abs(h_tilde(1, y, s, t) + dm / (s * math.sqrt(t))) <= 1e-14

    def test_h_tilde_hand_value(self):
        # n=2, sigma=0.2, t=1, u=0: (1/0.04) * H2(-0.1) = -24.75
        assert abs(h_tilde(2, 0.0, 0.2, 1.0) + 24.75) <= 1e-11

    def test_phi_integrates_to_one(self):
        val, _ = quad(lambda u: phi_t(u, 0.2, 1.0), -10, 10, epsabs=1e-12)
        assert abs(val - 1.0) <= 1e-10

    def test_phi_center_value(self):
        assert abs(phi_t(0.0, 0.2, 1.0) - norm_pdf(-0.1) / 0.2) <= 1e-15

    def test_phi_derivatives_are_h_tilde(self):
        # d^n/du^n phi = h_tilde(n) * phi, checked by central differences
        s, t = 0.3, 0.8
        h = 1e-4
        for u in (-0.2, 0.05, 0.4):
            f = lambda uu: phi_t(uu, s, t)
            d1 = (f(u + h) - f(u - h)) / (2 * h)
            d2 = (f(u + h) - 2 * f(u) + f(u - h)) / h**2
            assert abs(d1 - h_tilde(1, u, s, t) * f(u)) <= 1e-6 * abs(d1)
            assert abs(d2 - h_tilde(2, u, s, t) * f(u)) <= 1e-5 * abs(d2)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(DomainError):
            phi_t(0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            h_tilde(1, 0.0, 0.2, 0.0)


class TestBlackScholes:
    def test_d_pair_atm(self):
        q = OptionQuery(spot=1.0, strike=1.0, rate=0.0, expiry=1.0)
        dp, dm = d_pair(q, 0.2)
        assert abs(dp - 0.1) <= 1e-15
        assert abs(dm + 0.1) <= 1e-15

    def test_d_pair_homogeneous(self):
        q1 = OptionQuery(spot=10.0, strike=8.0, rate=0.03, expiry=2.0)
        q2 = OptionQuery(spot=30.0, strike=24.0, rate=0.03, expiry=2.0)
        (ap, am), (bp, bm) = d_pair(q1, 0.25), d_pair(q2, 0.25)
        assert ap == pytest.approx(bp, abs=1e-14)
        assert am == pytest.approx(bm, abs=1e-14)

    def test_d_pair_reference(self):
        q = OptionQuery(spot=10.0, strike=8.0, rate=0.03, expiry=2.0)
        v = 0.25 * math.sqrt(2.0)
        dm_expected = math.log(10.0 * math.exp(0.06) / 8.0) / v - v / 2
        assert abs(d_minus(q.log_moneyness, 0.25, q.expiry) - dm_expected) <= 1e-14

    def test_d_gap(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            q = OptionQuery(
                spot=float(rng.uniform(0.5, 2)),
                strike=float(rng.uniform(0.5, 2)),
                rate=float(rng.uniform(-0.02, 0.08)),
                expiry=float(rng.uniform(0.05, 5)),
            )
            s = float(rng.uniform(0.05, 0.8))
            dp, dm = d_pair(q, s)
            assert abs((dp - dm) - s * math.sqrt(q.expiry)) <= 1e-12

    def test_atm_price(self):
        q = OptionQuery(spot=1.0, strike=1.0, rate=0.0, expiry=1.0)
        expected = 2 * norm_cdf(0.1) - 1
        assert abs(bs_call(q, 0.2) - expected) <= 1e-15

    def test_expiry_payoff(self):
        q = OptionQuery(spot=1.3, strike=1.0, rate=0.05, expiry=0.0)
        assert bs_call(q, 0.2) == pytest.approx(0.3)

    def test_forward_identity(self):
        q = OptionQuery(spot=1.2, strike=1.0, rate=0.04, expiry=1.5)
        dp, dm = d_pair(q, 0.3)
        forward_form = q.forward * norm_cdf(dp) - q.strike * norm_cdf(dm)
        assert abs(math.exp(q.rate * q.expiry) * bs_call(q, 0.3) - forward_form) <= 1e-14

    def test_kernel_identity(self):
        # F N'(d+) = K N'(d-)
        q = OptionQuery(spot=1.1, strike=0.9, rate=0.02, expiry=0.7)
        dp, dm = d_pair(q, 0.35)
        lhs = q.forward * norm_pdf(dp)
        rhs = q.strike * norm_pdf(dm)
        assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_vega(self):
        q = OptionQuery(spot=1.05, strike=1.0, rate=0.01, expiry=2.0)
        s, h = 0.25, 1e-6
        fd = (bs_call(q, s + h) - bs_call(q, s - h)) / (2 * h) * math.exp(
            q.rate * q.expiry
        )
        dm = d_minus(q.log_moneyness, s, q.expiry)
        analytic = q.strike * math.sqrt(q.expiry) * norm_pdf(dm)
        assert abs(fd - analytic) <= 1e-6 * analytic

    def test_monotone_in_sigma_and_spot(self):
        q = OptionQuery(spot=1.0, strike=1.0, rate=0.0, expiry=1.0)
        prices = [bs_call(q, s) for s in (0.1, 0.2, 0.4, 0.8)]
        assert prices == sorted(prices)
        spots = [bs_call(OptionQuery(spot=s, strike=1.0, expiry=1.0), 0.2) for s in (0.8, 1.0, 1.2)]
        assert spots == sorted(spots)

    def test_rejects_negative_sigma(self):
        q = OptionQuery(spot=1.0, strike=1.0, expiry=1.0)
        with pytest.raises(DomainError):
            bs_call(q, -0.1)
        with pytest.raises(DomainError):
            bs_call(q, math.nan)

    @pytest.mark.parametrize("field", ["spot", "strike", "rate", "expiry"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_query_rejects_non_finite_fields(self, field, value):
        fields = dict(spot=1.0, strike=1.0, rate=0.0, expiry=1.0)
        fields[field] = value
        with pytest.raises(DomainError, match=f"^{field} must be finite, got"):
            OptionQuery(**fields)

    @given(
        st.floats(0.1, 10.0),
        st.floats(0.1, 10.0),
        st.floats(-0.05, 0.1),
        st.sampled_from([0.0, 0.01, 0.5, 2.0, 10.0]),
        st.sampled_from([0.0, 0.05, 0.2, 0.8]),
    )
    def test_is_discounted_relative_price(self, spot, strike, rate, t, sigma):
        q = OptionQuery(spot=spot, strike=strike, rate=rate, expiry=t)
        want = strike * math.exp(-rate * t) * c_rel(q.log_moneyness, sigma, t)
        assert bs_call(q, sigma) == want
        # the textbook form, with the limits taken by hand where
        # sigma sqrt(t) = 0: the payoff at t = 0, the discounted
        # intrinsic value at sigma = 0
        disc_k = strike * math.exp(-rate * t)
        if t == 0.0:
            textbook = max(spot - strike, 0.0)
        elif sigma == 0.0:
            textbook = max(spot - disc_k, 0.0)
        else:
            dp, dm = d_pair(q, sigma)
            textbook = spot * norm_cdf(dp) - disc_k * norm_cdf(dm)
        assert bs_call(q, sigma) == pytest.approx(textbook, rel=1e-12, abs=1e-14 * spot)


class TestCRel:
    def test_atm(self):
        assert abs(c_rel(0.0, 0.2, 1.0) - (2 * norm_cdf(0.1) - 1)) <= 1e-15

    def test_invariance(self):
        y, s, t, r = 0.18, 0.22, 1.3, 0.025
        for k in (0.5, 1.0, 7.0):
            spot = k * math.exp(y - r * t)
            q = OptionQuery(spot=spot, strike=k, rate=r, expiry=t)
            assert abs(c_rel(y, s, t) - math.exp(r * t) / k * bs_call(q, s)) <= 1e-14

    def test_deep_otm_limit(self):
        assert c_rel(-30.0, 0.2, 1.0) <= 1e-15

    def test_payoff_at_origin_time(self):
        assert c_rel(0.4, 0.2, 0.0) == pytest.approx(math.exp(0.4) - 1.0)
        assert c_rel(-0.4, 0.2, 0.0) == 0.0

    def test_subnormal_scale_is_silent(self):
        # sigma sqrt(t) is subnormal, not zero: y / (sigma sqrt(t))
        # overflows to the +-inf limit of d_- without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = c_rel(np.array([0.1, -0.1]), 1e-310, 1.0)
        np.testing.assert_allclose(got, [math.exp(0.1) - 1.0, 0.0], rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("y", [710.0, math.inf, math.nan])
    def test_rejects_y_whose_exp_is_no_float(self, y):
        message = f"^y must be a number whose e\\^y is a float, got {y}$"
        with pytest.raises(DomainError, match=message):
            c_rel(y, 0.2, 1.0)
        with pytest.raises(DomainError, match=message):
            c_rel(np.array([0.0, y]), 0.2, 1.0)

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: c_rel(0.1, math.inf, 1.0), "sigma"),
            (lambda: c_rel(0.1, 0.2, math.inf), "t"),
            (lambda: c_rel(0.1, 0.0, math.inf), "t"),
            (lambda: c_rel(0.1, np.array([0.2, math.inf]), 1.0), "sigma"),
            (lambda: bs_call(OptionQuery(1.0, 1.0), math.inf), "sigma"),
            (lambda: h_tilde(2, 0.1, 0.2, math.inf), "t"),
            (lambda: h_tilde(2, 0.1, math.inf, 1.0), "sigma"),
            (lambda: d_minus(0.1, 0.2, math.inf), "t"),
            (lambda: d_minus(0.1, np.array([0.2, math.inf]), 1.0), "sigma"),
            (lambda: phi_t(0.1, 0.2, np.array([1.0, math.inf])), "t"),
        ],
        ids=["c_rel_sigma", "c_rel_t", "c_rel_flat_t", "c_rel_array_sigma", "bs_call_sigma",
             "h_tilde_t", "h_tilde_sigma", "d_minus_t", "d_minus_array_sigma", "phi_t_array_t"],
    )
    def test_rejects_sigma_or_t_not_finite(self, call, name):
        # each returned nan (d_minus -inf, phi_t 0.0) without a warning
        with pytest.raises(DomainError, match=f"^{name} must be finite, got inf$"):
            call()

    @pytest.mark.parametrize("form", [c_rel, d_minus])
    def test_negative_and_nan_messages_are_unchanged(self, form):
        sign = "nonnegative" if form is c_rel else "positive"
        for sigma, t, message in [
            (-0.1, 1.0, f"sigma must be {sign}, got -0.1"),
            (math.nan, 1.0, f"sigma must be {sign}, got nan"),
            (0.2, -1.0, f"t must be {sign}, got -1.0"),
            (0.2, math.nan, f"t must be {sign}, got nan"),
        ]:
            with pytest.raises(DomainError, match=f"^{message}$"):
                form(0.1, sigma, t)

    def test_largest_y_is_priced(self):
        y = math.log(sys.float_info.max)
        assert math.isfinite(c_rel(y, 0.2, 1.0))
        assert np.isfinite(c_rel(np.array([0.0, y]), np.array([0.2, 0.0]), 1.0)).all()
        with pytest.raises(DomainError, match="e\\^y is a float"):
            c_rel(math.nextafter(y, math.inf), 0.2, 1.0)


class TestImpliedVol:
    def test_round_trip_atm(self):
        price = c_rel(0.0, 0.2, 1.0)
        assert abs(bs_implied_vol(price, 0.0, 1.0) - 0.2) <= 1e-10

    def test_round_trip_otm(self):
        price = c_rel(0.3, 0.35, 0.5)
        assert abs(bs_implied_vol(price, 0.3, 0.5) - 0.35) <= 1e-10

    def test_band_edges_rejected(self):
        with pytest.raises(DomainError):
            bs_implied_vol(0.0, 0.0, 1.0)  # intrinsic for y=0
        with pytest.raises(DomainError):
            bs_implied_vol(1.0, 0.0, 1.0)  # forward value e^0

    def test_round_trip_lattice(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            y = float(rng.uniform(-0.8, 0.8))
            s = float(rng.uniform(0.05, 1.0))
            t = float(rng.uniform(0.1, 3.0))
            price = c_rel(y, s, t)
            if price - max(math.exp(y) - 1.0, 0.0) < 1e-8:
                # vanishing time value means vanishing vega, so the vol
                # is not recoverable at this precision
                continue
            assert abs(bs_implied_vol(price, y, t) - s) <= 1e-9

    def test_iteration_limit_warns(self, caplog, monkeypatch):
        # no float sigma prices 0.08 exactly, so no iterate meets a
        # tolerance this tiny and the loop runs out
        monkeypatch.setattr(core, "_IV_TOL", 1e-300)
        with caplog.at_level(logging.WARNING, logger="sabrkit.core"):
            vol = bs_implied_vol(0.08, 0.0, 1.0)
        assert abs(vol - 0.2008674410229397) <= 1e-12
        assert len(caplog.records) == 1
        assert "no convergence" in caplog.records[0].getMessage()

    @pytest.mark.parametrize(
        "y, t, message",
        [
            (math.nan, 1.0, "a y whose e^y is a float, got nan"),
            (math.inf, 1.0, "a y whose e^y is a float, got inf"),
            (-math.inf, 1.0, "a y whose e^y is a float, got -inf"),
            (710.0, 1.0, "a y whose e^y is a float, got 710.0"),
            (0.0, math.inf, "a finite t > 0, got inf"),
            (0.0, math.nan, "a finite t > 0, got nan"),
            (0.0, 0.0, "a finite t > 0, got 0.0"),
        ],
    )
    def test_y_or_t_rejected_before_bracketing(self, caplog, y, t, message):
        # checked before the bracket: an infinite t would run the iteration out
        with caplog.at_level(logging.WARNING, logger="sabrkit.core"):
            with pytest.raises(DomainError, match=f"^implied vol requires {re.escape(message)}$"):
                bs_implied_vol(0.1, y, t)
        assert caplog.records == []

    def test_convergence_is_silent(self, caplog):
        with caplog.at_level(logging.WARNING, logger="sabrkit.core"):
            bs_implied_vol(c_rel(0.3, 0.35, 0.5), 0.3, 0.5)
        assert caplog.records == []


class TestOptionQuery:
    def test_validation(self):
        with pytest.raises(DomainError):
            OptionQuery(spot=0.0, strike=1.0)
        with pytest.raises(DomainError):
            OptionQuery(spot=1.0, strike=-1.0)
        with pytest.raises(DomainError):
            OptionQuery(spot=1.0, strike=1.0, expiry=-0.5)

    @pytest.mark.parametrize(
        "spot, rate", [(10.0, 1000.0), (10.0, -1000.0), (1e300, 20.0), (1e-300, -100.0)]
    )
    def test_forward_must_be_a_positive_float(self, spot, rate):
        message = (
            "the forward S e^(rt) is not a positive float at "
            f"spot = {spot}, rate = {rate}, expiry = 1.0"
        )
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            OptionQuery(spot=spot, strike=1.0, rate=rate, expiry=1.0)

    @pytest.mark.parametrize("strike, rate", [(1e300, -700.0), (1e-300, 100.0)])
    def test_discounted_strike_must_be_a_positive_float(self, strike, rate):
        # K e^(-rt) overflows, or underflows to 0, while the forward is a float
        message = (
            "the discounted strike K e^(-rt) is not a positive float at "
            f"strike = {strike}, rate = {rate}, expiry = 1.0"
        )
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            OptionQuery(spot=1.0, strike=strike, rate=rate, expiry=1.0)

    def test_forward_at_expiry_is_the_spot(self):
        assert OptionQuery(spot=10.0, strike=1.0, rate=-1000.0, expiry=0.0).forward == 10.0

    def test_forward_and_moneyness(self):
        q = OptionQuery(spot=2.0, strike=1.5, rate=0.05, expiry=2.0)
        assert abs(q.forward - 2.0 * math.exp(0.1)) <= 1e-15
        assert abs(q.log_moneyness - math.log(q.forward / 1.5)) <= 1e-15

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from sabrkit import (
    DomainError,
    MeanRevState,
    OptionQuery,
    bs_call,
    det_vol_price,
    sigma_of_z,
    total_variance,
)


class TestVolPath:
    def test_no_reversion_is_constant(self):
        state = MeanRevState(z=0.2, kappa=0.0, theta=0.3)
        for tau in (0.0, 0.5, 3.0):
            assert sigma_of_z(state, tau) == 0.2

    def test_terminal_value(self):
        state = MeanRevState(z=0.2, kappa=1.5, theta=0.3)
        assert sigma_of_z(state, 0.0) == pytest.approx(0.2)

    def test_backward_relaxation(self):
        # seen backwards from expiry the path moves away from theta
        state = MeanRevState(z=0.2, kappa=1.0, theta=0.3)
        assert sigma_of_z(state, 1.0) < 0.2
        above = MeanRevState(z=0.4, kappa=1.0, theta=0.3)
        assert sigma_of_z(above, 1.0) > 0.4

    def test_hand_value(self):
        state = MeanRevState(z=0.2, kappa=1.0, theta=0.3)
        e = math.e
        assert sigma_of_z(state, 1.0) == pytest.approx(0.2 * e - 0.3 * (e - 1.0))

    def test_validation(self):
        with pytest.raises(DomainError):
            MeanRevState(z=0.0, kappa=1.0, theta=0.2)
        with pytest.raises(DomainError):
            MeanRevState(z=0.2, kappa=-1.0, theta=0.2)
        state = MeanRevState(z=0.2, kappa=1.0, theta=0.2)
        with pytest.raises(DomainError):
            sigma_of_z(state, -0.5)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(z=math.inf), "z must be positive and finite, got inf"),
            (dict(z=math.nan), "z must be positive and finite, got nan"),
            (dict(kappa=math.inf), "kappa must be nonnegative and finite, got inf"),
            (dict(theta=math.inf), "theta must be nonnegative and finite, got inf"),
        ],
    )
    def test_state_fields_are_finite(self, fields, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            MeanRevState(**{**dict(z=0.2, kappa=1.0, theta=0.3), **fields})

    @pytest.mark.parametrize("fn", [sigma_of_z, total_variance])
    @pytest.mark.parametrize("tau", [math.nan, math.inf, -0.5])
    def test_tau_is_finite_and_nonnegative(self, fn, tau):
        state = MeanRevState(z=0.2, kappa=1.0, theta=0.3)
        with pytest.raises(DomainError, match=f"^tau must be nonnegative and finite, got {tau}$"):
            fn(state, tau)

    @pytest.mark.parametrize(
        "name, call",
        [
            ("sigma_of_z", lambda state: sigma_of_z(state, 1.0)),
            ("total_variance", lambda state: total_variance(state, 1.0)),
            ("total_variance", lambda state: det_vol_price(OptionQuery(1.0, 1.0, 0.0, 1.0), state)),
        ],
    )
    def test_overflow_names_kappa_and_tau(self, name, call):
        # e^{kappa tau} = e^1000 overflows a float
        message = f"^{name} overflows a float at kappa = 1000.0, tau = 1.0$"
        with pytest.raises(DomainError, match=message):
            call(MeanRevState(z=0.2, kappa=1000.0, theta=0.3))

    def test_flat_path_does_not_overflow(self):
        # at z = theta the path is theta at every tau, though e^{kappa tau} overflows
        state = MeanRevState(z=0.2, kappa=1000.0, theta=0.2)
        assert sigma_of_z(state, 1.0) == 0.2
        assert total_variance(state, 1.0) == 0.2 * 0.2 * 1.0
        query = OptionQuery(1.0, 1.0, 0.0, 1.0)
        assert det_vol_price(query, state) == bs_call(query, math.sqrt(0.2 * 0.2))


class TestTotalVariance:
    def test_no_reversion(self):
        state = MeanRevState(z=0.25, kappa=0.0, theta=0.3)
        assert total_variance(state, 2.0) == pytest.approx(0.25**2 * 2.0)

    def test_matches_quadrature(self):
        state = MeanRevState(z=0.2, kappa=1.3, theta=0.35)
        tau = 1.7
        want, _ = quad(lambda u: sigma_of_z(state, u) ** 2, 0.0, tau, epsabs=1e-13)
        assert total_variance(state, tau) == pytest.approx(want, rel=1e-10)

    def test_seam_continuity(self):
        # the closed form is continuous across kappa tau = 1e-6
        tau = 1.0
        for kappa in (9.9e-7, 1.01e-6):
            state = MeanRevState(z=0.2, kappa=kappa, theta=0.3)
            flat = 0.04 * tau
            # the true O(kappa) correction itself is about 5e-7 relative here
            assert abs(total_variance(state, tau) - flat) <= 1e-6 * flat
        below = total_variance(MeanRevState(z=0.2, kappa=9.999999e-7, theta=0.3), tau)
        above = total_variance(MeanRevState(z=0.2, kappa=1.000001e-6, theta=0.3), tau)
        assert abs(below - above) <= 1e-10

    @pytest.mark.parametrize(
        "kappa, tau",
        [(5e-324, 1.0), (1e-300, 1.0), (1e-300, 1e-30), (1e-10, 1e-7), (0.0, 2.0)],
    )
    def test_kappa_tau_below_rounding_is_the_kappa_zero_limit(self, kappa, tau):
        # 1 + kappa tau rounds to 1: 1 / kappa overflows or kappa tau
        # underflows in the closed form, whose limit is this form
        z, theta = 0.2, 0.3
        dev = z - theta
        want = theta * theta * tau + 2.0 * theta * dev * tau + dev * dev * tau
        assert total_variance(MeanRevState(z=z, kappa=kappa, theta=theta), tau) == want
        assert want == pytest.approx(z * z * tau, rel=1e-15)

    def test_at_theta_is_flat(self):
        state = MeanRevState(z=0.3, kappa=2.0, theta=0.3)
        assert total_variance(state, 1.5) == pytest.approx(0.09 * 1.5)

    def test_zero_tau(self):
        state = MeanRevState(z=0.2, kappa=1.0, theta=0.3)
        assert total_variance(state, 0.0) == 0.0


class TestDetVolPrice:
    QUERY = OptionQuery(spot=1.0, strike=1.0, rate=0.0, expiry=1.0)

    def test_no_reversion_is_black_scholes(self):
        state = MeanRevState(z=0.2, kappa=0.0, theta=0.3)
        assert det_vol_price(self.QUERY, state) == pytest.approx(
            bs_call(self.QUERY, 0.2), abs=1e-15
        )

    def test_effective_vol(self):
        state = MeanRevState(z=0.2, kappa=1.3, theta=0.35)
        var = total_variance(state, 1.0)
        assert det_vol_price(self.QUERY, state) == pytest.approx(
            bs_call(self.QUERY, math.sqrt(var)), abs=1e-15
        )

    def test_expiry_payoff(self):
        q = OptionQuery(spot=1.4, strike=1.0, expiry=0.0)
        state = MeanRevState(z=0.2, kappa=1.0, theta=0.3)
        assert det_vol_price(q, state) == pytest.approx(0.4)

    def test_discounting(self):
        q = OptionQuery(spot=1.0, strike=1.0, rate=0.04, expiry=1.0)
        state = MeanRevState(z=0.2, kappa=1.0, theta=0.3)
        var = total_variance(state, 1.0)
        assert det_vol_price(q, state) == pytest.approx(
            bs_call(q, math.sqrt(var)), abs=1e-15
        )

    @given(
        st.floats(0.5, 2.0),
        st.floats(0.5, 2.0),
        st.floats(-0.02, 0.08),
        st.one_of(st.just(0.0), st.floats(0.01, 5.0)),
        st.floats(0.05, 0.6),
        st.one_of(st.floats(0.0, 0.5e-6), st.floats(0.01, 3.0)),
        st.floats(0.0, 0.6),
    )
    def test_is_black_scholes_at_effective_vol(self, spot, strike, rate, tau, z, kt, theta):
        # kt = kappa tau, drawn on both sides of 1e-6
        kappa = kt / tau if tau > 0.0 else 0.0
        q = OptionQuery(spot=spot, strike=strike, rate=rate, expiry=tau)
        state = MeanRevState(z=z, kappa=kappa, theta=theta)
        sigma = math.sqrt(total_variance(state, tau) / tau) if tau > 0.0 else 0.0
        assert det_vol_price(q, state) == bs_call(q, sigma)

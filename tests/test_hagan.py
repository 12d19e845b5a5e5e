import math

import numpy as np
import pytest

from sabrkit import DomainError, SabrParams, c_rel, price_h, sigma_h, z_over_xi
from sabrkit.expansion import implied_e1, sigma_d
from sabrkit.hagan import Z_SWITCH, xi


class TestXi:
    def test_at_zero(self):
        assert xi(0.0, -0.4) == 0.0

    def test_rho_zero_unit(self):
        assert xi(1.0, 0.0) == pytest.approx(math.asinh(1.0))

    def test_monotone(self):
        for rho in (-0.9, 0.9):
            zs = np.linspace(-5, 5, 101)
            vals = [xi(float(z), rho) for z in zs]
            assert all(a < b for a, b in zip(vals, vals[1:]))


class TestRhoRule:
    # xi and z_over_xi apply expansion's rho rule, with its message
    @pytest.mark.parametrize("fn", [xi, z_over_xi])
    @pytest.mark.parametrize("rho", [1.0, float("nan")])
    def test_message(self, fn, rho):
        with pytest.raises(DomainError) as info:
            fn(0.5, rho)
        assert str(info.value) == f"rho must lie strictly in (-1, 1), got {rho}"


class TestBackbone:
    def test_at_zero(self):
        assert z_over_xi(0.0, -0.4) == 1.0

    def test_series_value_near_zero(self):
        # slope -rho/2: z=1e-9, rho=-0.5 gives 1 + 2.5e-10
        got = z_over_xi(1e-9, -0.5)
        assert abs(got - (1.0 + 2.5e-10)) <= 1e-12

    def test_direct_quotient(self):
        z, rho = 0.5, -0.3
        assert z_over_xi(z, rho) == pytest.approx(z / xi(z, rho), rel=1e-15)

    def test_continuity_at_switch(self):
        for rho in (-0.7, 0.0, 0.6):
            for sign in (1.0, -1.0):
                below = z_over_xi(sign * 9.999999e-5, rho)
                above = z_over_xi(sign * 1.0000001e-4, rho)
                assert abs(below - above) <= 1e-10


class TestSigmaH:
    def test_nu_zero(self):
        p = SabrParams(sigma0=0.27, nu=0.0, rho=-0.5)
        assert sigma_h(0.4, 2.0, p) == pytest.approx(0.27)

    def test_atm_hand_value(self):
        # y=0, nu=1, sigma=0.2, rho=-0.3, t=1
        p = SabrParams(sigma0=0.2, nu=1.0, rho=-0.3)
        bracket = 1.0 + (-0.3 * 0.2 / 4 + (2 - 0.27) / 24)
        assert sigma_h(0.0, 1.0, p) == pytest.approx(0.2 * bracket)

    def test_first_order_slope_is_e1(self):
        h = 1e-6
        for y in (-0.3, 0.0, 0.3):
            for rho in (-0.5, 0.0, 0.5):
                p_up = SabrParams(sigma0=0.2, nu=2 * h, rho=rho)
                p_dn = SabrParams(sigma0=0.2, nu=0.0, rho=rho)
                slope = (sigma_h(y, 1.0, p_up) - sigma_h(y, 1.0, p_dn)) / (2 * h)
                assert abs(slope - implied_e1(y, 0.2, rho, 1.0)) <= 1e-6

    def test_second_order_gap_from_sigma_d(self):
        # sigma_h - sigma_d = O(nu^2): log-log slope at least 2
        y, t, rho = 0.2, 1.0, -0.4
        nus = (0.05, 0.1, 0.2)
        gaps = []
        for nu in nus:
            p = SabrParams(sigma0=0.2, nu=nu, rho=rho)
            gaps.append(abs(sigma_h(y, t, p) - sigma_d(y, t, p).value))
        slope = np.polyfit(np.log(nus), np.log(gaps), 1)[0]
        assert slope >= 2.0

    def test_continuous_through_atm(self):
        p = SabrParams(sigma0=0.2, nu=0.8, rho=-0.6)
        left = sigma_h(-1e-12, 1.0, p)
        mid = sigma_h(0.0, 1.0, p)
        right = sigma_h(1e-12, 1.0, p)
        assert abs(left - mid) <= 1e-10 and abs(right - mid) <= 1e-10

    def test_rejects_mean_reversion(self):
        p = SabrParams(sigma0=0.2, nu=0.3, rho=0.0, kappa0=0.5, theta=0.2)
        with pytest.raises(DomainError):
            sigma_h(0.1, 1.0, p)


class TestPriceH:
    def test_nu_zero(self):
        p = SabrParams(sigma0=0.2, nu=0.0, rho=-0.5)
        assert price_h(0.15, 0.8, p) == pytest.approx(c_rel(0.15, 0.2, 0.8))

    def test_composition(self):
        p = SabrParams(sigma0=0.19, nu=1.0, rho=-0.55)
        y, t = 0.2, 0.5
        assert price_h(y, t, p) == pytest.approx(c_rel(y, sigma_h(y, t, p), t))

    def test_regularized_close_to_raw(self):
        # at |z| = 0.01 price_h's quotient is the raw z / xi(z); below the
        # switch it is the series, whose remainder there is O(Z_SWITCH^4)
        p = SabrParams(sigma0=0.2, nu=0.5, rho=-0.4)
        bracket = 1.0 + (0.25 * -0.4 * 0.5 * 0.2 + (2.0 - 3.0 * 0.16) * 0.25 / 24.0)
        for z in (0.01, 0.5 * Z_SWITCH):
            y = z * 0.2 / 0.5
            raw = c_rel(y, 0.2 * (z / xi(z, -0.4)) * bracket, 1.0)
            assert abs(price_h(y, 1.0, p) - raw) <= 1e-8

    def test_negative_vol_names_the_vol_and_its_point(self):
        # the bracket 1 + (rho nu sigma / 4 + (2 - 3 rho^2) nu^2 / 24) t is
        # negative here; sigma_h returns the raw vol, price_h rejects it
        p = SabrParams(sigma0=1e3, nu=0.4, rho=-0.2)
        assert sigma_h(0.1, 1.0, p) < 0.0
        with pytest.raises(DomainError) as exc:
            price_h(0.1, 1.0, p)
        assert str(exc.value).startswith("the Hagan vol is negative at vol = -")
        assert str(exc.value).endswith(", nu = 0.4, y = 0.1, t = 1.0, sigma = 1000.0")

    def test_negative_vol_in_an_array_names_its_point(self):
        p = SabrParams(sigma0=0.2, nu=0.4, rho=-0.2)
        sigma = np.array([[0.2], [1e3]])
        with pytest.raises(DomainError, match=r"y = -0.1, t = 1.0, sigma = 1000.0$"):
            price_h(np.array([-0.1, 0.1]), 1.0, p, sigma=sigma)


class TestRawQuotient:
    # Hagan et al.'s raw quotient z / xi(z) as the reference: z_over_xi is
    # the same quotient from Z_SWITCH on, and finite at z = 0 where it is 0/0
    P = SabrParams(sigma0=0.2, nu=0.5, rho=-0.4)

    def test_same_quotient_from_the_switch_on(self):
        zs = np.array([-2.0, -Z_SWITCH, Z_SWITCH, 0.3])
        np.testing.assert_array_equal(z_over_xi(zs, -0.4), zs / xi(zs, -0.4))
        for z in zs.tolist():
            assert z_over_xi(z, -0.4) == z / xi(z, -0.4)

    def test_regularized_unchanged_at_zero(self):
        bracket = 1.0 + (0.25 * -0.4 * 0.5 * 0.2 + (2.0 - 3.0 * 0.16) * 0.25 / 24.0)
        assert sigma_h(0.0, 1.0, self.P) == pytest.approx(0.2 * bracket, rel=1e-15)
        assert np.isfinite(sigma_h(np.array([-0.1, 0.0, 0.1]), 1.0, self.P)).all()


class TestOverflow:
    # an overflow names the inputs behind it; without the checks the NaN it
    # leaves surfaced as "sigma must be nonnegative, got nan" after numpy
    # RuntimeWarnings, which the suite's warning filter turns into failures

    def test_nu_squared(self):
        p = SabrParams(sigma0=0.2, nu=1e300, rho=-0.2)
        with pytest.raises(DomainError, match=r"^nu\*\*2 overflows a float, got nu = 1e\+300$"):
            price_h(0.1, 1.0, p)
        with pytest.raises(DomainError, match=r"^nu\*\*2 overflows"):
            sigma_h(np.array([-0.1, 0.1]), 1.0, p)

    @pytest.mark.parametrize("y", [0.5, np.array([0.0, 0.5])])
    def test_z_squared(self, y):
        p = SabrParams(sigma0=0.1, nu=1e154, rho=-0.2)
        message = r"^z = nu y / sigma overflows z\*\*2 at nu = 1e\+154, y = 0.5, sigma = 0.1$"
        with pytest.raises(DomainError, match=message):
            sigma_h(y, 1.0, p)

    def test_zero_sigma_is_not_an_overflow(self):
        p = SabrParams(sigma0=0.2, nu=0.5, rho=-0.2)
        with pytest.raises(DomainError, match="^sigma must be positive, got 0.0$"):
            price_h(np.array([0.0, 0.1]), 1.0, p, sigma=np.array([0.0, 0.2]))

    @pytest.mark.parametrize("t", [1.0, np.array([0.0, 1.0])])
    def test_vol(self, t):
        p = SabrParams(sigma0=0.1, nu=1e150, rho=-0.2)
        message = r"^sigma_h overflows a float at nu = 1e\+150, y = 0.5, t = 1.0, sigma = 0.1$"
        with pytest.raises(DomainError, match=message):
            sigma_h(0.5, t, p)


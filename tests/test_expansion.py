import math
import re

import numpy as np
import pytest

from sabrkit import (
    DomainError,
    OptionQuery,
    SabrParams,
    bs_call,
    c_rel,
    d_minus,
    delta_sa2,
    hermite,
    implied_e1,
    implied_e2,
    norm_cdf,
    norm_pdf,
    phi_t,
    price_d,
    price_sa2,
    price_sa2_rel,
    sigma_d,
)
from sabrkit.expansion import f1_coeffs, f2_coeffs


def random_lattice(n, seed):
    rng = np.random.default_rng(seed)
    return [
        (
            float(rng.uniform(-1, 1)),       # y
            float(rng.uniform(0.1, 0.4)),    # sigma
            float(rng.uniform(0.1, 5.0)),    # t
            float(rng.uniform(-0.9, 0.9)),   # rho
        )
        for _ in range(n)
    ]


class TestParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            SabrParams(sigma0=0.0, nu=0.2, rho=0.0)
        with pytest.raises(DomainError):
            SabrParams(sigma0=0.2, nu=-0.1, rho=0.0)
        with pytest.raises(DomainError):
            SabrParams(sigma0=0.2, nu=0.2, rho=1.0)
        with pytest.raises(DomainError):
            SabrParams(sigma0=0.2, nu=0.2, rho=0.0, kappa0=-1.0)

    @pytest.mark.parametrize("field", ["sigma0", "nu", "rho", "kappa0", "theta"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_fields(self, field, value):
        fields = dict(sigma0=0.2, nu=0.2, rho=0.0, kappa0=0.5, theta=0.2)
        fields[field] = value
        with pytest.raises(DomainError, match=f"^{field} must be finite, got"):
            SabrParams(**fields)


class TestF1:
    def test_vanishes_without_skew_or_reversion(self):
        for k in (0.7, 1.0, 1.4):
            q = OptionQuery(spot=1.0, strike=k, expiry=1.0)
            assert price_sa2(q, SabrParams(0.2, 0.0, 0.0)).f1 == 0.0

    def test_hand_value(self):
        # kappa0=0, S=K=1, sigma=0.2, t=1, rho=-0.3:
        # (1/2)(-rho sigma d_minus) N'(d_minus) with d_minus = -0.1
        q = OptionQuery(spot=1.0, strike=1.0, expiry=1.0)
        expected = -0.003 * norm_pdf(-0.1)
        assert abs(price_sa2(q, SabrParams(0.2, 0.0, -0.3)).f1 - expected) <= 1e-15

    def test_coefficient_form(self):
        # K (a10 + a11 h_tilde_1(y)) phi_t must match the direct formula
        for y, s, t, rho in random_lattice(100, seed=5):
            k0, th = 0.3, 0.25
            q = OptionQuery(spot=math.exp(y), strike=1.0, expiry=t)
            a10, a11 = f1_coeffs(s, t, rho, k0, th)
            v = s * math.sqrt(t)
            h1 = -d_minus(y, s, t) / v
            coef_form = (a10 + a11 * h1) * phi_t(y, s, t)
            direct = price_sa2(q, SabrParams(s, 0.0, rho, k0, th)).f1
            assert abs(coef_form - direct) <= 1e-11 * max(abs(direct), 1e-8)

    def test_odd_in_rho(self):
        q = OptionQuery(spot=1.1, strike=1.0, expiry=0.8)
        f1 = [price_sa2(q, SabrParams(0.25, 0.0, rho)).f1 for rho in (0.4, -0.4)]
        assert f1[0] == pytest.approx(-f1[1], abs=1e-18)

    @pytest.mark.parametrize("term", ["f1", "f2"])
    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("rho", 1.5, "rho must lie strictly in"),
            ("rho", -1.0, "rho must lie strictly in"),
            ("kappa0", -2.0, "kappa0 must be nonnegative"),
            ("theta", -0.1, "theta must be nonnegative"),
            ("sigma", math.nan, "sigma0 must be finite"),
            ("kappa0", math.inf, "kappa0 must be finite"),
        ],
    )
    def test_rejects_what_sabr_params_rejects(self, term, name, value, message):
        q = OptionQuery(spot=1.1, strike=1.0, expiry=1.0)
        args = dict(sigma0=0.2, rho=-0.3, kappa0=0.5, theta=0.2)
        args["sigma0" if name == "sigma" else name] = value
        with pytest.raises(DomainError, match=f"^{message}"):
            getattr(price_sa2(q, SabrParams(nu=0.0, **args)), term)


class TestF2:
    def test_coeff_limits(self):
        s, t, rho = 0.2, 1.5, -0.35
        a = f2_coeffs(s, t, rho, 0.0, 0.0)
        assert a[0] == pytest.approx(t**2 * s**2 / 4)
        assert a[4] == pytest.approx(t**4 * rho**2 * s**6 / 8)
        b = f2_coeffs(s, t, 0.0, 0.0, 0.0)
        assert b[3] == 0.0 and b[4] == 0.0
        assert b[2] == pytest.approx(t**3 * s**4 / 6)

    def test_coeffs_at_theta_equal_sigma(self):
        # every (theta - sigma) factor drops out of a20
        s, t = 0.22, 0.9
        a = f2_coeffs(s, t, -0.3, 0.25, s)
        assert a[0] == pytest.approx(t**2 * s**2 / 4)

    def test_hand_value_rho_zero(self):
        # y=0, sigma=0.2, t=1, rho=0: A = 6 + 4*0.2*(-0.1) + 4*(0.01-1) = 1.96
        q = OptionQuery(spot=1.0, strike=1.0, expiry=1.0)
        expected = (0.04 / 24) * 1.96 * phi_t(0.0, 0.2, 1.0)
        assert abs(price_sa2(q, SabrParams(0.2, 0.0, 0.0)).f2 - expected) <= 1e-15

    def test_gaussian_a_form(self):
        # kappa0=0 alternative: K (sigma^2 t^2 / 24) A phi_t with
        # A = 6 + 4vH1 + (12rho^2+4)H2 + 3rho^2 vH3 + 3rho^2 H4 at d_minus
        for y, s, t, rho in random_lattice(200, seed=9):
            q = OptionQuery(spot=math.exp(y), strike=1.0, expiry=t)
            v = s * math.sqrt(t)
            z = d_minus(y, s, t)
            a = (
                6
                + 4 * v * hermite(1, z)
                + (12 * rho**2 + 4) * hermite(2, z)
                + 3 * rho**2 * v * hermite(3, z)
                + 3 * rho**2 * hermite(4, z)
            )
            alt = (s * s * t * t / 24) * a * phi_t(y, s, t)
            got = price_sa2(q, SabrParams(s, 0.0, rho)).f2
            assert abs(alt - got) <= 1e-10 * max(abs(got), 1e-10)


class TestPriceSa2:
    def test_nu_zero_is_black_scholes(self):
        q = OptionQuery(spot=1.1, strike=1.0, rate=0.03, expiry=0.75)
        p = SabrParams(sigma0=0.25, nu=0.0, rho=-0.5)
        forward_bs = math.exp(q.rate * q.expiry) * bs_call(q, 0.25)
        res = price_sa2(q, p)
        assert res.f1 != 0.0 or res.f2 != 0.0 or True
        assert abs(res.total - forward_bs) <= 1e-14 * forward_bs

    def test_decomposition_consistency(self):
        q = OptionQuery(spot=0.95, strike=1.0, expiry=1.2)
        p = SabrParams(sigma0=0.2, nu=0.35, rho=-0.4)
        res = price_sa2(q, p)
        assert res.total == pytest.approx(res.f_bs + p.nu * res.f1 + p.nu**2 * res.f2)

    def test_homogeneity(self):
        p = SabrParams(sigma0=0.2, nu=0.4, rho=-0.3)
        base = price_sa2(OptionQuery(spot=1.05, strike=1.0, expiry=1.0), p).total
        for lam in (0.5, 2.0, 10.0):
            q = OptionQuery(spot=1.05 * lam, strike=lam, expiry=1.0)
            assert abs(price_sa2(q, p).total - lam * base) <= 1e-12 * lam * base

    def test_expiry_payoff(self):
        q = OptionQuery(spot=1.2, strike=1.0, expiry=0.0)
        p = SabrParams(sigma0=0.2, nu=0.4, rho=-0.3)
        assert price_sa2(q, p).total == pytest.approx(0.2)

    def test_rel_wrapper(self):
        p = SabrParams(sigma0=0.2, nu=0.4, rho=-0.3)
        q = OptionQuery(spot=math.exp(0.15), strike=1.0, expiry=0.9)
        assert price_sa2_rel(0.15, 0.9, p) == pytest.approx(price_sa2(q, p).total)

    @pytest.mark.parametrize("nu", [0.0, 0.4])
    @pytest.mark.parametrize(
        "sigma, t, name",
        [(math.inf, 1.0, "sigma"), (0.2, math.inf, "t"), (0.2, np.array([1.0, math.inf]), "t")],
        ids=["sigma", "t", "array_t"],
    )
    def test_rel_rejects_sigma_or_t_not_finite(self, sigma, t, name, nu):
        # c_rel's rule: this returned nan, and an array call warned
        with pytest.raises(DomainError, match=f"^{name} must be finite, got inf$"):
            price_sa2_rel(0.1, t, SabrParams(0.2, nu, -0.3), sigma=sigma)

    @pytest.mark.parametrize("kappa0", [0.0, 1.0])
    @pytest.mark.parametrize("nu", [0.0, 0.5])
    def test_tiny_expiry_is_black_scholes(self, nu, kappa0):
        # at these expiries the F2 ladder's powers of -1/v overflow, and the
        # corrections take their t -> 0 limit, 0; an array call must not warn
        p = SabrParams(sigma0=0.2, nu=nu, rho=-0.3, kappa0=kappa0, theta=0.3)
        y, t = np.array([0.1, 0.0, -0.1]), np.array([1e-80, 1e-200, 1e-300])
        np.testing.assert_array_equal(price_sa2_rel(y, t, p), c_rel(y, 0.2, t))
        for yi, ti in zip(y.tolist(), t.tolist()):
            assert price_sa2_rel(yi, ti, p) == c_rel(yi, 0.2, ti)
            # the hedge ratio and the F2 term take the same limit
            q = OptionQuery(spot=math.exp(yi), strike=1.0, expiry=ti)
            assert price_sa2(q, p).f2 == 0.0
            assert delta_sa2(q, p) == norm_cdf(d_minus(yi, 0.2, ti) + 0.2 * math.sqrt(ti))

    def test_terms_are_the_price_corrections(self):
        # nu enters neither F1 nor F2: price_sa2 at nu = 0 gives the
        # corrections of every nu, bit for bit
        for i, (y, s, t, rho) in enumerate(random_lattice(100, seed=21)):
            kappa0, theta = (0.0, 0.0) if i % 2 else (1.5 * s, 0.3)
            q = OptionQuery(spot=100.0 * math.exp(y), strike=100.0, rate=0.02, expiry=t)
            res = price_sa2(q, SabrParams(sigma0=s, nu=0.4, rho=rho, kappa0=kappa0, theta=theta))
            terms = price_sa2(q, SabrParams(s, 0.0, rho, kappa0, theta))
            assert res.f1 == terms.f1
            assert res.f2 == terms.f2

    @pytest.mark.parametrize("name", ["price_sa2", "delta_sa2", "f1_term", "f2_term"])
    def test_correction_not_finite_is_domain_error(self, name):
        # at large v = sigma sqrt(t) the corrections are not finite; the
        # OptionQuery forms name the point, as the price command does. The
        # F1 and F2 terms alone are price_sa2's at nu = 0
        q = OptionQuery(spot=1.0, strike=1.0, expiry=1e300)
        p = SabrParams(sigma0=0.2, nu=0.5, rho=-0.3)
        terms = SabrParams(sigma0=0.2, nu=0.0, rho=-0.3)
        form = {
            "price_sa2": lambda: price_sa2(q, p),
            "delta_sa2": lambda: delta_sa2(q, p),
            "f1_term": lambda: price_sa2(q, terms).f1,
            "f2_term": lambda: price_sa2(q, terms).f2,
        }[name]
        what = "delta_sa2" if name == "delta_sa2" else "price_sa2"
        message = rf"^{what} gives a correction that is not finite at y = 0.0, t = 1e\+300$"
        with pytest.raises(DomainError, match=message):
            form()

    @pytest.mark.parametrize("kappa0, theta", [(1e300, 1.0), (1.0, 1e300)])
    def test_coefficients_not_finite_are_not_the_tiny_t_limit(self, kappa0, theta):
        # v = 0.2 < 1, but kappa0^2 or (theta - sigma)^2 overflows in the F2
        # coefficients: the correction is not finite, not Black-Scholes
        q = OptionQuery(spot=1.0, strike=1.0, expiry=1.0)
        p = SabrParams(sigma0=0.2, nu=0.4, rho=-0.3, kappa0=kappa0, theta=theta)
        assert not math.isfinite(price_sa2_rel(0.0, 1.0, p))
        got = price_sa2_rel(np.array([0.0, 0.1]), np.array([1.0, 1e-80]), p)
        assert not np.isfinite(got).any()
        for name, form in [
            ("price_sa2", lambda: price_sa2(q, p)),
            ("delta_sa2", lambda: delta_sa2(q, p)),
            ("price_sa2", lambda: price_sa2(q, SabrParams(0.2, 0.0, -0.3, kappa0, theta)).f2),
        ]:
            message = rf"^{name} gives a correction that is not finite at y = 0.0, t = 1.0$"
            with pytest.raises(DomainError, match=message):
                form()

    def test_nu_zero_does_not_hide_a_correction_that_is_not_finite(self):
        # the nu-weighted corrections are 0 * inf, not finite at every nu
        q = OptionQuery(spot=1.0, strike=1.0, expiry=1.0)
        p = SabrParams(sigma0=0.2, nu=0.0, rho=-0.3, kappa0=1e300, theta=1.0)
        for name, form in [("price_sa2", price_sa2), ("delta_sa2", delta_sa2)]:
            message = rf"^{name} gives a correction that is not finite at y = 0.0, t = 1.0$"
            with pytest.raises(DomainError, match=message):
                form(q, p)

    def test_mean_reversion_terms_enter(self):
        q = OptionQuery(spot=1.0, strike=1.0, expiry=1.0)
        flat = price_sa2(q, SabrParams(sigma0=0.2, nu=0.3, rho=-0.3)).total
        pulled = price_sa2(
            q, SabrParams(sigma0=0.2, nu=0.3, rho=-0.3, kappa0=1.0, theta=0.3)
        ).total
        assert pulled > flat  # vol pulled up toward theta > sigma0


class TestImpliedVol:
    def test_e1_zero_rho(self):
        assert implied_e1(0.3, 0.2, 0.0, 1.0) == 0.0

    def test_e1_hand_value(self):
        assert abs(implied_e1(0.0, 0.2, -0.3, 1.0) + 0.003) <= 1e-17

    def test_e1_polynomial_form(self):
        for y, s, t, rho in random_lattice(200, seed=13):
            poly = (rho / 4) * (s * s * t - 2 * y)
            assert abs(implied_e1(y, s, rho, t) - poly) <= 1e-13 * max(abs(poly), 1e-8)

    def test_e2_rho_zero_atm(self):
        s, t = 0.25, 1.4
        assert implied_e2(0.0, s, 0.0, t) == pytest.approx(s * t / 12 - s**3 * t**2 / 24)

    def test_e2_hand_value(self):
        y, s, rho, t = 0.1, 0.2, -0.5, 1.0
        r2 = 0.25
        expected = (
            s * t / 12
            - r2 * t * s / 8
            - s**3 * t**2 / 24
            - r2 * t * s * y / 8
            + y * y / (6 * s)
            - r2 * y * y / (4 * s)
            + t * t * r2 * s**3 / 8
        )
        assert implied_e2(y, s, rho, t) == pytest.approx(expected, abs=1e-16)

    @pytest.mark.parametrize("rho", [1.5, 1.0, -1.0, math.nan])
    @pytest.mark.parametrize("coeff", [implied_e1, implied_e2])
    def test_rejects_rho_outside_unit_interval(self, coeff, rho):
        with pytest.raises(DomainError, match=r"^rho must lie strictly in \(-1, 1\), got "):
            coeff(0.1, 0.2, rho, 1.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: sigma_d(0.1, math.inf, SabrParams(0.2, 0.5, -0.3)),
            lambda: price_d(0.1, 1.0, SabrParams(0.2, 0.5, -0.3), sigma=math.inf),
            lambda: sigma_d(np.array([0.1, 0.2]), np.array([1.0, math.inf]),
                            SabrParams(0.2, 0.5, -0.3)),
            lambda: price_d(0.1, math.inf, SabrParams(0.2, 0.5, -0.3)),
            lambda: implied_e1(0.1, 0.2, 0.3, math.inf),
            lambda: implied_e1(0.1, np.array([0.2, math.inf]), 0.3, 1.0),
            lambda: implied_e2(0.1, math.inf, 0.3, 1.0),
            lambda: implied_e2(0.1, 0.2, 0.3, np.array([1.0, math.nan])),
        ],
        ids=["sigma_d_t", "price_d_sigma", "sigma_d_array_t", "price_d_t", "e1_t",
             "e1_array_sigma", "e2_sigma", "e2_array_t_nan"],
    )
    def test_rejects_sigma_or_t_not_finite(self, call):
        # sigma_d was nan and unflagged at t = inf, implied_e1 inf, implied_e2 nan
        with pytest.raises(DomainError, match=r" requires finite sigma > 0 and t > 0$"):
            call()

    NU0 = SabrParams(0.2, 0.0, -0.3)

    @pytest.mark.parametrize(
        "form, y, t, sigma",
        [
            pytest.param(form, y, t, sigma, id=f"{case}-{form.__name__}")
            for case, y, t, sigma in [
                ("t_inf", 0.1, math.inf, None), ("t_negative", 0.1, -1.0, None),
                ("sigma_inf", 0.1, 1.0, math.inf),
                ("array_t_negative", np.array([0.1, 0.2]), np.array([1.0, -1.0]), None),
            ]
            for form in (sigma_d, price_d)
            # sigma_d takes params.sigma0 alone, which SabrParams keeps finite
            if sigma is None or form is price_d
        ],
    )
    def test_rejects_sigma_or_t_at_nu_zero(self, form, y, t, sigma):
        # at nu = 0 sigma_d returned nan at t = inf and sigma0 at t = -1
        kwargs = {} if sigma is None else {"sigma": sigma}
        with pytest.raises(DomainError, match=r" requires finite sigma > 0 and t > 0$"):
            form(y, t, self.NU0, **kwargs)

    @pytest.mark.parametrize("form", [sigma_d, price_d])
    @pytest.mark.parametrize("nu", [0.0, 0.5])
    @pytest.mark.parametrize(
        "y, bad", [(math.inf, "inf"), (math.nan, "nan"),
                   (np.array([0.1, -math.inf, math.nan]), "-inf")],
        ids=["inf", "nan", "array"],
    )
    def test_rejects_y_not_finite(self, form, nu, y, bad):
        # nan at any nu before; the message names the first bad value
        with pytest.raises(DomainError, match=rf"^sigma_d requires finite y, got {bad}$"):
            form(y, 1.0, SabrParams(0.2, nu, -0.3))

    def test_e2_even_in_rho(self):
        for y, s, t, rho in random_lattice(50, seed=17):
            assert implied_e2(y, s, rho, t) == pytest.approx(
                implied_e2(y, s, -rho, t), abs=1e-16
            )

    def test_sigma_d_nu_zero(self):
        p = SabrParams(sigma0=0.23, nu=0.0, rho=-0.6)
        assert sigma_d(0.2, 1.0, p).value == 0.23

    def test_sigma_d_composition(self):
        s, nu, rho, t, y = 0.19, 1.3, -0.55, 0.25, 0.0
        p = SabrParams(sigma0=s, nu=nu, rho=rho)
        expected = s + nu * implied_e1(y, s, rho, t) + nu**2 * implied_e2(y, s, rho, t)
        quote = sigma_d(y, t, p)
        assert quote.value == pytest.approx(expected)
        assert not quote.clamped

    def test_sigma_d_clamp_flag(self):
        # extreme skew pushes the raw expansion negative far from the money
        p = SabrParams(sigma0=0.05, nu=4.0, rho=0.95, kappa0=0.0)
        quote = sigma_d(3.0, 5.0, p)
        if quote.clamped:
            assert quote.value > 0.0
        else:  # parameters never clamped: value must still be positive
            assert quote.value > 0.0

    def test_sigma_d_overflow_is_domain_error(self):
        # the y^2 monomial overflows: sigma_d is inf and price_d's c_rel nan
        p = SabrParams(sigma0=0.2, nu=0.4, rho=-0.3)
        message = r"^sigma_d overflows a float at y = {}, t = 1.0, sigma = 0.2$"
        for fn, y in [(sigma_d, 1e200), (price_d, -1e200)]:
            with pytest.raises(DomainError, match=message.format(re.escape(str(y)))):
                fn(y, 1.0, p)
            # an array call names the point, without a numpy warning
            with pytest.raises(DomainError, match=message.format(re.escape(str(y)))):
                fn(np.array([0.1, y]), np.array([1.0, 1.0]), p)

    def test_nu_zero_sigma_d_overflow_is_domain_error(self):
        # e2's y^2 coefficient (1/6 - rho^2/4) / sigma overflows at sigma =
        # 5e-324, and nu^2 = 0 times it is nan: not finite at every nu
        message = r"^sigma_d overflows a float at y = 0.1, t = 1.0, sigma = 5e-324$"
        for nu in (0.0, 0.4):
            with pytest.raises(DomainError, match=message):
                sigma_d(0.1, 1.0, SabrParams(5e-324, nu, -0.3))

    def test_sigma_d_rejects_mean_reversion(self):
        p = SabrParams(sigma0=0.2, nu=0.3, rho=-0.3, kappa0=0.5, theta=0.2)
        with pytest.raises(DomainError):
            sigma_d(0.0, 1.0, p)

    def test_price_d_composition(self):
        p = SabrParams(sigma0=0.2, nu=0.5, rho=-0.4)
        y, t = 0.3, 1.0
        assert price_d(y, t, p) == pytest.approx(c_rel(y, sigma_d(y, t, p).value, t))

    def test_order_nu_cubed_agreement(self):
        y, s, rho, t = 0.1, 0.2, -0.4, 1.0
        diffs = []
        nus = (0.05, 0.1, 0.2)
        for nu in nus:
            p = SabrParams(sigma0=s, nu=nu, rho=rho)
            diffs.append(abs(price_d(y, t, p) - price_sa2_rel(y, t, p)))
        # fitted cubic constant must bound all three differences
        c = max(d / nu**3 for d, nu in zip(diffs, nus))
        for d, nu in zip(diffs, nus):
            assert d <= 1.05 * c * nu**3


class TestDelta:
    def test_nu_zero_is_bs_delta(self):
        q = OptionQuery(spot=1.08, strike=1.0, expiry=0.6)
        p = SabrParams(sigma0=0.22, nu=0.0, rho=-0.5)
        d_plus = d_minus(q.log_moneyness, 0.22, q.expiry) + 0.22 * math.sqrt(q.expiry)
        assert delta_sa2(q, p) == pytest.approx(norm_cdf(d_plus))

    def test_matches_finite_difference(self):
        q = OptionQuery(spot=1.0, strike=1.0, expiry=1.0)
        p = SabrParams(sigma0=0.2, nu=0.5, rho=-0.3)
        h = 1e-5
        up = price_sa2(OptionQuery(spot=1.0 + h, strike=1.0, expiry=1.0), p).total
        dn = price_sa2(OptionQuery(spot=1.0 - h, strike=1.0, expiry=1.0), p).total
        fd = (up - dn) / (2 * h)
        assert abs(delta_sa2(q, p) - fd) <= 1e-6 * abs(fd)

    def test_matches_finite_difference_with_mean_reversion(self):
        # criterion 9's draws and bar, with kappa0 in [0, 3], theta in [0.05, 0.5]
        rng = np.random.default_rng(919)
        for _ in range(50):
            spot, strike = rng.uniform(0.5, 2.0, 2)
            rate, t = rng.uniform(0.0, 0.06), rng.uniform(0.1, 3.0)
            p = SabrParams(
                sigma0=rng.uniform(0.1, 0.5), nu=rng.uniform(0.0, 1.0),
                rho=rng.uniform(-0.8, 0.8), kappa0=rng.uniform(0.0, 3.0),
                theta=rng.uniform(0.05, 0.5),
            )
            h = 1e-5 * spot

            def disc_price(sp):
                q = OptionQuery(spot=sp, strike=strike, rate=rate, expiry=t)
                return math.exp(-rate * t) * price_sa2(q, p).total

            fd = (disc_price(spot + h) - disc_price(spot - h)) / (2.0 * h)
            q = OptionQuery(spot=spot, strike=strike, rate=rate, expiry=t)
            assert abs(delta_sa2(q, p) - fd) <= 1e-6 * abs(fd)

    def test_homogeneity_degree_zero(self):
        p = SabrParams(sigma0=0.2, nu=0.4, rho=-0.3)
        base = delta_sa2(OptionQuery(spot=1.1, strike=1.0, expiry=1.0), p)
        for lam in (0.5, 3.0):
            q = OptionQuery(spot=1.1 * lam, strike=lam, expiry=1.0)
            assert delta_sa2(q, p) == pytest.approx(base, rel=1e-12)

    def test_rejects_expiry(self):
        q0 = OptionQuery(spot=1.0, strike=1.0, expiry=0.0)
        with pytest.raises(DomainError):
            delta_sa2(q0, SabrParams(sigma0=0.2, nu=0.3, rho=0.0, kappa0=1.0, theta=0.2))

    @pytest.mark.parametrize("nu", [0.4, 0.0])
    def test_forward_whose_reciprocal_overflows_is_domain_error(self, nu):
        # F = 1e-309 < e^-709.78: 1/F is not a float, at every nu
        q = OptionQuery(spot=1e-309, strike=1e-309, rate=0.0, expiry=1.0)
        with pytest.raises(DomainError) as info:
            delta_sa2(q, SabrParams(sigma0=0.2, nu=nu, rho=-0.3))
        assert str(info.value) == (
            "delta_sa2 overflows a float in 1/forward at x = -711.4987937351601, t = 1.0"
        )
        # a forward of 1e-308 still has its hedge ratio
        q = OptionQuery(spot=1e-308, strike=1e-308, rate=0.0, expiry=1.0)
        assert 0.0 < delta_sa2(q, SabrParams(sigma0=0.2, nu=nu, rho=-0.3)) < 1.0

"""Array-valued closed-form kernels: an array call agrees with the same
formula evaluated point by point on floats, rejects an array holding one
bad element, and the residual tables keep their recorded values."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sabrkit import (
    DomainError,
    OptionQuery,
    ResidualRegion,
    SabrParams,
    c_rel,
    d_minus,
    h_tilde,
    implied_e1,
    implied_e2,
    objective_value,
    phi_t,
    price_d,
    price_h,
    price_sa2,
    price_sa2_rel,
    residual_norm,
    sigma_d,
    sigma_h,
)
from sabrkit.calibration import OBJECTIVES, MarketQuote, QuoteDay
from sabrkit.cli import RESIDUAL_PRESETS
from sabrkit.hagan import Z_SWITCH
from sabrkit.models import price_fn_for_model

# a float call runs on the math module and an array call on numpy, so the
# two agree to rounding, not bit for bit
RTOL = 1e-12
ATOL = 1e-14

N = st.integers(min_value=1, max_value=12)


def floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


def arrays(draw, n, lo, hi):
    return np.array(draw(st.lists(floats(lo, hi), min_size=n, max_size=n)))


def params_strategy(kappa=False):
    return st.builds(
        SabrParams,
        sigma0=floats(0.05, 0.8),
        nu=floats(0.0, 3.0),
        rho=floats(-0.95, 0.95),
        kappa0=floats(0.1, 3.0) if kappa else st.just(0.0),
        theta=floats(0.05, 0.6) if kappa else st.just(0.0),
    )


@st.composite
def lattices(draw, y=(-2.0, 2.0), sigma=(0.0, 1.5), t=(0.0, 5.0), zeros=True):
    n = draw(N)
    ys = arrays(draw, n, *y)
    ss = arrays(draw, n, *sigma)
    ts = arrays(draw, n, *t)
    # exact zeros exercise the intrinsic-value branch
    if zeros and draw(st.booleans()):
        ss[0] = 0.0
    if zeros and draw(st.booleans()):
        ts[-1] = 0.0
    return ys, ss, ts


def pointwise(fn, *arrs):
    return np.array([fn(*(float(a) for a in args)) for args in zip(*arrs)])


class TestArrayEqualsScalar:
    @given(lattices())
    def test_c_rel(self, lat):
        ys, ss, ts = lat
        got = c_rel(ys, ss, ts)
        assert got.shape == ys.shape
        np.testing.assert_allclose(got, pointwise(c_rel, ys, ss, ts), rtol=RTOL, atol=ATOL)

    @given(lattices(sigma=(0.05, 1.0), t=(0.05, 5.0), zeros=False))
    def test_gaussian_kernels(self, lat):
        ys, ss, ts = lat
        np.testing.assert_allclose(
            d_minus(ys, ss, ts), pointwise(d_minus, ys, ss, ts), rtol=RTOL, atol=ATOL
        )
        np.testing.assert_allclose(
            phi_t(ys, ss, ts), pointwise(phi_t, ys, ss, ts), rtol=RTOL, atol=ATOL
        )
        for n in range(6):
            np.testing.assert_allclose(
                h_tilde(n, ys, ss, ts),
                pointwise(lambda *a: h_tilde(n, *a), ys, ss, ts),
                rtol=RTOL,
                atol=ATOL,
            )

    @given(
        lattices(y=(-3.0, 3.0), sigma=(0.01, 2.0), t=(0.01, 10.0), zeros=False),
        floats(-0.99, 0.99),
    )
    def test_implied_coefficients(self, lat, rho):
        ys, ss, ts = lat
        e1 = implied_e1(ys, ss, rho, ts)
        e2 = implied_e2(ys, ss, rho, ts)
        # the coefficient table holds no math-module call, so the float
        # and array calls are the same arithmetic
        np.testing.assert_array_equal(
            e1, pointwise(lambda y, s, t: implied_e1(y, s, rho, t), ys, ss, ts)
        )
        np.testing.assert_array_equal(
            e2, pointwise(lambda y, s, t: implied_e2(y, s, rho, t), ys, ss, ts)
        )
        # the forms the coefficient table replaced, written out: e1 =
        # -rho sigma sqrt(t) d_- / 2 and e2 as seven terms, compared relative
        # to the sum of their terms' sizes
        v = ss * np.sqrt(ts)
        e1_d_form = -0.5 * rho * v * d_minus(ys, ss, ts)
        e1_size = 0.5 * abs(rho) * (np.abs(ys) + 0.5 * v * v)
        r2 = rho * rho
        e2_terms = [
            ss * ts / 12,
            -r2 * ts * ss / 8,
            -(ss**3) * ts**2 / 24,
            -r2 * ts * ss * ys / 8,
            ys**2 / (6 * ss),
            -r2 * ys**2 / (4 * ss),
            ts**2 * r2 * ss**3 / 8,
        ]
        e2_size = sum(np.abs(term) for term in e2_terms)
        assert (np.abs(e1 - e1_d_form) <= 1e-13 * e1_size).all()
        assert (np.abs(e2 - sum(e2_terms)) <= 1e-13 * e2_size).all()

    @given(st.data(), params_strategy())
    def test_sigma_d_with_clamp(self, data, params):
        ys, ss, ts = data.draw(
            lattices(y=(-3.0, 3.0), sigma=(0.05, 0.8), t=(0.05, 10.0), zeros=False)
        )
        quote = sigma_d(ys, ts, params, sigma=ss)
        points = [
            sigma_d(float(y), float(t), params, sigma=float(s)) for y, t, s in zip(ys, ts, ss)
        ]
        np.testing.assert_allclose(
            quote.value, [q.value for q in points], rtol=RTOL, atol=1e-12
        )
        np.testing.assert_array_equal(quote.clamped, [q.clamped for q in points])
        np.testing.assert_allclose(
            price_d(ys, ts, params, sigma=ss),
            [c_rel(float(y), q.value, float(t)) for y, t, q in zip(ys, ts, points)],
            rtol=RTOL,
            atol=ATOL,
        )

    def test_sigma_d_clamp_is_flagged(self):
        params = SabrParams(sigma0=0.1, nu=3.0, rho=0.9)
        quote = sigma_d(np.array([3.0, 0.0]), np.array([5.0, 1.0]), params)
        assert quote.clamped.tolist() == [True, False]
        assert quote.value[0] == sigma_d(3.0, 5.0, params).value

    @given(st.data(), params_strategy().filter(lambda p: p.nu > 1e-3))
    def test_sigma_h_across_z_switch(self, data, params):
        n = data.draw(N)
        # z = nu y / sigma on both sides of the switch to the series
        near = floats(-3 * Z_SWITCH, 3 * Z_SWITCH)
        zs = np.array(data.draw(st.lists(near | floats(-1.5, 1.5), min_size=n, max_size=n)))
        ts = arrays(data.draw, n, 0.0, 5.0)
        ys = zs * params.sigma0 / params.nu
        vols = sigma_h(ys, ts, params)
        np.testing.assert_allclose(
            vols, pointwise(lambda y, t: sigma_h(y, t, params), ys, ts), rtol=RTOL, atol=ATOL
        )
        # prices exist where the vol is nonnegative (long expiries can turn it)
        ys, ts = ys[vols >= 0.0], ts[vols >= 0.0]
        np.testing.assert_allclose(
            price_h(ys, ts, params),
            pointwise(lambda y, t: price_h(y, t, params), ys, ts),
            rtol=RTOL,
            atol=ATOL,
        )

    @given(st.data(), params_strategy(kappa=True))
    def test_price_sa2_with_mean_reversion(self, data, params):
        n = data.draw(N)
        ys = arrays(data.draw, n, -1.0, 1.0)
        ts = arrays(data.draw, n, 0.05, 3.0)
        got = price_sa2_rel(ys, ts, params)
        np.testing.assert_allclose(
            got,
            pointwise(lambda y, t: price_sa2_rel(y, t, params), ys, ts),
            rtol=RTOL,
            atol=ATOL,
        )
        # the y-direct kernel against the OptionQuery form it replaces
        for y, t, value in zip(ys, ts, got):
            query = OptionQuery(spot=math.exp(y), strike=1.0, rate=0.0, expiry=float(t))
            assert value == pytest.approx(price_sa2(query, params).total, rel=1e-11, abs=1e-14)


def _quote_day(ys, ts, vols):
    return QuoteDay(
        day=1,
        quotes=tuple(
            MarketQuote(option_type="C", expiry=float(t), implied_vol=float(v), moneyness=float(y))
            for y, t, v in zip(ys, ts, vols)
        ),
    )


def _pointwise_objective(day, params, objective):
    # the objective as a loop over quotes with float kernel calls
    take_log = objective.startswith("log_")
    model_name = objective.split("_")[-1]
    sq_sum, used = 0.0, 0
    for q in day.quotes:
        y, t = q.moneyness, q.expiry
        if objective.startswith("sigma"):
            model = sigma_d(y, t, params).value if model_name == "d" else sigma_h(y, t, params)
            target = q.implied_vol
        else:
            model = {
                "d": lambda: price_d(y, t, params),
                "h": lambda: price_h(y, t, params),
                "sa2": lambda: price_sa2_rel(y, t, params),
                "kappa": lambda: price_sa2_rel(y, t, params),
            }[model_name]()
            target = c_rel(y, q.implied_vol, t)
        if take_log:
            if model <= 0.0 or target <= 0.0:
                continue
            diff = math.log(model) - math.log(target)
        else:
            diff = model - target
        if math.isfinite(diff):
            sq_sum += diff * diff
            used += 1
    return sq_sum / used if used else math.inf


class TestObjective:
    @pytest.mark.parametrize("objective", OBJECTIVES)
    @given(data=st.data())
    def test_matches_quote_by_quote(self, objective, data):
        params = data.draw(params_strategy(kappa=objective == "price_kappa"))
        n = data.draw(N)
        day = _quote_day(
            arrays(data.draw, n, -0.5, 0.5),
            arrays(data.draw, n, 0.1, 2.0),
            arrays(data.draw, n, 0.05, 0.6),
        )
        assert objective_value(day, params, objective) == pytest.approx(
            _pointwise_objective(day, params, objective), rel=1e-9, abs=1e-20
        )


class TestArrayDomainErrors:
    P = SabrParams(sigma0=0.2, nu=0.5, rho=-0.3)
    Y = np.array([-0.1, 0.0, 0.1])

    @pytest.mark.parametrize(
        "call",
        [
            lambda y: c_rel(y, np.array([0.2, -0.2, 0.2]), 1.0),
            lambda y: c_rel(y, 0.2, np.array([1.0, 1.0, -1.0])),
            lambda y: d_minus(y, 0.2, np.array([1.0, 0.0, 1.0])),
            lambda y: phi_t(y, np.array([0.2, 0.0, 0.2]), 1.0),
            lambda y: h_tilde(2, y, 0.2, np.array([-1.0, 1.0, 1.0])),
            lambda y: sigma_d(y, np.array([1.0, 0.0, 1.0]), TestArrayDomainErrors.P),
            lambda y: sigma_h(y, np.array([1.0, -0.5, 1.0]), TestArrayDomainErrors.P),
            lambda y: price_sa2_rel(y, np.array([1.0, 1.0, -0.5]), TestArrayDomainErrors.P),
            lambda y: price_fn_for_model("sa2", TestArrayDomainErrors.P)(
                y, np.array([0.2, 0.0, 0.2]), 1.0
            ),
        ],
    )
    def test_one_bad_element_raises(self, call):
        with pytest.raises(DomainError):
            call(self.Y)

    def test_floats_in_floats_out(self):
        assert type(c_rel(0.1, 0.2, 1.0)) is float
        assert type(price_sa2_rel(0.1, 1.0, self.P)) is float
        assert type(sigma_h(0.1, 1.0, self.P)) is float
        quote = sigma_d(0.1, 1.0, self.P)
        assert type(quote.value) is float and type(quote.clamped) is bool


# residual norms recorded at the seed commit, scaled as the CLI prints them
SEED_RESIDUALS = {
    "table4": {
        "h": 0.07311891562243622,
        "d": 0.1856634989101327,
        "sa2": 0.16662957059501718,
        "bs": 15.732384600263082,
    },
    "table5-row3": {
        "h": 0.0018484830795721984,
        "d": 0.011977452752747041,
        "sa2": 0.018899091481569708,
        "bs": 0.2826318300490455,
    },
}


@pytest.mark.parametrize("preset", sorted(SEED_RESIDUALS))
def test_residual_norm_keeps_seed_values(preset):
    p = RESIDUAL_PRESETS[preset]
    region = ResidualRegion(
        t_range=p["t_range"], sigma_range=p["sigma_range"], y_range=p["y_range"]
    )
    params = SabrParams(sigma0=p["sigma_range"][0], nu=p["nu"], rho=p["rho"])
    for model, want in SEED_RESIDUALS[preset].items():
        got = p["scale"] * residual_norm(price_fn_for_model(model, params), params, region)
        assert got == pytest.approx(want, rel=1e-7), model

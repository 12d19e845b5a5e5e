import argparse
import csv
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sabrkit import (
    CalibrationResult,
    DomainError,
    QuoteDay,
    SabrParams,
    c_rel,
    calibrate_panel,
    delta_to_moneyness,
    objective_value,
    price_fn_for_model,
    read_quotes_csv,
    synth_panel,
    vol_fn_for_model,
    write_quotes_csv,
)
from sabrkit import calibration
from sabrkit.calibration import (
    OBJECTIVES,
    PANEL_DELTAS,
    PANEL_EXPIRY_MONTHS,
    RESULT_HEADER,
    result_rows,
)
from sabrkit.cli import _emit
from sabrkit.core import _NUMPY, norm_cdf
from sabrkit.expansion import _sigma_d_jacobian, _sigma_d_quote, sigma_d

TRUE = SabrParams(sigma0=0.19, nu=1.3, rho=-0.55)


def monomials(day, sigma_prev):
    """The day's monomials (y, t, t^2, t y, y^2) as its fit evaluates them."""
    return calibration._DayObjective(day, "sigma_d", sigma_prev).monomials


def quote_day(**columns):
    """A two-quote delta day with the given columns replaced."""
    base = dict(
        day=1, option_type=("C", "P"), expiry=[1.0, 0.5], implied_vol=[0.2, 0.25],
        delta=[0.5, 0.3],
    )
    return QuoteDay(**{**base, **columns})


# (replaced columns, the DomainError's message) for each rule but the
# coordinate's, which test_exactly_one_coordinate checks
QUOTE_DAY_ERRORS = [
    (dict(option_type=(), expiry=[], implied_vol=[], delta=[]),
     "a quote day must contain at least one quote"),
    (dict(option_type=("C", "X")), "option_type must be 'C' or 'P', got 'X'"),
    (dict(delta=[0.5, 1.5]), "delta must lie in (0, 1), got 1.5"),
    (dict(delta=[0.0, 0.3]), "delta must lie in (0, 1), got 0.0"),
    (dict(delta=[math.nan, 0.3]), "delta must lie in (0, 1), got nan"),
    (dict(delta=None, moneyness=[0.1, math.inf]), "moneyness must be finite, got inf"),
    (dict(delta=None, moneyness=[math.nan, 0.1]), "moneyness must be finite, got nan"),
    (dict(implied_vol=[0.2, -0.2]), "implied_vol must be positive and finite, got -0.2"),
    (dict(implied_vol=[math.inf, 0.2]), "implied_vol must be positive and finite, got inf"),
    (dict(expiry=[1.0, 0.0]), "expiry must be positive and finite, got 0.0"),
    (dict(expiry=[math.nan, 1.0]), "expiry must be positive and finite, got nan"),
    # the first bad value of a column is named
    (dict(implied_vol=[-1.0, -2.0]), "implied_vol must be positive and finite, got -1.0"),
]


class TestQuoteTypes:
    def test_columns_are_read_only_float_arrays(self):
        source = np.array([1.0, 2.0])
        day = quote_day(option_type=["C", "P"], expiry=source, implied_vol=(1, 2))
        assert day.option_type == ("C", "P") and day.moneyness is None
        for column in (day.expiry, day.implied_vol, day.delta):
            assert isinstance(column, np.ndarray) and column.dtype == float
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.5
        source[0] = 9.0  # the day holds a copy
        np.testing.assert_array_equal(day.expiry, [1.0, 2.0])
        np.testing.assert_array_equal(day.implied_vol, [1.0, 2.0])

    def test_exactly_one_coordinate(self):
        message = "^exactly one of delta / moneyness must be set$"
        with pytest.raises(DomainError, match=message):
            quote_day(delta=None)
        with pytest.raises(DomainError, match=message):
            quote_day(moneyness=[0.1, -0.1])
        day = quote_day(delta=None, moneyness=[0.1, -0.1])
        assert day.delta is None

    def test_field_validation(self):
        for columns, message in QUOTE_DAY_ERRORS:
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                quote_day(**columns)

    @pytest.mark.parametrize(
        "columns, message",
        [
            (dict(expiry=[1.0]), "expiry must have shape (2,), got (1,)"),
            (dict(implied_vol=[0.2, 0.2, 0.2]), "implied_vol must have shape (2,), got (3,)"),
            (dict(delta=[[0.5, 0.3]]), "delta must have shape (2,), got (1, 2)"),
            (dict(option_type=("C",)), "delta must have shape (1,), got (2,)"),
        ],
    )
    def test_unequal_lengths(self, columns, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            quote_day(**columns)


class TestDeltaConversion:
    def test_half_delta_is_forward_atm(self):
        # delta = N(d+) = 1/2 means d+ = 0, so y = -v^2/2 with v = s sqrt(T)
        y = delta_to_moneyness(0.5, 0.2, 1.0)
        assert y == pytest.approx(-0.02)

    def test_round_trip_through_delta(self):
        for delta in (0.25, 0.5, 0.75):
            s, t = 0.3, 0.5
            y = delta_to_moneyness(delta, s, t)
            v = s * math.sqrt(t)
            d_plus = y / v + v / 2
            assert norm_cdf(d_plus) == pytest.approx(delta, abs=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            delta_to_moneyness(0.0, 0.2, 1.0)
        with pytest.raises(DomainError):
            delta_to_moneyness(0.5, 0.0, 1.0)
        with pytest.raises(DomainError, match=r"^delta must lie in \(0, 1\), got 1.0$"):
            delta_to_moneyness(np.array([0.5, 1.0]), 0.2, 1.0)

    @pytest.mark.parametrize(
        "T, bad",
        [
            (-1.0, "-1.0"),
            (0.0, "0.0"),
            (math.inf, "inf"),
            (math.nan, "nan"),
            (np.array([1.0, -1.0]), "-1.0"),
            (np.array([0.5, math.inf]), "inf"),
        ],
    )
    def test_expiry_must_be_positive_and_finite(self, T, bad):
        with pytest.raises(DomainError, match=rf"^T must be positive and finite, got {bad}$"):
            delta_to_moneyness(np.array([0.5, 0.3]) if np.ndim(T) else 0.5, 0.2, T)

    @pytest.mark.parametrize(
        "sigma_prev, bad",
        [
            (0.0, "0.0"),
            (-0.2, "-0.2"),
            (math.inf, "inf"),
            (math.nan, "nan"),
            (np.array([0.2, math.inf]), "inf"),
        ],
    )
    def test_sigma_prev_must_be_positive_and_finite(self, sigma_prev, bad):
        # inf gave -inf
        want = rf"^sigma_prev must be positive and finite, got {bad}$"
        with pytest.raises(DomainError, match=want):
            delta_to_moneyness(0.5, sigma_prev, 1.0)

    @pytest.mark.parametrize(
        "delta, sigma_prev, T, named",
        [
            (0.5, 1e200, 1.0, "sigma_prev = 1e+200, T = 1.0"),
            (0.5, 1e154, 4.0, "sigma_prev = 1e+154, T = 4.0"),
            (np.array([0.5, 0.3]), np.array([0.2, 1e200]), 0.5, "sigma_prev = 1e+200, T = 0.5"),
        ],
    )
    def test_sigma_prev_whose_v_squared_overflows(self, delta, sigma_prev, T, named):
        # v = sigma_prev sqrt(T); v * v overflowed and y was -inf
        want = rf"^sigma_prev sqrt\(T\) squared overflows a float at {re.escape(named)}$"
        with pytest.raises(DomainError, match=want):
            delta_to_moneyness(delta, sigma_prev, T)

    def test_largest_v_whose_square_is_a_float(self):
        v = calibration._MAX_V
        above = math.nextafter(v, math.inf)
        assert math.isfinite(v * v) and above * above == math.inf
        assert math.isfinite(delta_to_moneyness(0.5, v, 1.0))

    def test_array_matches_float_calls(self):
        # one broadcast call equals the float call at every point, bit for bit
        deltas = np.array(PANEL_DELTAS)
        ts = np.linspace(0.05, 3.0, deltas.size)
        got = delta_to_moneyness(deltas, 0.19, ts)
        want = [delta_to_moneyness(d, 0.19, t) for d, t in zip(deltas.tolist(), ts.tolist())]
        assert got.tolist() == want
        assert isinstance(delta_to_moneyness(0.5, 0.19, 1.0), float)
        grid = delta_to_moneyness(deltas[:, None], 0.19, ts[None, :3])
        assert grid.shape == (deltas.size, 3)
        assert grid[4, 2] == delta_to_moneyness(float(deltas[4]), 0.19, float(ts[2]))

    def test_repeated_unsorted_deltas_match_float_calls(self):
        # each distinct delta's N^{-1} is computed once and scattered back
        deltas = np.array([0.8, 0.2, 0.5, 0.2, 0.8, 0.35, 0.5, 0.2])
        ts = np.linspace(0.1, 2.0, deltas.size)
        got = delta_to_moneyness(deltas, 0.19, ts)
        want = [delta_to_moneyness(d, 0.19, t) for d, t in zip(deltas.tolist(), ts.tolist())]
        assert got.tolist() == want
        grid = delta_to_moneyness(deltas.reshape(2, 4), 0.19, ts.reshape(2, 4))
        assert grid.tolist() == np.reshape(want, (2, 4)).tolist()


class TestObjective:
    def test_zero_at_generator(self):
        day = synth_panel(TRUE, 1)[0]
        assert objective_value(day, TRUE, "sigma_d") <= 1e-28

    def test_positive_away_from_generator(self):
        day = synth_panel(TRUE, 1)[0]
        wrong = SabrParams(sigma0=0.25, nu=1.3, rho=-0.55)
        assert objective_value(day, wrong, "sigma_d") > 1e-4

    def test_delta_quotes_need_prev_sigma(self):
        day = synth_panel(TRUE, 1, quote_with="delta")[0]
        with pytest.raises(DomainError):
            objective_value(day, TRUE, "sigma_d")
        val = objective_value(day, TRUE, "sigma_d", sigma_prev=TRUE.sigma0)
        assert val <= 1e-28

    def test_unknown_objective(self):
        day = synth_panel(TRUE, 1)[0]
        with pytest.raises(DomainError):
            objective_value(day, TRUE, "vega_weighted")


class TestSigmaDObjective:
    # the sigma_d objective evaluates the day's monomials; its model vols
    # must be sigma_d's own values, bit for bit
    DAY = synth_panel(TRUE, 1, noise_level=0.01, seed=3, quote_with="delta")[0]

    def check(self, monkeypatch, params):
        y, t = monomials(self.DAY, 0.19)[:2]
        seen = []
        quote_fn = calibration._sigma_d_quote

        def recorded(*args):
            seen.append(quote_fn(*args))
            return seen[-1]

        monkeypatch.setattr(calibration, "_sigma_d_quote", recorded)
        value = objective_value(self.DAY, params, "sigma_d", sigma_prev=0.19)
        want = sigma_d(y, t, params)
        (got,) = seen
        np.testing.assert_array_equal(got.value, want.value)
        np.testing.assert_array_equal(got.clamped, want.clamped)
        diff = want.value - self.DAY.implied_vol
        assert value == float(np.dot(diff, diff)) / diff.size
        return want

    @given(
        nu=st.floats(0.0, 5.0),
        sigma=st.floats(0.01, 2.0),
        rho=st.floats(-0.99, 0.99),
    )
    def test_random_params(self, nu, sigma, rho):
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.check(monkeypatch, SabrParams(sigma0=sigma, nu=nu, rho=rho))

    def test_nu_zero(self, monkeypatch):
        want = self.check(monkeypatch, SabrParams(sigma0=0.19, nu=0.0, rho=-0.55))
        assert (want.value == 0.19).all()

    def test_clamped_points(self, monkeypatch):
        want = self.check(monkeypatch, SabrParams(sigma0=0.1, nu=3.0, rho=0.9))
        assert 0 < want.clamped.sum() < want.clamped.size


class TestSigmaDJacobian:
    # the closed-form d sigma_d / d(nu, sigma, rho) the sigma_d fit uses,
    # against central differences of sigma_d itself
    MONO = monomials(TestSigmaDObjective.DAY, 0.19)

    def quote(self, nu, sigma, rho):
        return _sigma_d_quote(_NUMPY, self.MONO, sigma, SabrParams(sigma, nu, rho))

    def check(self, nu, sigma, rho):
        base = self.quote(nu, sigma, rho)
        jac = _sigma_d_jacobian(self.MONO, SabrParams(sigma, nu, rho), base.clamped)
        assert jac.shape == (base.value.size, 3)
        assert jac.dtype == np.float64  # no complex step leaks into the fit
        assert (jac[base.clamped] == 0.0).all()
        x = np.array([nu, sigma, rho])
        for j, h in enumerate((1e-5, 1e-5 * sigma, 1e-5)):
            step = np.zeros(3)
            step[j] = h
            if j == 0 and nu < h:
                # nu >= 0: a one-sided second-order difference
                f0, f1, f2 = (self.quote(*(x + k * step)) for k in range(3))
                probes = (f0, f1, f2)
                fd = (-3.0 * f0.value + 4.0 * f1.value - f2.value) / (2.0 * h)
            else:
                lo, hi = self.quote(*(x - step)), self.quote(*(x + step))
                probes = (lo, hi)
                fd = (hi.value - lo.value) / (2.0 * h)
            # rows whose clamp flag no probe changes; a clamped row is flat
            same = np.logical_and.reduce([p.clamped == base.clamped for p in probes])
            scale = max(1.0, float(np.abs(fd[same]).max()))
            np.testing.assert_allclose(jac[same, j], fd[same], rtol=1e-6, atol=1e-7 * scale)
        return base

    @given(
        nu=st.floats(0.0, 5.0),
        sigma=st.floats(0.01, 2.0),
        rho=st.floats(-0.99, 0.99),
    )
    # the corners of the fit box
    @example(nu=0.0, sigma=0.01, rho=-0.99)
    @example(nu=0.0, sigma=0.01, rho=0.99)
    @example(nu=0.0, sigma=2.0, rho=-0.99)
    @example(nu=0.0, sigma=2.0, rho=0.99)
    @example(nu=5.0, sigma=0.01, rho=-0.99)
    @example(nu=5.0, sigma=0.01, rho=0.99)
    @example(nu=5.0, sigma=2.0, rho=-0.99)
    @example(nu=5.0, sigma=2.0, rho=0.99)
    def test_random_params(self, nu, sigma, rho):
        self.check(nu, sigma, rho)

    def test_nu_zero(self):
        base = self.check(0.0, 0.19, -0.55)
        assert not base.clamped.any()

    def test_clamped_rows_are_zero(self):
        base = self.check(3.0, 0.1, 0.9)
        assert 0 < base.clamped.sum() < base.clamped.size


def solver_functions(day, objective, sigma_prev=None):
    """The residual function and Jacobian that a fit of day hands its solver."""
    handed = []

    def capture(fun, jac, x):
        handed.append((fun, jac))
        return x, None, True

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(calibration, "_least_squares", capture)
        calibrate_panel([day], (1.0, 0.25, -0.3), objective, sigma_prev0=sigma_prev)[0]
    return handed[0]


class TestDObjectiveJacobians:
    """The closed-form Jacobian each d objective's fit hands its solver,
    against central differences of the objective's residuals, on random
    days and parameters. Clamped quotes (sigma_d <= 0) and skipped ones (a
    zero model or quoted price under a log: noise floors vols at 1e-4)
    are included."""

    @staticmethod
    def residuals(target, x):
        params = SabrParams(sigma0=x[1], nu=x[0], rho=x[2])
        diff, _ = target.residuals(params)
        clamped = _sigma_d_quote(_NUMPY, target.monomials, x[1], params).clamped
        return diff, clamped

    def check(self, day, objective, nu, sigma, rho):
        fun, jac = solver_functions(day, objective)
        target = calibration._DayObjective(day, objective, None)
        x = np.array([nu, sigma, rho])
        base, clamped = self.residuals(target, x)
        used = np.isfinite(base)
        if not used.any():
            return None
        got = jac(x, *fun(x)) * math.sqrt(np.count_nonzero(used))  # unscaled
        assert got.shape == (base.size, 3) and got.dtype == np.float64
        assert (got[~used | clamped] == 0.0).all()
        fd = np.empty_like(got)
        same = np.empty(got.shape, dtype=bool)
        for j, h in enumerate((1e-5, 1e-5 * sigma, 1e-5)):
            step = np.zeros(3)
            step[j] = h
            # a skipped row's differences are not finite: inf - inf
            with np.errstate(invalid="ignore"):
                if j == 0 and nu < h:  # nu >= 0: one-sided, second order
                    probes = [self.residuals(target, x + k * step) for k in range(3)]
                    (f0, _), (f1, _), (f2, _) = probes
                    fd[:, j] = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)
                else:
                    probes = [self.residuals(target, x + k * step) for k in (-1, 1)]
                    (lo, _), (hi, _) = probes
                    fd[:, j] = (hi - lo) / (2.0 * h)
            # rows used by every probe whose clamp flag no probe changes
            same[:, j] = used & np.logical_and.reduce(
                [np.isfinite(d) & (c == clamped) for d, c in probes]
            )
        # 1e-6 relative, or 1e-7 of the row's largest derivative: a
        # difference's truncation error scales with the row, not the entry
        row = np.maximum(1.0, np.abs(np.where(same, fd, 0.0)).max(axis=1, keepdims=True))
        ok = np.abs(got - fd) <= 1e-6 * np.abs(fd) + 1e-7 * row
        assert ok[same].all(), np.argwhere(same & ~ok)[:5]
        return used, clamped

    @given(
        nu=st.floats(0.0, 5.0),
        sigma=st.floats(0.01, 2.0),
        rho=st.floats(-0.99, 0.99),
        noise=st.sampled_from([0.0, 0.01, 0.3]),
        seed=st.integers(0, 2**16),
    )
    @example(nu=3.0, sigma=0.1, rho=0.9, noise=0.3, seed=5)
    def test_random_days(self, nu, sigma, rho, noise, seed):
        day = synth_panel(TRUE, 1, noise_level=noise, seed=seed)[0]
        for objective in ("sigma_d", "price_d", "log_price_d"):
            self.check(day, objective, nu, sigma, rho)

    def test_clamped_and_skipped_rows(self):
        # at these parameters some sigma_d are clamped; under the log, a
        # clamped out-of-the-money model price and a floored quote's price are 0
        day = synth_panel(TRUE, 1, noise_level=0.3, seed=5)[0]
        used, clamped = self.check(day, "log_price_d", 3.0, 0.1, 0.9)
        assert 0 < clamped.sum() and 0 < (~used).sum() < used.size
        used, clamped = self.check(day, "price_d", 3.0, 0.1, 0.9)
        assert 0 < clamped.sum() and used.all()


class TestSynthPanel:
    def test_shape(self):
        days = synth_panel(TRUE, 3)
        assert len(days) == 3
        assert all(len(d.option_type) == 2 * len(PANEL_EXPIRY_MONTHS) * len(PANEL_DELTAS)
                   for d in days)
        assert [d.day for d in days] == [1, 2, 3]

    def test_noise_seeded(self):
        a = synth_panel(TRUE, 1, noise_level=0.01, seed=4)[0]
        b = synth_panel(TRUE, 1, noise_level=0.01, seed=4)[0]
        c = synth_panel(TRUE, 1, noise_level=0.01, seed=5)[0]
        np.testing.assert_array_equal(a.implied_vol, b.implied_vol)
        assert (a.implied_vol != c.implied_vol).all()

    def test_quotes_match_series_vol(self):
        day = synth_panel(TRUE, 1)[0]
        assert day.implied_vol[0] == pytest.approx(
            sigma_d(day.moneyness[0], day.expiry[0], TRUE).value
        )

    def test_negative_noise_rejected(self):
        with pytest.raises(DomainError):
            synth_panel(TRUE, 1, noise_level=-0.1)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="^seed must be nonnegative, got -1$"):
            synth_panel(TRUE, 1, seed=-1)

    @pytest.mark.parametrize("noise", [float("nan"), float("inf"), -0.1])
    def test_noise_level_named(self, noise):
        # a NaN or inf noise reached QuoteDay's implied_vol check and was
        # reported as a bad implied vol
        message = f"^noise_level must be nonnegative and finite, got {noise}$"
        with pytest.raises(DomainError, match=message):
            synth_panel(TRUE, 1, noise_level=noise)

    @pytest.mark.parametrize("quote_with", ["moneynes", "Delta", ""])
    def test_unknown_quote_with_rejected(self, quote_with):
        # any string but "moneyness" used to give delta-quoted days
        message = f"^quote_with must be 'moneyness' or 'delta', got {quote_with!r}$"
        with pytest.raises(DomainError, match=message):
            synth_panel(TRUE, 1, quote_with=quote_with)

    def test_quote_with_selects_the_coordinate(self):
        by_moneyness = synth_panel(TRUE, 1, quote_with="moneyness")[0]
        by_delta = synth_panel(TRUE, 1, quote_with="delta")[0]
        assert by_moneyness.delta is None and by_moneyness.moneyness is not None
        assert by_delta.moneyness is None and by_delta.delta is not None
        np.testing.assert_array_equal(by_moneyness.implied_vol, by_delta.implied_vol)

    @pytest.mark.parametrize("n_days", [0, -3])
    def test_panel_needs_a_day(self, n_days):
        message = f"^a panel needs at least one day, got n_days = {n_days}$"
        with pytest.raises(DomainError, match=message):
            synth_panel(TRUE, n_days)

    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
    def test_non_integer_days_or_seed_rejected(self, value):
        # synth_panel(p, 2.5) and synth_panel(p, True) raised numpy's TypeError
        with pytest.raises(DomainError, match=f"^n_days must be an integer, got {value!r}$"):
            synth_panel(TRUE, value)
        with pytest.raises(DomainError, match=f"^seed must be an integer, got {value!r}$"):
            synth_panel(TRUE, 1, seed=value)

    def test_numpy_integers_accepted(self):
        days = synth_panel(TRUE, np.int64(2), noise_level=0.01, seed=np.int32(3))
        want = synth_panel(TRUE, 2, noise_level=0.01, seed=3)
        assert len(days) == 2
        for got, day in zip(days, want):
            np.testing.assert_array_equal(got.implied_vol, day.implied_vol)


class TestFitDay:
    def test_recovers_generator(self):
        day = synth_panel(TRUE, 1)[0]
        res = calibrate_panel([day], (1.0, 0.25, -0.3), "sigma_d")[0]
        assert res.converged
        assert abs(res.nu - TRUE.nu) <= 1e-3
        assert abs(res.sigma - TRUE.sigma0) <= 1e-3
        assert abs(res.rho - TRUE.rho) <= 1e-3
        assert res.ise <= 1e-6

    def test_init_clipped_into_bounds(self):
        day = synth_panel(TRUE, 1)[0]
        res = calibrate_panel([day], (10.0, 3.0, -2.0), "sigma_d")[0]
        assert 0.0 <= res.nu <= 5.0
        assert -0.99 <= res.rho <= 0.99

    @staticmethod
    def check_nfev(monkeypatch, objective, day_index=0):
        calls = []
        residuals = calibration._DayObjective.residuals

        def counted(*args):
            calls.append(1)
            return residuals(*args)

        monkeypatch.setattr(calibration._DayObjective, "residuals", counted)
        day = synth_panel(TRUE, 2, noise_level=0.01, seed=5)[day_index]
        res = calibrate_panel([day], (1.0, 0.25, -0.3), objective)[0]
        assert res.converged
        # every evaluation is the solver's: the ISE is read from its last
        assert 0 < res.nfev < 100
        assert len(calls) == res.nfev

    @pytest.mark.parametrize("day_index", [0, 1])
    def test_nfev_counts_objective_evaluations(self, monkeypatch, day_index):
        self.check_nfev(monkeypatch, "sigma_d", day_index)

    def test_nfev_counts_finite_difference_probes(self, monkeypatch):
        # price_h has no closed-form Jacobian: its difference probes count
        self.check_nfev(monkeypatch, "price_h")

    def test_one_least_squares_run_from_the_clipped_start(self, monkeypatch):
        least_squares = calibration._least_squares
        runs = []

        def recorded(fun, jac, x):
            calls = []

            def counted(x):
                calls.append(1)
                return fun(x)

            runs.append((x.copy(), least_squares(counted, jac, x), calls))
            return runs[-1][1]

        monkeypatch.setattr(calibration, "_least_squares", recorded)
        day = synth_panel(TRUE, 1, noise_level=0.01, seed=5)[0]
        res = calibrate_panel([day], (10.0, 0.25, -2.0), "sigma_d")[0]
        assert len(runs) == 1
        start, (x, _, converged), calls = runs[0]
        np.testing.assert_array_equal(start, [5.0, 0.25, -0.99])
        assert res.params == tuple(x) and res.converged == converged
        # sigma_d has a closed-form Jacobian: every evaluation is the solver's
        assert res.nfev == len(calls)

    def test_max_iter_stop_is_not_converged(self, monkeypatch):
        # a run capped at 2 residual evaluations stops before it converges
        monkeypatch.setattr(calibration, "_MAX_NFEV", 2)
        day = synth_panel(TRUE, 1, noise_level=0.01, seed=5)[0]
        for objective in ("sigma_d", "price_h"):
            res = calibrate_panel([day], (1.0, 0.25, -0.3), objective)[0]
            assert not res.converged
            assert all(math.isfinite(v) for v in (*res.params, res.ise))
            assert res.n_skipped == 0

    @pytest.mark.parametrize("objective", ["sigma_d", "price_h", "log_price_sa2"])
    @pytest.mark.parametrize("start", [(10.0, 3.0, -2.0), (-1.0, 0.001, 2.0), (6.0, 0.005, 1.5)])
    def test_result_stays_in_the_box_from_starts_outside_it(self, objective, start):
        day = synth_panel(TRUE, 1, noise_level=0.01, seed=5)[0]
        res = calibrate_panel([day], start, objective)[0]
        for lo, got, hi in zip(calibration._LOWER, res.params, calibration._UPPER):
            assert lo <= got <= hi

    def test_all_quotes_clamped_neither_raises_nor_leaves_the_box(self):
        # sigma_d is clamped to its floor at both quotes, so every row of the
        # Jacobian is zero and so is each column: the run takes no step
        day = QuoteDay(
            day=1, option_type=("C", "P"), expiry=[2.0, 3.0], implied_vol=[0.2, 0.2],
            moneyness=[-0.2, 0.2],
        )
        start = (5.0, 0.01, -0.99)
        params = SabrParams(sigma0=0.01, nu=5.0, rho=-0.99)
        assert _sigma_d_quote(_NUMPY, monomials(day, None), 0.01, params).clamped.all()
        res = calibrate_panel([day], start, "sigma_d")[0]
        assert res.converged and res.params == start
        assert res.n_skipped == 0 and res.nfev == 1

    def test_start_the_model_rejects_is_not_converged(self):
        # the Hagan vol is negative here, so price_h raises DomainError
        day = synth_panel(TRUE, 1, noise_level=0.01, seed=5)[0]
        start = (5.0, 0.05, 0.99)
        with pytest.raises(DomainError, match="the Hagan vol is negative at vol = -"):
            objective_value(day, SabrParams(0.05, 5.0, 0.99), "price_h")
        res = calibrate_panel([day], start, "price_h")[0]
        assert not res.converged
        assert res.params == start
        assert res.ise == math.inf and res.n_skipped == len(day.option_type)
        assert res.nfev == 1

    @pytest.mark.parametrize("objective", ["price_d", "log_price_sa2"])
    def test_quoted_prices_c_rel_rejects_fail_the_fit(self, objective):
        # e^800 overflows, so the day's quoted prices cannot be formed
        day = QuoteDay(
            day=1, option_type=("C", "C"), expiry=[1.0, 1.0], implied_vol=[0.2, 0.2],
            moneyness=[0.1, 800.0],
        )
        start = (0.5, 0.2, -0.3)
        with pytest.raises(DomainError, match="e\\^y is a float, got 800.0"):
            objective_value(day, SabrParams(0.2, 0.5, -0.3), objective)
        res = calibrate_panel([day], start, objective)[0]
        assert not res.converged
        assert res.params == start
        assert res.ise == math.inf and res.n_skipped == 2
        assert res.nfev == 1

    @pytest.mark.parametrize(
        "objective", [o for o in OBJECTIVES if calibration._OBJECTIVE_TABLE[o][0] in ("d", "h")]
    )
    def test_kappa0_without_mean_reversion_raises_before_the_fit(self, monkeypatch, objective):
        def no_fit(*args, **kwargs):
            raise AssertionError("started a fit")

        monkeypatch.setattr(calibration, "_least_squares", no_fit)
        day = synth_panel(TRUE, 1)[0]
        with pytest.raises(DomainError, match="only available for kappa0 = 0, got kappa0 = 0.5"):
            calibrate_panel([day], (1.0, 0.25, -0.3), objective, kappa0=0.5)[0]
        with pytest.raises(DomainError, match="only available for kappa0 = 0"):
            calibrate_panel([day], (1.0, 0.25, -0.3), objective, kappa0=0.5)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(kappa0=-1.0), "kappa0 must be nonnegative, got -1.0"),
            (dict(kappa0=1.0, theta=-0.1), "theta must be nonnegative, got -0.1"),
            (dict(theta=math.nan), "theta must be finite, got nan"),
        ],
    )
    def test_bad_kappa0_or_theta_raises_before_the_fit(self, monkeypatch, kwargs, message):
        def no_fit(*args, **kwargs):
            raise AssertionError("started a fit")

        monkeypatch.setattr(calibration, "_least_squares", no_fit)
        day = synth_panel(TRUE, 1)[0]
        with pytest.raises(DomainError, match=message):
            calibrate_panel([day], (1.0, 0.25, -0.3), "price_sa2", **kwargs)[0]

    @pytest.mark.parametrize("objective", ["price_sa2", "log_price_sa2"])
    def test_kappa0_and_theta_reach_every_sa2_objective(self, objective):
        day = synth_panel(TRUE, 1, noise_level=0.01, seed=5)[0]
        start = (1.0, 0.25, -0.3)
        res = calibrate_panel([day], start, objective, kappa0=1.0, theta=0.2)[0]
        assert res.params != calibrate_panel([day], start, objective)[0].params

    def test_start_with_no_usable_quote_is_not_converged(self):
        # sigma_d is clamped to its floor at the start, so the out-of-the-
        # money price is 0 and its log is not finite
        day = QuoteDay(
            day=1, option_type=("C",), expiry=[2.0], implied_vol=[0.2], moneyness=[-0.2]
        )
        start = (5.0, 0.01, -0.99)
        params = SabrParams(sigma0=0.01, nu=5.0, rho=-0.99)
        assert objective_value(day, params, "log_price_d") == math.inf
        res = calibrate_panel([day], start, "log_price_d")[0]
        assert not res.converged
        assert res.params == start
        assert res.ise == math.inf and res.n_skipped == 1
        assert res.nfev == 1

    def test_quote_whose_y_squared_overflows_is_skipped_without_a_warning(self):
        # y^2 = 1e400 is inf in the monomials, sigma_d and its Jacobian; the
        # suite turns numpy's overflow and invalid-value warnings into errors
        day = QuoteDay(1, ("C", "C", "P", "C"), [1.0, 0.5, 1.0, 2.0], [0.2, 0.21, 0.2, 0.22],
                       moneyness=[0.1, -0.2, 1e200, 0.3])
        res = calibrate_panel([day], (1.0, 0.25, -0.3), "sigma_d")[0]
        assert res.converged and res.n_skipped == 1 and res.nfev == 6
        assert res.ise <= 1e-12

    @pytest.mark.parametrize("objective", ["sigma_d", "price_d", "log_price_d"])
    def test_negative_y_whose_square_overflows_is_skipped_under_each_d_objective(self, objective):
        # y = -1e200 gives sigma_d = inf; a price objective prices only the
        # finite sigma_d values, so the quote is skipped without a warning
        day = QuoteDay(1, ("C", "C", "P", "C"), [1.0, 0.5, 1.0, 2.0], [0.2, 0.21, 0.2, 0.22],
                       moneyness=[0.1, -0.2, -1e200, 0.3])
        res = calibrate_panel([day], (1.0, 0.25, -0.3), objective)[0]
        assert res.converged and res.n_skipped == 1

    def test_unknown_objective_is_an_error(self):
        day = synth_panel(TRUE, 1)[0]
        with pytest.raises(DomainError, match="unknown objective"):
            calibrate_panel([day], (1.0, 0.25, -0.3), "vega_weighted")[0]

    def test_out_of_sample_from_truth(self):
        # day 1 is quoted from the truth without noise, so its fit is the
        # truth, and day 2's OSE is the RMS error of its noisy quotes under it
        days = [synth_panel(TRUE, 1)[0], synth_panel(TRUE, 2, noise_level=0.01, seed=6)[1]]
        fit, today = calibrate_panel(days, (1.0, 0.25, -0.3), "sigma_d")
        yesterday = SabrParams(sigma0=fit.sigma, nu=fit.nu, rho=fit.rho)
        assert today.ose == math.sqrt(objective_value(days[1], yesterday, "sigma_d"))
        # yesterday's truth explains today's quotes up to the noise level
        assert 0.005 <= today.ose <= 0.02


def recorded(fun):
    """fun in _least_squares's protocol: the residuals, with x as the record."""
    return lambda x: (fun(x), x.copy())


def forward(fun):
    """_least_squares's jac argument: forward differences of recorded(fun),
    handed the record of the point it is asked at."""

    def jac(x, r, record):
        np.testing.assert_array_equal(record, x)
        return calibration._forward_jacobian(recorded(fun), x, r)

    return jac


class TestLeastSquares:
    """The fit's solver on small residual functions of x = (nu, sigma, rho),
    from starts inside the box."""

    def test_stops_at_the_box(self):
        # the unconstrained minimum (7, 0.3, -2) lies outside the box
        def fun(x):
            return x - np.array([7.0, 0.3, -2.0])

        x, record, converged = calibration._least_squares(
            recorded(fun), forward(fun), np.array([1.0, 0.2, 0.0])
        )
        np.testing.assert_array_equal(record, x)
        # the run stops once a step would be shorter than 1e-8 (1e-8 + |x|)
        assert converged
        np.testing.assert_allclose(x, [5.0, 0.3, -0.99], rtol=0.0, atol=1e-7)

    def test_zero_jacobian_column_takes_no_step(self):
        # sigma is not in the residuals, so its Jacobian column is zero
        def fun(x):
            return np.array([x[0] - 1.0, x[2] + 0.5])

        x, _, converged = calibration._least_squares(
            recorded(fun), forward(fun), np.array([2.0, 0.3, 0.5])
        )
        assert converged and x[1] == 0.3
        np.testing.assert_allclose(x[[0, 2]], [1.0, -0.5], rtol=0.0, atol=1e-7)

    def test_non_finite_residuals_are_rejected_steps(self):
        # past nu = 2 the residuals are inf, so every step across it is
        # rejected until the steps are too short to matter
        def fun(x):
            return np.array([x[0] - 3.0 if x[0] <= 2.0 else math.inf])

        def jac(x, r, record):
            return np.array([[1.0, 0.0, 0.0]])

        x, _, converged = calibration._least_squares(recorded(fun), jac, np.array([1.0, 0.2, 0.0]))
        assert converged
        assert 2.0 - 1e-7 <= x[0] <= 2.0 and (x[1], x[2]) == (0.2, 0.0)

    def test_non_finite_jacobian_ends_the_run_unconverged(self, monkeypatch):
        # no step can be formed: the run ends at the start, with one
        # evaluation and no linear solve
        calls, solves = [], []
        solve = np.linalg.solve

        def counted_solve(*args):
            solves.append(1)
            return solve(*args)

        def fun(x):
            calls.append(1)
            return np.array([x[0] - 3.0])

        def jac(x, r, record):
            return np.full((1, 3), np.nan)

        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        start = np.array([1.0, 0.2, 0.0])
        x, _, converged = calibration._least_squares(recorded(fun), jac, start.copy())
        assert not converged and len(calls) == 1 and not solves
        np.testing.assert_array_equal(x, start)

    @pytest.mark.parametrize(
        "fun, minimum",
        [
            # nu at its upper bound: the free rho and sigma are coupled to it
            (lambda x: np.array([x[0] - 10.0, x[2] + 0.1 * x[0] - 1.0, x[1] + 0.2 * x[2] - 0.4]),
             (5.0, 0.3, 0.5)),
            # rho at its lower bound, nu coupled to it
            (lambda x: np.array([x[2] + 2.0, x[0] - 1.0 - 0.5 * x[2], x[1] - 0.2]),
             (0.505, 0.2, -0.99)),
            # nu and rho on bounds, sigma coupled to both
            (lambda x: np.array([x[0] - 10.0, x[2] + 2.0, x[1] - 0.1 * x[0] + 0.3 * x[2]]),
             (5.0, 0.797, -0.99)),
        ],
        ids=["nu_upper", "rho_lower", "nu_and_rho"],
    )
    @pytest.mark.parametrize("start", [(1.0, 0.25, 0.0), (4.5, 1.5, 0.9), (0.1, 0.05, -0.9)])
    def test_coupled_minimum_on_a_bound(self, fun, minimum, start):
        # the unconstrained step pushes a bound parameter out of the box:
        # it stays on its bound and the others solve their own system.
        # Measured: within 8e-10 of the minimum from every start.
        x, _, converged = calibration._least_squares(recorded(fun), forward(fun), np.array(start))
        assert converged
        np.testing.assert_allclose(x, minimum, rtol=0.0, atol=1e-8)

    def test_start_with_no_finite_residual_returns_at_once(self):
        calls = []

        def fun(x):
            calls.append(1)
            return np.full(2, np.inf), None

        def jac(x, r, record):
            raise AssertionError("asked for a Jacobian")

        start = np.array([1.0, 0.2, 0.0])
        x, record, converged = calibration._least_squares(fun, jac, start.copy())
        assert (record, converged, len(calls)) == (None, False, 1)
        np.testing.assert_array_equal(x, start)

    def test_start_whose_sum_of_squares_overflows_is_fitted(self):
        # r @ r is inf at the start, but its residuals are finite: the run
        # steps away from it instead of ending there
        def fun(x):
            return np.array([x[0] - 1.0, 1e155 if x[0] > 4.5 else 0.0])

        def jac(x, r, record):
            return np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

        start = np.array([5.0, 0.2, 0.0])
        with np.errstate(over="ignore"):
            assert fun(start) @ fun(start) == math.inf
        # the solver's r @ r overflows without a warning
        x, record, converged = calibration._least_squares(recorded(fun), jac, start)
        assert converged and abs(x[0] - 1.0) <= 1e-7
        np.testing.assert_array_equal(record, x)

    def test_forward_jacobian_steps_back_at_the_upper_bound(self):
        x = np.array([5.0, 0.2, 0.99])
        probes = []

        def fun(x):
            probes.append(x.copy())
            return np.array([x[0] ** 2, x[1] ** 2, x[2] ** 2])

        jac = calibration._forward_jacobian(recorded(fun), x, fun(x))
        steps = np.array(probes[1:]) - x
        h = math.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(x))
        np.testing.assert_allclose(np.diag(steps), [-h[0], h[1], -h[2]], rtol=1e-7)
        np.testing.assert_allclose(np.diag(jac), 2.0 * x, rtol=1e-7)


class TestScipyReference:
    """One-day fits against scipy's trust-region reflective least_squares,
    run here on the objectives as written from the public model functions,
    to a 1e-15 stop. Measured on these days: the parameters agree to 1.7e-7
    (log_price_h; 6.8e-8 or closer for the other objectives) and the ISE to
    1.5e-14 relative."""

    DAYS = synth_panel(TRUE, 3, noise_level=0.01, seed=5)
    START = (1.0, 0.25, -0.3)

    @staticmethod
    def reference_fit(day, objective, kappa0):
        from scipy.optimize import least_squares

        y, t = day.moneyness, day.expiry
        model, quantity = calibration._OBJECTIVE_TABLE[objective]

        def residuals(x):
            params = SabrParams(sigma0=x[1], nu=x[0], rho=x[2], kappa0=kappa0, theta=0.2)
            if quantity == "vol":
                got, want = vol_fn_for_model(model, params)(y, t), day.implied_vol
            else:
                got = price_fn_for_model(model, params)(y, x[1], t)
                want = c_rel(y, day.implied_vol, t)
            if quantity == "log price":
                got, want = np.log(got), np.log(want)
            return (got - want) / math.sqrt(y.size)

        bounds = (calibration._LOWER, calibration._UPPER)
        tol = dict(xtol=1e-15, ftol=1e-15, gtol=1e-15)
        res = least_squares(residuals, TestScipyReference.START, bounds=bounds, **tol)
        assert res.success
        return res.x, math.sqrt(2.0 * res.cost)

    @pytest.mark.parametrize(
        "objective, kappa0",
        [*((o, 0.0) for o in OBJECTIVES),
         *((o, 1.0) for o in ("price_sa2", "log_price_sa2"))],
    )
    def test_agrees_with_scipy(self, objective, kappa0):
        for day in self.DAYS:
            res = calibrate_panel([day], self.START, objective, kappa0=kappa0, theta=0.2)[0]
            x, ise = self.reference_fit(day, objective, kappa0)
            assert res.converged and res.n_skipped == 0
            np.testing.assert_allclose(res.params, x, rtol=0.0, atol=1e-6)
            assert res.ise == pytest.approx(ise, rel=1e-12)

    @pytest.mark.parametrize(
        "rho, objective", [(-0.999, "sigma_h"), (0.995, "price_d"), (0.995, "log_price_sa2")]
    )
    def test_agrees_with_scipy_with_rho_on_a_bound(self, rho, objective):
        # quotes generated past the box's rho: some day's fitted rho lies on
        # the bound, with nu and sigma still free. Measured: parameters
        # within 1.9e-8 (price_d), ISE within 5.3e-15 relative.
        days = synth_panel(SabrParams(sigma0=0.19, nu=1.3, rho=rho), 2, noise_level=0.01, seed=5)
        fits = [calibrate_panel([day], self.START, objective)[0] for day in days]
        assert any(abs(res.rho) == 0.99 for res in fits)
        for day, res in zip(days, fits):
            x, ise = self.reference_fit(day, objective, 0.0)
            assert res.converged and res.n_skipped == 0
            np.testing.assert_allclose(res.params, x, rtol=0.0, atol=1e-6)
            assert res.ise == pytest.approx(ise, rel=1e-12)


    @pytest.mark.parametrize("objective", ["price_d", "log_price_d"])
    def test_d_prices_agree_with_scipy_on_the_jacobian_panel(self, objective):
        # the panel of TestJacobianCost, where the fits use closed-form
        # Jacobians. Measured: parameters within 7.1e-8 (log_price_d), ISE
        # within 3.3e-14 relative.
        for day in TestJacobianCost.DAYS[::10]:
            res = calibrate_panel([day], self.START, objective)[0]
            x, ise = self.reference_fit(day, objective, 0.0)
            assert res.converged and res.n_skipped == 0
            np.testing.assert_allclose(res.params, x, rtol=0.0, atol=1e-6)
            assert res.ise == pytest.approx(ise, rel=1e-12)


# the residual evaluations of 30 fits per objective on TestJacobianCost's
# panel, recorded when every objective but sigma_d used forward differences
FORWARD_DIFFERENCE_NFEV = {
    "sigma_d": 114,
    "sigma_h": 960,
    "price_d": 682,
    "price_h": 1036,
    "price_sa2": 513,
    "log_price_d": 991,
    "log_price_h": 1014,
    "log_price_sa2": 620,
}


class TestJacobianCost:
    """A 30-day panel, each day fitted from the generator: the d price
    objectives' closed-form Jacobians take fewer residual evaluations than
    forward differences did, and no other objective's count moves."""

    GENERATOR = SabrParams(sigma0=0.25, nu=0.4, rho=-0.3)
    DAYS = synth_panel(GENERATOR, 30, noise_level=0.002, seed=7)

    def test_pins_cover_every_objective(self):
        assert set(FORWARD_DIFFERENCE_NFEV) == set(OBJECTIVES)

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_evaluations_per_fit(self, objective):
        start = (self.GENERATOR.nu, self.GENERATOR.sigma0, self.GENERATOR.rho)
        fits = [calibrate_panel([day], start, objective)[0] for day in self.DAYS]
        assert all(res.converged and res.n_skipped == 0 for res in fits)
        nfev = sum(res.nfev for res in fits)
        if objective in ("price_d", "log_price_d"):
            # measured: 122 and 131, about 4 a fit against 23 and 33
            assert nfev <= 5 * len(fits) < FORWARD_DIFFERENCE_NFEV[objective]
        else:
            assert nfev == FORWARD_DIFFERENCE_NFEV[objective]


# the calib benchmark's panel: 64 delta-quoted days, noise 0.01
BENCH_PANEL = dict(noise_level=0.01, seed=20181224, quote_with="delta")

# (day, start = the day before's fit as the result CSV prints it, and the
# fitted nu, sigma, rho and ISE recorded with the per-point sigma_d objective
# this one replaced)
PINNED_FITS = [
    (
        2,
        (1.275124122, 0.1909684389, -0.5568006213),
        (1.311731301847395, 0.18880647711560047, -0.542705987178935, 0.00940434615569585),
    ),
    (
        33,
        (1.321965266, 0.1895707108, -0.5614953089),
        (1.254405000585349, 0.19157620095593386, -0.564870643670938, 0.00950016511869016),
    ),
    (
        64,
        (1.265794436, 0.190673131, -0.5657924529),
        (1.3007180826635496, 0.18983254679128336, -0.5423927495772274, 0.0099153086797447),
    ),
]


# one noisy day fitted from (1.0, 0.25, -0.3) with every objective, and
# with price_sa2 at kappa0 = 1, theta = 0.2: (nu, sigma, rho, ISE) recorded
# with the Nelder-Mead search that least squares replaced
NELDER_MEAD_FITS = {
    "sigma_d": (1.303908960316044, 0.18854318027432038, -0.5336217924485057, 0.00961738561855491),
    "sigma_h": (1.2840399386206358, 0.1904779361903875, -0.5825602451038457, 0.010397733659868976),
    "price_d": (1.313532194067487, 0.1885260719332345, -0.5356620486051904, 0.002942270962355797),
    "price_h": (1.3066925431319816, 0.1917387690063732, -0.5840769170356397, 0.0032485912541911554),
    "price_sa2": (1.3156376047689315, 0.19109336788925668, -0.5706240370520106, 0.0031238680113840913),
    "log_price_d": (1.2593939129552474, 0.18851849745813037, -0.5347410726048583, 0.08297114054498539),
    "log_price_h": (1.0964078180461918, 0.19006261957477288, -0.5815513315759042, 0.08890221124324259),
    "log_price_sa2": (1.0990553465184747, 0.189541432854503, -0.5584520511466902, 0.08869999326461019),
}
NELDER_MEAD_KAPPA_FIT = (
    0.8792496495621507, 0.20670945392811196, -0.7191762189511901, 0.006636058654634641
)


class TestEveryObjective:
    DAY = synth_panel(TRUE, 1, noise_level=0.01, seed=5)[0]

    def test_pins_cover_every_objective(self):
        assert set(NELDER_MEAD_FITS) == set(OBJECTIVES)

    def check(self, objective, want, **kwargs):
        res = calibrate_panel([self.DAY], (1.0, 0.25, -0.3), objective, **kwargs)[0]
        assert res.converged and res.n_skipped == 0
        for got, pinned in zip(res.params, want[:3]):
            assert abs(got - pinned) <= 1e-6
        assert res.ise <= want[3] * (1.0 + 1e-9)

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_matches_nelder_mead(self, objective):
        self.check(objective, NELDER_MEAD_FITS[objective])

    def test_matches_nelder_mead_with_mean_reversion(self):
        self.check("price_sa2", NELDER_MEAD_KAPPA_FIT, kappa0=1.0, theta=0.2)


class TestPinnedFits:
    @pytest.fixture(scope="class")
    def panel(self):
        return synth_panel(TRUE, 64, **BENCH_PANEL)

    @pytest.mark.parametrize("day, start, want", PINNED_FITS)
    def test_benchmark_panel_fit(self, panel, tmp_path, day, start, want):
        # through the quote CSV, as `sabrkit calibrate --quotes` reads it
        path = str(tmp_path / "quotes.csv")
        write_quotes_csv(path, [panel[day - 1]])
        (quotes,) = read_quotes_csv(path)
        res = calibrate_panel([quotes], start, "sigma_d", sigma_prev0=start[1])[0]
        assert res.converged and res.n_skipped == 0
        for got, pinned in zip(res.params, want[:3]):
            assert abs(got - pinned) <= 1e-8
        assert res.ise == pytest.approx(want[3], rel=1e-9)

    def test_benchmark_panel_chain_is_pinned(self, panel, tmp_path):
        # the 64-day sigma_d chain through the quote CSV, as the calib
        # benchmark runs it a window at a time. The hash was recorded with
        # the row-wise reader and a solver that formed the free parameters'
        # system at every step: reading and solving must not move a bit.
        path = str(tmp_path / "panel.csv")
        write_quotes_csv(path, panel)
        results = calibrate_panel(
            read_quotes_csv(path), (1.0, 0.25, -0.3), "sigma_d", sigma_prev0=0.19
        )
        text = repr([(r.nu, r.sigma, r.rho, r.ise, r.ose, r.nfev, r.converged) for r in results])
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "9c1230f4567d63e5c3f7c6ebb4a9fb2f0b603895df7d7952a39bd5a726f8036a"


class TestPanel:
    def test_calibrate_panel_needs_a_day(self):
        with pytest.raises(DomainError, match="^a panel needs at least one quote day$"):
            calibrate_panel([], (1.0, 0.25, -0.3), "sigma_d")

    def test_warm_start_chain(self):
        days = synth_panel(TRUE, 3, noise_level=0.005, seed=8)
        results = calibrate_panel(days, (1.0, 0.25, -0.3), "sigma_d")
        assert len(results) == 3
        assert math.isnan(results[0].ose)
        for res in results[1:]:
            assert res.ose >= res.ise * 0.5  # same noise scale
        nus = [r.nu for r in results]
        assert all(abs(n - TRUE.nu) <= 0.2 for n in nus)

    def test_day_whose_quoted_prices_cannot_be_formed_has_inf_ose(self):
        # e^800 overflows, so day 2's quoted prices cannot be formed: its fit
        # is flagged, and its OSE under day 1's parameters is inf, not an error
        good = synth_panel(TRUE, 1)[0]
        bad = QuoteDay(
            day=2, option_type=("C", "C"), expiry=[1.0, 1.0], implied_vol=[0.2, 0.2],
            moneyness=[0.1, 800.0],
        )
        first, second = calibrate_panel([good, bad], (1.0, 0.25, -0.3), "price_d")
        assert first.converged and math.isnan(first.ose)
        assert not second.converged and second.params == first.params
        assert second.ise == second.ose == math.inf and second.n_skipped == 2

    def test_ose_exceeds_ise_on_average(self):
        days = synth_panel(TRUE, 6, noise_level=0.01, seed=12)
        results = calibrate_panel(days, (1.0, 0.25, -0.3), "sigma_d")
        ise = np.mean([r.ise for r in results])
        ose = np.mean([r.ose for r in results[1:]])
        assert ose >= ise


class TestFitRecord:
    """A fit's ISE, n_skipped and OSE are read from its own evaluations:
    they equal objective_value at the fitted point and at the day before's
    parameters, bit for bit, and nfev counts every evaluation of a day."""

    DAYS = synth_panel(TRUE, 3, noise_level=0.01, seed=5)
    START = (1.0, 0.25, -0.3)
    CASES = [(o, {}) for o in OBJECTIVES] + [
        (o, dict(kappa0=1.0, theta=0.2)) for o in ("price_sa2", "log_price_sa2")
    ]

    @staticmethod
    def params(res, kwargs):
        return SabrParams(sigma0=res.sigma, nu=res.nu, rho=res.rho, **kwargs)

    @pytest.mark.parametrize("objective, kwargs", CASES)
    def test_ise_and_ose_are_objective_value(self, objective, kwargs):
        res = calibrate_panel([self.DAYS[0]], self.START, objective, **kwargs)[0]
        fitted = self.params(res, kwargs)
        assert res.ise == math.sqrt(objective_value(self.DAYS[0], fitted, objective))
        results = calibrate_panel(self.DAYS, self.START, objective, **kwargs)
        assert results[0] == res
        for day, yesterday, today in zip(self.DAYS[1:], results, results[1:]):
            before = self.params(yesterday, kwargs)
            assert today.ose == math.sqrt(objective_value(day, before, objective))
            after = self.params(today, kwargs)
            assert today.ise == math.sqrt(objective_value(day, after, objective))

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_a_panel_evaluates_sum_of_nfev(self, monkeypatch, objective):
        calls = []
        residuals = calibration._DayObjective.residuals

        def counted(*args):
            calls.append(1)
            return residuals(*args)

        monkeypatch.setattr(calibration._DayObjective, "residuals", counted)
        results = calibrate_panel(self.DAYS, self.START, objective)
        assert all(res.nfev > 0 for res in results)
        assert len(calls) == sum(res.nfev for res in results)

    def test_start_with_no_finite_quote(self, monkeypatch):
        # day 2's quoted prices cannot be formed (e^800 overflows) and day
        # 3's only quote has a zero model price under the log at the start
        calls = []
        residuals = calibration._DayObjective.residuals

        def counted(*args):
            calls.append(1)
            return residuals(*args)

        good = self.DAYS[0]
        bad = QuoteDay(
            day=2, option_type=("C", "C"), expiry=[1.0, 1.0], implied_vol=[0.2, 0.2],
            moneyness=[0.1, 800.0],
        )
        clamped = QuoteDay(
            day=3, option_type=("C",), expiry=[2.0], implied_vol=[0.2], moneyness=[-0.2]
        )
        monkeypatch.setattr(calibration._DayObjective, "residuals", counted)
        for days, start, objective in [
            ([good, bad], self.START, "price_d"),
            ([clamped, clamped], (5.0, 0.01, -0.99), "log_price_d"),
        ]:
            calls.clear()
            results = calibrate_panel(days, start, objective)
            last = results[-1]
            assert last.nfev == 1 and not last.converged
            assert last.ise == last.ose == math.inf
            assert last.n_skipped == days[-1].implied_vol.size
            assert len(calls) == sum(res.nfev for res in results)


class TestCsv:
    def test_quote_round_trip(self, tmp_path):
        days = synth_panel(TRUE, 2, noise_level=0.01, seed=1, quote_with="delta")
        path = str(tmp_path / "quotes.csv")
        write_quotes_csv(path, days)
        back = read_quotes_csv(path)
        assert [d.day for d in back] == [1, 2]
        for a, b in zip(days, back):
            assert b.option_type == a.option_type and b.moneyness is None
            np.testing.assert_array_equal(b.delta, a.delta)
            np.testing.assert_array_equal(b.implied_vol, a.implied_vol)
            # expiry goes through months rounded to 10 digits
            np.testing.assert_allclose(b.expiry, a.expiry, rtol=1e-12)

    def test_interleaved_days(self, tmp_path):
        path = tmp_path / "interleaved.csv"
        path.write_text(
            "day,type,expiry_months,delta,implied_vol\n"
            "2,C,12,0.5,0.21\n"
            "1,P,6,0.3,0.22\n"
            "\n"
            "2,P,3,0.4,0.23\n"
            "1,C,24,0.6,0.24\n"
        )
        day1, day2 = read_quotes_csv(str(path))
        assert (day1.day, day2.day) == (1, 2)
        assert (day1.option_type, day2.option_type) == (("P", "C"), ("C", "P"))
        np.testing.assert_array_equal(day1.expiry, [6 / 12, 24 / 12])
        np.testing.assert_array_equal(day2.expiry, [12 / 12, 3 / 12])
        np.testing.assert_array_equal(day1.delta, [0.3, 0.6])
        np.testing.assert_array_equal(day2.implied_vol, [0.21, 0.23])

    def test_benchmark_panel_text_is_pinned(self, tmp_path):
        # the calib benchmark writes these days one file each; a change to
        # synth_panel's draws or to the writer's format changes the hash
        path = tmp_path / "panel.csv"
        write_quotes_csv(str(path), synth_panel(TRUE, 64, **BENCH_PANEL))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "57e2112cab6c2eef17c893ab8d11cf72bd34911a7c41aa8aa99f2a4fc608f0b0"

    def test_moneyness_panels_not_writable(self, tmp_path):
        days = synth_panel(TRUE, 1)
        with pytest.raises(DomainError):
            write_quotes_csv(str(tmp_path / "q.csv"), days)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("day,vol\n1,0.2\n")
        with pytest.raises(DomainError):
            read_quotes_csv(str(path))

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad_row.csv"
        path.write_text(
            "day,type,expiry_months,delta,implied_vol\n"
            "1,C,12,0.5,0.2\n"
            "1,C,12,1.7,0.2\n"
        )
        with pytest.raises(DomainError, match=":3:"):
            read_quotes_csv(str(path))

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,C,inf,0.4,0.2", "expiry must be positive and finite, got inf"),
            ("1,C,12,0.4,inf", "implied_vol must be positive and finite, got inf"),
            ("1,C,12,0.4,nan", "implied_vol must be positive and finite, got nan"),
            ("1,C,12,nan,0.2", "delta must lie in (0, 1), got nan"),
            ("1,X,12,0.4,0.2", "option_type must be 'C' or 'P', got 'X'"),
            ("1,C,12,0.4", "not enough values to unpack (expected 5, got 4)"),
            ("1,C,12,0.4,0.2,7", "too many values to unpack (expected 5)"),
            ("1.5,C,12,0.4,0.2", "invalid literal for int() with base 10: '1.5'"),
            ("1,C,12,x,0.2", "could not convert string to float: 'x'"),
        ],
    )
    def test_bad_field_names_line_and_value(self, tmp_path, row, message):
        # line 3 is the first bad line; line 4 breaks another rule
        path = tmp_path / "bad_row.csv"
        path.write_text(
            "day,type,expiry_months,delta,implied_vol\n"
            "2,C,12,0.5,0.2\n"
            f"{row}\n"
            "1,C,12,1.7,0.2\n"
        )
        want = f"^{re.escape(f'{path}:3: bad quote row: {message}')}$"
        with pytest.raises(DomainError, match=want):
            read_quotes_csv(str(path))

    def test_results_csv(self, tmp_path):
        # the result table as `sabrkit calibrate --format csv --out` writes it
        results = [
            CalibrationResult(day=1, objective="sigma_d", nu=1.3, sigma=0.19,
                              rho=-0.55, ise=1e-3),
            CalibrationResult(day=2, objective="sigma_d", nu=1.31, sigma=0.19,
                              rho=-0.54, ise=1e-3, ose=2e-3, converged=False),
        ]
        path = tmp_path / "results.csv"
        _emit(result_rows(results), RESULT_HEADER, argparse.Namespace(format="csv", out=path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "day,objective,nu,sigma,rho,ise,ose,flag"
        assert lines[1].endswith("ok")
        assert lines[2].endswith("flagged")


def read_row_wise(path):
    """The quote reader one row at a time: every row parsed in file order,
    then every row's values checked in file order, the first fault named
    by its line; then the rows grouped by day."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = []
        for row in reader:
            if not row:
                continue
            try:
                day, kind, months, delta, vol = row
                rows.append((reader.line_num, int(day), kind, *map(float, (months, delta, vol))))
            except ValueError as exc:
                raise DomainError(f"{path}:{reader.line_num}: bad quote row: {exc}") from exc
    by_day = {}
    for line, day, kind, months, delta, vol in rows:
        try:
            QuoteDay(day, (kind,), [months / 12.0], [vol], delta=[delta])
        except DomainError as exc:
            raise DomainError(f"{path}:{line}: bad quote row: {exc}") from exc
        by_day.setdefault(day, []).append((kind, months / 12.0, delta, vol))
    return [
        QuoteDay(day, *([q[k] for q in quotes] for k in (0, 1, 3)), delta=[q[2] for q in quotes])
        for day, quotes in sorted(by_day.items())
    ]


# rows that do not parse, then rows whose values a QuoteDay rejects
BAD_ROWS = [
    "1,C,12,0.4",
    "1,C,12,0.4,0.2,7",
    "1.5,C,12,0.4,0.2",
    "1,C,12,x,0.2",
    " ",
    "1,X,12,0.4,0.2",
    "2,C,12,1.7,0.2",
    "3,P,inf,0.4,0.2",
    "1,C,12,0.4,-0.2",
]


@st.composite
def quote_files(draw):
    """The text of a quote CSV: up to 12 quotes of days 1-4 interleaved,
    cells plain, quoted, or (numbers) quoted around a line break; blank
    lines; LF or CRLF endings; and in half the files up to three of
    BAD_ROWS at random lines."""
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        cells = [
            str(draw(st.integers(1, 4))),
            draw(st.sampled_from("CP")),
            repr(draw(st.floats(0.5, 36.0))),
            repr(draw(st.floats(0.001, 0.999))),
            repr(draw(st.floats(1e-4, 2.0))),
        ]
        forms = ["{}", '"{}"', '"{}' + newline + '"']  # the type cell takes the first two
        styles = [draw(st.sampled_from(forms[:2] if k == 1 else forms)) for k in range(5)]
        lines.append(",".join(style.format(c) for style, c in zip(styles, cells)))
    bad = draw(st.lists(st.sampled_from(BAD_ROWS), max_size=3)) if draw(st.booleans()) else []
    for extra in [""] * draw(st.integers(0, 3)) + bad:
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return newline.join([",".join(calibration.QUOTE_HEADER), *lines, ""])


class TestColumnarReader:
    """read_quotes_csv against the row-wise reading it replaced."""

    @given(text=quote_files())
    @example(text="day,type,expiry_months,delta,implied_vol\n"
                  "1,C,12,0.4,0.2\n1,X,12,0.4,0.2\n\n2,C,12,x,0.2\n")
    # the one fault is a row with a sixth cell
    @example(text="day,type,expiry_months,delta,implied_vol\n"
                  "1,C,12,0.4,0.2\n1,C,12,0.4,0.2,7\n1,P,12,0.4,0.2\n")
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_the_row_wise_reading(self, tmp_path, text):
        path = tmp_path / "quotes.csv"
        path.write_bytes(text.encode())
        try:
            want = read_row_wise(str(path))
        except DomainError as exc:
            with pytest.raises(DomainError, match=f"^{re.escape(str(exc))}$"):
                read_quotes_csv(str(path))
            return
        got = read_quotes_csv(str(path))
        assert [d.day for d in got] == [d.day for d in want]
        for a, b in zip(got, want):
            assert a.option_type == b.option_type and a.moneyness is None
            for name in ("expiry", "delta", "implied_vol"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_parse_fault_after_a_rule_fault_is_named(self, tmp_path):
        # line 3 breaks a QuoteDay rule, line 5 does not parse: parsing comes first
        path = tmp_path / "quotes.csv"
        path.write_text("day,type,expiry_months,delta,implied_vol\n"
                        "1,C,12,0.4,0.2\n1,X,12,0.4,0.2\n\n2,C,12,x,0.2\n")
        want = f"{path}:5: bad quote row: could not convert string to float: 'x'"
        with pytest.raises(DomainError, match=f"^{re.escape(want)}$"):
            read_quotes_csv(str(path))

    def test_quoted_line_breaks_move_the_named_line(self, tmp_path):
        # a quoted cell spanning two lines: the bad row after it is on line 4
        path = tmp_path / "quotes.csv"
        path.write_text('day,type,expiry_months,delta,implied_vol\n'
                        '1,C,"12\n",0.4,0.2\n1,C,12,1.7,0.2\n')
        want = f"{path}:4: bad quote row: delta must lie in (0, 1), got 1.7"
        with pytest.raises(DomainError, match=f"^{re.escape(want)}$"):
            read_quotes_csv(str(path))

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sabrkit import (
    CalibrationResult,
    DomainError,
    MarketQuote,
    QuoteDay,
    SabrParams,
    calibrate_panel,
    delta_to_moneyness,
    fit_day,
    objective_value,
    out_of_sample,
    read_quotes_csv,
    synth_panel,
    write_quotes_csv,
    write_results_csv,
)
from sabrkit import calibration
from sabrkit.calibration import PANEL_DELTAS, PANEL_EXPIRY_MONTHS, _quote_arrays
from sabrkit.core import norm_cdf
from sabrkit.expansion import sigma_d

TRUE = SabrParams(sigma0=0.19, nu=1.3, rho=-0.55)


class TestQuoteTypes:
    def test_exactly_one_coordinate(self):
        with pytest.raises(DomainError):
            MarketQuote(option_type="C", expiry=1.0, implied_vol=0.2)
        with pytest.raises(DomainError):
            MarketQuote(
                option_type="C", expiry=1.0, implied_vol=0.2, delta=0.5, moneyness=0.1
            )

    def test_field_validation(self):
        with pytest.raises(DomainError):
            MarketQuote(option_type="X", expiry=1.0, implied_vol=0.2, delta=0.5)
        with pytest.raises(DomainError):
            MarketQuote(option_type="C", expiry=1.0, implied_vol=0.2, delta=1.5)
        with pytest.raises(DomainError):
            MarketQuote(option_type="C", expiry=1.0, implied_vol=-0.2, delta=0.5)
        with pytest.raises(DomainError):
            QuoteDay(day=1, quotes=())


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
        quotes = _quote_arrays(self.DAY, 0.19)
        seen = []
        quote_fn = calibration._sigma_d_quote

        def recorded(*args):
            seen.append(quote_fn(*args))
            return seen[-1]

        monkeypatch.setattr(calibration, "_sigma_d_quote", recorded)
        value = objective_value(quotes, params, "sigma_d")
        want = sigma_d(quotes.y, quotes.t, params)
        (got,) = seen
        np.testing.assert_array_equal(got.value, want.value)
        np.testing.assert_array_equal(got.clamped, want.clamped)
        diff = want.value - quotes.vol
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


class TestSynthPanel:
    def test_shape(self):
        days = synth_panel(TRUE, 3)
        assert len(days) == 3
        assert all(len(d.quotes) == 2 * len(PANEL_EXPIRY_MONTHS) * len(PANEL_DELTAS)
                   for d in days)
        assert [d.day for d in days] == [1, 2, 3]

    def test_noise_seeded(self):
        a = synth_panel(TRUE, 1, noise_level=0.01, seed=4)[0]
        b = synth_panel(TRUE, 1, noise_level=0.01, seed=4)[0]
        c = synth_panel(TRUE, 1, noise_level=0.01, seed=5)[0]
        assert a.quotes == b.quotes
        assert a.quotes != c.quotes

    def test_quotes_match_series_vol(self):
        day = synth_panel(TRUE, 1)[0]
        q = day.quotes[0]
        assert q.implied_vol == pytest.approx(
            sigma_d(q.moneyness, q.expiry, TRUE).value
        )

    def test_negative_noise_rejected(self):
        with pytest.raises(DomainError):
            synth_panel(TRUE, 1, noise_level=-0.1)


class TestFitDay:
    def test_recovers_generator(self):
        day = synth_panel(TRUE, 1)[0]
        res = fit_day(day, (1.0, 0.25, -0.3), "sigma_d")
        assert res.converged
        assert abs(res.nu - TRUE.nu) <= 1e-3
        assert abs(res.sigma - TRUE.sigma0) <= 1e-3
        assert abs(res.rho - TRUE.rho) <= 1e-3
        assert res.ise <= 1e-6

    def test_init_clipped_into_bounds(self):
        day = synth_panel(TRUE, 1)[0]
        res = fit_day(day, (10.0, 3.0, -2.0), "sigma_d")
        assert 0.0 <= res.nu <= 5.0
        assert -0.99 <= res.rho <= 0.99

    @pytest.mark.parametrize("n_restarts", [0, 1])
    def test_nfev_counts_objective_evaluations(self, monkeypatch, n_restarts):
        calls = []
        details = calibration._objective_details

        def counted(*args):
            calls.append(1)
            return details(*args)

        monkeypatch.setattr(calibration, "_objective_details", counted)
        day = synth_panel(TRUE, 1, noise_level=0.01, seed=5)[0]
        res = fit_day(day, (1.0, 0.25, -0.3), "sigma_d", n_restarts=n_restarts)
        # every optimizer evaluation, plus the final one at the fitted point
        assert res.nfev > 100
        assert len(calls) == res.nfev + 1

    def test_out_of_sample_from_truth(self):
        days = synth_panel(TRUE, 2, noise_level=0.01, seed=6)
        ose = out_of_sample(days[1], TRUE, "sigma_d")
        # yesterday's truth explains today's quotes up to the noise level
        assert 0.005 <= ose <= 0.02


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
        res = fit_day(quotes, start, "sigma_d", sigma_prev=start[1])
        assert res.converged and res.n_skipped == 0
        for got, pinned in zip(res.params, want[:3]):
            assert abs(got - pinned) <= 1e-8
        assert res.ise == pytest.approx(want[3], rel=1e-9)


class TestPanel:
    def test_warm_start_chain(self):
        days = synth_panel(TRUE, 3, noise_level=0.005, seed=8)
        results = calibrate_panel(days, (1.0, 0.25, -0.3), "sigma_d")
        assert len(results) == 3
        assert math.isnan(results[0].ose)
        for res in results[1:]:
            assert res.ose >= res.ise * 0.5  # same noise scale
        nus = [r.nu for r in results]
        assert all(abs(n - TRUE.nu) <= 0.2 for n in nus)

    def test_ose_exceeds_ise_on_average(self):
        days = synth_panel(TRUE, 6, noise_level=0.01, seed=12)
        results = calibrate_panel(days, (1.0, 0.25, -0.3), "sigma_d")
        ise = np.mean([r.ise for r in results])
        ose = np.mean([r.ose for r in results[1:]])
        assert ose >= ise


class TestCsv:
    def test_quote_round_trip(self, tmp_path):
        days = synth_panel(TRUE, 2, noise_level=0.01, seed=1, quote_with="delta")
        path = str(tmp_path / "quotes.csv")
        write_quotes_csv(path, days)
        back = read_quotes_csv(path)
        assert len(back) == 2
        assert len(back[0].quotes) == len(days[0].quotes)
        for a, b in zip(days[0].quotes, back[0].quotes):
            assert b.delta == pytest.approx(a.delta)
            assert b.implied_vol == pytest.approx(a.implied_vol)
            assert b.expiry == pytest.approx(a.expiry)

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

    def test_results_csv(self, tmp_path):
        results = [
            CalibrationResult(day=1, objective="sigma_d", nu=1.3, sigma=0.19,
                              rho=-0.55, ise=1e-3),
            CalibrationResult(day=2, objective="sigma_d", nu=1.31, sigma=0.19,
                              rho=-0.54, ise=1e-3, ose=2e-3, converged=False),
        ]
        path = tmp_path / "results.csv"
        write_results_csv(str(path), results)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "day,objective,nu,sigma,rho,ise,ose,flag"
        assert lines[1].endswith("ok")
        assert lines[2].endswith("flagged")

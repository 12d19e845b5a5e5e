import logging
import math

import pytest

from sabrkit import (
    DomainError,
    McConfig,
    OptionQuery,
    SabrParams,
    bs_call,
    price_sa2,
    simulate_price,
)
from sabrkit.mc import _max_workers


class TestConfig:
    def test_defaults(self):
        cfg = McConfig()
        assert cfg.n_paths == 30000
        assert cfg.dt == 1e-3
        assert cfg.antithetic

    def test_validation(self):
        with pytest.raises(DomainError):
            McConfig(n_paths=0)
        with pytest.raises(DomainError):
            McConfig(dt=0.0)


class TestSimulate:
    QUERY = OptionQuery(spot=1.0, strike=1.0, rate=0.0, expiry=1.0)

    def test_reproducible(self):
        params = SabrParams(sigma0=0.2, nu=0.5, rho=-0.3)
        cfg = McConfig(n_paths=4000, dt=0.01, seed=7)
        assert simulate_price(self.QUERY, params, cfg) == simulate_price(
            self.QUERY, params, cfg
        )

    def test_seed_changes_draws(self):
        params = SabrParams(sigma0=0.2, nu=0.5, rho=-0.3)
        a, _ = simulate_price(self.QUERY, params, McConfig(n_paths=4000, dt=0.01, seed=1))
        b, _ = simulate_price(self.QUERY, params, McConfig(n_paths=4000, dt=0.01, seed=2))
        assert a != b

    def test_nu_zero_recovers_black_scholes(self):
        params = SabrParams(sigma0=0.2, nu=0.0, rho=0.0)
        cfg = McConfig(n_paths=40000, dt=0.01, seed=3)
        price, se = simulate_price(self.QUERY, params, cfg)
        assert abs(price - bs_call(self.QUERY, 0.2)) <= 3 * se

    def test_matches_series_price(self):
        params = SabrParams(sigma0=0.2, nu=0.5, rho=-0.3)
        cfg = McConfig(n_paths=20000, dt=5e-3, seed=11)
        price, se = simulate_price(self.QUERY, params, cfg)
        series = price_sa2(self.QUERY, params).total
        assert abs(price - series) <= max(3 * se, 3e-3 * series)

    def test_antithetic_reduces_error(self):
        params = SabrParams(sigma0=0.2, nu=0.5, rho=-0.3)
        _, se_anti = simulate_price(
            self.QUERY, params, McConfig(n_paths=8000, dt=0.01, seed=5)
        )
        _, se_plain = simulate_price(
            self.QUERY, params, McConfig(n_paths=8000, dt=0.01, seed=5, antithetic=False)
        )
        assert se_anti < se_plain

    def test_discounting(self):
        params = SabrParams(sigma0=0.2, nu=0.0, rho=0.0)
        cfg = McConfig(n_paths=2000, dt=0.01, seed=9)
        q0 = OptionQuery(spot=1.0, strike=1.0, rate=0.0, expiry=1.0)
        qr = OptionQuery(spot=1.0 * math.exp(-0.05), strike=1.0, rate=0.05, expiry=1.0)
        p0, _ = simulate_price(q0, params, cfg)
        pr, _ = simulate_price(qr, params, cfg)
        # same forward, so the discounted prices differ by the discount factor
        assert pr == pytest.approx(math.exp(-0.05) * p0, rel=1e-12)

    def test_rejections(self):
        cfg = McConfig(n_paths=100, dt=0.01)
        with pytest.raises(DomainError):
            simulate_price(
                self.QUERY,
                SabrParams(sigma0=0.2, nu=0.5, rho=0.0, kappa0=1.0, theta=0.2),
                cfg,
            )
        q = OptionQuery(spot=1.0, strike=1.0, expiry=0.0)
        with pytest.raises(DomainError):
            simulate_price(q, SabrParams(sigma0=0.2, nu=0.5, rho=0.0), cfg)


class TestThreads:
    def test_thread_count_from_env(self, monkeypatch):
        monkeypatch.setenv("SABR_THREADS", "3")
        assert _max_workers() == 3
        monkeypatch.setenv("SABR_THREADS", "0")
        assert _max_workers() == 1

    def test_unset_is_one_thread_without_warning(self, monkeypatch, caplog):
        monkeypatch.delenv("SABR_THREADS", raising=False)
        with caplog.at_level(logging.WARNING, logger="sabrkit.mc"):
            assert _max_workers() == 1
        assert caplog.records == []

    def test_invalid_value_warns_and_uses_one_thread(self, monkeypatch, caplog):
        monkeypatch.setenv("SABR_THREADS", "two")
        with caplog.at_level(logging.WARNING, logger="sabrkit.mc"):
            assert _max_workers() == 1
        assert len(caplog.records) == 1
        assert "SABR_THREADS='two'" in caplog.records[0].getMessage()

import logging
import math
import re

import pytest

from sabrkit import (
    DomainError,
    McConfig,
    OptionQuery,
    SabrParams,
    bs_call,
    price_sa2,
    simulate_price,
    simulate_prices,
)
from sabrkit import mc
from sabrkit.mc import _BLOCK, _MAX_PATH_STEPS, _MAX_SAMPLE_BYTES, _max_workers


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

    @pytest.mark.parametrize(
        "n_paths, antithetic", [(1, False), (1, True), (2, True), (3, True)]
    )
    def test_fewer_than_two_samples_rejected(self, n_paths, antithetic):
        # one sample has no standard error: std(ddof=1) would be NaN
        with pytest.raises(DomainError, match="at least 2"):
            McConfig(n_paths=n_paths, antithetic=antithetic)

    def test_two_samples_accepted(self):
        assert McConfig(n_paths=4).n_samples == 2
        assert McConfig(n_paths=2, antithetic=False).n_samples == 2


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


class TestSimulatePrices:
    PARAMS = SabrParams(sigma0=0.2, nu=0.5, rho=-0.3)
    STRIKES = (0.7, 0.9, 1.0, 1.15, 1.6)

    @classmethod
    def queries(cls, rate=0.02, expiry=0.5):
        return [
            OptionQuery(spot=1.0, strike=k, rate=rate, expiry=expiry)
            for k in cls.STRIKES
        ]

    @pytest.mark.parametrize("threads", [None, "2"])
    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("n_paths", [2 * _BLOCK + 2, 3 * _BLOCK + 17])
    def test_bit_identical_to_one_query_at_a_time(
        self, monkeypatch, threads, antithetic, n_paths
    ):
        if threads is None:
            monkeypatch.delenv("SABR_THREADS", raising=False)
        else:
            monkeypatch.setenv("SABR_THREADS", threads)
        cfg = McConfig(n_paths=n_paths, dt=0.05, seed=4, antithetic=antithetic)
        queries = self.queries()
        loop = [simulate_price(q, self.PARAMS, cfg) for q in queries]
        assert simulate_prices(queries, self.PARAMS, cfg) == loop

    @pytest.mark.parametrize(
        "antithetic, n_paths, seed, strike, want",
        [
            (True, 9001, 3, 10.0, (0.9440779261886565, 0.010493926817152704)),
            (False, 8193, 1, 9.5, (1.2366529632030447, 0.017010851135408823)),
        ],
    )
    def test_recorded_values(self, antithetic, n_paths, seed, strike, want):
        # recorded with the one-strike-per-simulation code this replaced; the
        # tolerance allows only for a platform's exp differing in the last bit
        params = SabrParams(sigma0=0.2, nu=0.2, rho=-0.3)
        queries = [
            OptionQuery(spot=10.0, strike=k, rate=0.03, expiry=1.0)
            for k in (8.0, strike, 12.0)
        ]
        cfg = McConfig(n_paths=n_paths, dt=1e-2, seed=seed, antithetic=antithetic)
        got = simulate_prices(queries, params, cfg)[1]
        assert got == pytest.approx(want, rel=1e-12)

    def test_one_block_call_per_block_for_any_strike_count(self, monkeypatch):
        monkeypatch.delenv("SABR_THREADS", raising=False)
        calls = []
        block_payoffs = mc._block_payoffs

        def counted(*args, **kwargs):
            calls.append(1)
            return block_payoffs(*args, **kwargs)

        monkeypatch.setattr(mc, "_block_payoffs", counted)
        cfg = McConfig(n_paths=2 * (2 * _BLOCK + 1), dt=0.1, seed=1)  # 3 blocks
        for n_strikes in (1, len(self.STRIKES)):
            calls.clear()
            simulate_prices(self.queries()[:n_strikes], self.PARAMS, cfg)
            assert len(calls) == 3

    def test_rejects_empty_list(self):
        with pytest.raises(DomainError, match="at least one query"):
            simulate_prices([], self.PARAMS, McConfig(n_paths=100, dt=0.1))

    @pytest.mark.parametrize(
        "field, value", [("expiry", 1.0), ("spot", 1.1), ("rate", 0.0)]
    )
    def test_rejects_mixed_contracts(self, field, value):
        fields = dict(spot=1.0, strike=1.2, rate=0.02, expiry=0.5)
        odd = OptionQuery(**{**fields, field: value})
        with pytest.raises(DomainError, match="must share spot, rate and expiry"):
            simulate_prices(
                [*self.queries(), odd], self.PARAMS, McConfig(n_paths=100, dt=0.1)
            )


class TestSizeLimits:
    # none of these tests starts a simulation: seeding the path blocks and
    # _block_payoffs are made to fail, so a missing check fails at once
    # instead of spawning 1.2e8 block seeds
    PARAMS = SabrParams(sigma0=0.2, nu=0.2, rho=-0.3)
    QUERY = OptionQuery(spot=10.0, strike=10.0, expiry=1.0)

    @pytest.fixture(autouse=True)
    def no_simulation(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("started a simulation")

        monkeypatch.setattr(mc.np.random, "SeedSequence", fail)
        monkeypatch.setattr(mc, "_block_payoffs", fail)

    def test_too_many_paths(self):
        with pytest.raises(DomainError) as info:
            simulate_price(self.QUERY, self.PARAMS, McConfig(n_paths=10**12))
        assert str(info.value) == (
            "Monte Carlo needs 1000000000000 paths x 1000 time steps = 1e+15 "
            f"path-steps, more than the limit of {_MAX_PATH_STEPS} path-steps"
        )

    @pytest.mark.parametrize("dt, steps", [(1e-15, "1e+15"), (5e-324, "inf")])
    def test_too_many_time_steps(self, dt, steps):
        with pytest.raises(DomainError, match=re.escape(f"30000 paths x {steps} time steps")):
            simulate_price(self.QUERY, self.PARAMS, McConfig(dt=dt))

    def test_sample_matrix_too_large(self):
        # 1,000 strikes x 130,000 samples x 8 bytes = 1.04 GB in one step
        queries = [
            OptionQuery(spot=10.0, strike=5.0 + 0.01 * i, expiry=1.0)
            for i in range(1000)
        ]
        cfg = McConfig(n_paths=260_000, dt=1.0)
        with pytest.raises(DomainError) as info:
            simulate_prices(queries, self.PARAMS, cfg)
        assert str(info.value) == (
            "Monte Carlo needs 1000 strikes x 130000 samples = 1040000000 bytes "
            f"of payoffs, more than the limit of {_MAX_SAMPLE_BYTES} bytes"
        )

    def test_mc_paper_fits(self):
        # mc-paper's 3e7 path-steps and 9 x 15,000 samples pass both checks
        # and reach the simulation
        queries = [
            OptionQuery(spot=10.0, strike=8.0 + 0.5 * i, expiry=1.0) for i in range(9)
        ]
        with pytest.raises(AssertionError, match="started a simulation"):
            simulate_prices(queries, self.PARAMS, McConfig(n_paths=30000, dt=1e-3))

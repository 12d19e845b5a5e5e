"""Monte Carlo benchmark for the lognormal SABR model (no mean reversion).

The volatility path is sampled exactly as a geometric Brownian motion at
the grid times; the log-forward uses a log-Euler step with correlated
increments. The generator is counter-based (Philox), so path blocks are
reproducible regardless of scheduling.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import DomainError, OptionQuery
from .expansion import SabrParams

__all__ = ["McConfig", "simulate_price"]

_BLOCK = 4096

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class McConfig:
    n_paths: int = 30000
    dt: float = 1e-3
    seed: int = 0
    antithetic: bool = True

    def __post_init__(self) -> None:
        if self.n_paths <= 0:
            raise DomainError(f"n_paths must be positive, got {self.n_paths}")
        if not (self.dt > 0.0):
            raise DomainError(f"dt must be positive, got {self.dt}")


def _max_workers() -> int:
    raw = os.environ.get("SABR_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        if raw:
            log.warning("SABR_THREADS=%r is not an integer; using 1 thread", raw)
        return 1
    return max(1, n)


def _block_payoffs(
    seed_seq: np.random.SeedSequence,
    n: int,
    query: OptionQuery,
    params: SabrParams,
    n_steps: int,
    dt: float,
    antithetic: bool,
) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(seed_seq))
    nu, rho = params.nu, params.rho
    rho_c = math.sqrt(1.0 - rho * rho)
    sqdt = math.sqrt(dt)
    x = np.full(2 * n if antithetic else n, math.log(query.forward))
    sigma = np.full_like(x, params.sigma0)
    log_sigma_drift = -0.5 * nu * nu * dt
    for _ in range(n_steps):
        z1 = rng.standard_normal(n)
        z2 = rng.standard_normal(n)
        if antithetic:
            z1 = np.concatenate([z1, -z1])
            z2 = np.concatenate([z2, -z2])
        dw1 = sqdt * (rho * z2 + rho_c * z1)
        x += -0.5 * sigma * sigma * dt + sigma * dw1
        sigma *= np.exp(nu * sqdt * z2 + log_sigma_drift)
    payoff = np.maximum(np.exp(x) - query.strike, 0.0)
    if antithetic:
        return 0.5 * (payoff[:n] + payoff[n:])
    return payoff


def simulate_price(
    query: OptionQuery, params: SabrParams, config: McConfig
) -> tuple[float, float]:
    """Discounted mean call payoff and its standard error.

    Deterministic for a fixed seed. With antithetic variates each mirrored
    pair contributes one averaged sample to the error estimate.
    """
    if params.kappa0 != 0.0:
        raise DomainError("Monte Carlo benchmark is only available for kappa0 = 0")
    t = query.expiry
    if not (t > 0.0):
        raise DomainError("simulate_price requires t > 0")
    n_steps = max(1, round(t / config.dt))
    dt = t / n_steps  # adjusted so the grid lands exactly on t
    n_samples = config.n_paths // 2 if config.antithetic else config.n_paths
    n_samples = max(1, n_samples)

    seeds = np.random.SeedSequence(config.seed).spawn(
        (n_samples + _BLOCK - 1) // _BLOCK
    )
    sizes = [min(_BLOCK, n_samples - i * _BLOCK) for i in range(len(seeds))]

    def run(args):
        seed_seq, n = args
        return _block_payoffs(
            seed_seq, n, query, params, n_steps, dt, config.antithetic
        )

    workers = _max_workers()
    if workers > 1 and len(seeds) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(run, zip(seeds, sizes)))
    else:
        blocks = [run(a) for a in zip(seeds, sizes)]
    samples = np.concatenate(blocks)
    disc = math.exp(-query.rate * t)
    price = disc * float(samples.mean())
    std_error = disc * float(samples.std(ddof=1)) / math.sqrt(samples.size)
    return price, std_error

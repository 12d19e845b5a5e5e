"""Monte Carlo benchmark for the lognormal SABR model (no mean reversion).

The volatility path is sampled exactly as a geometric Brownian motion at
the grid times; the log-forward uses a log-Euler step with correlated
increments. The generator is counter-based (Philox), so path blocks are
reproducible regardless of scheduling. One path set serves every strike of
an expiry: the paths are stepped once and each strike's payoff is taken
from the same terminal log-forwards.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DomainError, OptionQuery
from .expansion import SabrParams

__all__ = ["McConfig", "simulate_price", "simulate_prices"]

_BLOCK = 4096

# the most path-steps (paths x time steps) one simulation may march, as
# fd._MAX_NODE_STEPS for FD; mc-paper takes 3e7
_MAX_PATH_STEPS = 5_000_000_000
# the largest (strikes x samples) payoff matrix, in bytes
_MAX_SAMPLE_BYTES = 1_000_000_000

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
        if self.n_samples < 2:
            raise DomainError(
                f"n_paths={self.n_paths} gives {self.n_samples} sample(s); the "
                "standard error needs at least 2 (antithetic pairs count once)"
            )

    @property
    def n_samples(self) -> int:
        """Independent samples: one per antithetic pair, else one per path."""
        return self.n_paths // 2 if self.antithetic else self.n_paths


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
    forward: float,
    strikes: np.ndarray,
    params: SabrParams,
    n_steps: int,
    dt: float,
    antithetic: bool,
    out: np.ndarray,
) -> None:
    """Writes the (n_strikes, n) payoffs of one block of n samples into out,
    pair-averaged under antithetics; the paths are stepped once for all
    strikes."""
    rng = np.random.Generator(np.random.Philox(seed_seq))
    nu, rho = params.nu, params.rho
    rho_c = math.sqrt(1.0 - rho * rho)
    sqdt = math.sqrt(dt)
    x = np.full(2 * n if antithetic else n, math.log(forward))
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
    payoff = np.empty((strikes.size, 2 * n)) if antithetic else out
    np.subtract(np.exp(x), strikes[:, None], out=payoff)
    np.maximum(payoff, 0.0, out=payoff)
    if antithetic:
        np.add(payoff[:, :n], payoff[:, n:], out=out)
        out *= 0.5


def simulate_prices(
    queries: Sequence[OptionQuery], params: SabrParams, config: McConfig
) -> list[tuple[float, float]]:
    """Discounted mean call payoff and its standard error for each query,
    all priced from one path set.

    The queries must share spot, rate and expiry; only the strikes differ.
    Each result equals what a simulation of that query alone would give,
    bit for bit. Deterministic for a fixed seed. With antithetic variates
    each mirrored pair contributes one averaged sample to the error estimate.
    """
    if not queries:
        raise DomainError("simulate_prices needs at least one query")
    q0 = queries[0]
    for q in queries[1:]:
        if (q.spot, q.rate, q.expiry) != (q0.spot, q0.rate, q0.expiry):
            raise DomainError(
                "simulate_prices queries must share spot, rate and expiry; got "
                f"{(q0.spot, q0.rate, q0.expiry)} and {(q.spot, q.rate, q.expiry)}"
            )
    if params.kappa0 != 0.0:
        raise DomainError("Monte Carlo benchmark is only available for kappa0 = 0")
    t = q0.expiry
    if not (t > 0.0):
        raise DomainError("Monte Carlo requires expiry > 0")
    # both limits are checked before any array exists
    steps = t / config.dt  # inf when dt is tiny enough
    n_steps = max(1, round(steps)) if math.isfinite(steps) else math.inf
    if config.n_paths * n_steps > _MAX_PATH_STEPS:
        raise DomainError(
            f"Monte Carlo needs {config.n_paths} paths x {n_steps:.4g} time steps = "
            f"{float(config.n_paths) * n_steps:.4g} path-steps, more than the "
            f"limit of {_MAX_PATH_STEPS} path-steps"
        )
    n_samples = config.n_samples
    sample_bytes = len(queries) * n_samples * 8
    if sample_bytes > _MAX_SAMPLE_BYTES:
        raise DomainError(
            f"Monte Carlo needs {len(queries)} strikes x {n_samples} samples = "
            f"{sample_bytes} bytes of payoffs, more than the limit of "
            f"{_MAX_SAMPLE_BYTES} bytes"
        )
    dt = t / n_steps  # adjusted so the grid lands exactly on t
    strikes = np.array([q.strike for q in queries])

    seeds = np.random.SeedSequence(config.seed).spawn(
        (n_samples + _BLOCK - 1) // _BLOCK
    )
    sizes = [min(_BLOCK, n_samples - i * _BLOCK) for i in range(len(seeds))]

    # each block writes its own columns; every row stays contiguous, so it
    # reduces exactly as a one-strike simulation's 1-D samples would
    samples = np.empty((len(queries), n_samples))

    def run(i):
        start = i * _BLOCK
        _block_payoffs(
            seeds[i], sizes[i], q0.forward, strikes, params, n_steps, dt,
            config.antithetic, samples[:, start : start + sizes[i]],
        )

    workers = _max_workers()
    if workers > 1 and len(seeds) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, range(len(seeds))))
    else:
        for i in range(len(seeds)):
            run(i)
    disc = math.exp(-q0.rate * t)
    root_n = math.sqrt(n_samples)
    return [
        (disc * float(row.mean()), disc * float(row.std(ddof=1)) / root_n)
        for row in samples
    ]


def simulate_price(
    query: OptionQuery, params: SabrParams, config: McConfig
) -> tuple[float, float]:
    """Discounted mean call payoff and its standard error for one query;
    see simulate_prices."""
    return simulate_prices([query], params, config)[0]

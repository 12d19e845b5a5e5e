"""Monte Carlo benchmark for the lognormal SABR model (no mean reversion).

The volatility path is sampled exactly as a geometric Brownian motion at
the grid times; the log-forward uses a log-Euler step with correlated
increments. The generator is counter-based (Philox), so path blocks are
reproducible regardless of scheduling. simulate_prices prices any number
of strikes of an expiry, one strike included, from one path set: the
paths are stepped once and each strike's payoff is taken from the same
terminal log-forwards.

A block marches _CHUNK time steps per pass from one draw of normals, taken
in the stream order of one (z1, z2) pair of draws per step, so its payoffs
are bit-identical to stepping one time step per pass. What is left of the
cost is mostly the normal draws themselves. Under antithetics a block of n
samples steps n drawn paths and their n mirrors, so an odd n_paths steps
one path fewer: n_paths // 2 pairs.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DomainError, OptionQuery, _require_at, _require_int
from .expansion import SabrParams

__all__ = ["McConfig", "simulate_prices"]

_BLOCK = 4096
# time steps a block marches per pass, from one draw of normals
_CHUNK = 4

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
        if _require_int(self.seed, "seed") < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")
        if _require_int(self.n_paths, "n_paths") <= 0:
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


def _log_forwards(
    rng: np.random.Generator,
    n: int,
    forward: float,
    params: SabrParams,
    n_steps: int,
    dt: float,
    antithetic: bool,
) -> np.ndarray:
    """The terminal log-forwards of n drawn paths, followed under
    antithetics by their n mirrors, stepped _CHUNK time steps per pass. The
    step buffers are freed on return, before any payoff is formed."""
    nu, rho = params.nu, params.rho
    rho_c = math.sqrt(1.0 - rho * rho)
    sqdt = math.sqrt(dt)
    log_sigma_drift = -0.5 * nu * nu * dt
    nu_sqdt = nu * sqdt
    width = 2 * n if antithetic else n
    x = np.full(width, math.log(forward))
    # z[s] holds step s's normals (z1, z2), drawn in the order of one pair
    # of standard_normal(n) calls per step; once used, z1 holds the drawn
    # paths' dw1 and, under antithetics, z2 the mirrored paths' -dw1
    z = np.empty((_CHUNK, 2, n))
    # sigma[s] is sigma before step s of the chunk, sigma[m] after its last
    # step; sigma[1:] first holds the step factors exp(d ln sigma + drift)
    sigma = np.empty((_CHUNK + 1, width))
    sigma[0] = params.sigma0
    dx = np.empty((_CHUNK, width))
    for first in range(0, n_steps, _CHUNK):
        m = min(_CHUNK, n_steps - first)
        zm, sig, inc = z[:m], sigma[: m + 1], dx[:m]
        rng.standard_normal(out=zm)
        z1, z2 = zm[:, 0], zm[:, 1]
        # dw1 = sqdt * (rho * z2 + rho_c * z1), in place in z1
        np.multiply(z2, rho, out=inc[:, :n])
        z1 *= rho_c
        z1 += inc[:, :n]
        z1 *= sqdt
        z2 *= nu_sqdt
        np.add(z2, log_sigma_drift, out=sig[1:, :n])
        if antithetic:
            # the mirrored paths' increments are the negated products, bit
            # for bit: IEEE negation is exact and commutes with them, and
            # drift - a is (-a) + drift
            np.subtract(log_sigma_drift, z2, out=sig[1:, n:])
            np.negative(z1, out=z2)
            dw1 = zm.reshape(m, width)
        else:
            dw1 = z1
        np.exp(sig[1:], out=sig[1:])
        for s in range(m):
            sig[s + 1] *= sig[s]
        # dx = -0.5 * sigma * sigma * dt + sigma * dw1, in that operation order
        np.multiply(sig[:m], -0.5, out=inc)
        inc *= sig[:m]
        inc *= dt
        dw1 *= sig[:m]
        inc += dw1
        for s in range(m):
            x += inc[s]
        sigma[0] = sig[m]
    return x


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
    x = _log_forwards(rng, n, forward, params, n_steps, dt, antithetic)
    with np.errstate(over="ignore"):  # simulate_prices rejects an infinite price
        np.exp(x, out=x)
    np.subtract(x[:n], strikes[:, None], out=out)
    np.maximum(out, 0.0, out=out)
    if antithetic:
        mirrored = np.subtract(x[n:], strikes[:, None])
        np.maximum(mirrored, 0.0, out=mirrored)
        out += mirrored
        out *= 0.5


def simulate_prices(
    queries: Sequence[OptionQuery], params: SabrParams, config: McConfig
) -> list[tuple[float, float]]:
    """Discounted mean call payoff and its standard error for each query,
    all priced from one path set.

    The queries must share spot, rate and expiry; only the strikes differ.
    Each result equals simulate_prices([query], ...)[0] for its query,
    bit for bit, on any number of SABR_THREADS worker threads (one when
    unset). Deterministic for a fixed seed. With antithetic variates each
    mirrored pair contributes one averaged sample to the error estimate.
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

    with ThreadPoolExecutor(max_workers=_max_workers()) as pool:
        list(pool.map(run, range(len(seeds))))
    disc = math.exp(-q0.rate * t)
    root_n = math.sqrt(n_samples)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-float is an error below
        prices = [
            (disc * float(row.mean()), disc * float(row.std(ddof=1)) / root_n)
            for row in samples
        ]
    what = "the Monte Carlo price or its standard error is not a float"
    _require_at(np.isfinite(prices), what, forward=q0.forward)
    return prices

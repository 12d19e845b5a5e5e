"""Named price models as (y, sigma, t) -> relative price callables,
shared by the residual diagnostic, FD comparisons, calibration and the CLI.

The callables broadcast over numpy arrays: one call prices a whole
lattice, a float call returns a float."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import DomainError, bs_implied_vol, c_rel
from .expansion import SabrParams, price_d, price_sa2_rel, sigma_d
from .hagan import price_h, sigma_h

__all__ = ["MODEL_NAMES", "price_fn_for_model", "vol_fn_for_model"]

MODEL_NAMES = ("sa2", "d", "h", "bs", "kappa")


def _require_kappa(model: str, params: SabrParams) -> None:
    # 'kappa' is the sa2 form with mean reversion: without it, it is 'sa2'
    if model == "kappa" and params.kappa0 == 0.0:
        raise DomainError("model 'kappa' requires kappa0 > 0")


def price_fn_for_model(model: str, params: SabrParams) -> Callable:
    """Relative price as a function of (log-moneyness, sigma node, expiry);
    the sigma argument replaces params.sigma0, point by point."""
    _require_kappa(model, params)
    if model in ("sa2", "kappa"):
        return lambda y, s, t: price_sa2_rel(y, t, params, sigma=s)
    if model == "d":
        return lambda y, s, t: price_d(y, t, params, sigma=s)
    if model == "h":
        return lambda y, s, t: price_h(y, t, params, sigma=s)
    if model == "bs":
        return lambda y, s, t: c_rel(y, s, t)
    raise DomainError(f"unknown model {model!r}; expected one of {MODEL_NAMES}")


def _per_point(fn: Callable[[float, float], float]) -> Callable:
    # broadcasts a scalar (y, t) function over arrays
    vec = np.vectorize(fn, otypes=[float])

    def call(y, t):
        if np.ndim(y) == 0 and np.ndim(t) == 0:
            return fn(float(y), float(t))
        return vec(y, t)

    return call


def vol_fn_for_model(model: str, params: SabrParams) -> Callable:
    """Implied vol as a function of (log-moneyness, expiry)."""
    _require_kappa(model, params)
    if model in ("sa2", "kappa"):
        # the implied-vol inversion is scalar, so it runs point by point
        return _per_point(lambda y, t: bs_implied_vol(price_sa2_rel(y, t, params), y, t))
    if model == "d":
        return lambda y, t: sigma_d(y, t, params).value
    if model == "h":
        return lambda y, t: sigma_h(y, t, params)
    if model == "bs":
        return _per_point(lambda y, t: params.sigma0)
    raise DomainError(f"no implied-vol form for model {model!r}")

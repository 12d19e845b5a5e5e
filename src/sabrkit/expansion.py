"""Closed-form vol-of-vol series expansion for the lognormal SABR model
with optional mean reversion: first- and second-order price corrections,
the implied-volatility coefficients, and the hedge-ratio expansion.

The forward price is approximated as

    F = F_BS + nu * F1 + nu^2 * F2 + O(nu^3),

where F1 and F2 are Gaussian-kernel expressions of the form
K * sum_i a_i * h_tilde(i, y) * phi_t(y, sigma). The implied volatility
carries the matching expansion sigma + nu*e1 + nu^2*e2.

`price_sa2_rel`, `implied_e1`, `implied_e2`, `sigma_d` and `price_d`
broadcast over numpy arrays of (y, t, sigma) like the kernels in `core`;
the `sigma` keyword replaces params.sigma0, point by point when it is an
array. The OptionQuery forms (`price_sa2`, `f1_term`, `f2_term`,
`delta_sa2`) stay scalar. `price_sa2` and `price_sa2_rel` share one
strike-normalized evaluation whose leading term F_BS / K is `core.c_rel`.

F1 keeps two forms on purpose: the closed form in `f1_term` and the
kernel coefficients in `f1_coeffs`, which the hedge ratio differentiates.
The acceptance gate checks one against the other; computing F1 from
`f1_coeffs` would compare `f1_coeffs` with itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    _MATH,
    DomainError,
    OptionQuery,
    _all,
    _args,
    c_rel,
    d_minus,
    d_pair,
    h_tilde,
    norm_cdf,
    norm_pdf,
    phi_t,
)

__all__ = [
    "SabrParams",
    "ExpansionPrice",
    "VolQuote",
    "f1_term",
    "f1_coeffs",
    "f2_coeffs",
    "f2_term",
    "price_sa2",
    "price_sa2_rel",
    "implied_e1",
    "implied_e2",
    "sigma_d",
    "price_d",
    "delta_sa2",
]

SIGMA_FLOOR = 1e-8


@dataclass(frozen=True)
class SabrParams:
    """Model parameters, all finite. Mean-reversion speed is kappa = nu * kappa0."""

    sigma0: float
    nu: float
    rho: float
    kappa0: float = 0.0
    theta: float = 0.0

    def __post_init__(self) -> None:
        for name in ("sigma0", "nu", "rho", "kappa0", "theta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if not (self.sigma0 > 0.0):
            raise DomainError(f"sigma0 must be positive, got {self.sigma0}")
        if not (self.nu >= 0.0):
            raise DomainError(f"nu must be nonnegative, got {self.nu}")
        if not (-1.0 < self.rho < 1.0):
            raise DomainError(f"rho must lie strictly in (-1, 1), got {self.rho}")
        if not (self.kappa0 >= 0.0):
            raise DomainError(f"kappa0 must be nonnegative, got {self.kappa0}")
        if not (self.theta >= 0.0):
            raise DomainError(f"theta must be nonnegative, got {self.theta}")

    @property
    def kappa(self) -> float:
        return self.nu * self.kappa0


class ExpansionPrice(NamedTuple):
    """Second-order forward price decomposition: total = f_bs + nu*f1 + nu^2*f2."""

    f_bs: float
    f1: float
    f2: float
    total: float


class VolQuote(NamedTuple):
    """Expansion implied vol with a flag marking the nonpositive-value clamp
    (arrays of both for an array call)."""

    value: float | np.ndarray
    clamped: bool | np.ndarray


def _require_sigma_t(sigma, t, what: str) -> None:
    if not (_all(sigma > 0.0) and _all(t > 0.0)):
        raise DomainError(f"{what} requires sigma > 0 and t > 0")


def _require_no_mean_reversion(params: SabrParams, what: str) -> None:
    if params.kappa0 != 0.0:
        raise DomainError(f"{what} is only available for kappa0 = 0")


def f1_coeffs(
    sigma: float, t: float, rho: float, kappa0: float, theta: float
) -> tuple[float, float]:
    """Kernel coefficients (a10, a11) of the first-order correction."""
    a10 = 0.5 * t * t * sigma * kappa0 * (theta - sigma)
    a11 = 0.5 * t * t * rho * sigma**3
    return a10, a11


def _f1_rel(m, dm, sigma, t, rho: float, kappa0: float, theta: float):
    # F1 / K from d_-, with the float or array operations m
    return 0.5 * t * (kappa0 * (theta - sigma) * m.sqrt(t) - rho * sigma * dm) * norm_pdf(dm)


def f1_term(
    query: OptionQuery,
    sigma: float,
    rho: float,
    kappa0: float = 0.0,
    theta: float = 0.0,
) -> float:
    """First-order forward price correction per unit of vol-of-vol:

    F1 = (K t / 2) (kappa0 (theta - sigma) sqrt(t) - rho sigma d_-) N'(d_-).
    """
    t = query.expiry
    if not (t > 0.0):
        raise DomainError("f1_term requires t > 0")
    dm = d_pair(query, sigma).d_minus
    return query.strike * _f1_rel(_MATH, dm, sigma, t, rho, kappa0, theta)


def f2_coeffs(
    sigma: float, t: float, rho: float, kappa0: float, theta: float
) -> tuple[float, float, float, float, float]:
    """Kernel coefficients (a20..a24) of the second-order correction."""
    dev = theta - sigma
    a20 = t**2 * sigma**2 / 4 + t**3 * kappa0**2 / 6 * dev * (theta - 2 * sigma)
    a21 = (
        -(t**3) * sigma**4 / 6
        + t**3 * kappa0 * rho * sigma**2 / 6 * (4 * theta - 5 * sigma)
        - t**4 * kappa0**2 * sigma**2 / 8 * dev**2
    )
    a22 = (
        t**3 * sigma**4 / 6
        + t**3 * rho**2 * sigma**4 / 2
        + t**4 * kappa0**2 * sigma**2 / 8 * dev**2
        - t**4 * kappa0 * rho * sigma**4 / 4 * dev
    )
    a23 = t**4 * kappa0 * rho * sigma**4 / 4 * dev - t**4 * rho**2 * sigma**6 / 8
    a24 = t**4 * rho**2 * sigma**6 / 8
    return a20, a21, a22, a23, a24


def _f2_rel(y, sigma, t, rho: float, kappa0: float, theta: float):
    # F2 / K: sum_i a2i h_tilde(i, y) phi_t(y)
    coeffs = f2_coeffs(sigma, t, rho, kappa0, theta)
    kernel = phi_t(y, sigma, t)
    return kernel * sum(a * h_tilde(i, y, sigma, t) for i, a in enumerate(coeffs))


def f2_term(
    query: OptionQuery,
    sigma: float,
    rho: float,
    kappa0: float = 0.0,
    theta: float = 0.0,
) -> float:
    """Second-order forward price correction per unit of nu^2:

    F2 = K * sum_{i=0..4} a2i * h_tilde(i, y) * phi_t(y, sigma).
    """
    t = query.expiry
    if not (t > 0.0):
        raise DomainError("f2_term requires t > 0")
    return query.strike * _f2_rel(query.log_moneyness, sigma, t, rho, kappa0, theta)


def _sa2_rel(m, y, t, sigma, params: SabrParams):
    # (live, F_BS / K, F1 / K, F2 / K) with live = t > 0; where t = 0 the
    # corrections are evaluated at t = 1 and the callers keep F_BS alone,
    # which c_rel makes the payoff there
    f_bs = c_rel(y, sigma, t)
    live = t > 0.0
    t = m.where(live, t, 1.0)
    dm = d_minus(y, sigma, t)
    f1 = _f1_rel(m, dm, sigma, t, params.rho, params.kappa0, params.theta)
    f2 = _f2_rel(y, sigma, t, params.rho, params.kappa0, params.theta)
    return live, f_bs, f1, f2


def price_sa2(query: OptionQuery, params: SabrParams) -> ExpansionPrice:
    """Second-order forward price F_BS + nu F1 + nu^2 F2.

    The discounted (actual) price is e^{-rt} * total. At expiry F_BS is
    the payoff and both correction terms vanish.
    """
    live, f_bs, f1, f2 = _sa2_rel(
        _MATH, query.log_moneyness, query.expiry, params.sigma0, params
    )
    if not live:  # at expiry both corrections vanish
        f1 = f2 = 0.0
    k = query.strike
    f_bs, f1, f2 = k * f_bs, k * f1, k * f2
    return ExpansionPrice(f_bs, f1, f2, f_bs + params.nu * f1 + params.nu**2 * f2)


def price_sa2_rel(y, t, params: SabrParams, *, sigma=None):
    """Strike-normalized second-order forward price (K = 1, r = 0), from
    the log-moneyness y directly; at t = 0 the payoff (e^y - 1)^+."""
    m, (y, t, sigma) = _args(y, t, params.sigma0 if sigma is None else sigma)
    live, f_bs, f1, f2 = _sa2_rel(m, y, t, sigma, params)
    return m.where(live, f_bs + params.nu * f1 + params.nu**2 * f2, f_bs)


def implied_e1(y, sigma, rho: float, t):
    """First-order implied-vol coefficient e1 = -rho sigma sqrt(t) d_- / 2."""
    m, (y, sigma, t) = _args(y, sigma, t)
    _require_sigma_t(sigma, t, "implied_e1")
    return -0.5 * rho * sigma * m.sqrt(t) * d_minus(y, sigma, t)


def implied_e2(y, sigma, rho: float, t):
    """Second-order implied-vol coefficient (seven-term polynomial form)."""
    m, (y, sigma, t) = _args(y, sigma, t)
    _require_sigma_t(sigma, t, "implied_e2")
    r2 = rho * rho
    return (
        sigma * t / 12
        - r2 * t * sigma / 8
        - sigma**3 * t**2 / 24
        - r2 * t * sigma * y / 8
        + y**2 / (6 * sigma)
        - r2 * y**2 / (4 * sigma)
        + t**2 * r2 * sigma**3 / 8
    )


def sigma_d(y, t, params: SabrParams, *, sigma=None) -> VolQuote:
    """Expansion implied vol sigma + nu e1 + nu^2 e2.

    Nonpositive raw values (possible for extreme parameters probed by
    optimizers) are clamped to a small positive floor and flagged.
    """
    _require_no_mean_reversion(params, "sigma_d")
    m, (y, t, sigma) = _args(y, t, params.sigma0 if sigma is None else sigma)
    nu, rho = params.nu, params.rho
    raw = sigma
    if nu != 0.0:
        raw = (
            sigma
            + nu * implied_e1(y, sigma, rho, t)
            + nu * nu * implied_e2(y, sigma, rho, t)
        )
    clamped = raw <= 0.0
    return VolQuote(m.where(clamped, SIGMA_FLOOR, raw), clamped)


def price_d(y, t, params: SabrParams, *, sigma=None):
    """Relative price through the implied-vol expansion: c_rel(y, sigma_d, t)."""
    return c_rel(y, sigma_d(y, t, params, sigma=sigma).value, t)


def _dx_correction(
    query: OptionQuery, sigma: float, rho: float, order: int
) -> float:
    # x-derivative of the order-1 or order-2 correction term, obtained by
    # shifting each h_tilde index up by one (d/du phi-products).
    t = query.expiry
    y = query.log_moneyness
    if order == 1:
        coeffs = f1_coeffs(sigma, t, rho, 0.0, 0.0)
    else:
        coeffs = f2_coeffs(sigma, t, rho, 0.0, 0.0)
    kernel = phi_t(y, sigma, t)
    return query.strike * kernel * sum(
        a * h_tilde(i + 1, y, sigma, t) for i, a in enumerate(coeffs)
    )


def delta_sa2(query: OptionQuery, params: SabrParams) -> float:
    """Hedge ratio of the discounted second-order price, d/dS of e^{-rt} F.

    Equals N(d_+) plus the term-by-term S-derivative of the correction
    terms; reduces to the Black-Scholes delta at nu = 0.
    """
    _require_no_mean_reversion(params, "delta_sa2")
    t = query.expiry
    if not (t > 0.0):
        raise DomainError("delta_sa2 requires t > 0")
    sigma, nu, rho = params.sigma0, params.nu, params.rho
    dp = d_pair(query, sigma).d_plus
    base = norm_cdf(dp)
    if nu == 0.0:
        return base
    dx_b1 = _dx_correction(query, sigma, rho, 1)
    dx_b2 = _dx_correction(query, sigma, rho, 2)
    return base + nu * math.exp(-query.log_price) * (dx_b1 + nu * dx_b2)

"""Closed-form vol-of-vol series expansion for the lognormal SABR model
with optional mean reversion: first- and second-order price corrections,
the implied-volatility coefficients, and the hedge-ratio expansion.

The forward price is approximated as

    F = F_BS + nu * F1 + nu^2 * F2 + O(nu^3),

where F1 and F2 are Gaussian-kernel expressions of the form
K * sum_i a_i * h_tilde(i, y) * phi_t(y, sigma). With v = sigma sqrt(t),
h_tilde(i) = (-1/v)^i H_i(d_-) and phi_t = N'(d_-) / v, so

    F2 / K = N'(d_-) / v * sum_i a2i (-1/v)^i H_i(d_-).

`_kernel_sum` evaluates this sum as one ladder: the Hermite polynomials
from the recurrence H_{i+1} = d_- H_i - i H_{i-1} and the powers of -1/v
from repeated products. The price computes v, d_- and N'(d_-) once for
both corrections, and the hedge ratio takes the x-derivatives from the
same ladder, its coefficients led by a zero; `h_tilde` and `phi_t`
remain the per-term forms in `core`. The implied volatility
carries the matching expansion sigma + nu*e1 + nu^2*e2. For kappa0 = 0 it
is a polynomial in (y, t) with coefficients in (sigma, rho):

    e1 = -rho/2 * y + rho sigma^2/4 * t
    e2 = sigma (1/12 - rho^2/8) * t + sigma^3 (rho^2/8 - 1/24) * t^2
         - rho^2 sigma/8 * t y + (1/6 - rho^2/4)/sigma * y^2

so sigma_d = sigma + sum_k c_k m_k over the monomials
m = (y, t, t^2, t y, y^2), with c = nu e1 + nu^2 e2 folded onto them.
`implied_e1`, `implied_e2` and `sigma_d` evaluate this one table; a
calibration builds a day's monomials once and evaluates only the five
coefficients per parameter set. `_sigma_d_jacobian` takes their
derivatives from the same table: dc/dnu = e1 + 2 nu e2, and the sigma and
rho columns are complex steps Im c(x + ih) / h, exact to rounding since
nothing is subtracted (Squire & Trapp 1998).

`price_sa2_rel`, `implied_e1`, `implied_e2`, `sigma_d` and `price_d`
broadcast over numpy arrays of (y, t, sigma) like the kernels in `core`;
the `sigma` keyword of `price_sa2_rel` and `price_d` replaces
params.sigma0, point by point when it is an array. The OptionQuery forms
`price_sa2` and `delta_sa2` stay scalar.
`price_sa2` and `price_sa2_rel` are one strike-normalized evaluation,
whose leading term F_BS / K is `core.c_rel`; F1 and F2 alone are the
`f1` and `f2` of `price_sa2`, which do not depend on nu. At tiny t,
where a ladder's powers of -1/v overflow while its coefficients stay
finite, the corrections take their t -> 0 limit 0; the hedge ratio's
x-derivatives follow the same rule, so both reduce to Black-Scholes. A
correction not finite at larger v, or from coefficients that are not
finite, is a DomainError naming y and t in the OptionQuery forms;
`price_sa2_rel` returns it for its callers to report.

F1 keeps two forms on purpose: the closed form in the price and the
kernel coefficients in `f1_coeffs`, which the hedge ratio differentiates
at the parameters' own kappa0 and theta. The acceptance gate checks one
against the other; computing F1 from `f1_coeffs` would compare
`f1_coeffs` with itself.
"""

from __future__ import annotations

import contextlib
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
    _c_rel,
    _ncdf,
    _npdf,
    _require,
    _require_at,
    _scaled_d_minus,
)

__all__ = [
    "SabrParams",
    "ExpansionPrice",
    "VolQuote",
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
        _require_rho(self.rho)
        if not (self.kappa0 >= 0.0):
            raise DomainError(f"kappa0 must be nonnegative, got {self.kappa0}")
        if not (self.theta >= 0.0):
            raise DomainError(f"theta must be nonnegative, got {self.theta}")


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


def _require_rho(rho: float) -> None:
    if not (-1.0 < rho < 1.0):
        raise DomainError(f"rho must lie strictly in (-1, 1), got {rho}")


def _require_sigma_t(sigma, t, what: str) -> None:
    if not (_all((0.0 < sigma) & (sigma < math.inf)) and _all((0.0 < t) & (t < math.inf))):
        raise DomainError(f"{what} requires finite sigma > 0 and t > 0")


def _nu_squared(nu: float) -> float:
    """nu^2, with a DomainError naming nu where it overflows a float."""
    nu2 = nu * nu
    if nu2 == math.inf:
        raise DomainError(f"nu**2 overflows a float, got nu = {nu}")
    return nu2


def f1_coeffs(
    sigma: float, t: float, rho: float, kappa0: float, theta: float
) -> tuple[float, float]:
    """Kernel coefficients (a10, a11) of the first-order correction."""
    a10 = 0.5 * t * t * sigma * kappa0 * (theta - sigma)
    a11 = 0.5 * t * t * rho * sigma**3
    return a10, a11


def f2_coeffs(
    sigma: float, t: float, rho: float, kappa0: float, theta: float
) -> tuple[float, float, float, float, float]:
    """Kernel coefficients (a20..a24) of the second-order correction."""
    s2, r2 = sigma * sigma, rho * rho
    u = t * s2  # t sigma^2
    p = t * u  # t^2 sigma^2
    ts = p * u  # t^3 sigma^4
    rts = r2 * ts * u  # rho^2 t^4 sigma^6
    a20 = p / 4
    a21 = -ts / 6
    a22 = ts / 6 + r2 * ts / 2
    a23 = -rts / 8
    a24 = rts / 8
    if kappa0 != 0.0:  # the mean-reversion terms, zero at kappa0 = 0
        dev = theta - sigma
        k2 = kappa0 * kappa0
        t3 = t * t * t
        sq = t * t3 * k2 * s2 / 8 * dev * dev  # t^4 kappa0^2 sigma^2 dev^2 / 8
        cross = t * t3 * kappa0 * rho * s2 * s2 / 4 * dev  # t^4 kappa0 rho sigma^4 dev / 4
        a20 = a20 + t3 * k2 / 6 * dev * (theta - 2 * sigma)
        a21 = a21 + t3 * kappa0 * rho * s2 / 6 * (4 * theta - 5 * sigma) - sq
        a22 = a22 + sq - cross
        a23 = a23 + cross
    return a20, a21, a22, a23, a24


def _kernel_sum(dm, v, coeffs):
    """sum_i a_i (-1/v)^i H_i(d_-) over the coefficients a_0, a_1, ...

    With phi_t = N'(d_-) / v, phi_t times this sum is a correction term
    sum_i a_i h_tilde(i) phi_t over K. Since d/dx (h_tilde(i) phi_t) =
    h_tilde(i + 1) phi_t, an x-derivative of order k is the sum of the same
    coefficients led by k zeros. H_i comes from one recurrence H_{i+1} =
    d_- H_i - i H_{i-1} and (-1/v)^i from repeated products; the same code
    serves float and array calls.
    """
    w = -1.0 / v
    power, h_prev, h = w, 1.0, dm  # (-1/v)^1, H_0, H_1
    total = coeffs[0] + coeffs[1] * (power * h)
    for n in range(1, len(coeffs) - 1):
        h_prev, h = h, dm * h - n * h_prev
        power = power * w
        total += coeffs[n + 1] * (power * h)
    return total


def _t_to_zero(m, v, sigma, t, params: SabrParams, a, b):
    # Both corrections (and their x-derivatives) tend to 0 as t -> 0, but at
    # tiny v a ladder's powers of -1/v times its Hermite values of d_-
    # overflow (already at t = 1e-80 for sigma = 0.2, y = 0.1): a pair that
    # is not finite at v < 1 takes that limit, leaving the Black-Scholes
    # term alone. One not finite at large v, or where a kernel coefficient
    # is not finite (kappa0^2 or (theta - sigma)^2 overflows), stays, for
    # callers to report.
    if not _all(m.isfinite(a + b)):
        kept = m.isfinite(a) & m.isfinite(b) | (v >= 1.0)
        rest = (params.rho, params.kappa0, params.theta)
        for c in f1_coeffs(sigma, t, *rest) + f2_coeffs(sigma, t, *rest):
            kept = m.where(m.isfinite(c), kept, True)
        a, b = m.where(kept, a, 0.0), m.where(kept, b, 0.0)
    return a, b


def _sa2_rel(m, y, t, sigma, params: SabrParams):
    # (live, F_BS / K, F1 / K, F2 / K) with live = t > 0; where t = 0 the
    # corrections are evaluated at t = 1 and the callers keep F_BS alone,
    # which c_rel makes the payoff there. v = sigma sqrt(t), d_- and N'(d_-)
    # are computed once and serve both corrections.
    f_bs = _c_rel(m, y, sigma, t)
    live = t > 0.0
    if not _all(live):
        t = m.where(live, t, 1.0)
    rho, kappa0, theta = params.rho, params.kappa0, params.theta
    # numpy warns of the overflow _t_to_zero handles; float arithmetic overflows silently
    with contextlib.nullcontext() if m is _MATH else np.errstate(over="ignore", invalid="ignore"):
        v, dm = _scaled_d_minus(m, y, sigma, t)
        pdf = _npdf(m, dm)
        # F2 / K = phi_t sum_i a2i h_tilde(i), with phi_t = N'(d_-) / v
        f2 = _kernel_sum(dm, v, f2_coeffs(sigma, t, rho, kappa0, theta)) * (pdf / v)
        # F1 / K in closed form; the mean-reversion term is zero at kappa0 = 0
        # and skipped there
        drift = -rho * sigma * dm
        if kappa0 != 0.0:
            drift = kappa0 * (theta - sigma) * m.sqrt(t) + drift
        f1, f2 = _t_to_zero(m, v, sigma, t, params, 0.5 * t * drift * pdf, f2)
    return live, f_bs, f1, f2


def _require_finite(what: str, y: float, t: float, *terms: float) -> None:
    # an OptionQuery form names a point where a correction is not finite (at
    # large v = sigma sqrt(t)), as the price command does
    ok = all(map(math.isfinite, terms))
    _require_at(ok, f"{what} gives a correction that is not finite", y=y, t=t)


def price_sa2(query: OptionQuery, params: SabrParams) -> ExpansionPrice:
    """Second-order forward price F_BS + nu F1 + nu^2 F2, with

    F1 = (K t / 2) (kappa0 (theta - sigma0) sqrt(t) - rho sigma0 d_-) N'(d_-),
    F2 = K * sum_{i=0..4} a2i * h_tilde(i, y) * phi_t(y, sigma0).

    Neither correction depends on nu. The discounted (actual) price is
    e^{-rt} * total. At expiry F_BS is the payoff and both correction
    terms vanish.
    """
    nu2 = _nu_squared(params.nu)
    y, t = query.log_moneyness, query.expiry
    live, f_bs, f1, f2 = _sa2_rel(_MATH, y, t, params.sigma0, params)
    if not live:  # at expiry both corrections vanish
        f1 = f2 = 0.0
    k = query.strike
    f_bs, f1, f2 = k * f_bs, k * f1, k * f2
    _require_finite("price_sa2", y, t, f1, f2)
    return ExpansionPrice(f_bs, f1, f2, f_bs + params.nu * f1 + nu2 * f2)


def price_sa2_rel(y, t, params: SabrParams, *, sigma=None):
    """Strike-normalized second-order forward price (K = 1, r = 0), from
    the log-moneyness y directly; at t = 0 the payoff (e^y - 1)^+."""
    nu2 = _nu_squared(params.nu)
    m, (y, t, sigma) = _args(y, t, params.sigma0 if sigma is None else sigma)
    live, f_bs, f1, f2 = _sa2_rel(m, y, t, sigma, params)
    return m.where(live, f_bs + params.nu * f1 + nu2 * f2, f_bs)


def _implied_coeffs(sigma, rho: float):
    """e1 on the monomials (y, t) and e2 on (t, t^2, t y, y^2), for kappa0 = 0."""
    r2 = rho * rho
    s2 = sigma * sigma
    e1 = (-0.5 * rho, 0.25 * rho * s2)
    e2 = (
        sigma * (1.0 / 12.0 - r2 / 8.0),
        sigma * s2 * (r2 / 8.0 - 1.0 / 24.0),
        -r2 * sigma / 8.0,
        (1.0 / 6.0 - r2 / 4.0) / sigma,
    )
    return e1, e2


def _fold(e1, e2, w1, w2):
    # w1 e1 + w2 e2 on the five monomials (y, t, t^2, t y, y^2)
    (a_y, a_t), (b_t, b_tt, b_ty, b_yy) = e1, e2
    return (w1 * a_y, w1 * a_t + w2 * b_t, w2 * b_tt, w2 * b_ty, w2 * b_yy)


def _monomials(y, t):
    """(y, t, t^2, t y, y^2): the basis sigma_d is a polynomial on."""
    return y, t, t * t, t * y, y * y


def _poly(coeffs, mono):
    # sum_k c_k mono_k, in order
    total = coeffs[0] * mono[0]
    for c, x in zip(coeffs[1:], mono[1:]):
        total = total + c * x
    return total


def _sigma_d_quote(m, mono, sigma, params: SabrParams) -> VolQuote:
    """sigma_d from the monomials of (y, t): sigma + sum_k c_k mono_k with
    c = nu e1 + nu^2 e2 folded onto the five monomials, then the clamp.

    sigma is a float or an array broadcast to the monomials' shape; at
    nu = 0 the fold gives zeros wherever e1 and e2 are finite."""
    if params.kappa0 != 0.0:
        raise DomainError("sigma_d is only available for kappa0 = 0")
    nu = params.nu
    coeffs = _fold(*_implied_coeffs(sigma, params.rho), nu, _nu_squared(nu))
    raw = sigma + _poly(coeffs, mono)
    clamped = raw <= 0.0
    return VolQuote(m.where(clamped, SIGMA_FLOOR, raw), clamped)


_COMPLEX_STEP = 1e-30  # the h of Im f(x + ih) / h, which is f'(x) to rounding


def _sigma_d_jacobian(mono: np.ndarray, params: SabrParams, clamped: np.ndarray) -> np.ndarray:
    """d sigma_d / d(nu, sigma0, rho) per quote from the 5 x n monomials, for
    kappa0 = 0: the monomials times the Jacobian of the coefficients c, plus
    1 on sigma0, and zero where sigma_d is clamped."""
    nu, sigma, rho, h = params.nu, params.sigma0, params.rho, _COMPLEX_STEP

    def step(sigma, rho):  # Im c / h at a complex sigma or rho
        return [c.imag / h for c in _fold(*_implied_coeffs(sigma, rho), nu, nu * nu)]

    d_nu = _fold(*_implied_coeffs(sigma, rho), 1.0, 2.0 * nu)
    jac = mono.T @ np.array([d_nu, step(complex(sigma, h), rho), step(sigma, complex(rho, h))]).T
    jac[:, 1] += 1.0
    jac[clamped] = 0.0
    return jac


def implied_e1(y, sigma, rho: float, t):
    """First-order implied-vol coefficient e1 = -rho sigma sqrt(t) d_- / 2
    = -rho y / 2 + rho sigma^2 t / 4."""
    m, (y, sigma, t) = _args(y, sigma, t)
    _require_sigma_t(sigma, t, "implied_e1")
    _require_rho(rho)
    return _poly(_implied_coeffs(sigma, rho)[0], _monomials(y, t)[:2])


def implied_e2(y, sigma, rho: float, t):
    """Second-order implied-vol coefficient on (t, t^2, t y, y^2):

    e2 = sigma (1/12 - rho^2/8) t + sigma^3 (rho^2/8 - 1/24) t^2
         - rho^2 sigma t y / 8 + (1/6 - rho^2/4) y^2 / sigma.
    """
    m, (y, sigma, t) = _args(y, sigma, t)
    _require_sigma_t(sigma, t, "implied_e2")
    _require_rho(rho)
    return _poly(_implied_coeffs(sigma, rho)[1], _monomials(y, t)[1:])


def _sigma_d(m, y, t, sigma, params: SabrParams) -> VolQuote:
    # at every nu, nu = 0 included, whose zero coefficients would turn an
    # infinite y or t into nan
    _require(m.isfinite(y), "sigma_d requires finite y", y)
    _require_sigma_t(sigma, t, "sigma_d")
    with contextlib.nullcontext() if m is _MATH else np.errstate(over="ignore", invalid="ignore"):
        quote = _sigma_d_quote(m, _monomials(y, t), sigma, params)
    _require_at(m.isfinite(quote.value), "sigma_d overflows a float", y=y, t=t, sigma=sigma)
    return quote


def sigma_d(y, t, params: SabrParams) -> VolQuote:
    """Expansion implied vol sigma + nu e1 + nu^2 e2.

    Nonpositive raw values (possible for extreme parameters probed by
    optimizers) are clamped to a small positive floor and flagged; a value
    that overflows a float is a DomainError naming its point.
    """
    m, (y, t, sigma) = _args(y, t, params.sigma0)
    return _sigma_d(m, y, t, sigma, params)


def price_d(y, t, params: SabrParams, *, sigma=None):
    """Relative price through the implied-vol expansion: c_rel(y, sigma_d, t)."""
    m, (y, t, sigma) = _args(y, t, params.sigma0 if sigma is None else sigma)
    return _c_rel(m, y, _sigma_d(m, y, t, sigma, params).value, t)


def delta_sa2(query: OptionQuery, params: SabrParams) -> float:
    """Hedge ratio of the discounted second-order price, d/dS of e^{-rt} F.

    Equals N(d_+) plus the term-by-term S-derivative of the correction
    terms, mean reversion included; reduces to the Black-Scholes delta at
    nu = 0, and at tiny t, where the corrections take their t -> 0 limit.
    A correction that is not finite raises at every nu, as in `price_sa2`,
    and so does a forward F = S e^{rt} whose 1/F overflows a float.
    """
    y, t = query.log_moneyness, query.expiry
    if not (t > 0.0):
        raise DomainError("delta_sa2 requires t > 0")
    sigma, nu, rho = params.sigma0, params.nu, params.rho
    v, dm = _scaled_d_minus(_MATH, y, sigma, t)
    base = _ncdf(_MATH, dm + v)  # N(d_+)
    nu2 = _nu_squared(nu)
    # the x-derivative over K of each correction: its kernel sum led by a zero
    pdf_v = _npdf(_MATH, dm) / v
    dx_b1, dx_b2 = _t_to_zero(_MATH, v, sigma, t, params, *(
        query.strike
        * (_kernel_sum(dm, v, (0.0, *coeffs(sigma, t, rho, params.kappa0, params.theta))) * pdf_v)
        for coeffs in (f1_coeffs, f2_coeffs)
    ))
    _require_finite("delta_sa2", y, t, dx_b1, dx_b2)
    x = query.log_price
    try:
        per_forward = math.exp(-x)  # 1/F; overflows where F < e^-709.78
    except OverflowError:
        raise DomainError(f"delta_sa2 overflows a float in 1/forward at x = {x}, t = {t}") from None
    return base + per_forward * (nu * dx_b1 + nu2 * dx_b2)

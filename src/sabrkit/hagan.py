"""Hagan-Kumar-Lesniewski-Woodward implied volatility for beta = 1,
with a series regularization of the z/xi(z) backbone near z = 0.

Every function broadcasts over numpy arrays like the kernels in `core`;
the `sigma` keyword of `price_h` replaces params.sigma0, point by point
when it is an array.
"""

from __future__ import annotations

import numpy as np

from .core import DomainError, _args, _c_rel, _require, _require_at
from .expansion import SabrParams, _nu_squared, _require_rho

__all__ = ["z_over_xi", "sigma_h", "price_h"]

Z_SWITCH = 1e-4


def xi(z, rho: float):
    """xi(z) = ln[(sqrt(1 - 2 rho z + z^2) + z - rho) / (1 - rho)]."""
    _require_rho(rho)
    m, (z,) = _args(z)
    return _xi(m, z, rho)


def _xi(m, z, rho: float):
    return m.log((m.sqrt(1.0 - 2.0 * rho * z + z * z) + z - rho) / (1.0 - rho))


def z_over_xi(z, rho: float):
    """The backbone quotient z / xi(z), regularized near z = 0.

    For |z| < Z_SWITCH the cubic Taylor expansion of the quotient is used:
    1 - rho z/2 + (1/6 - rho^2/4) z^2 + (5 rho/24 - rho^3/4) z^3, which
    meets the exact quotient to O(Z_SWITCH^4) at the switch point.
    """
    _require_rho(rho)
    m, (z,) = _args(z)
    return _z_over_xi(m, z, rho)


def _z_over_xi(m, z, rho: float):
    near = abs(z) < Z_SWITCH
    far_z = m.where(near, 1.0, z)  # keeps 0/0 out of the unused branch
    series = 1.0 + z * (
        -0.5 * rho
        + z * ((1.0 / 6.0 - 0.25 * rho * rho) + z * (5.0 * rho / 24.0 - 0.25 * rho**3))
    )
    return m.where(near, series, far_z / _xi(m, far_z, rho))


def sigma_h(y, t, params: SabrParams):
    """Hagan implied volatility

        sigma * (z / xi(z)) * [1 + (rho nu sigma / 4 + (2 - 3 rho^2) nu^2 / 24) t]

    with z = (nu / sigma) y and the quotient from z_over_xi: Hagan et al.'s
    z / xi(z) for |z| >= Z_SWITCH, its Taylor series below, where the raw
    quotient tends to 0/0.
    """
    m, (y, t, sigma) = _args(y, t, params.sigma0)
    return _sigma_h(m, y, t, sigma, params)


def _sigma_h(m, y, t, sigma, params: SabrParams):
    if params.kappa0 != 0.0:
        raise DomainError("sigma_h is only available for kappa0 = 0")
    _require(t >= 0.0, "t must be nonnegative", t)
    _require(sigma > 0.0, "sigma must be positive", sigma)
    nu, rho = params.nu, params.rho
    nu2 = _nu_squared(nu)
    # numpy's overflow warnings are silenced: the checks on z^2 and on the
    # vol catch every non-finite result and name the inputs at its point
    with np.errstate(over="ignore", invalid="ignore"):
        z = nu * y / sigma
        _require_at(m.isfinite(z * z), "z = nu y / sigma overflows z**2", nu=nu, y=y, sigma=sigma)
        backbone = _z_over_xi(m, z, rho)  # SabrParams keeps rho in (-1, 1)
        bracket = 1.0 + (0.25 * rho * nu * sigma + (2.0 - 3.0 * rho * rho) * nu2 / 24.0) * t
        vol = sigma * backbone * bracket
    _require_at(m.isfinite(vol), "sigma_h overflows a float", nu=nu, y=y, t=t, sigma=sigma)
    return vol


def price_h(y, t, params: SabrParams, *, sigma=None):
    """Relative call price through the Hagan vol: c_rel(y, sigma_h, t).

    The bracket of sigma_h turns negative at large rho nu sigma t; such a
    vol is no Black-Scholes vol, and DomainError names it and its point."""
    m, (y, t, sigma) = _args(y, t, params.sigma0 if sigma is None else sigma)
    vol = _sigma_h(m, y, t, sigma, params)
    _require_at(
        vol >= 0.0, "the Hagan vol is negative", vol=vol, nu=params.nu, y=y, t=t, sigma=sigma
    )
    return _c_rel(m, y, vol, t)

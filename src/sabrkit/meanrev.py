"""Deterministic-volatility limit of the mean-reverting model.

When the vol-of-vol is switched off but kappa > 0 the volatility relaxes
deterministically toward theta, and the call price is Black-Scholes with
the time-averaged variance

    V = theta^2 tau + (2 theta / kappa)(z - theta)(e^{kappa tau} - 1)
        + ((z - theta)^2 / (2 kappa))(e^{2 kappa tau} - 1),

where z parametrizes the terminal volatility and tau is time to expiry.
`det_vol_price` is `core.bs_call` at the effective vol sqrt(V / tau).
The state's fields and tau are finite; where e^{kappa tau} or V
overflows a float, a DomainError names kappa and tau. On the flat path
z = theta the volatility is theta and V is theta^2 tau at every kappa tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DomainError, OptionQuery, _require_at, bs_call

__all__ = ["MeanRevState", "sigma_of_z", "total_variance", "det_vol_price"]

@dataclass(frozen=True)
class MeanRevState:
    """Terminal-volatility parametrization of the deterministic vol path."""

    z: float
    kappa: float
    theta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.z < math.inf):
            raise DomainError(f"z must be positive and finite, got {self.z}")
        if not (0.0 <= self.kappa < math.inf):
            raise DomainError(f"kappa must be nonnegative and finite, got {self.kappa}")
        if not (0.0 <= self.theta < math.inf):
            raise DomainError(f"theta must be nonnegative and finite, got {self.theta}")


def _require_tau(tau: float) -> None:
    if not (0.0 <= tau < math.inf):
        raise DomainError(f"tau must be nonnegative and finite, got {tau}")


def _require_finite(value: float, what: str, state: MeanRevState, tau: float) -> float:
    _require_at(math.isfinite(value), f"{what} overflows a float", kappa=state.kappa, tau=tau)
    return value


def _grown(f, kt: float) -> float:
    # f(kt) for f = exp or expm1, inf where it overflows a float
    try:
        return f(kt)
    except OverflowError:
        return math.inf


def sigma_of_z(state: MeanRevState, tau: float) -> float:
    """Volatility tau years before expiry: e^{kappa tau} z - theta (e^{kappa tau} - 1)."""
    _require_tau(tau)
    if state.z == state.theta:  # the flat path, where e^{kappa tau} may overflow
        return state.theta
    e = _grown(math.exp, state.kappa * tau)
    return _require_finite(e * state.z - state.theta * (e - 1.0), "sigma_of_z", state, tau)


def total_variance(state: MeanRevState, tau: float) -> float:
    """Integrated variance of the deterministic vol path over [0, tau]: the
    closed form, with e^{kappa tau} - 1 from expm1. Where 1 + kappa tau
    rounds to 1 (kappa = 0 included) or z = theta, the closed form can
    divide by 0, overflow or lose kappa tau, and its kappa -> 0 form is
    used, exact to rounding there."""
    _require_tau(tau)
    z, kappa, theta = state.z, state.kappa, state.theta
    dev = z - theta
    kt = kappa * tau
    if dev == 0.0 or 1.0 + kt == 1.0:
        variance = theta * theta * tau + 2.0 * theta * dev * tau + dev * dev * tau
    else:
        variance = (
            theta * theta * tau
            + (2.0 * theta / kappa) * dev * _grown(math.expm1, kt)
            + (dev * dev / (2.0 * kappa)) * _grown(math.expm1, 2.0 * kt)
        )
    return _require_finite(variance, "total_variance", state, tau)


def det_vol_price(query: OptionQuery, state: MeanRevState) -> float:
    """Discounted call price under the deterministic vol path: Black-Scholes
    with total variance V in place of sigma^2 t."""
    tau = query.expiry
    if tau == 0.0:
        return bs_call(query, 0.0)
    return bs_call(query, math.sqrt(max(total_variance(state, tau), 0.0) / tau))

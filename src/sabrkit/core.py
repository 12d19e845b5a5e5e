"""Shared mathematical kernels: normal distribution, Hermite polynomials,
Black-Scholes pricing, and the Gaussian heat kernel the expansion terms
are built from.

The closed-form kernels (`norm_cdf`, `norm_pdf`, `d_minus`, `hermite`,
`h_tilde`, `phi_t`, `c_rel`) broadcast over numpy arrays: an array call
evaluates every point in one pass and raises DomainError when any element
is outside the domain. The arguments keep their own shapes, so each
operation runs over the broadcast of its own operands only (on an open
mesh such as `np.ix_`'s, a factor of y alone is computed once per y), and
the result has the broadcast shape of all the arguments. A call with plain
floats returns a float computed with the math module; it agrees with the
same point of an array call to a few units in the last place. `OptionQuery`,
`bs_call`, `norm_ppf` and `bs_implied_vol` stay scalar; d_+ is d_- plus
sigma sqrt(t).

Each public kernel chooses its operations once, in `_args`; kernels that
build on one another call its private form, which takes those operations
(`_c_rel`, `_ncdf`, `_npdf`, `_hermite`), so no check or dispatch repeats
within a call.

`c_rel` is the package's only Black-Scholes evaluator: `bs_call`, the
deterministic-vol price in `meanrev`, the leading term of the series
price in `expansion` and the FD boundary data in `fd` all call it.

An array `norm_cdf` (and so an array `c_rel`) evaluates scipy's `erfc`
ufunc; `scipy.special` is imported at the first such call, not with this
module, so importing sabrkit, or a run that makes no array call (a
`price` lattice, an `mc` run, a `sigma_d` calibration), does not load
it. Float calls use `math.erfc`.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "DomainError",
    "OptionQuery",
    "norm_cdf",
    "norm_pdf",
    "norm_ppf",
    "hermite",
    "h_tilde",
    "phi_t",
    "d_minus",
    "bs_call",
    "c_rel",
    "bs_implied_vol",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_STD_NORMAL = NormalDist()
# the largest y whose e^y is a float
_MAX_EXP_ARG = math.log(sys.float_info.max)
# bs_implied_vol's sigma bracket, price tolerance and iteration limit
_IV_LO = 1e-6
_IV_HI = 5.0
_IV_TOL = 1e-12
_IV_MAX_ITER = 200

log = logging.getLogger(__name__)


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


@dataclass(frozen=True)
class OptionQuery:
    """European call contract description.

    Attributes:
        spot: current underlying price S > 0.
        strike: strike K > 0.
        rate: continuously compounded interest rate (per year).
        expiry: time to expiry in years, >= 0.

    Every field must be finite, and the forward S e^{rt} and the discounted
    strike K e^{-rt} positive floats.
    """

    spot: float
    strike: float
    rate: float = 0.0
    expiry: float = 1.0

    def __post_init__(self) -> None:
        for name in ("spot", "strike", "rate", "expiry"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if not (self.spot > 0.0):
            raise DomainError(f"spot must be positive, got {self.spot}")
        if not (self.strike > 0.0):
            raise DomainError(f"strike must be positive, got {self.strike}")
        if not (self.expiry >= 0.0):
            raise DomainError(f"expiry must be nonnegative, got {self.expiry}")
        for what, name, sign in (
            ("the forward S e^(rt)", "spot", 1.0),
            ("the discounted strike K e^(-rt)", "strike", -1.0),
        ):
            try:
                value = getattr(self, name) * math.exp(sign * self.rate * self.expiry)
            except OverflowError:
                value = math.inf
            _require_at(
                0.0 < value < math.inf, f"{what} is not a positive float",
                **{name: getattr(self, name)}, rate=self.rate, expiry=self.expiry,
            )

    @property
    def forward(self) -> float:
        """Forward price F = S e^{rt}."""
        return self.spot * math.exp(self.rate * self.expiry)

    @property
    def log_price(self) -> float:
        """x = ln(S e^{rt})."""
        return math.log(self.spot) + self.rate * self.expiry

    @property
    def log_moneyness(self) -> float:
        """y = ln(S e^{rt} / K); invariant under joint (S, K) rescaling."""
        return self.log_price - math.log(self.strike)


class _Ops(NamedTuple):
    """The elementary operations a kernel formula is written in: the math
    module for float calls, numpy for array calls."""

    exp: Callable
    sqrt: Callable
    log: Callable
    erfc: Callable
    where: Callable
    maximum: Callable
    ones_like: Callable
    isfinite: Callable


_MATH = _Ops(
    math.exp, math.sqrt, math.log, math.erfc,
    lambda cond, a, b: a if cond else b, max, lambda x: 1.0, math.isfinite,
)


def _erfc(x):
    # scipy.special loads at the first array call, so a run that makes none
    # (an mc run, a sigma_d calibration) never pays its import
    from scipy.special import erfc

    return erfc(x)


_NUMPY = _Ops(
    np.exp, np.sqrt, np.log, _erfc, np.where, np.maximum, np.ones_like, np.isfinite
)


def _args(*xs) -> tuple[_Ops, list]:
    """The operations and arguments of one kernel call.

    All-scalar arguments become floats evaluated with the math module, in
    the same arithmetic as a plain-float implementation; callers such as
    bs_implied_vol at deep in-the-money points depend on those last digits.
    Otherwise every argument becomes a float array in its own shape, and
    numpy evaluates the same formula element-wise, broadcasting each
    operation over its own operands; the result has the broadcast shape of
    all the arguments.
    """
    for x in xs:
        if not isinstance(x, (float, int)) and np.ndim(x) != 0:
            return _NUMPY, [np.asarray(a, dtype=float) for a in xs]
    return _MATH, [float(x) for x in xs]


def _all(ok) -> bool:
    # ok is a bool from a float call or a bool array from an array call
    return ok if isinstance(ok, bool) else bool(ok.all())


def _any(ok) -> bool:
    return ok if isinstance(ok, bool) else bool(ok.any())


def _require(ok, what: str, values) -> None:
    """DomainError naming the first offending value unless ok holds
    everywhere."""
    if not _all(ok):
        bad = values if isinstance(ok, bool) else values[~ok].flat[0]
        raise DomainError(f"{what}, got {bad}")


def _require_int(value, name: str) -> int:
    """value as an int, or DomainError naming the argument: a bool and a
    non-integer are refused, a numpy integer is accepted."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _require_at(ok, what: str, **inputs) -> None:
    """DomainError naming every input's value at the first point where ok
    fails, unless ok holds everywhere; ok and the array inputs broadcast
    together, and only on the error path."""
    if not _all(ok):
        if not isinstance(ok, bool):
            shape = np.broadcast_shapes(np.shape(ok), *(np.shape(v) for v in inputs.values()))
            i = int(np.flatnonzero(~np.broadcast_to(ok, shape))[0])
            inputs = {
                k: np.broadcast_to(v, shape).flat[i] if np.ndim(v) else v
                for k, v in inputs.items()
            }
        point = ", ".join(f"{k} = {v}" for k, v in inputs.items())
        raise DomainError(f"{what} at {point}")


def _ncdf(m: _Ops, x):
    # N(x) = erfc(-x / sqrt 2) / 2; x / -sqrt 2 is -x / sqrt 2 bit for bit,
    # without the negated copy of x
    return 0.5 * m.erfc(x / -_SQRT2)


def _npdf(m: _Ops, x):
    # N'(x)
    return _INV_SQRT_2PI * m.exp(-0.5 * x * x)


def norm_cdf(x):
    """Standard normal CDF via erfc; absolute error below 1e-15."""
    m, (x,) = _args(x)
    return _ncdf(m, x)


def norm_pdf(x):
    """Standard normal density e^{-x^2/2} / sqrt(2 pi)."""
    m, (x,) = _args(x)
    return _npdf(m, x)


def norm_ppf(p: float) -> float:
    """Inverse standard normal CDF."""
    if not (0.0 < p < 1.0):
        raise DomainError(f"probability must lie in (0, 1), got {p}")
    return _STD_NORMAL.inv_cdf(p)


def hermite(n: int, x):
    """Probabilist's Hermite polynomial H_n(x) for 0 <= n <= 5.

    Uses the recurrence H_{n+1}(x) = x H_n(x) - n H_{n-1}(x).
    """
    n = _hermite_order(n)
    m, (x,) = _args(x)
    return _hermite(m, n, x)


def _hermite_order(n) -> int:
    # n as an int in 0..5, or a DomainError naming the order
    n = _require_int(n, "hermite order")
    if not 0 <= n <= 5:
        raise DomainError(f"hermite order must be an integer in 0..5, got {n}")
    return n


def _hermite(m: _Ops, n: int, x):
    # H_n(x) for a checked order n
    if n == 0:
        return m.ones_like(x)
    h_prev, h = 1.0, x
    for k in range(1, n):
        h_prev, h = h, x * h - k * h_prev
    return h


def _d_minus_of(m: _Ops, y, v):
    # d_- from y and v = sigma sqrt(t) > 0
    if m is _MATH:
        return y / v - 0.5 * v
    # a subnormal v overflows y / v to +-inf, the correct limit of d_-
    with np.errstate(over="ignore"):
        return y / v - 0.5 * v


def _require_finite(sigma, t) -> None:
    # the kernels' one rule on an infinite sigma or t, after their sign
    # checks (which a NaN fails); each is checked in its own shape
    _require(sigma < math.inf, "sigma must be finite", sigma)
    _require(t < math.inf, "t must be finite", t)


def _scaled_d_minus(m: _Ops, y, sigma, t):
    # (sigma sqrt(t), d_-) after the checks: finite sigma > 0 and t > 0
    _require(sigma > 0.0, "sigma must be positive", sigma)
    _require(t > 0.0, "t must be positive", t)
    _require_finite(sigma, t)
    v = sigma * m.sqrt(t)
    return v, _d_minus_of(m, y, v)


def h_tilde(n: int, u, sigma, t):
    """Scaled Hermite factor (-1/(sigma sqrt(t)))^n H_n(l(u)).

    Here l(u) = u/(sigma sqrt(t)) - sigma sqrt(t)/2, so that the n-th
    u-derivative of the Gaussian kernel phi_t equals h_tilde(n) * phi_t.
    """
    m, (u, sigma, t) = _args(u, sigma, t)
    v, ell = _scaled_d_minus(m, u, sigma, t)
    n = _hermite_order(n)
    return (-1.0 / v) ** n * _hermite(m, n, ell)


def phi_t(u, sigma, t):
    """Heat kernel of the forward Black-Scholes generator.

    phi_t(u, sigma) = exp(-l(u)^2/2) / (sigma sqrt(2 pi t)); integrates
    to 1 in u and satisfies d^n/du^n phi_t = h_tilde(n) phi_t.
    """
    m, (u, sigma, t) = _args(u, sigma, t)
    _, ell = _scaled_d_minus(m, u, sigma, t)
    return m.exp(-0.5 * ell * ell) / (sigma * m.sqrt(2.0 * math.pi * t))


def d_minus(y, sigma, t):
    """d_- = y/(sigma sqrt(t)) - sigma sqrt(t)/2 from log-moneyness."""
    m, (y, sigma, t) = _args(y, sigma, t)
    return _scaled_d_minus(m, y, sigma, t)[1]


def bs_call(query: OptionQuery, sigma: float) -> float:
    """Black-Scholes call price C = K e^{-rt} c_rel(y, sigma, t).

    At expiry (t = 0) this is the payoff max(S - K, 0); sigma = 0 gives
    the discounted intrinsic value max(S - K e^{-rt}, 0).
    """
    t = query.expiry
    return query.strike * math.exp(-query.rate * t) * c_rel(query.log_moneyness, sigma, t)


def c_rel(y, sigma, t):
    """Strike-normalized forward call price e^y N(d_+) - N(d_-).

    Equals K^{-1} e^{rt} bs_call for any (S, K, r) with ln(S e^{rt}/K) = y.
    Points with sigma sqrt(t) = 0 take the intrinsic value (e^y - 1)^+.
    A NaN y, or one whose e^y overflows a float, raises DomainError, as
    does a sigma or t that is negative or not finite.
    """
    m, (y, sigma, t) = _args(y, sigma, t)
    return _c_rel(m, y, sigma, t)


def _c_rel(m: _Ops, y, sigma, t):
    # c_rel with the operations m, its checks included
    _require(y <= _MAX_EXP_ARG, "y must be a number whose e^y is a float", y)
    _require(sigma >= 0.0, "sigma must be nonnegative", sigma)
    _require(t >= 0.0, "t must be nonnegative", t)
    _require_finite(sigma, t)
    v = sigma * m.sqrt(t)
    flat = v == 0.0  # also where the product underflows
    if _any(flat):
        # evaluate the formula at a harmless point, then take the payoff
        payoff = m.maximum(m.exp(y) - 1.0, 0.0)
        live = _c_rel(m, y, m.where(flat, 1.0, sigma), m.where(flat, 1.0, t))
        return m.where(flat, payoff, live)
    dm = _d_minus_of(m, y, v)
    return m.exp(y) * _ncdf(m, dm + v) - _ncdf(m, dm)


def _c_rel_vega(m: _Ops, y, sigma, t):
    # d/dsigma c_rel = sqrt(t) N'(d_-), in the operations of d_minus and
    # norm_pdf; its callers keep sigma > 0 and t > 0
    root_t = m.sqrt(t)
    return root_t * _npdf(m, _d_minus_of(m, y, sigma * root_t))


def bs_implied_vol(price: float, y: float, t: float) -> float:
    """Invert c_rel in sigma by bracketed Newton with bisection fallback.

    Raises DomainError if y is not finite or e^y overflows, if t is not
    finite and positive, if the price lies outside the no-arbitrage band
    (intrinsic, e^y) or outside the bracket sigma in [1e-6, 5]. Stops at a
    price error of 1e-12, or logs a warning and returns the last iterate
    at the iteration limit.
    """
    y, t = float(y), float(t)  # the math-module _c_rel below takes floats
    _require(-math.inf < y <= _MAX_EXP_ARG, "implied vol requires a y whose e^y is a float", y)
    _require(0.0 < t < math.inf, "implied vol requires a finite t > 0", t)
    intrinsic = max(math.exp(y) - 1.0, 0.0)
    if not (intrinsic < price < math.exp(y)):
        raise DomainError(
            f"price {price} outside the no-arbitrage band "
            f"({intrinsic}, {math.exp(y)})"
        )
    lo, hi = _IV_LO, _IV_HI
    f_lo = _c_rel(_MATH, y, lo, t) - price
    f_hi = _c_rel(_MATH, y, hi, t) - price
    if f_lo > 0.0 or f_hi < 0.0:
        raise DomainError(f"price {price} not bracketed by sigma in [{lo}, {hi}]")
    sigma = 0.5 * (lo + hi)
    for _ in range(_IV_MAX_ITER):
        f = _c_rel(_MATH, y, sigma, t) - price
        if abs(f) <= _IV_TOL:
            return sigma
        if f > 0.0:
            hi = sigma
        else:
            lo = sigma
        vega = _c_rel_vega(_MATH, y, sigma, t)
        step_ok = vega > 0.0
        if step_ok:
            candidate = sigma - f / vega
            step_ok = lo < candidate < hi
        sigma = candidate if step_ok else 0.5 * (lo + hi)
    log.warning(
        "bs_implied_vol: no convergence to tol=%g in %d iterations at y=%r, t=%r; "
        "returning sigma=%r", _IV_TOL, _IV_MAX_ITER, y, t, sigma,
    )
    return sigma

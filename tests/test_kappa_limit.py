"""The mean-reversion terms of the sa2 series, derived a second way: from
the nu = 0 limit, where the vol path is deterministic.

With kappa = nu kappa0 the vol relaxes as sigma(s) = theta + (sigma -
theta) e^{-kappa s}, and the price is Black-Scholes at the total variance
V(kappa) = int_0^t sigma(s)^2 ds, the `meanrev` model. Its kappa-Taylor
coefficients are the pure-kappa0 parts of F1 and F2; at rho = 0 those are
the kappa0 = 1 minus kappa0 = 0 differences of `price_sa2`'s F1 and F2:

    F1 / K = P_V V'(0),    F2 / K = (P_VV V'(0)^2 + P_V V''(0)) / 2,

with V'(0) = sigma (theta - sigma) t^2, V''(0) = (2/3) t^3 (sigma -
theta)(2 sigma - theta), P_V = N'(d_-) / (2 sqrt(V)) the variance
derivative of c_rel at V = sigma^2 t and P_VV = P_V (d_+ d_- - 1) / (2V).
Their y-derivatives, times K/S, are the kappa0 part of `delta_sa2`.
The oracle needs the standard library and numpy only.
"""

import math

import numpy as np

from sabrkit import OptionQuery, SabrParams, delta_sa2, price_sa2
from sabrkit.meanrev import MeanRevState, total_variance

N_DRAWS = 2000


def draws(seed):
    rng = np.random.default_rng(seed)
    return zip(
        rng.uniform(0.05, 0.6, N_DRAWS).tolist(),  # sigma
        rng.uniform(0.0, 0.6, N_DRAWS).tolist(),  # theta
        rng.uniform(0.05, 3.0, N_DRAWS).tolist(),  # t
        rng.uniform(-1.0, 1.0, N_DRAWS).tolist(),  # y
    )


def v_prime(sigma, theta, t):
    return sigma * (theta - sigma) * t * t


def v_second(sigma, theta, t):
    return 2.0 / 3.0 * t**3 * (sigma - theta) * (2.0 * sigma - theta)


def p_v_terms(sigma, t, y):
    # V = sigma^2 t, sqrt(V), d_-, d_+ and P_V at y
    var = sigma * sigma * t
    root = math.sqrt(var)
    d_minus = y / root - root / 2.0
    d_plus = d_minus + root
    p_v = math.exp(-0.5 * d_minus * d_minus) / math.sqrt(2.0 * math.pi) / (2.0 * root)
    return var, root, d_minus, d_plus, p_v


def rel_err(got, want):
    return abs(got - want) / max(abs(got) + abs(want), math.ulp(0.0))


def test_kappa0_terms_are_the_deterministic_vol_limit():
    worst1 = worst2 = 0.0
    for sigma, theta, t, y in draws(seed=12):
        q = OptionQuery(spot=math.exp(y), strike=1.0, expiry=t)
        # nu enters neither F1 nor F2
        on = price_sa2(q, SabrParams(sigma, 0.0, 0.0, 1.0, theta))
        off = price_sa2(q, SabrParams(sigma, 0.0, 0.0, 0.0, theta))
        f1, f2 = on.f1 - off.f1, on.f2 - off.f2
        var, _, d_minus, d_plus, p_v = p_v_terms(sigma, t, q.log_moneyness)
        p_vv = p_v * (d_plus * d_minus - 1.0) / (2.0 * var)
        dv, d2v = v_prime(sigma, theta, t), v_second(sigma, theta, t)
        worst1 = max(worst1, rel_err(f1, p_v * dv))
        worst2 = max(worst2, rel_err(f2, 0.5 * (p_vv * dv * dv + p_v * d2v)))
    assert worst1 <= 1e-11, worst1
    assert worst2 <= 1e-11, worst2


def test_kappa0_part_of_delta_is_the_y_derivative_of_the_limit():
    # at rho = 0, delta_sa2(kappa0 = 1) - delta_sa2(kappa0 = 0) is
    # (K/S) [nu dP_V V'(0) + nu^2 (dP_VV V'(0)^2 + dP_V V''(0)) / 2], with d the
    # y-derivative: dP_V = -P_V d_- / sqrt(V) and dP_VV = dP_V (d_+ d_- - 1)
    # / (2V) + P_V (d_+ + d_-) / (2V sqrt(V)). Both deltas carry the same
    # N(d_+), which rounds at the deltas' size, so the error is taken
    # relative to |delta(1)| + |delta(0)|
    nus = np.random.default_rng(15).uniform(0.05, 1.0, N_DRAWS).tolist()
    worst = 0.0
    for (sigma, theta, t, y), nu in zip(draws(seed=14), nus):
        q = OptionQuery(spot=math.exp(y), strike=1.0, expiry=t)
        one, zero = (
            delta_sa2(q, SabrParams(sigma0=sigma, nu=nu, rho=0.0, kappa0=k, theta=theta))
            for k in (1.0, 0.0)
        )
        var, root, d_minus, d_plus, p_v = p_v_terms(sigma, t, q.log_moneyness)
        dy_p_v = -p_v * d_minus / root
        dy_p_vv = dy_p_v * (d_plus * d_minus - 1.0) / (2.0 * var) + p_v * (
            d_plus + d_minus
        ) / (2.0 * var * root)
        dv, d2v = v_prime(sigma, theta, t), v_second(sigma, theta, t)
        want = q.strike / q.spot * (
            nu * dy_p_v * dv + 0.5 * nu * nu * (dy_p_vv * dv * dv + dy_p_v * d2v)
        )
        scale = max(abs(one) + abs(zero), math.ulp(0.0))
        worst = max(worst, abs((one - zero) - want) / scale)
    assert worst <= 1e-11, worst


def test_variance_derivatives_are_meanrev_total_variance():
    # V(kappa) from meanrev, whose coordinate is the terminal vol z; a
    # plain two-point second difference would be off by h V''' (up to 41 x
    # V'' near its zeros), so both stencils are second order and one-sided
    worst1 = worst2 = 0.0
    for sigma, theta, t, _ in draws(seed=13):
        h = 1e-3 / t

        def variance(kappa):
            z = theta + (sigma - theta) * math.exp(-kappa * t)
            return total_variance(MeanRevState(z=z, kappa=kappa, theta=theta), t)

        v0, v1, v2, v3 = (variance(k * h) for k in range(4))
        dv = (-3.0 * v0 + 4.0 * v1 - v2) / (2.0 * h)
        d2v = (2.0 * v0 - 5.0 * v1 + 4.0 * v2 - v3) / (h * h)
        scale = max(sigma, theta) ** 2
        worst1 = max(worst1, abs(dv - v_prime(sigma, theta, t)) / (t * t * scale))
        worst2 = max(worst2, abs(d2v - v_second(sigma, theta, t)) / (t**3 * scale))
    assert worst1 <= 1e-5, worst1
    assert worst2 <= 1e-5, worst2

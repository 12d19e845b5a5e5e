"""Acceptance gate: one pass/fail line per criterion.

Each test evaluates one shipping criterion at its stated tolerance and
prints `criterion N: PASS|FAIL (detail)` outside of pytest's capture, so
the gate status is readable straight from the run log.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from sabrkit import (
    McConfig,
    MeanRevState,
    OptionQuery,
    SabrParams,
    c_rel,
    calibrate_panel,
    compare,
    d_minus,
    delta_sa2,
    h_tilde,
    hermite,
    norm_cdf,
    phi_t,
    price_d,
    price_h,
    price_sa2,
    price_sa2_rel,
    residual_norm,
    richardson_ratios,
    sigma_d,
    sigma_h,
    sigma_of_z,
    simulate_prices,
    solve_sequence,
    synth_panel,
    total_variance,
)
from sabrkit.cli import RESIDUAL_PRESETS
from sabrkit.expansion import f1_coeffs, implied_e1, implied_e2
from sabrkit.fd import ResidualRegion
from sabrkit.models import price_fn_for_model


def report(capsys, n: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


def rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


@pytest.fixture(scope="module")
def fd_sequence():
    # shared by the Richardson and FD-comparison criteria
    params = SabrParams(sigma0=0.18, nu=1.0, rho=-0.2)
    return params, solve_sequence(params, 0.5, max_level=3)


def test_criterion_01_nu_zero_collapse(capsys):
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(500):
        y = float(rng.uniform(-0.8, 0.8))
        s = float(rng.uniform(0.05, 0.8))
        t = float(rng.uniform(0.05, 3.0))
        rho = float(rng.uniform(-0.9, 0.9))
        params = SabrParams(sigma0=s, nu=0.0, rho=rho)
        bs = c_rel(y, s, t)
        worst = max(worst, rel_err(price_sa2_rel(y, t, params), bs))
        worst = max(worst, rel_err(price_d(y, t, params), bs))
        worst = max(worst, rel_err(price_h(y, t, params), bs))
        worst = max(worst, rel_err(sigma_d(y, t, params).value, s))
        q = OptionQuery(spot=math.exp(y), strike=1.0, rate=0.0, expiry=t)
        v = s * math.sqrt(t)
        bs_delta = norm_cdf(y / v + 0.5 * v)
        worst = max(worst, rel_err(delta_sa2(q, params), bs_delta))
    report(capsys, 1, worst <= 1e-12, f"worst rel err {worst:.3g} <= 1e-12")


def _f1_coefficient_form(y, s, t, rho, kappa0, theta):
    a10, a11 = f1_coeffs(s, t, rho, kappa0, theta)
    return phi_t(y, s, t) * (a10 + a11 * h_tilde(1, y, s, t))


def _f2_xi_form(y, s, t, rho):
    # alternative Gaussian-polynomial form of F2 at kappa0 = 0
    v = s * math.sqrt(t)
    z = d_minus(y, s, t)
    a = (
        6.0
        + 4.0 * v * hermite(1, z)
        + (12.0 * rho**2 + 4.0) * hermite(2, z)
        + 3.0 * rho**2 * v * hermite(3, z)
        + 3.0 * rho**2 * hermite(4, z)
    )
    return (s * s * t * t / 24.0) * a * phi_t(y, s, t)


def _e2_a_form(y, s, t, rho):
    v = s * math.sqrt(t)
    z = d_minus(y, s, t)
    a = (
        6.0
        + 4.0 * v * hermite(1, z)
        + (12.0 * rho**2 + 4.0) * hermite(2, z)
        + 3.0 * rho**2 * v * hermite(3, z)
        + 3.0 * rho**2 * hermite(4, z)
    )
    return (v * math.sqrt(t) / 24.0) * (a - 3.0 * rho**2 * z**3 * (z + v))


def test_criterion_02_dual_forms(capsys):
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        y = float(rng.uniform(-0.6, 0.6))
        s = float(rng.uniform(0.08, 0.6))
        t = float(rng.uniform(0.1, 3.0))
        rho = float(rng.uniform(-0.9, 0.9))
        kappa0 = float(rng.uniform(0.0, 2.0))
        theta = float(rng.uniform(0.05, 0.5))
        q = OptionQuery(spot=math.exp(y), strike=1.0, rate=0.0, expiry=t)
        worst = max(
            worst,
            rel_err(
                price_sa2(q, SabrParams(s, 0.0, rho, kappa0, theta)).f1,
                _f1_coefficient_form(y, s, t, rho, kappa0, theta),
            ),
        )
        worst = max(
            worst, rel_err(price_sa2(q, SabrParams(s, 0.0, rho)).f2, _f2_xi_form(y, s, t, rho))
        )
        e1_direct = implied_e1(y, s, rho, t)
        e1_alt = 0.25 * rho * (s * s * t - 2.0 * y)
        worst = max(worst, rel_err(e1_direct, e1_alt))
        worst = max(
            worst, rel_err(implied_e2(y, s, rho, t), _e2_a_form(y, s, t, rho))
        )
    report(capsys, 2, worst <= 1e-10, f"worst rel err {worst:.3g} <= 1e-10")


def test_criterion_03_hagan_first_order(capsys):
    h = 1e-6
    worst = 0.0
    for y in (-0.3, 0.0, 0.3):
        for rho in (-0.5, 0.0, 0.5):
            for t in (0.25, 1.0):
                up = SabrParams(sigma0=0.2, nu=h, rho=rho)
                dn = SabrParams(sigma0=0.2, nu=0.0, rho=rho)
                slope = (sigma_h(y, t, up) - sigma_h(y, t, dn)) / h
                worst = max(worst, abs(slope - implied_e1(y, 0.2, rho, t)))
    report(capsys, 3, worst <= 1e-6, f"worst abs err {worst:.3g} <= 1e-6")


def test_criterion_04_residual_ordering(capsys):
    preset = RESIDUAL_PRESETS["table4"]
    region = ResidualRegion(
        t_range=preset["t_range"],
        sigma_range=preset["sigma_range"],
        y_range=preset["y_range"],
    )
    params = SabrParams(sigma0=0.2, nu=preset["nu"], rho=preset["rho"])
    scaled = {}
    for model in ("bs", "h", "d", "sa2"):
        fn = price_fn_for_model(model, params)
        scaled[model] = preset["scale"] * residual_norm(fn, params, region)
    targets = {"bs": 16.4, "h": 0.489, "d": 0.181, "sa2": 0.163}
    clauses = [
        ("R_bs > 10 R_h", scaled["bs"] > 10 * scaled["h"]),
        ("R_sa2 <= R_d", scaled["sa2"] <= scaled["d"]),
        ("R_d <= R_h", scaled["d"] <= scaled["h"]),
    ]
    for model, target in targets.items():
        clauses.append(
            (
                f"R_{model} within 3x of {target}",
                target / 3.0 <= scaled[model] <= target * 3.0,
            )
        )
    failed = [name for name, ok in clauses if not ok]
    values = ", ".join(f"{m}={scaled[m]:.3g}" for m in ("bs", "h", "d", "sa2"))
    detail = f"10^3 R: {values}" + (
        f"; failed: {'; '.join(failed)}" if failed else ""
    )
    report(capsys, 4, not failed, detail)


def test_criterion_05_richardson(capsys, fd_sequence):
    _, solutions = fd_sequence
    ratios = richardson_ratios(solutions)
    ok = all(0.2 <= r <= 0.32 for r in ratios)
    report(
        capsys, 5, ok,
        "ratios " + ", ".join(f"{r:.4f}" for r in ratios) + " in [0.2, 0.32]",
    )


def test_criterion_06_fd_comparison(capsys, fd_sequence):
    params, solutions = fd_sequence
    sol = solutions[-1]
    l2_h = 100.0 * compare(sol, price_fn_for_model("h", params)).l2
    l2_sa2 = 100.0 * compare(sol, price_fn_for_model("sa2", params)).l2
    l2_bs = 100.0 * compare(sol, price_fn_for_model("bs", params)).l2
    ok = (
        0.5 * 0.029 <= l2_h <= 1.5 * 0.029
        and 0.5 * 0.051 <= l2_sa2 <= 1.5 * 0.051
        and l2_h < l2_bs
        and l2_sa2 < l2_bs
    )
    report(
        capsys, 6, ok,
        f"100 l2: h={l2_h:.4f} (target 0.029 +-50%), "
        f"sa2={l2_sa2:.4f} (target 0.051 +-50%), bs={l2_bs:.4f}",
    )


def test_criterion_07_mc_agreement(capsys):
    query = OptionQuery(spot=10.0, strike=10.0, rate=0.0, expiry=1.0)
    params = SabrParams(sigma0=0.2, nu=0.2, rho=-0.3)
    c_mc, se = simulate_prices([query], params, McConfig(n_paths=30000, dt=1e-3, seed=0))[0]
    series = price_sa2(query, params).total
    diff = abs(series - c_mc)
    bound = max(3.0 * se, 0.003 * c_mc)
    report(
        capsys, 7, diff <= bound,
        f"|C_sa2 - C_mc| = {diff:.4g} <= max(3 se, 0.3%) = {bound:.4g}",
    )


def test_criterion_08_nu_cubed_slope(capsys):
    y, s, rho, t = 0.1, 0.2, -0.4, 1.0
    nus = np.array([0.025, 0.05, 0.1, 0.2])
    gaps = []
    for nu in nus:
        params = SabrParams(sigma0=s, nu=float(nu), rho=rho)
        gaps.append(abs(price_d(y, t, params) - price_sa2_rel(y, t, params)))
    slope = float(np.polyfit(np.log(nus), np.log(gaps), 1)[0])
    report(capsys, 8, 2.7 <= slope <= 3.3, f"log-log slope {slope:.3f} in 3 +- 0.3")


def test_criterion_09_delta_consistency(capsys):
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(100):
        spot = float(rng.uniform(0.5, 2.0))
        strike = float(rng.uniform(0.5, 2.0))
        rate = float(rng.uniform(0.0, 0.06))
        t = float(rng.uniform(0.1, 3.0))
        params = SabrParams(
            sigma0=float(rng.uniform(0.1, 0.5)),
            nu=float(rng.uniform(0.0, 1.0)),
            rho=float(rng.uniform(-0.8, 0.8)),
        )
        h = 1e-5 * spot

        def disc_price(sp):
            q = OptionQuery(spot=sp, strike=strike, rate=rate, expiry=t)
            return math.exp(-rate * t) * price_sa2(q, params).total

        fd = (disc_price(spot + h) - disc_price(spot - h)) / (2.0 * h)
        q = OptionQuery(spot=spot, strike=strike, rate=rate, expiry=t)
        worst = max(worst, rel_err(delta_sa2(q, params), fd))
    report(capsys, 9, worst <= 1e-6, f"worst rel err {worst:.3g} <= 1e-6")


def test_criterion_10_calibration_recovery(capsys):
    true = SabrParams(sigma0=0.19, nu=1.3, rho=-0.55)
    init = (1.0, 0.25, -0.3)
    clean = synth_panel(true, 30, noise_level=0.0, seed=10)
    clean_res = calibrate_panel(clean, init, "sigma_d")
    err = max(
        max(abs(r.nu - 1.3), abs(r.sigma - 0.19), abs(r.rho + 0.55))
        for r in clean_res
    )
    noise = 0.01
    noisy = synth_panel(true, 30, noise_level=noise, seed=11)
    noisy_res = calibrate_panel(noisy, init, "sigma_d")
    ise = float(np.mean([r.ise for r in noisy_res]))
    ose = float(np.mean([r.ose for r in noisy_res[1:]]))
    ok = err <= 1e-3 and noise / 2.0 <= ise <= noise * 2.0 and ose >= ise
    report(
        capsys, 10, ok,
        f"zero-noise param err {err:.2g} <= 1e-3; "
        f"ISE {ise:.4f} within 2x of noise 0.01; OSE {ose:.4f} >= ISE",
    )


def test_criterion_11_mean_reversion(capsys):
    rng = np.random.default_rng(1111)
    worst = 0.0
    for _ in range(200):
        state = MeanRevState(
            z=float(rng.uniform(0.05, 0.6)),
            kappa=float(rng.uniform(0.0, 4.0)),
            theta=float(rng.uniform(0.0, 0.6)),
        )
        tau = float(rng.uniform(0.05, 3.0))
        oracle, _ = quad(
            lambda u: sigma_of_z(state, u) ** 2, 0.0, tau, epsabs=1e-14, limit=200
        )
        worst = max(worst, rel_err(total_variance(state, tau), oracle))
    seam = 0.0
    for z, theta, tau in ((0.2, 0.3, 1.0), (0.4, 0.1, 0.5), (0.3, 0.3, 2.0)):
        lo = total_variance(MeanRevState(z=z, kappa=0.999999e-6 / tau, theta=theta), tau)
        hi = total_variance(MeanRevState(z=z, kappa=1.000001e-6 / tau, theta=theta), tau)
        seam = max(seam, abs(lo - hi))
    ok = worst <= 1e-8 and seam <= 1e-10
    report(
        capsys, 11, ok,
        f"worst quadrature rel err {worst:.3g} <= 1e-8; seam gap {seam:.3g} <= 1e-10",
    )

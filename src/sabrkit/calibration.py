"""Daily least-squares fitting of (nu, sigma, rho) to option-quote panels.

Quotes are (delta or log-moneyness, implied vol, expiry) observations;
objectives compare model implied vols, relative prices, or log prices
against the quoted ones (strike normalized to K = 1, r = 0). Fitting is
derivative-free Nelder-Mead inside box bounds, with a warm-start chain
across days and in-sample / out-of-sample RMS error reporting.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import _NUMPY, DomainError, c_rel, norm_ppf
from .expansion import SabrParams, _monomials, _sigma_d_quote
from .models import price_fn_for_model, vol_fn_for_model

__all__ = [
    "OBJECTIVES",
    "PANEL_EXPIRY_MONTHS",
    "PANEL_DELTAS",
    "MarketQuote",
    "QuoteDay",
    "CalibrationResult",
    "FitBounds",
    "delta_to_moneyness",
    "objective_value",
    "fit_day",
    "out_of_sample",
    "synth_panel",
    "calibrate_panel",
    "read_quotes_csv",
    "write_quotes_csv",
    "result_rows",
    "write_results_csv",
]

# objective -> the models.py model it compares; sigma_* objectives compare
# implied vols, the others relative prices (log_* their logarithms)
_OBJECTIVE_MODEL = {
    "sigma_d": "d",
    "sigma_h": "h",
    "price_d": "d",
    "price_h": "h",
    "price_sa2": "sa2",
    "log_price_d": "d",
    "log_price_h": "h",
    "log_price_sa2": "sa2",
    "price_kappa": "sa2",  # the sa2 price with the fit's kappa0 and theta
}
OBJECTIVES = tuple(_OBJECTIVE_MODEL)

PANEL_EXPIRY_MONTHS = (1, 2, 3, 4, 5, 6, 9, 12, 18, 24)
PANEL_DELTAS = tuple(0.20 + 0.05 * i for i in range(13))


@dataclass(frozen=True)
class MarketQuote:
    """One quote: exactly one of delta / moneyness is present."""

    option_type: str  # 'C' or 'P'
    expiry: float  # years
    implied_vol: float
    delta: float | None = None
    moneyness: float | None = None

    def __post_init__(self) -> None:
        if self.option_type not in ("C", "P"):
            raise DomainError(f"option_type must be 'C' or 'P', got {self.option_type!r}")
        if (self.delta is None) == (self.moneyness is None):
            raise DomainError("exactly one of delta / moneyness must be set")
        if self.delta is not None and not (0.0 < self.delta < 1.0):
            raise DomainError(f"delta must lie in (0, 1), got {self.delta}")
        if not (self.implied_vol > 0.0):
            raise DomainError(f"implied_vol must be positive, got {self.implied_vol}")
        if not (self.expiry > 0.0):
            raise DomainError(f"expiry must be positive, got {self.expiry}")


@dataclass(frozen=True)
class QuoteDay:
    day: int
    quotes: tuple[MarketQuote, ...]

    def __post_init__(self) -> None:
        if not self.quotes:
            raise DomainError("a quote day must contain at least one quote")


@dataclass(frozen=True)
class CalibrationResult:
    day: int
    objective: str
    nu: float
    sigma: float
    rho: float
    ise: float
    ose: float = float("nan")
    converged: bool = True
    n_skipped: int = 0
    nfev: int = 0  # objective evaluations of the fit, over all restarts

    @property
    def params(self) -> tuple[float, float, float]:
        return (self.nu, self.sigma, self.rho)


@dataclass(frozen=True)
class FitBounds:
    nu: tuple[float, float] = (0.0, 5.0)
    sigma: tuple[float, float] = (0.01, 2.0)
    rho: tuple[float, float] = (-0.99, 0.99)


def delta_to_moneyness(delta: float, sigma_prev: float, T: float) -> float:
    """Log-moneyness from a call delta: y = (s sqrt(T)/2)(2 N^{-1}(delta) - s sqrt(T))."""
    if not (0.0 < delta < 1.0):
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    if not (sigma_prev > 0.0):
        raise DomainError(f"sigma_prev must be positive, got {sigma_prev}")
    v = sigma_prev * math.sqrt(T)
    return 0.5 * v * (2.0 * norm_ppf(delta) - v)


def _resolve_moneyness(day: QuoteDay, sigma_prev: float | None) -> np.ndarray:
    ys = np.empty(len(day.quotes))
    for i, q in enumerate(day.quotes):
        if q.moneyness is not None:
            ys[i] = q.moneyness
        else:
            if sigma_prev is None:
                raise DomainError(
                    "delta-quoted day needs a previous-day sigma for conversion"
                )
            ys[i] = delta_to_moneyness(q.delta, sigma_prev, q.expiry)
    return ys


@dataclass(frozen=True)
class _QuoteArrays:
    """A day's quotes as arrays, with the log-moneyness resolved and the
    (y, t) monomials the sigma_d objective evaluates its coefficients on."""

    y: np.ndarray
    t: np.ndarray
    vol: np.ndarray
    monomials: tuple[np.ndarray, ...]


def _quote_arrays(day: QuoteDay, sigma_prev: float | None) -> _QuoteArrays:
    y = _resolve_moneyness(day, sigma_prev)
    t = np.array([q.expiry for q in day.quotes])
    return _QuoteArrays(
        y=y,
        t=t,
        vol=np.array([q.implied_vol for q in day.quotes]),
        monomials=_monomials(y, t),
    )


def _objective_details(
    quotes: _QuoteArrays, params: SabrParams, objective: str
) -> tuple[float, int]:
    model_name = _OBJECTIVE_MODEL.get(objective)
    if model_name is None:
        raise DomainError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
    y, t = quotes.y, quotes.t
    if objective == "sigma_d":
        # sigma_d(y, t, params).value from the day's monomials
        model = _sigma_d_quote(_NUMPY, quotes.monomials, params.sigma0, params).value
        target = quotes.vol
    elif objective.startswith("sigma"):
        model = vol_fn_for_model(model_name, params)(y, t)
        target = quotes.vol
    else:
        model = price_fn_for_model(model_name, params)(y, params.sigma0, t)
        target = c_rel(y, quotes.vol, t)
    if objective.startswith("log_"):
        # a nonpositive value gives a non-finite log, which is skipped below
        with np.errstate(divide="ignore", invalid="ignore"):
            diff = np.log(model) - np.log(target)
    else:
        diff = model - target
    used = np.isfinite(diff)
    n_used = int(np.count_nonzero(used))
    skipped = diff.size - n_used
    if n_used == 0:
        return float("inf"), skipped
    if skipped:
        diff = diff[used]
    return float(np.dot(diff, diff)) / n_used, skipped


def objective_value(
    day: QuoteDay | _QuoteArrays,
    params: SabrParams,
    objective: str,
    sigma_prev: float | None = None,
) -> float:
    """Averaged squared l2 discrepancy between model and market quotes.

    All quotes are evaluated in one array call. day may also be the quote
    arrays fit_day resolves once per fit, which skips the delta conversion.
    Non-finite model values are skipped (and counted toward the fit flag
    in fit_day) so optimizers always see a finite objective.
    """
    if isinstance(day, QuoteDay):
        day = _quote_arrays(day, sigma_prev)
    value, _ = _objective_details(day, params, objective)
    return value


def _make_params(
    x: np.ndarray, objective: str, kappa0: float, theta: float
) -> SabrParams:
    nu, sigma, rho = float(x[0]), float(x[1]), float(x[2])
    if objective == "price_kappa":
        return SabrParams(sigma0=sigma, nu=nu, rho=rho, kappa0=kappa0, theta=theta)
    return SabrParams(sigma0=sigma, nu=nu, rho=rho)


def fit_day(
    day: QuoteDay,
    init: tuple[float, float, float],
    objective: str,
    sigma_prev: float | None = None,
    bounds: FitBounds = FitBounds(),
    kappa0: float = 0.0,
    theta: float = 0.0,
    max_iter: int = 2000,
    n_restarts: int = 1,
) -> CalibrationResult:
    """Nelder-Mead least-squares fit of (nu, sigma, rho) for one day.

    init is (nu, sigma, rho); ISE is the RMS of the fitted objective.
    Non-convergence returns the best incumbent with converged=False.
    """
    # imported here, its only caller: scipy.optimize costs every other
    # subcommand about 0.25 s and 20 MB at start-up
    from scipy.optimize import minimize

    box = [bounds.nu, bounds.sigma, bounds.rho]
    x0 = np.clip(np.asarray(init, dtype=float), [b[0] for b in box], [b[1] for b in box])
    quotes = _quote_arrays(day, sigma_prev)

    def loss(x: np.ndarray) -> float:
        try:
            params = _make_params(x, objective, kappa0, theta)
        except DomainError:
            return float("inf")
        return objective_value(quotes, params, objective)

    converged = True
    nfev = 0
    x = x0
    for _ in range(max(1, n_restarts + 1)):
        res = minimize(
            loss,
            x,
            method="Nelder-Mead",
            bounds=box,
            options={
                "maxiter": max_iter,
                "maxfev": 4 * max_iter,
                "xatol": 1e-9,
                "fatol": 1e-15,
            },
        )
        x = res.x
        converged = bool(res.success)
        nfev += int(res.nfev)
    best = _make_params(x, objective, kappa0, theta)
    value, skipped = _objective_details(quotes, best, objective)
    return CalibrationResult(
        day=day.day,
        objective=objective,
        nu=best.nu,
        sigma=best.sigma0,
        rho=best.rho,
        ise=math.sqrt(value),
        converged=converged,
        n_skipped=skipped,
        nfev=nfev,
    )


def out_of_sample(
    day: QuoteDay,
    prev_params: SabrParams,
    objective: str,
    sigma_prev: float | None = None,
) -> float:
    """RMS error of today's quotes under yesterday's fitted parameters."""
    return math.sqrt(objective_value(day, prev_params, objective, sigma_prev))


_GENERATOR_MODEL = {"sigma_d": "d", "sigma_h": "h"}


def synth_panel(
    generator_params: SabrParams,
    n_days: int,
    noise_level: float = 0.0,
    seed: int = 0,
    model: str = "sigma_d",
    quote_with: str = "moneyness",
) -> list[QuoteDay]:
    """Desk-shaped synthetic panel: 2 x 10 expiries x 13 deltas = 260
    quotes per day, implied vols from sigma_d or sigma_h plus Gaussian
    noise. quote_with selects whether quotes carry moneyness or delta."""
    if noise_level < 0.0:
        raise DomainError(f"noise_level must be nonnegative, got {noise_level}")
    if model not in _GENERATOR_MODEL:
        raise DomainError(f"unknown generator model {model!r}")
    vol_fn = vol_fn_for_model(_GENERATOR_MODEL[model], generator_params)
    # (expiry, delta, log-moneyness, model vol) per quote point; the same every day
    points = []
    for months in PANEL_EXPIRY_MONTHS:
        t = months / 12.0
        for delta in PANEL_DELTAS:
            y = delta_to_moneyness(delta, generator_params.sigma0, t)
            points.append((t, delta, y, vol_fn(y, t)))
    rng = np.random.default_rng(seed)
    days = []
    for day in range(1, n_days + 1):
        quotes = []
        for t, delta, y, vol in points:
            for opt_type in ("C", "P"):
                noisy = vol + noise_level * rng.standard_normal()
                quote_kwargs = (
                    {"moneyness": y} if quote_with == "moneyness" else {"delta": delta}
                )
                quotes.append(
                    MarketQuote(
                        option_type=opt_type,
                        expiry=t,
                        implied_vol=max(noisy, 1e-4),
                        **quote_kwargs,
                    )
                )
        days.append(QuoteDay(day=day, quotes=tuple(quotes)))
    return days


def calibrate_panel(
    days: Sequence[QuoteDay],
    init: tuple[float, float, float],
    objective: str,
    sigma_prev0: float | None = None,
    **fit_kwargs,
) -> list[CalibrationResult]:
    """Fit every day with a warm-start chain: day tau starts from day
    tau-1's parameters, and OSE evaluates day tau under them."""
    results: list[CalibrationResult] = []
    prev: CalibrationResult | None = None
    sigma_prev = sigma_prev0
    for day in days:
        start = prev.params if prev is not None else init
        res = fit_day(day, start, objective, sigma_prev=sigma_prev, **fit_kwargs)
        if prev is not None:
            prev_params = _make_params(
                np.array(prev.params),
                objective,
                fit_kwargs.get("kappa0", 0.0),
                fit_kwargs.get("theta", 0.0),
            )
            ose = out_of_sample(day, prev_params, objective, sigma_prev)
            res = dataclasses.replace(res, ose=ose)
        results.append(res)
        prev = res
        sigma_prev = res.sigma
    return results


QUOTE_HEADER = ["day", "type", "expiry_months", "delta", "implied_vol"]
RESULT_HEADER = ["day", "objective", "nu", "sigma", "rho", "ise", "ose", "flag"]


def read_quotes_csv(path: str) -> list[QuoteDay]:
    """Quote CSV: header day,type,expiry_months,delta,implied_vol."""
    by_day: dict[int, list[MarketQuote]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != QUOTE_HEADER:
            raise DomainError(
                f"bad quote CSV header {reader.fieldnames}; expected {QUOTE_HEADER}"
            )
        for lineno, row in enumerate(reader, start=2):
            try:
                day = int(row["day"])
                quote = MarketQuote(
                    option_type=row["type"],
                    expiry=float(row["expiry_months"]) / 12.0,
                    delta=float(row["delta"]),
                    implied_vol=float(row["implied_vol"]),
                )
            except (ValueError, DomainError, KeyError) as exc:
                raise DomainError(f"{path}:{lineno}: bad quote row: {exc}") from exc
            by_day.setdefault(day, []).append(quote)
    return [QuoteDay(day=d, quotes=tuple(qs)) for d, qs in sorted(by_day.items())]


def write_quotes_csv(path: str, days: Iterable[QuoteDay]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(QUOTE_HEADER)
        for day in days:
            for q in day.quotes:
                if q.delta is None:
                    raise DomainError("quote CSV format requires delta-quoted panels")
                writer.writerow(
                    [day.day, q.option_type, round(q.expiry * 12.0, 10), q.delta, q.implied_vol]
                )


def result_rows(results: Iterable[CalibrationResult]) -> list[list[str]]:
    """Result-table rows under RESULT_HEADER, values formatted to 10 digits."""
    return [
        [
            str(r.day),
            r.objective,
            f"{r.nu:.10g}",
            f"{r.sigma:.10g}",
            f"{r.rho:.10g}",
            f"{r.ise:.10g}",
            f"{r.ose:.10g}",
            "ok" if r.converged and r.n_skipped == 0 else "flagged",
        ]
        for r in results
    ]


def write_results_csv(path: str, results: Iterable[CalibrationResult]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_HEADER)
        writer.writerows(result_rows(results))

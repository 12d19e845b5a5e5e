"""Daily least-squares fitting of (nu, sigma, rho) to option-quote panels.

A QuoteDay holds one day's quotes as columns: delta or log-moneyness,
implied vol and expiry arrays. Objectives compare model implied vols,
relative prices or log prices against the quoted ones (strike K = 1,
r = 0). A fit is one run of a bounded Levenberg-Marquardt solver
(Marquardt 1963, with each step clipped into the box as in Kanzow,
Yamashita & Fukushima 2004) on the per-quote residuals inside the box
nu in [0, 5], sigma in [0.01, 2], rho in [-0.99, 0.99]; it needs numpy
only, so a fit loads no scipy.optimize. The three d objectives (sigma_d,
price_d, log_price_d) supply closed-form Jacobians: sigma_d's from its
coefficient table, and the prices' by the chain rule through the vega of
c_rel at sigma_d. The h and sa2 objectives use forward differences.
calibrate_panel fits days in a warm-start chain with in-sample /
out-of-sample RMS error reporting; one day is a panel of one.

A fit evaluates a day once at each point, and its ISE and OSE are two of
those evaluations. Parameters the model rejects, or quoted prices c_rel
cannot form, skip every quote, for an error of inf (objective_value
raises instead).
"""

from __future__ import annotations

import csv
import functools
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import (
    _MATH,
    _NUMPY,
    DomainError,
    _args,
    _c_rel,
    _c_rel_vega,
    _require,
    _require_at,
    _require_int,
    c_rel,
    norm_ppf,
)
from .expansion import SabrParams, _monomials, _sigma_d_jacobian, _sigma_d_quote
from .models import price_fn_for_model, vol_fn_for_model

__all__ = [
    "QuoteDay",
    "CalibrationResult",
    "delta_to_moneyness",
    "objective_value",
    "synth_panel",
    "calibrate_panel",
    "read_quotes_csv",
    "write_quotes_csv",
]

# objective -> (the models.py model it compares, the compared quantity:
# implied vol, relative price or its logarithm); the one reader of an
# objective's name
_OBJECTIVE_TABLE = {
    "sigma_d": ("d", "vol"),
    "sigma_h": ("h", "vol"),
    "price_d": ("d", "price"),
    "price_h": ("h", "price"),
    "price_sa2": ("sa2", "price"),
    "log_price_d": ("d", "log price"),
    "log_price_h": ("h", "log price"),
    "log_price_sa2": ("sa2", "log price"),
}
OBJECTIVES = tuple(_OBJECTIVE_TABLE)

PANEL_EXPIRY_MONTHS = (1, 2, 3, 4, 5, 6, 9, 12, 18, 24)
PANEL_DELTAS = tuple(0.20 + 0.05 * i for i in range(13))

# the largest v whose square v * v is a float
_MAX_V = math.sqrt(sys.float_info.max)


# QuoteDay's float columns in check order: the open interval of their values, and the rule
_QUOTE_COLUMNS = {
    "delta": (0.0, 1.0, "delta must lie in (0, 1)"),
    "moneyness": (-math.inf, math.inf, "moneyness must be finite"),
    "implied_vol": (0.0, math.inf, "implied_vol must be positive and finite"),
    "expiry": (0.0, math.inf, "expiry must be positive and finite"),
}


@dataclass(frozen=True, eq=False)
class QuoteDay:
    """One day's quotes as columns, one entry per quote: option_type 'C' or
    'P', float arrays expiry (years) and implied_vol, and exactly one
    coordinate for the whole day, delta or log-moneyness. The columns are
    checked once, here (_QUOTE_COLUMNS); a DomainError names a bad value."""

    day: int
    option_type: tuple[str, ...]
    expiry: np.ndarray
    implied_vol: np.ndarray
    delta: np.ndarray | None = None
    moneyness: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = len(self.option_type)
        if n == 0:
            raise DomainError("a quote day must contain at least one quote")
        if (self.delta is None) == (self.moneyness is None):
            raise DomainError("exactly one of delta / moneyness must be set")
        object.__setattr__(self, "option_type", tuple(self.option_type))
        bad = [kind for kind in self.option_type if kind not in ("C", "P")]
        if bad:
            raise DomainError(f"option_type must be 'C' or 'P', got {bad[0]!r}")
        for name, (lo, hi, rule) in _QUOTE_COLUMNS.items():
            if getattr(self, name) is not None:
                column = np.array(getattr(self, name), dtype=float)  # a read-only copy
                column.flags.writeable = False
                if column.shape != (n,):
                    raise DomainError(f"{name} must have shape ({n},), got {column.shape}")
                _require((lo < column) & (column < hi), rule, column)
                object.__setattr__(self, name, column)


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
    # residual evaluations of the fit, finite-difference probes included
    nfev: int = 0

    @property
    def params(self) -> tuple[float, float, float]:
        return (self.nu, self.sigma, self.rho)


def delta_to_moneyness(delta, sigma_prev, T):
    """Log-moneyness from a call delta: y = (s sqrt(T)/2)(2 N^{-1}(delta) - s sqrt(T)).

    Floats give a float; otherwise the arguments broadcast to one array.
    N^{-1} is norm_ppf of each distinct delta (a desk day quotes 13 deltas
    at every expiry), so an array entry equals the float call on the same
    values bit for bit.
    """
    m, (delta, sigma_prev, T) = _args(delta, sigma_prev, T)
    _require((0.0 < delta) & (delta < 1.0), "delta must lie in (0, 1)", delta)
    positive = (0.0 < sigma_prev) & (sigma_prev < math.inf)
    _require(positive, "sigma_prev must be positive and finite", sigma_prev)
    _require((0.0 < T) & (T < math.inf), "T must be positive and finite", T)
    if m is _MATH:
        ppf = norm_ppf(delta)
    else:
        distinct, index = np.unique(delta, return_inverse=True)
        ppf = np.array([norm_ppf(d) for d in distinct.tolist()])[index].reshape(delta.shape)
    v = sigma_prev * m.sqrt(T)
    _require_at(v <= _MAX_V, "sigma_prev sqrt(T) squared overflows a float",
                sigma_prev=sigma_prev, T=T)
    return 0.5 * v * (2.0 * ppf - v)


class _DayObjective:
    """One day under one objective: the day's log-moneyness y, resolved
    from delta where the day quotes delta, and expiry t; for the d
    objectives, the monomials of (y, t) that sigma_d and its Jacobian are
    evaluated on; and the quoted values its model values are compared
    with."""

    def __init__(self, day: QuoteDay, objective: str, sigma_prev: float | None):
        if objective not in _OBJECTIVE_TABLE:
            raise DomainError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
        if day.delta is not None and sigma_prev is None:
            raise DomainError("delta-quoted day needs a previous-day sigma for conversion")
        self.day, self.objective = day, objective
        self.model, self.quantity = _OBJECTIVE_TABLE[objective]
        # sigma_d from the monomials, with closed-form Jacobians
        self.closed_form = self.model == "d"
        t = day.expiry
        y = day.moneyness if day.delta is None else delta_to_moneyness(day.delta, sigma_prev, t)
        self.y, self.t = y, t
        if self.closed_form:
            # a y^2 past the largest float is inf, and its quote is skipped
            with np.errstate(over="ignore"):
                self.monomials = np.array(_monomials(y, t))

    @functools.cached_property
    def targets(self) -> np.ndarray:
        """The implied vols, their relative prices c_rel(y, implied_vol, t),
        or the logs of those prices; a DomainError, raised again at each
        use, where c_rel cannot form the prices."""
        if self.quantity == "vol":
            return self.day.implied_vol
        target = c_rel(self.y, self.day.implied_vol, self.t)
        if self.quantity == "log price":
            # a nonpositive value gives a non-finite log, which is skipped
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.log(target)
        return target

    def residuals(self, params: SabrParams) -> tuple[np.ndarray, tuple | None]:
        """Per-quote model - target (of the model's log for log prices),
        where a non-finite entry is a quote the objective skips, and for
        the d objectives the (sigma_d quote, model value) that jacobian
        takes (None otherwise). A DomainError where the targets cannot be
        formed or the model rejects params."""
        targets = self.targets
        y, t = self.y, self.t
        state = None
        if self.closed_form:
            # price_d's and sigma_d's evaluations, from the monomials (an infinite one is skipped)
            with np.errstate(over="ignore", invalid="ignore"):
                quote = _sigma_d_quote(_NUMPY, self.monomials, params.sigma0, params)
            model = quote.value
            if self.quantity != "vol":
                # only a finite sigma_d is priced; the others stay nan and are skipped
                finite = np.isfinite(model)
                model = np.where(finite, _c_rel(_NUMPY, y, np.where(finite, model, 1.0), t), np.nan)
            state = (quote, model)
        elif self.quantity == "vol":
            model = vol_fn_for_model(self.model, params)(y, t)
        else:
            model = price_fn_for_model(self.model, params)(y, params.sigma0, t)
        if self.quantity == "log price":
            # a nonpositive value gives a non-finite log, which is skipped below
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.log(model) - targets, state
        return model - targets, state

    def jacobian(self, params: SabrParams, quote, model: np.ndarray) -> np.ndarray:
        """d residuals / d(nu, sigma0, rho) of a d objective at params, from
        the (quote, model) its residuals returned there: sigma_d's Jacobian,
        for prices times the vega sqrt(t) N'(d_-) of c_rel at sigma_d, over
        the price for log prices. Clamped rows are zero; a row whose
        residual is skipped is the caller's to zero."""
        # a row that is not finite here is a skipped quote's (y^2 or the price is inf or 0)
        with np.errstate(all="ignore"):
            jac = _sigma_d_jacobian(self.monomials, params, quote.clamped)
            if self.quantity != "vol":
                vega = _c_rel_vega(_NUMPY, self.y, quote.value, self.t)
                if self.quantity == "log price":
                    vega = vega / model
                jac *= vega[:, None]
        return jac


def _mean_square(diff: np.ndarray) -> tuple[float, int]:
    """The mean square of the residuals diff over the quotes it uses, its
    finite entries (inf if there are none), and the number it skips."""
    used = np.isfinite(diff)
    n_used = int(np.count_nonzero(used))
    skipped = diff.size - n_used
    if n_used == 0:
        return float("inf"), skipped
    if skipped:
        diff = diff[used]
    return float(np.dot(diff, diff)) / n_used, skipped


def objective_value(
    day: QuoteDay,
    params: SabrParams,
    objective: str,
    sigma_prev: float | None = None,
) -> float:
    """Averaged squared l2 discrepancy between model and market quotes.

    All quotes are evaluated in one array call. Non-finite model values are
    skipped (and counted in a fit's n_skipped) so optimizers
    always see a finite objective. Parameters the model rejects, or quoted
    prices c_rel cannot form, raise DomainError; a fit counts them as every
    quote skipped. A fit's ISE and OSE are this value's square root, read
    from the fit's own evaluations.
    """
    diff, _ = _DayObjective(day, objective, sigma_prev).residuals(params)
    return _mean_square(diff)[0]


# the (nu, sigma, rho) box of every fit, as read-only float arrays
_LOWER = np.array([0.0, 0.01, -0.99])
_UPPER = np.array([5.0, 2.0, 0.99])
_LOWER.flags.writeable = _UPPER.flags.writeable = False
# residual evaluations per fit, difference probes not counted
_MAX_NFEV = 2000
# a fit ends when its next step would be shorter than 1e-8 relative to x:
# on synthetic days its parameters agree with a 1e-15 stop to 2e-7 or closer
_XTOL = 1e-8


def _make_params(x: np.ndarray, kappa0: float, theta: float) -> SabrParams:
    nu, sigma, rho = float(x[0]), float(x[1]), float(x[2])
    return SabrParams(sigma0=sigma, nu=nu, rho=rho, kappa0=kappa0, theta=theta)


def _forward_jacobian(fun, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """dr/dx by forward differences from the residuals r at x: one probe
    fun(probe) per parameter with scipy's "2-point" step sqrt(eps) max(1,
    |x|), taken backwards where it would leave the box."""
    h = math.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(x))
    h = np.where(x + h > _UPPER, -h, h)
    jac = np.empty((r.size, x.size))
    for j in range(x.size):
        probe = x.copy()
        probe[j] += h[j]
        jac[:, j] = (fun(probe)[0] - r) / (probe[j] - x[j])
    return jac


def _least_squares(fun, jac, x: np.ndarray) -> tuple[np.ndarray, object, bool]:
    """Minimize |r|^2 over the box by bounded Levenberg-Marquardt
    (Marquardt 1963; projected onto the box as in Kanzow, Yamashita &
    Fukushima 2004), from x inside the box. fun(x) returns the residuals
    r and a record of the evaluation, None where no residual is finite;
    jac(x, r, record) is dr/dx at a point taken.

    A parameter on a bound that the gradient J'r pushes out of the box
    stays there; each step solves (J'J + lam diag J'J) dx = -J'r in the
    others and clips x + dx into the box. It is taken if the sum of squares
    does not rise, and lam falls tenfold; otherwise, or when the residuals
    or the step are not finite or the system is singular, lam rises
    tenfold. A zero column of J gets a unit diagonal, as in MINPACK's lmder,
    so it takes no step. The run converges when a step is shorter than
    _XTOL (_XTOL + |x|), and otherwise ends after _MAX_NFEV - 1 steps with
    at most one evaluation each, or at once where J'J or J'r is not finite
    or the start's record is None. Returns the last point taken, its
    record and whether the run converged.
    """
    r, record = fun(x)
    if record is None:  # nothing to fit
        return x, None, False
    with np.errstate(over="ignore"):  # an overflowing sum of squares is inf
        cost = r @ r
    lam = 1e-3
    moved = True
    for _ in range(_MAX_NFEV - 1):
        if moved:
            jacobian = jac(x, r, record)
            with np.errstate(all="ignore"):
                normal = jacobian.T @ jacobian
                grad = jacobian.T @ r
            if not (np.isfinite(normal).all() and np.isfinite(grad).all()):
                return x, record, False  # no step can be formed before x moves
            diag = normal.diagonal().copy()
            diag[diag == 0.0] = 1.0
            free = ~(((x <= _LOWER) & (grad > 0.0)) | ((x >= _UPPER) & (grad < 0.0)))
            held = not free.all()
            if held:  # the free parameters' system
                normal, diag, grad = normal[np.ix_(free, free)], diag[free], grad[free]
        try:
            with np.errstate(all="ignore"):
                step = np.linalg.solve(normal + lam * np.diag(diag), -grad)
        except np.linalg.LinAlgError:  # singular
            step = np.full(grad.size, np.nan)
        if held:
            step_free, step = step, np.zeros(x.size)
            step[free] = step_free
        x_new = np.clip(x + step, _LOWER, _UPPER)
        dx = x_new - x
        step_norm = math.sqrt(dx @ dx)
        if step_norm < _XTOL * (_XTOL + math.sqrt(x @ x)):
            return x, record, True
        moved = False
        if math.isfinite(step_norm):
            r_new, record_new = fun(x_new)
            with np.errstate(over="ignore"):
                cost_new = r_new @ r_new
            moved = cost_new <= cost  # False when not finite
        if moved:
            x, r, cost, record = x_new, r_new, cost_new, record_new
            lam /= 10.0
        else:
            lam *= 10.0
    return x, record, False


def _fit(
    target: _DayObjective, init: tuple[float, ...], kappa0: float, theta: float, warm: bool
) -> CalibrationResult:
    """One day's fit (see calibrate_panel) on a built day objective, with
    the OSE of a warm start."""
    # a kappa0 or theta the model rejects is an error, not a failed fit;
    # only the sa2 model has mean reversion
    if target.model != "sa2" and kappa0 != 0.0:
        objective = target.objective
        raise DomainError(
            f"objective {objective!r} is only available for kappa0 = 0, got kappa0 = {kappa0}"
        )
    SabrParams(sigma0=1.0, nu=0.0, rho=0.0, kappa0=kappa0, theta=theta)  # validates both
    x = np.clip(np.asarray(init, dtype=float), _LOWER, _UPPER)
    n_quotes = target.day.implied_vol.size
    nfev = 0
    first = None  # the start's record

    def residuals(x: np.ndarray) -> tuple[np.ndarray, tuple | None]:
        # the scaled residuals and the record (diff, params, used, scale,
        # state) of the evaluation, or inf and None where no quote is used
        nonlocal nfev, first
        nfev += 1
        try:
            params = _make_params(x, kappa0, theta)
            diff, state = target.residuals(params)
        except DomainError:
            diff = np.full(n_quotes, np.nan)
        used = np.isfinite(diff)
        n_used = np.count_nonzero(used)
        record = (diff, params, used, 1.0 / math.sqrt(n_used), state) if n_used else None
        if nfev == 1:
            first = record
        if record is None:
            return np.full(n_quotes, np.inf), None  # a rejected step, or nothing to fit
        return np.where(used, diff, 0.0) * record[3], record

    def jac(x: np.ndarray, r: np.ndarray, record: tuple) -> np.ndarray:
        if not target.closed_form:
            return _forward_jacobian(residuals, x, r)
        _, params, used, scale, state = record
        jac = target.jacobian(params, *state)
        jac[~used] = 0.0
        return jac * scale

    def rms(record: tuple | None) -> tuple[float, int]:
        value, skipped = _mean_square(record[0]) if record else (math.inf, n_quotes)
        return math.sqrt(value), skipped

    x, record, converged = _least_squares(residuals, jac, x)
    ise, skipped = rms(record)
    return CalibrationResult(
        day=target.day.day,
        objective=target.objective,
        nu=float(x[0]),
        sigma=float(x[1]),
        rho=float(x[2]),
        ise=ise,
        ose=rms(first)[0] if warm else math.nan,
        converged=converged,
        n_skipped=skipped,
        nfev=nfev,
    )


def synth_panel(
    generator_params: SabrParams,
    n_days: int,
    noise_level: float = 0.0,
    seed: int = 0,
    quote_with: str = "moneyness",
) -> list[QuoteDay]:
    """Desk-shaped synthetic panel: 2 x 10 expiries x 13 deltas = 260
    quotes per day, implied vols from one sigma_d array call plus Gaussian
    noise from one (n_days, 260) draw, floored at 1e-4. quote_with selects
    whether the days carry "moneyness" or "delta"."""
    if _require_int(n_days, "n_days") < 1:
        raise DomainError(f"a panel needs at least one day, got n_days = {n_days}")
    if not (0.0 <= noise_level < math.inf):
        raise DomainError(f"noise_level must be nonnegative and finite, got {noise_level}")
    if quote_with not in ("moneyness", "delta"):
        raise DomainError(f"quote_with must be 'moneyness' or 'delta', got {quote_with!r}")
    if _require_int(seed, "seed") < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    # the 130 (expiry, delta) points, expiry-major, each quoted as a C then a P
    t = np.repeat(np.array(PANEL_EXPIRY_MONTHS) / 12.0, len(PANEL_DELTAS))
    delta = np.tile(PANEL_DELTAS, len(PANEL_EXPIRY_MONTHS))
    y = delta_to_moneyness(delta, generator_params.sigma0, t)
    vol = np.repeat(vol_fn_for_model("d", generator_params)(y, t), 2)
    t, delta, y = np.repeat(t, 2), np.repeat(delta, 2), np.repeat(y, 2)
    coord = {"moneyness": y} if quote_with == "moneyness" else {"delta": delta}
    noise = np.random.default_rng(seed).standard_normal((n_days, vol.size))
    kinds = ("C", "P") * (vol.size // 2)
    return [
        QuoteDay(day, kinds, t, np.maximum(vol + noise_level * z, 1e-4), **coord)
        for day, z in enumerate(noise, start=1)
    ]


def calibrate_panel(
    days: Sequence[QuoteDay],
    init: tuple[float, float, float],
    objective: str,
    sigma_prev0: float | None = None,
    kappa0: float = 0.0,
    theta: float = 0.0,
) -> list[CalibrationResult]:
    """Least-squares fit of (nu, sigma, rho) for every day, in a warm-start
    chain: the first day starts from init, clipped into the box, and
    converts its deltas at sigma_prev0; day tau starts from day tau-1's
    parameters and converts at its sigma. One day is calibrate_panel([day],
    ...)[0].

    Each fit is one bounded Levenberg-Marquardt run (_least_squares) on the
    residuals (model - target) / sqrt(n_used) of the quotes the objective
    uses, whose sum of squares is the objective; a skipped quote's residual
    is 0. The d objectives have closed-form Jacobians, the h and sa2 ones
    use forward differences. A run searches the box of the module
    docstring, capped at 2000 residual evaluations with finite-difference
    probes not counted; nfev counts every residual evaluation of the day.

    ISE is the RMS of the fitted objective, read with n_skipped from the
    fit's evaluation at the fitted point; OSE is the RMS error of day tau
    under day tau-1's parameters: the fit's first evaluation. A fit that
    hits the cap, or whose start point has no usable quote or parameters
    the model rejects, ends with converged=False and the point it reached.
    A fault that flags the fit gives an OSE of inf rather than an error.

    kappa0 and theta are fixed in the model of every objective; the d and
    h models have no mean reversion, so a nonzero kappa0 with their
    objectives raises DomainError before the first fit starts, as does a
    negative or non-finite kappa0 or theta."""
    if not days:
        raise DomainError("a panel needs at least one quote day")
    results: list[CalibrationResult] = []
    prev: CalibrationResult | None = None
    sigma_prev = sigma_prev0
    for day in days:
        target = _DayObjective(day, objective, sigma_prev)
        warm = prev is not None
        res = _fit(target, prev.params if warm else init, kappa0, theta, warm)
        results.append(res)
        prev = res
        sigma_prev = res.sigma
    return results


QUOTE_HEADER = ["day", "type", "expiry_months", "delta", "implied_vol"]
RESULT_HEADER = ["day", "objective", "nu", "sigma", "rho", "ise", "ose", "flag"]


def read_quotes_csv(path: str) -> list[QuoteDay]:
    """Quote CSV: header day,type,expiry_months,delta,implied_vol.

    One QuoteDay per day, in day order; within a day the quotes keep their
    file order. A row that does not parse, or whose values a QuoteDay
    rejects, raises a DomainError naming its line: the first line that
    does not parse, else the first whose values are rejected.
    """
    # read once: a pipe cannot be read again to name a bad row
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.readlines()
    reader = csv.reader(lines)
    header = next(reader, None)
    if header != QUOTE_HEADER:
        raise DomainError(f"bad quote CSV header {header}; expected {QUOTE_HEADER}")
    rows = list(filter(None, reader))  # blank lines hold no quote
    if not rows:
        return []
    try:
        # whole columns at once; the row-wise reading names a fault's line
        days, kinds, *columns = zip(*rows, strict=True)
        days = list(map(int, days))
        months, delta, vol = (np.array(list(map(float, c))) for c in columns)
        if len(set(days)) == 1:
            return [QuoteDay(days[0], kinds, months / 12.0, vol, delta=delta)]
        by_day: dict[int, list[int]] = {}
        for i, day in enumerate(days):
            by_day.setdefault(day, []).append(i)
        return [
            QuoteDay(day, [kinds[j] for j in i], months[i] / 12.0, vol[i], delta=delta[i])
            for day, i in sorted(by_day.items())
        ]
    except ValueError:  # a DomainError included
        _raise_first_bad_row(path, lines)
        raise


def _raise_first_bad_row(path: str, lines: list[str]) -> None:
    """Read the lines of the quote CSV at path row by row: raise a
    DomainError naming the first line that does not parse, else the first
    whose values a one-quote QuoteDay rejects."""
    reader = csv.reader(lines)
    next(reader)
    rows = []
    for row in filter(None, reader):
        try:
            day, kind, months, delta, vol = row
            rows.append((reader.line_num, int(day), kind, *map(float, (months, delta, vol))))
        except ValueError as exc:
            raise DomainError(f"{path}:{reader.line_num}: bad quote row: {exc}") from exc
    for line, day, kind, months, delta, vol in rows:
        try:
            QuoteDay(day, (kind,), [months / 12.0], [vol], delta=[delta])
        except DomainError as exc:
            raise DomainError(f"{path}:{line}: bad quote row: {exc}") from exc


def write_quotes_csv(path: str, days: Iterable[QuoteDay]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(QUOTE_HEADER)
        for day in days:
            if day.delta is None:
                raise DomainError("quote CSV format requires delta-quoted panels")
            months = [round(m, 10) for m in (day.expiry * 12.0).tolist()]
            columns = (day.option_type, months, day.delta.tolist(), day.implied_vol.tolist())
            writer.writerows([day.day, *row] for row in zip(*columns))


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

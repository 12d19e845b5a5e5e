"""Command-line front end: pricing tables, residual diagnostics, FD and
Monte Carlo benchmarks, and panel calibration, emitted as csv/tsv/pretty
tables. Named presets pin the standard benchmark parameter sets.

Exit codes: 0 success, 2 usage error, 3 numeric-domain error,
4 non-convergence.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import math
import sys
from typing import Sequence

import numpy as np

from . import calibration as cal
from .core import DomainError, OptionQuery, _require_at
from .expansion import SabrParams
from .fd import (
    _SIGMA_CENTER,
    FdInstabilityError,
    ResidualRegion,
    compare,
    cutoff_sensitivity,
    residual_norm,
    richardson_ratios,
    solve_sequence,
)
from .mc import McConfig, simulate_prices
from .models import MODEL_NAMES, price_fn_for_model, vol_fn_for_model

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_NO_CONVERGENCE = 4

# benchmark parameter presets; *_rows entries are (T, nu)
RESIDUAL_PRESETS = {
    "table4": dict(
        nu=0.125, rho=-0.4, t_range=(0.1, 1.0), sigma_range=(0.1, 0.3),
        y_range=(-0.5, 0.5), scale=1e3,
    ),
    "table5-row1": dict(
        nu=0.1, rho=-0.4, t_range=(0.1, 30.0), sigma_range=(0.1, 0.3),
        y_range=(-0.3, 0.3), scale=1e2,
    ),
    "table5-row2": dict(
        nu=0.1, rho=-0.4, t_range=(0.1, 30.0), sigma_range=(0.1, 0.3),
        y_range=(-1.5, 1.5), scale=1e2,
    ),
    "table5-row3": dict(
        nu=0.25, rho=-0.4, t_range=(0.1, 0.2), sigma_range=(0.1, 0.3),
        y_range=(-1.5, 1.5), scale=1e2,
    ),
    "table5-row4": dict(
        nu=1.0, rho=-0.4, t_range=(0.1, 1.0), sigma_range=(0.1, 0.3),
        y_range=(-0.2, 0.2), scale=1e2,
    ),
    "table5-row5": dict(
        nu=1.0, rho=-0.4, t_range=(0.1, 1.0), sigma_range=(0.1, 0.3),
        y_range=(-1.0, 1.0), scale=1e2,
    ),
    "table5-row6": dict(
        nu=1.0, rho=-0.4, t_range=(0.1, 2.0), sigma_range=(0.1, 0.3),
        y_range=(-0.2, 0.2), scale=1e2,
    ),
}

FD_PRESETS = {
    "fd1-row1": dict(t=5.0, nu=1.0, rho=-0.2),
    "fd1-row2": dict(t=2.0, nu=1.5, rho=-0.2),
    "fd1-row3": dict(t=2.0, nu=1.0, rho=-0.2),
    "fd1-row4": dict(t=2.0, nu=0.5, rho=-0.2),
    "fd1-row5": dict(t=1.0, nu=1.5, rho=-0.2),
    "fd1-row6": dict(t=1.0, nu=1.0, rho=-0.2),
    "fd1-row7": dict(t=0.5, nu=1.0, rho=-0.2),
    "fd2-row1": dict(t=2.0, nu=1.0, rho=-0.5),
    "fd2-row2": dict(t=1.0, nu=1.0, rho=-0.5),
    "fd2-row3": dict(t=0.5, nu=1.0, rho=-0.5),
}

MC_PRESETS = {
    "mc-paper": dict(spot=10.0, sigma=0.2, nu=0.2, rho=-0.3, t=1.0),
}

_PRESETS = {"residual": RESIDUAL_PRESETS, "fd": FD_PRESETS, "mc": MC_PRESETS}
# preset keys that set a flag of another name; residual's scale sets none
_PRESET_FLAG = {"t": "expiry", "t_range": "t", "y_range": "y", "scale": None}
# calibrate's synthetic-panel flags, which a --quotes run does not read
_SYNTH_FLAGS = ("sigma", "nu", "rho", "seed", "synth_days", "noise")

# the model and run flags as name -> (type, default, help); each subcommand
# declares only the ones its command reads
_FLAGS = {
    "sigma": (float, 0.2, "initial volatility"),
    "nu": (float, 0.125, "vol-of-vol"),
    "rho": (float, -0.4, "correlation"),
    "kappa0": (float, 0.0, "mean-reversion scale"),
    "theta": (float, 0.0, "mean-reversion level"),
    "seed": (int, 0, "random seed"),
}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# the most values an a:b:n range may ask for, checked before any is made
_MAX_RANGE_COUNT = 1_000_000


def _parse_values(raw: str, name: str) -> list[float]:
    """Finite float list flag: '0.1', '0.1,0.2', or linspace 'a:b:n'."""
    raw = raw.strip()
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise CliError(f"--{name}: range must be start:stop:count", EXIT_USAGE)
        try:
            a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise CliError(f"--{name}: {exc}", EXIT_USAGE) from exc
        if not 1 <= n <= _MAX_RANGE_COUNT:
            raise CliError(f"--{name}: count must be 1 to {_MAX_RANGE_COUNT}, got {n}", EXIT_USAGE)
        _require_finite([a, b], name)
        # finite ends can still overflow the step, e.g. -1e308:1e308:3
        with np.errstate(over="ignore", invalid="ignore"):
            values = [float(v) for v in np.linspace(a, b, n)]
    else:
        try:
            values = [float(v) for v in raw.split(",") if v.strip() != ""]
        except ValueError as exc:
            raise CliError(f"--{name}: {exc}", EXIT_USAGE) from exc
    _require_finite(values, name)
    return values


def _require_finite(values: list[float], name: str) -> None:
    for v in values:
        if not math.isfinite(v):
            raise CliError(f"--{name}: values must be finite, got {v}", EXIT_USAGE)


class _Given(argparse.Action):
    """The store action, which also records the flag's dest in args.given."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = namespace.given | {self.dest}


def _resolve(args) -> set[str]:
    """Write the run's preset into args; return the flags the run ignores.

    A flag given on the command line that the resolved run does not read
    is a usage error naming it: a value the preset sets, a synthetic-panel
    flag with --quotes, or --sigma-prev without it."""
    why = {}
    presets = _PRESETS.get(args.subcommand)
    if presets is not None and args.preset is not None:
        if args.preset not in presets:
            raise CliError(
                f"--preset: unknown preset {args.preset!r}; choose from "
                f"{', '.join(sorted(presets))}",
                EXIT_USAGE,
            )
        for key, value in presets[args.preset].items():
            dest = _PRESET_FLAG.get(key, key)
            if dest is not None:
                why[dest] = f"--preset {args.preset} sets it"
                if isinstance(value, tuple):  # a range, written as its flag takes it
                    value = ",".join(map(str, value))
                setattr(args, dest, value)
    ignored = set()
    if args.subcommand == "calibrate":
        ignored = set(_SYNTH_FLAGS) if args.quotes else {"sigma_prev"}
        reason = "--quotes replaces the synthetic panel" if args.quotes else "it needs --quotes"
        why.update(dict.fromkeys(ignored, reason))
    clash = sorted(args.given & why.keys())
    if clash:
        raise CliError(
            "; ".join(f"--{d.replace('_', '-')}: not read, {why[d]}" for d in clash),
            EXIT_USAGE,
        )
    return ignored


@contextlib.contextmanager
def _file_errors(path: str):
    """An OSError reading or writing path, or bytes read from it that are
    not UTF-8, become a usage error naming it."""
    try:
        yield
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}", EXIT_USAGE) from exc
    except UnicodeDecodeError as exc:
        # exc.start counts from the decoded chunk, not the file, so it is left out
        raise CliError(f"{path}: not UTF-8 text ({exc.reason})", EXIT_USAGE) from exc


def _emit(rows: list[list], header: list[str], args) -> None:
    if args.format in ("csv", "tsv"):
        buf = io.StringIO()
        writer = csv.writer(buf, delimiter="," if args.format == "csv" else "\t")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        cells = [header] + [[_fmt(v) for v in row] for row in rows]
        widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
        lines = ["  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in cells]
        text = "\n".join(lines) + "\n"
    if args.out:
        with _file_errors(args.out), open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _model_list(raw: str) -> list[str]:
    models = [m.strip() for m in raw.split(",") if m.strip()]
    for m in models:
        if m not in MODEL_NAMES:
            raise CliError(
                f"--model: unknown model {m!r}; choose from {', '.join(MODEL_NAMES)}",
                EXIT_USAGE,
            )
    if not models:
        raise CliError("--model: at least one model required", EXIT_USAGE)
    return models


def cmd_price(args) -> int:
    models = _model_list(args.model)
    params = SabrParams(
        sigma0=args.sigma, nu=args.nu, rho=args.rho, kappa0=args.kappa0, theta=args.theta
    )
    ys = _parse_values(args.y, "y")
    ts = _parse_values(args.t, "t")
    header = ["y", "t"]
    for m in models:
        header += [f"price_{m}", f"vol_{m}"]
    fns = [(m, price_fn_for_model(m, params), vol_fn_for_model(m, params)) for m in models]
    rows = []
    for t in ts:
        for y in ys:
            row: list = [y, t]
            for model, price_fn, vol_fn in fns:
                price = price_fn(y, params.sigma0, t)
                _require_at(
                    math.isfinite(price), f"model {model} gives a price that is not finite",
                    y=y, t=t,
                )
                try:
                    vol = vol_fn(y, t)
                except DomainError:
                    vol = float("nan")
                row += [price, vol]
            rows.append(row)
    _emit(rows, header, args)
    return EXIT_OK


def cmd_residual(args) -> int:
    scale = RESIDUAL_PRESETS[args.preset]["scale"] if args.preset else 1e3
    t_range = tuple(_parse_values(args.t, "t"))
    sigma_range = tuple(_parse_values(args.sigma_range, "sigma-range"))
    y_range = tuple(_parse_values(args.y, "y"))
    for name, rng in (("t", t_range), ("sigma-range", sigma_range), ("y", y_range)):
        if len(rng) != 2 or rng[0] >= rng[1]:
            raise CliError(f"--{name}: need a nonempty range lo,hi", EXIT_USAGE)
    region = ResidualRegion(t_range=t_range, sigma_range=sigma_range, y_range=y_range)
    params = SabrParams(sigma0=sigma_range[0], nu=args.nu, rho=args.rho)
    label = f"{scale:.0e}R"
    rows = []
    for model in ("h", "d", "sa2", "bs"):
        r = residual_norm(price_fn_for_model(model, params), params, region)
        rows.append([model, scale * r])
    _emit(rows, ["model", label], args)
    return EXIT_OK


def cmd_fd(args) -> int:
    # no fd output reads sigma0: solve ignores it, compare uses the sigma nodes
    params = SabrParams(sigma0=_SIGMA_CENTER, nu=args.nu, rho=args.rho)
    try:
        solutions = solve_sequence(params, args.expiry, max_level=args.levels)
    except FdInstabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    ratios = richardson_ratios(solutions)
    header = [
        "level", "100*l2_h", "100*linf_h", "100*log_l2_h",
        "100*l2_sa2", "100*linf_sa2", "100*log_l2_sa2",
        "100*l2_bs", "richardson", "est_error",
    ]
    rows = []
    for k, sol in enumerate(solutions):
        rep_h = compare(sol, price_fn_for_model("h", params))
        rep_sa2 = compare(sol, price_fn_for_model("sa2", params))
        rep_bs = compare(sol, price_fn_for_model("bs", params))
        ratio = ratios[k - 2] if k >= 2 else float("nan")
        rows.append([
            k, 100 * rep_h.l2, 100 * rep_h.linf, 100 * rep_h.log_l2,
            100 * rep_sa2.l2, 100 * rep_sa2.linf, 100 * rep_sa2.log_l2,
            100 * rep_bs.l2, ratio, sol.est_error,
        ])
    if args.cutoff:
        sens = cutoff_sensitivity(solutions[0])
        rows.append(["cutoff", 100 * sens, *[float("nan")] * 8])
    _emit(rows, header, args)
    return EXIT_OK


def cmd_mc(args) -> int:
    spot, sigma, t = args.spot, args.sigma, args.expiry
    params = SabrParams(sigma0=sigma, nu=args.nu, rho=args.rho)
    strikes = [spot] if args.strikes is None else _parse_values(args.strikes, "strikes")
    if not strikes:
        raise CliError("--strikes: at least one strike required", EXIT_USAGE)
    config = McConfig(n_paths=args.paths, dt=args.dt, seed=args.seed)
    queries = [OptionQuery(spot=spot, strike=k, rate=args.rate, expiry=t) for k in strikes]
    ys = [q.log_moneyness for q in queries]
    # closed forms are relative prices: scale by the discounted strike. They
    # are float calls, price's evaluation at each strike, and come first, so
    # an input they reject fails before any path is simulated
    disc = math.exp(-args.rate * t)
    fns = [price_fn_for_model(m, params) for m in ("h", "d", "sa2")]
    closed = [[disc * k * fn(y, sigma, t) for fn in fns] for k, y in zip(strikes, ys)]
    mc_prices = simulate_prices(queries, params, config)
    rows = [
        [strike, y, c_mc, se, c_h, c_d, c_sa2, c_h - c_mc, c_d - c_mc]
        for strike, y, (c_mc, se), (c_h, c_d, c_sa2) in zip(strikes, ys, mc_prices, closed)
    ]
    header = ["strike", "y", "c_mc", "std_error", "c_h", "c_d", "c_sa2", "e_h", "e_d"]
    _emit(rows, header, args)
    return EXIT_OK


def _mean(xs: list[float]) -> float:
    # fsum rounds once, so days that fit the same value average to it exactly
    return math.fsum(xs) / len(xs)


def _std(xs: list[float]) -> float:
    """Population standard deviation (np.std's default)."""
    mean = _mean(xs)
    return math.sqrt(_mean([(x - mean) * (x - mean) for x in xs]))


def cmd_calibrate(args) -> int:
    if args.quotes:
        with _file_errors(args.quotes):
            days = cal.read_quotes_csv(args.quotes)
    else:
        gen = SabrParams(sigma0=args.sigma, nu=args.nu, rho=args.rho)
        days = cal.synth_panel(
            gen, n_days=args.synth_days, noise_level=args.noise, seed=args.seed
        )
    init = tuple(_parse_values(args.init, "init"))
    if len(init) != 3:
        raise CliError("--init: need nu,sigma,rho", EXIT_USAGE)
    results = cal.calibrate_panel(
        days, init, args.objective, sigma_prev0=args.sigma_prev,
        kappa0=args.kappa0, theta=args.theta,
    )
    _emit(cal.result_rows(results), cal.RESULT_HEADER, args)
    nus = [r.nu for r in results]
    sigmas = [r.sigma for r in results]
    rhos = [r.rho for r in results]
    ises = [r.ise for r in results]
    oses = [r.ose for r in results if math.isfinite(r.ose)]
    summary_header = [
        "ise", "ose", "nu_mean", "nu_std", "sigma_mean", "sigma_std",
        "rho_mean", "rho_std",
    ]
    summary = [[
        _mean(ises),
        _mean(oses) if oses else float("nan"),
        _mean(nus), _std(nus),
        _mean(sigmas), _std(sigmas),
        _mean(rhos), _std(rhos),
    ]]
    summary_args = argparse.Namespace(format=args.format, out=None)
    _emit(summary, summary_header, summary_args)
    if not all(r.converged for r in results):
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _add_parser(sub, name: str, func, text: str, *flags: str) -> argparse.ArgumentParser:
    """A subcommand with the given model and run flags and the output flags."""
    # no abbreviations: residual's --sigma would otherwise be read as --sigma-range
    p = sub.add_parser(name, help=text, allow_abbrev=False)
    p.register("action", None, _Given)  # every store flag records that it was given
    for flag in flags:
        kind, default, help_text = _FLAGS[flag]
        p.add_argument(f"--{flag}", type=kind, default=default, help=help_text)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument(
        "--format", choices=("csv", "tsv", "pretty"), default="pretty",
        help="output table format",
    )
    p.add_argument(
        "--print-config", action="store_true",
        help="print the resolved configuration and exit",
    )
    p.set_defaults(func=func, given=frozenset())
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once a process: a parse keeps no state in
    it (each parse starts a fresh `given` set, and presets write into the
    parsed args)."""
    parser = argparse.ArgumentParser(
        prog="sabrkit",
        description="SABR pricing, benchmarks, and calibration toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = _add_parser(sub, "price", cmd_price, "price table over a (y, t) lattice",
                    "sigma", "nu", "rho", "kappa0", "theta")
    p.add_argument("--model", default="sa2", help="comma list of models: "
                   + ", ".join(MODEL_NAMES))
    p.add_argument("--y", default="0", help="log-moneyness values (list or a:b:n)")
    p.add_argument("--t", default="1", help="expiries (list or a:b:n)")

    p = _add_parser(sub, "residual", cmd_residual, "PDE residual norms per model",
                    "nu", "rho")
    p.add_argument("--preset", default=None, help="named region preset "
                   "(table4, table5-row1..6)")
    p.add_argument("--y", default="-0.5,0.5", help="log-moneyness range lo,hi")
    p.add_argument("--t", default="0.1,1", help="expiry range lo,hi")
    p.add_argument("--sigma-range", default="0.1,0.3", help="sigma range lo,hi")

    p = _add_parser(sub, "fd", cmd_fd, "finite-difference benchmark vs closed forms",
                    "nu", "rho")
    p.add_argument("--preset", default=None, help="named row preset "
                   "(fd1-row1..7, fd2-row1..3)")
    p.add_argument("--expiry", type=float, default=0.5, help="maturity T")
    p.add_argument("--levels", type=int, default=1, help="max refinement level")
    p.add_argument("--cutoff", action="store_true",
                   help="append a cut-off sensitivity row")

    p = _add_parser(sub, "mc", cmd_mc, "Monte Carlo benchmark across strikes",
                    "sigma", "nu", "rho", "seed")
    p.add_argument("--preset", default=None, help="named preset (mc-paper)")
    p.add_argument("--spot", type=float, default=10.0)
    p.add_argument("--rate", type=float, default=0.0)
    p.add_argument("--expiry", type=float, default=1.0, help="maturity T")
    p.add_argument("--strikes", default=None, help="strike values (list or a:b:n)")
    p.add_argument("--paths", type=int, default=30000)
    p.add_argument("--dt", type=float, default=1e-3)

    p = _add_parser(sub, "calibrate", cmd_calibrate, "fit (nu, sigma, rho) to a quote panel",
                    *_FLAGS)
    p.add_argument("--quotes", default=None, help="quote CSV "
                   "(day,type,expiry_months,delta,implied_vol)")
    p.add_argument("--objective", default="sigma_d", choices=cal.OBJECTIVES)
    p.add_argument("--init", default="0.5,0.2,-0.3", help="start nu,sigma,rho")
    p.add_argument("--sigma-prev", type=float, default=None,
                   help="day-0 sigma for delta-to-moneyness conversion (needs --quotes)")
    p.add_argument("--synth-days", type=int, default=5,
                   help="synthetic panel length when no --quotes given")
    p.add_argument("--noise", type=float, default=0.0,
                   help="synthetic quote noise (vol points)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ignored = _resolve(args)
        if args.print_config:
            skip = {"func", "given", "print_config", "subcommand", *ignored}
            for key in sorted(vars(args).keys() - skip):
                print(f"{key}={getattr(args, key)}")
            return EXIT_OK
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's four workloads. Each one is a fixed set of `sabrkit`
CLI calls (ops) built from the run's seed, with a check of every op's
output against the outputs recorded in expected.json and against the
acceptance gate's own rules.

A workload object has:

- `setup(workdir)`: generate and write the inputs (timed as set-up);
- `ops(passdir)`: yield the ops of one pass, in order; the runner runs
  and checks each op before it asks for the next one;
- `check(op)`: return (ok, facts, message) for an op that exited with 0.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# calib: a fixed 64-day panel; the seed picks a 12-day window of it
GENERATOR = dict(sigma0=0.19, nu=1.3, rho=-0.55)
PANEL_NOISE = 0.01
PANEL_SEED = 20181224
POOL_DAYS = 64
WINDOW_DAYS = 12
FIRST_INIT = ("1.0", "0.25", "-0.3")
FIRST_SIGMA_PREV = "0.19"
ISE_BAND = (0.005, 0.02)  # acceptance criterion 10, for noise 0.01

RESIDUAL_PRESETS = (
    "table4", "table5-row1", "table5-row2", "table5-row3",
    "table5-row4", "table5-row5", "table5-row6",
)
LATTICE_VARIANTS = 4
LATTICE_Y = "--y=-0.5:0.5:11"
LATTICE_T = "0.25,0.5,1,2"

# (preset, levels, cutoff row)
FD_RUNS = (
    ("fd1-row7", 3, True),
    ("fd2-row3", 3, False),
    ("fd1-row4", 3, False),
    ("fd1-row1", 2, False),
)
RICHARDSON_BAND = (0.2, 0.32)  # acceptance criterion 5, on fd1-row7

MC_SEEDS = 4
MC_THREADS = "2"

# Tight enough that any Hagan time-bracket variant fails every workload
# that prices with Hagan, loose enough for a change of summation order.
RTOL = 1e-7
ATOL = 1e-13
FIT_ATOL = 1e-6  # calibrated (nu, sigma, rho): Nelder-Mead stops at xatol 1e-9


@dataclass
class Op:
    label: str
    argv: list[str]
    out: Path
    expected: list[str]
    info: dict = field(default_factory=dict)


def _cells(line: str) -> list[str]:
    return next(csv.reader([line]))


def _close(got: str, want: str, rtol: float, atol: float) -> bool:
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got == want
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= atol + rtol * abs(b)


def _read_lines(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def compare_lines(got: list[str], want: list[str], rtol: float = RTOL, atol: float = ATOL) -> str:
    """Empty string when the CSV outputs match cell by cell, else the first
    mismatch."""
    if len(got) != len(want):
        return f"{len(got)} lines, expected {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        gc, wc = _cells(g), _cells(w)
        if len(gc) != len(wc):
            return f"line {i}: {len(gc)} cells, expected {len(wc)}"
        for j, (a, b) in enumerate(zip(gc, wc)):
            if not _close(a, b, rtol, atol):
                return f"line {i} cell {j}: {a} != {b}"
    return ""


def _csv_args(out: Path) -> list[str]:
    return ["--format", "csv", "--out", str(out)]


class Calib:
    """Daily warm-started calibration: one `calibrate` call per day."""

    name = "calib"
    env: dict[str, str] = {}

    def __init__(self, seed: int, expected: dict):
        self.rows = expected["calib"]
        self.first = 2 + seed % (POOL_DAYS - WINDOW_DAYS)
        self.days = range(self.first, self.first + WINDOW_DAYS)
        self.workdir: Path | None = None

    @staticmethod
    def panel():
        from sabrkit.calibration import synth_panel
        from sabrkit.expansion import SabrParams

        return synth_panel(
            SabrParams(**GENERATOR), POOL_DAYS, noise_level=PANEL_NOISE,
            seed=PANEL_SEED, quote_with="delta",
        )

    @staticmethod
    def quotes_path(workdir: Path, day: int) -> Path:
        return workdir / f"quotes_day{day}.csv"

    @staticmethod
    def op(day: int, quotes: Path, out: Path, init, sigma_prev: str, expected) -> Op:
        argv = [
            "calibrate", "--quotes", str(quotes), "--objective", "sigma_d",
            "--init=" + ",".join(init), f"--sigma-prev={sigma_prev}", *_csv_args(out),
        ]
        return Op(f"day{day}", argv, out, expected)

    def setup(self, workdir: Path) -> None:
        from sabrkit.calibration import RESULT_HEADER, write_quotes_csv

        self.workdir = workdir
        for day in self.panel()[self.first - 1 : self.first - 1 + WINDOW_DAYS]:
            write_quotes_csv(str(self.quotes_path(workdir, day.day)), [day])
        yesterday = self.rows[str(self.first - 1)]
        (workdir / "results_yesterday.csv").write_text(
            ",".join(RESULT_HEADER) + "\n" + yesterday + "\n", encoding="utf-8"
        )

    def _yesterday(self, path: Path, day: int) -> tuple[tuple[str, ...], str]:
        # yesterday's fitted (nu, sigma, rho) from its result CSV; the
        # recorded row stands in when yesterday's op left no usable output
        try:
            cells = _cells(_read_lines(path)[1])
            params = (cells[2], cells[3], cells[4])
            [float(p) for p in params]
        except (OSError, IndexError, ValueError, StopIteration):
            cells = _cells(self.rows[str(day - 1)])
            params = (cells[2], cells[3], cells[4])
        return params, params[1]

    def ops(self, passdir: Path):
        prev = self.workdir / "results_yesterday.csv"
        for day in self.days:
            init, sigma_prev = self._yesterday(prev, day)
            out = passdir / f"results_day{day}.csv"
            yield self.op(
                day, self.quotes_path(self.workdir, day), out, init, sigma_prev,
                [self.rows[str(day)]],
            )
            prev = out

    def check(self, op: Op) -> tuple[bool, dict, str]:
        lines = _read_lines(op.out)[1:]
        if len(lines) != 1:
            return False, {}, f"{len(lines)} result rows, expected 1"
        got, want = _cells(lines[0]), _cells(op.expected[0])
        ise = float(got[5])
        facts = {"ise": ise}
        if got[:2] != want[:2] or got[7] != "ok":
            return False, facts, f"row {got} != {want}"
        for j in (2, 3, 4):
            if not _close(got[j], want[j], 0.0, FIT_ATOL):
                return False, facts, f"{op.label}: fitted {got[2:5]} != {want[2:5]}"
        if not _close(got[5], want[5], 1e-6, 0.0):
            return False, facts, f"{op.label}: ISE {got[5]} != {want[5]}"
        if not ISE_BAND[0] <= ise <= ISE_BAND[1]:
            return False, facts, f"{op.label}: ISE {ise} outside {ISE_BAND}"
        return True, facts, ""


def lattice_params(variant: int) -> dict[str, float]:
    rng = random.Random(variant)
    return {
        "sigma": round(rng.uniform(0.1, 0.4), 3),
        "nu": round(rng.uniform(0.2, 1.0), 3),
        "rho": round(rng.uniform(-0.7, 0.0), 3),
        "kappa0": round(rng.uniform(0.5, 2.0), 3),
        "theta": round(rng.uniform(0.1, 0.4), 3),
    }


def lattice_argv(variant: int, model: str) -> list[str]:
    p = lattice_params(variant)
    argv = [
        "price", "--model", model, f"--sigma={p['sigma']}", f"--nu={p['nu']}",
        f"--rho={p['rho']}", LATTICE_Y, "--t", LATTICE_T,
    ]
    if model == "kappa":
        argv += [f"--kappa0={p['kappa0']}", f"--theta={p['theta']}"]
    return argv


class Tables:
    """The paper's residual tables plus two closed-form price lattices."""

    name = "tables"
    env: dict[str, str] = {}
    lattice_models = ("sa2,d,h,bs", "kappa")

    def __init__(self, seed: int, expected: dict):
        self.expected = expected["tables"]
        self.variant = seed % LATTICE_VARIANTS
        self.order = [("residual", p) for p in RESIDUAL_PRESETS]
        self.order += [("price", m) for m in self.lattice_models]
        random.Random(seed).shuffle(self.order)

    def setup(self, workdir: Path) -> None:
        pass

    def ops(self, passdir: Path):
        for kind, name in self.order:
            out = passdir / f"{kind}-{name}.csv"
            if kind == "residual":
                argv = ["residual", "--preset", name]
                want = self.expected["residual"][name]
            else:
                argv = lattice_argv(self.variant, name)
                want = self.expected["price"][str(self.variant)][name]
            yield Op(f"{kind}-{name}", argv + _csv_args(out), out, want)

    def check(self, op: Op) -> tuple[bool, dict, str]:
        msg = compare_lines(_read_lines(op.out), op.expected)
        return not msg, {}, msg and f"{op.label}: {msg}"


def fd_argv(preset: str, levels: int, cutoff: bool) -> list[str]:
    return ["fd", "--preset", preset, "--levels", str(levels)] + (["--cutoff"] if cutoff else [])


class Fd:
    """FD refinement sequences: large grids and one long maturity."""

    name = "fd"
    env: dict[str, str] = {}

    def __init__(self, seed: int, expected: dict):
        self.expected = expected["fd"]
        self.order = list(FD_RUNS)
        random.Random(seed).shuffle(self.order)

    def setup(self, workdir: Path) -> None:
        pass

    def ops(self, passdir: Path):
        for preset, levels, cutoff in self.order:
            out = passdir / f"fd-{preset}.csv"
            yield Op(
                preset, fd_argv(preset, levels, cutoff) + _csv_args(out), out,
                self.expected[preset], {"levels": levels},
            )

    def check(self, op: Op) -> tuple[bool, dict, str]:
        lines = _read_lines(op.out)
        top = _cells(lines[op.info["levels"] + 1])
        facts = {f"fd.est_error.{op.label}": float(top[-1])}
        msg = compare_lines(lines, op.expected)
        if msg:
            return False, facts, f"{op.label}: {msg}"
        if op.label == "fd1-row7":
            ratios = [float(_cells(line)[8]) for line in lines[3 : op.info["levels"] + 2]]
            if not all(RICHARDSON_BAND[0] <= r <= RICHARDSON_BAND[1] for r in ratios):
                return False, facts, f"Richardson ratios {ratios} outside {RICHARDSON_BAND}"
        return True, facts, ""


def mc_argv(mc_seed: int) -> list[str]:
    return [
        "mc", "--preset", "mc-paper", "--strikes", "8:12:9", "--paths", "30000",
        f"--seed={mc_seed}",
    ]


class Mc:
    """Monte Carlo across nine strikes on two threads."""

    name = "mc"
    env = {"SABR_THREADS": MC_THREADS}

    def __init__(self, seed: int, expected: dict):
        self.expected = expected["mc"]
        self.mc_seed = seed % MC_SEEDS

    def setup(self, workdir: Path) -> None:
        pass

    def ops(self, passdir: Path):
        out = passdir / "mc.csv"
        yield Op("mc-paper", mc_argv(self.mc_seed) + _csv_args(out), out,
                 self.expected[str(self.mc_seed)])

    def check(self, op: Op) -> tuple[bool, dict, str]:
        lines = _read_lines(op.out)
        rows = [[float(c) for c in _cells(line)] for line in lines[1:]]
        facts = {"se": [r[3] for r in rows]}
        msg = compare_lines(lines, op.expected)
        if msg:
            return False, facts, f"{op.label}: {msg}"
        for strike, _, c_mc, se, _, _, c_sa2, _, _ in rows:
            # acceptance criterion 7, strike by strike
            if abs(c_sa2 - c_mc) > max(3.0 * se, 0.003 * c_mc):
                return False, facts, f"strike {strike}: |c_sa2 - c_mc| > max(3 se, 0.3%)"
        return True, facts, ""


WORKLOADS = {w.name: w for w in (Calib, Tables, Fd, Mc)}

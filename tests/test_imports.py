"""Start-up cost: each scipy submodule sabrkit uses loads only where it runs.

`import sabrkit.cli` loads no module of scipy, not even the bare package,
nor does a `price` or `mc` run or a `sigma_d` or `sigma_h` calibration:
they make only float `erfc` calls, and `mc`'s paths need none.
`scipy.special` (the `erfc` ufunc of an array `c_rel`) loads in a
`residual` or `fd` run and in a price-objective fit; `scipy.sparse` only
in an FD solve. No subcommand loads `scipy.optimize`: calibration fits run
their own solver.

Each check runs in a fresh interpreter, since pytest's own process has
imported scipy modules of its own by now."""

import json
import os
import subprocess
import sys
from pathlib import Path

import sabrkit

DEFERRED = ("scipy.optimize", "scipy.sparse", "scipy.special")

SCRIPT = """
import contextlib, io, json, sys

def deferred_loaded():
    return sorted(p for p in {prefixes!r} if any(
        m == p or m.startswith(p + ".") for m in sys.modules))

def scipy_loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)

import sabrkit, sabrkit.cli
seen = {{"import": deferred_loaded()}}
bare = {{"import": scipy_loaded()}}
for name, argv in {runs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = sabrkit.cli.main(argv)
    assert code == 0, (name, code)
    seen[name] = deferred_loaded()
    bare[name] = scipy_loaded()
print(json.dumps([seen, bare]))
"""


def loaded_after(runs):
    """The deferred modules loaded after importing sabrkit.cli, and after
    each cli.main run in turn, in a fresh interpreter; and at each of those
    points whether any module named scipy or scipy.* is loaded."""
    src = str(Path(sabrkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(prefixes=DEFERRED, runs=runs)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_price_and_vol_objective_calibrate_runs_load_none(tmp_path):
    quotes = tmp_path / "quotes.csv"
    quotes.write_text("day,type,expiry_months,delta,implied_vol\n"
                      "1,C,12,0.5,0.2\n1,C,12,0.25,0.21\n1,P,12,0.25,0.22\n")
    runs = [
        # price evaluates its lattice point by point, in float calls
        ("price", ["price", "--model", "sa2,h,d,bs", "--y=-0.2:0.2:5", "--t", "0.5,1"]),
        ("synthetic", ["calibrate", "--synth-days", "1"]),
        ("quotes", ["calibrate", "--quotes", str(quotes), "--sigma-prev", "0.2",
                    "--objective", "sigma_d"]),
        ("sigma_h", ["calibrate", "--synth-days", "1", "--objective", "sigma_h"]),
        # mc prices its closed-form columns as price does
        ("mc", ["mc", "--paths", "1000", "--dt", "0.01", "--strikes", "8:12:9"]),
    ]
    _, bare = loaded_after(runs)
    assert bare == dict.fromkeys(["import"] + [name for name, _ in runs], False)


def test_residual_run_loads_only_special():
    seen, _ = loaded_after([("residual", ["residual", "--preset", "table4"])])
    assert seen == {"import": [], "residual": ["scipy.special"]}


def test_fd_run_loads_special_and_sparse():
    seen, _ = loaded_after([("fd", ["fd", "--levels", "0"])])
    assert seen == {"import": [], "fd": ["scipy.sparse", "scipy.special"]}


def test_price_objective_fit_loads_only_special():
    seen, _ = loaded_after([
        ("calibrate", ["calibrate", "--synth-days", "1", "--objective", "price_sa2"]),
    ])
    assert seen == {"import": [], "calibrate": ["scipy.special"]}

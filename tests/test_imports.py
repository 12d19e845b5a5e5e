"""Start-up cost: no subcommand loads scipy.optimize (calibration fits run
their own solver), and only an FD solve loads scipy.sparse; `import
sabrkit.cli` loads neither.

The checks run in a fresh interpreter, since pytest's own process has
imported scipy modules of its own by now."""

import json
import os
import subprocess
import sys
from pathlib import Path

import sabrkit

DEFERRED = ("scipy.optimize", "scipy.sparse")

SCRIPT = """
import contextlib, io, json, sys

def deferred_loaded():
    return sorted(p for p in {prefixes!r} if any(
        m == p or m.startswith(p + ".") for m in sys.modules))

import sabrkit, sabrkit.cli
seen = {{"import": deferred_loaded()}}
for name, argv in {runs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = sabrkit.cli.main(argv)
    assert code == 0, (name, code)
    seen[name] = deferred_loaded()
print(json.dumps(seen))
"""


def loaded_after(runs):
    """The deferred modules loaded after importing sabrkit.cli, and after
    each cli.main run in turn, in a fresh interpreter."""
    src = str(Path(sabrkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(prefixes=DEFERRED, runs=runs)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_closed_form_and_mc_runs_load_neither():
    seen = loaded_after([
        ("price", ["price", "--y=-0.2:0.2:5", "--t", "0.5,1"]),
        ("residual", ["residual", "--preset", "table4"]),
        ("mc", ["mc", "--paths", "1000", "--dt", "0.01", "--strikes", "10"]),
    ])
    assert seen == {"import": [], "price": [], "residual": [], "mc": []}


def test_fd_run_loads_only_sparse():
    seen = loaded_after([("fd", ["fd", "--levels", "0"])])
    assert seen == {"import": [], "fd": ["scipy.sparse"]}


def test_calibrate_run_loads_neither():
    seen = loaded_after([("calibrate", ["calibrate", "--synth-days", "1"])])
    assert seen == {"import": [], "calibrate": []}

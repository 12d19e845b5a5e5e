"""Check that two checkouts write the same bytes for every benchmark op.

    python3 tools/same_outputs.py PARENT CHANGE --workload tables calib --seed 7
    python3 tools/same_outputs.py PARENT CHANGE --gate

For each checkout, a fresh interpreter with that checkout's `src` on the
path builds the ops of each workload from the checkout's own
`benchmarks/workloads.py` and `benchmarks/expected.json` (read only),
runs the workload's set-up and its ops through `sabrkit.cli.main` in a
temporary directory with the workload's environment, and takes the
sha256 of each op's output file. With `--gate` (alone or with workloads)
it also runs `pytest -q -s tests/test_acceptance.py` in each checkout
against its `src` and takes the `criterion N: PASS|FAIL (...)` lines.
The JSON printed gives both sides' exit code and hash for every op, and
their line for every criterion as "gate/criterion N", and lists under
`differ` each op whose exit code or bytes differ, and each criterion
whose line differs (or that only one side ran); the exit status is 1
when that list is not empty. Uses only the standard library and writes
nothing into either checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
# as benchmarks/run.py pins them before numpy loads
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def hash_outputs(checkout: str, seed: int, workloads: list[str]) -> dict:
    """{workload: {op label: {"exit": code, "sha256": hex or None}}} for one
    checkout, run in this interpreter."""
    root = Path(checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "benchmarks")]
    from sabrkit import cli
    from workloads import WORKLOADS

    expected = json.loads((root / "benchmarks" / "expected.json").read_text(encoding="utf-8"))
    result = {}
    for name in workloads:
        wl = WORKLOADS[name](seed, expected)
        os.environ.pop("SABR_THREADS", None)
        os.environ.update(wl.env)
        ops = result[name] = {}
        with tempfile.TemporaryDirectory() as tmp:
            wl.setup(Path(tmp))
            passdir = Path(tmp) / "pass0"
            passdir.mkdir()
            for op in wl.ops(passdir):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(op.argv)
                    except SystemExit as exc:
                        code = exc.code
                data = op.out.read_bytes() if op.out.exists() else None
                digest = None if data is None else hashlib.sha256(data).hexdigest()
                ops[op.label] = {"exit": code, "sha256": digest}
    return result


def run_checkout(checkout: Path, seed: int, workloads: list[str]) -> dict:
    """hash_outputs for checkout in a fresh interpreter."""
    code = (
        f"import json, sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
        "from same_outputs import hash_outputs; "
        "print(json.dumps(hash_outputs(sys.argv[1], int(sys.argv[2]), sys.argv[3:])))"
    )
    argv = [sys.executable, "-B", "-c", code, str(checkout), str(seed), *workloads]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=1800,
                          env={**os.environ, **THREAD_ENV})
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: exited with {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


# a gate line, after any of pytest's progress characters before it
_GATE_LINE = re.compile(r"(criterion \d+): (PASS|FAIL) \(.*$")


def gate_lines(output: str) -> dict:
    """{"gate": {"criterion N": line}} for the criterion lines of the
    acceptance gate's output."""
    found = (_GATE_LINE.search(line) for line in output.splitlines())
    return {"gate": {m[1]: m[0] for m in found if m}}


def run_gate(checkout: Path) -> dict:
    """gate_lines of the acceptance gate run in checkout against its src."""
    root = checkout.resolve()
    argv = [sys.executable, "-B", "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
            "tests/test_acceptance.py"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=1800,
                          env={**os.environ, **THREAD_ENV, "PYTHONPATH": str(root / "src")})
    lines = gate_lines(proc.stdout)
    if not lines["gate"]:
        raise SystemExit(f"{checkout}: the gate printed no criterion line\n{proc.stderr}")
    return lines


def compare(parent: dict, change: dict) -> dict:
    """Both sides' op records side by side, and the ops that differ as
    "workload/label"."""
    ops, differ = {}, []
    for workload in sorted(set(parent) | set(change)):
        sides = (parent.get(workload, {}), change.get(workload, {}))
        for label in sorted(set(sides[0]) | set(sides[1])):
            pair = {side: records.get(label) for side, records in zip(SIDES, sides)}
            ops[f"{workload}/{label}"] = pair
            if pair["parent"] is None or pair["parent"] != pair["change"]:
                differ.append(f"{workload}/{label}")
    return {"ops": ops, "differ": differ}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("change", type=Path, help="checkout with the change")
    parser.add_argument("--workload", nargs="+", default=[])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--gate", action="store_true",
                        help="also compare the acceptance gate's criterion lines")
    args = parser.parse_args(argv)
    if not (args.workload or args.gate):
        parser.error("give --workload, --gate or both")
    if args.workload and args.seed is None:
        parser.error("--workload needs --seed")
    runs = {}
    for side in SIDES:
        checkout = getattr(args, side)
        runs[side] = run_checkout(checkout, args.seed, args.workload) if args.workload else {}
        if args.gate:
            runs[side].update(run_gate(checkout))
    result = {"seed": args.seed, "workloads": args.workload, **compare(*runs.values())}
    print(json.dumps(result, indent=1))
    return 1 if result["differ"] else 0


if __name__ == "__main__":
    sys.exit(main())

"""Paired benchmark runs of two checkouts, in alternating fresh processes.

    python3 tools/bench_pairs.py PARENT CHANGE --workload mc --seeds 60-67 \
        --seconds 30 [--out pairs.json]

Each pair runs `benchmarks/run.py --workload W --seed S --seconds X
--trace 0` once from each checkout's root, each in a fresh interpreter;
the side that runs first alternates, the parent first in even pairs. For
every end-to-end metric BENCHMARK.json lists, the JSON printed (and
written to --out) gives both sides' runs, medians and quartiles, the
per-pair ratios change/parent, how many pairs the change won, and the
change's median against the parent's quartile spread and the metric's
bound. `claim_met` says whether a gain may be claimed: there are at least
ten pairs, the change wins at least 9 in 10 of them and its median gain
exceeds the parent's quartile spread. `unresolved` says the parent's
relative quartile spread is wider than the bound and not every change run
beats every parent run.
`--workload` takes several names; each runs its own pairs. Uses only the
standard library; the checkouts' benchmarks are not modified.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def seed_list(text: str) -> list[int]:
    """'60-67' or '60,61,65' (or a mix) as a list of seeds. A part that is
    empty, not a number or a descending range such as '70-65' is an error."""
    seeds = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        try:
            first, last = int(lo), int(hi if dash else lo)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a seed or a seed range: {part!r}") from None
        if last < first:
            raise argparse.ArgumentTypeError(f"descending seed range {part!r}")
        seeds.extend(range(first, last + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "-B", "benchmarks/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=max(900.0, 20 * seconds))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{checkout}: {' '.join(argv[2:])} exited with {proc.returncode}\n"
            f"{proc.stderr}"
        )
    return json.loads(lines[-1])


def quartiles(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "runs": [round(v, 6) for v in runs]}


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    lower = metric["better"] == "lower"
    p, c = quartiles(parent), quartiles(change)
    wins = sum((b < a) if lower else (b > a) for a, b in zip(parent, change))
    rel = c["median"] / p["median"] - 1.0
    gain = (p["median"] - c["median"]) if lower else (c["median"] - p["median"])
    # a gain counts only past the spread of the parent's own runs
    beyond = gain > p["q3"] - p["q1"]
    spread = (p["q3"] - p["q1"]) / p["median"]
    every_run_better = max(change) < min(parent) if lower else min(change) > max(parent)
    return {
        "unit": metric["unit"],
        "parent": p,
        "change": c,
        "ratios": [round(b / a, 4) for a, b in zip(parent, change)],
        "change_wins": wins,
        "ties": sum(a == b for a, b in zip(parent, change)),
        "change_rel": round(rel, 4),
        "parent_iqr_rel": round(spread, 4),
        "gain_beyond_parent_iqr": beyond,
        # at least ten pairs, and the change wins 9 in 10 of them, a tie
        # counting for neither
        "claim_met": len(parent) >= 10 and 10 * wins >= 9 * len(parent) and beyond,
        "bound": metric["bound"],
        "worse_than_bound": (rel if lower else -rel) > metric["bound"],
        # the parent's runs spread wider than the bound: no verdict of
        # "unchanged" unless every change run beats every parent run
        "unresolved": spread > metric["bound"] and not every_run_better,
    }


def pair_runs(args, workload: str, metrics: list[dict]) -> dict:
    runs = {side: [] for side in SIDES}
    first = []
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            result = run_once(getattr(args, side), workload, seed, args.seconds)
            runs[side].append(result)
            wall = result["metrics"]["wall_s"]["value"]
            print(f"# {workload} seed {seed} {side}: wall_s {wall:.4f}", file=sys.stderr)
    record = {"pairs": len(args.seeds), "seeds": args.seeds, "first": first}
    for side in SIDES:
        record[side] = {
            "attempted_ops": sum(r["attempted"] for r in runs[side]),
            "failed_ops": sum(r["failed"] for r in runs[side]),
            "all_correct": all(r["correct"] for r in runs[side]),
        }
    for metric in metrics:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        record[name] = compare(metric, values["parent"], values["change"])
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("change", type=Path, help="checkout with the change")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True,
                        help="e.g. 60-67 or 60,61,62")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path, help="also write the JSON here")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least 2 pairs")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = benchmark["end_to_end"]
    result = {
        "command": f"benchmarks/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "workloads": {w: pair_runs(args, w, metrics) for w in args.workload},
    }
    text = json.dumps(result, indent=1)
    if args.out:
        args.out.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""sabrkit benchmark: runs one workload of `sabrkit.cli.main` calls in this
process, checks every output and prints the metrics.

    python3 benchmarks/run.py --workload {calib,tables,fd,mc} --seed N \
        --seconds S --trace {0,1}
    python3 benchmarks/run.py --workload all --seed N    # every workload
    python3 benchmarks/run.py --record                   # rewrite expected.json

`--setup-only` makes one set-up in this process and prints its time; a
run starts it in fresh interpreters to sample set-up time.

Run it from the repository root; it imports sabrkit from ./src and writes
only under ./.bench_out. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. See
benchmarks/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os
import sys

# pinned before numpy loads; SABR_THREADS is set per workload
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)
sys.dont_write_bytecode = True  # never write into src/


def _pin_malloc() -> dict:
    # Fix glibc's heap trim and mmap thresholds at 32 MiB, the top of the
    # range glibc's own dynamic adjustment raises the mmap threshold to,
    # and switch that adjustment off. Left dynamic, a process that has not
    # yet raised its thresholds trims the heap after every level-3 FD step
    # and faults its temporaries back in (about 150 minor faults a step,
    # 1.5x the wall time), and whether and when it does varies from process
    # to process and within one. Pinned, no process trims the heap.
    import ctypes

    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return {}
    pinned = {"trim_threshold": (-1, 32 << 20), "mmap_threshold": (-3, 32 << 20)}
    return {k: v for k, (param, v) in pinned.items() if mallopt(param, v) == 1}


import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from workloads import (  # noqa: E402
    FD_RUNS, FIRST_INIT, FIRST_SIGMA_PREV, LATTICE_VARIANTS, MC_SEEDS,
    RESIDUAL_PRESETS, WORKLOADS, Calib, Mc, Tables, fd_argv, lattice_argv, mc_argv,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
EXPECTED = BENCH_DIR / "expected.json"
BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 5  # this process and 4 fresh interpreters
TAIL_BEYOND = 10  # samples a tail percentile must have beyond it


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Terminated(BaseException):
    """SIGTERM arrived; not an Exception, so no op's error handling takes it."""


def _terminate(signum, frame):
    raise Terminated(signum)


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """The end-to-end and per-layer metrics BENCHMARK.json declares, with
    their units."""
    try:
        spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {BENCHMARK}: {exc}") from exc
    return tuple({m["name"]: m["unit"] for m in spec[k]} for k in ("end_to_end", "per_layer"))


# -- running sabrkit -------------------------------------------------------


def import_sabrkit() -> float:
    """Import sabrkit from ./src and return the import time in seconds."""
    if not (SRC / "sabrkit" / "__init__.py").is_file():
        raise BenchError(f"no sabrkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import sabrkit.cli

    elapsed = time.perf_counter() - t0
    if not Path(sabrkit.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"sabrkit imported from {sabrkit.__file__}, not {SRC}")
    return elapsed


def set_up(name: str, seed: int, workdir: Path):
    """Import sabrkit, then generate and write the workload's inputs into
    workdir; returns the workload and (import seconds, inputs seconds)."""
    import_s = import_sabrkit()
    if not EXPECTED.is_file():
        raise BenchError(f"missing {EXPECTED}; run with --record first")
    wl = WORKLOADS[name](seed, json.loads(EXPECTED.read_text(encoding="utf-8")))
    t0 = time.perf_counter()
    wl.setup(workdir)
    return wl, (import_s, time.perf_counter() - t0)


def child_set_up(name: str, seed: int) -> tuple[float, float]:
    """One set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-B", __file__, "--setup-only", "--workload", name,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up of {name} failed: {proc.stderr.strip()}")
    import_s, inputs_s = proc.stdout.split()
    return float(import_s), float(inputs_s)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call sabrkit.cli.main(argv) with its output captured; returns the
    exit code and, on failure, what went wrong."""
    from sabrkit import cli

    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        return -1, traceback.format_exc()
    return code, err.getvalue().strip() if code else ""


# -- passes ----------------------------------------------------------------


def run_pass(wl, passdir: Path, first_id: int, tracer) -> dict:
    passdir.mkdir()
    ops = []
    snap = tracer.snapshot() if tracer else {}
    for op in wl.ops(passdir):
        op_id = first_id + len(ops)
        if tracer:
            tracer.op = op_id
        t0 = time.perf_counter()
        code, error = run_cli(op.argv)
        latency = time.perf_counter() - t0
        if tracer:
            tracer.op = None
        ok, facts, msg = False, {}, f"{op.label}: exit code {code} {error}".rstrip()
        if code == 0:
            try:
                ok, facts, msg = wl.check(op)
            except (OSError, ValueError, IndexError, KeyError) as exc:
                msg = f"{op.label}: unreadable output: {exc!r}"
        ops.append({
            "id": op_id, "label": op.label, "latency_s": latency, "ok": ok,
            "facts": facts, "error": "" if ok else msg,
        })
    return {
        "wall_s": sum(op["latency_s"] for op in ops),
        "ops": ops,
        "counts": tracing.counter_delta(tracer.snapshot(), snap) if tracer else {},
    }


def run_passes(wl, workdir: Path, budget: float, tracer, passes: list[dict]) -> list[dict]:
    """Repeat the workload's op set until the next pass would overrun the
    budget; at least one pass."""
    mine: list[dict] = []
    t0 = time.perf_counter()
    while True:
        first_id = sum(len(p["ops"]) for p in passes)
        p = run_pass(wl, workdir / f"pass{len(passes)}", first_id, tracer)
        passes.append(p)
        mine.append(p)
        typical = statistics.median(q["wall_s"] for q in mine)
        if time.perf_counter() - t0 + typical > budget:
            return mine


# -- metrics ---------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with TAIL_BEYOND samples beyond it, as
    (value, percentile)."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    k = n - TAIL_BEYOND  # 1-based rank
    return sorted(values)[k - 1], 100.0 * k / n


def workload_extras(passes: list[dict]) -> dict:
    """The workload-specific end-to-end figures of untraced passes."""
    ops = [op for p in passes for op in p["ops"]]
    extras = {"op_p50_s": statistics.median(op["latency_s"] for op in ops)}
    latencies = [op["latency_s"] for op in ops if op["label"].startswith("day")]
    t = tail(latencies)
    if t:
        extras["day_tail_s"] = t[0]
        extras["day_tail_pct"] = t[1]
        extras["day_n"] = len(latencies)
    se = [s for op in ops[: len(passes[0]["ops"])] for s in op["facts"].get("se", [])]
    if se:
        extras["se_cost"] = best_wall(passes) * statistics.fmean(s * s for s in se)
    errs = [v for op in ops for k, v in op["facts"].items() if k.startswith("fd.est_error.")]
    if errs:
        extras["fd_err"] = max(errs)
    return extras


def best_wall(passes: list[dict]) -> float:
    """The pass's summed op latency with every op at its fastest over the
    passes: the CPU's slow spells last seconds, so each op's minimum keeps
    them out."""
    return sum(min(ops) for ops in zip(*([op["latency_s"] for op in p["ops"]] for p in passes)))


def end_to_end(passes: list[dict], setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "wall_s": best_wall(passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(
    names, traced: list[dict], tracer, untraced: list[dict], setup: dict, extras: dict
) -> dict:
    by_op: dict[int, list[dict]] = {}
    for s in tracer.spans:
        by_op.setdefault(s["op"], []).append(s)
    rows = []
    for p in traced:
        spans = [s for op in p["ops"] for s in by_op.get(op["id"], [])]
        rows.append(tracing.pass_metrics(spans, p["counts"], p["ops"]))
    metrics = dict.fromkeys(names, 0.0)
    for key in rows[0].keys() & metrics.keys():
        metrics[key] = statistics.median(r[key] for r in rows if key in r)
    untraced_wall = best_wall(untraced)
    traced_wall = best_wall(traced)
    metrics["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    metrics["setup.import_s"] = setup["import_s"]
    metrics["setup.inputs_s"] = setup["inputs_s"]
    for key in ("op_p50_s", "day_tail_s", "se_cost", "fd_err"):
        metrics[key] = extras.get(key, 0.0)
    return metrics


# -- environment -----------------------------------------------------------


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, malloc: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "threads": {k: os.environ.get(k, "") for k in (*THREAD_ENV, "SABR_THREADS")},
        "malloc": malloc or "glibc mallopt unavailable; thresholds not pinned",
    }


# -- entry points ----------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, malloc: dict) -> dict:
    e2e_units, layer_units = metric_units()
    units = {**e2e_units, **layer_units}
    os.environ.pop("SABR_THREADS", None)
    os.environ.update(WORKLOADS[name].env)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    tracer = None
    try:
        wl, sample = set_up(name, seed, workdir)
        samples = [sample] + [child_set_up(name, seed) for _ in range(SETUP_SAMPLES - 1)]
        # the fastest whole set-up, and its parts
        best = min(samples, key=sum)
        setup = {"import_s": best[0], "inputs_s": best[1]}
        passes: list[dict] = []
        untraced = run_passes(wl, workdir, seconds / 2 if trace else seconds, None, passes)
        traced = []
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_passes(wl, workdir, seconds / 2, tracer, passes)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if not op["ok"]]
    extras = workload_extras(untraced)
    extras["fail_frac"] = len(failed) / len(ops)
    if trace:
        metrics = per_layer(layer_units, traced, tracer, untraced, setup, extras)
    else:
        metrics = end_to_end(untraced, setup["import_s"] + setup["inputs_s"])
        if metrics.keys() != e2e_units.keys():
            raise BenchError(f"BENCHMARK.json lists {list(e2e_units)}, not {list(metrics)}")
    env = environment(seed, malloc)
    record = {
        "workload": name, "seconds": seconds, "trace": int(trace), "env": env,
        "setup": setup, "setup_samples_s": samples,
        "passes": [{"wall_s": p["wall_s"], "ops": p["ops"]} for p in passes],
        "n_untraced_passes": len(untraced), "extras": extras, "metrics": metrics,
    }
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    with open(OUT_DIR / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer:
        tracer.write(OUT_DIR / f"trace-{stem}.json", {"workload": name, "env": env})

    print(f"# workload={name} seed={seed} seconds={seconds} trace={int(trace)}")
    print(f"# env: {json.dumps(env)}")
    print(f"# passes={len(passes)} (untraced {len(untraced)}) ops={len(ops)} failed={len(failed)}")
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units.get(key, '1')}")
    if "day_tail_s" in extras:
        print(f"# day_tail_s is p{extras['day_tail_pct']:.1f} of n={extras['day_n']} days")
    for key, value in extras.items():
        if key not in metrics and key not in ("day_tail_pct", "day_n"):
            print(f"{key} = {value:.6g} {units.get(key, '1')}")
    for op in failed[:10]:
        print(f"FAILED {op['label']}: {op['error']}", file=sys.stderr)
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def setup_only(name: str, seed: int) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"setup-{name}-", dir=OUT_DIR) as tmp:
        _, (import_s, inputs_s) = set_up(name, seed, Path(tmp))
    print(import_s, inputs_s)


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in a fresh process."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, "-B", __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def record() -> None:
    """Run every op any seed can draw and store its output in expected.json."""
    import_sabrkit()
    OUT_DIR.mkdir(exist_ok=True)
    expected: dict = {"calib": {}, "tables": {"residual": {}, "price": {}}, "fd": {}, "mc": {}}

    def output(argv: list[str], out: Path) -> list[str]:
        code, error = run_cli(argv + ["--format", "csv", "--out", str(out)])
        if code != 0:
            raise BenchError(f"{' '.join(argv)}: exit code {code}: {error}")
        return out.read_text(encoding="utf-8").splitlines()

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        work = Path(tmp)
        from sabrkit.calibration import write_quotes_csv

        init, sigma_prev = FIRST_INIT, FIRST_SIGMA_PREV
        for day in Calib.panel():
            quotes = Calib.quotes_path(work, day.day)
            write_quotes_csv(str(quotes), [day])
            op = Calib.op(day.day, quotes, work / "res.csv", init, sigma_prev, [])
            code, error = run_cli(op.argv)
            if code != 0:
                raise BenchError(f"{op.label}: exit code {code}: {error}")
            row = op.out.read_text(encoding="utf-8").splitlines()[1]
            expected["calib"][str(day.day)] = row
            cells = row.split(",")
            init, sigma_prev = tuple(cells[2:5]), cells[3]
        for preset in RESIDUAL_PRESETS:
            expected["tables"]["residual"][preset] = output(
                ["residual", "--preset", preset], work / "out.csv")
        for variant in range(LATTICE_VARIANTS):
            expected["tables"]["price"][str(variant)] = {
                m: output(lattice_argv(variant, m), work / "out.csv") for m in Tables.lattice_models
            }
        for preset, levels, cutoff in FD_RUNS:
            expected["fd"][preset] = output(fd_argv(preset, levels, cutoff), work / "out.csv")
        os.environ.update(Mc.env)
        for mc_seed in range(MC_SEEDS):
            expected["mc"][str(mc_seed)] = output(mc_argv(mc_seed), work / "out.csv")
    EXPECTED.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record the outputs of every op into expected.json")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up of --workload and print it")
    args = parser.parse_args(argv)
    if not args.record and not args.workload:
        parser.error("--workload or --record is required")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    malloc = _pin_malloc()  # before sabrkit, and so numpy, is imported
    # a terminated run still removes its work directory and waits for children
    signal.signal(signal.SIGTERM, _terminate)
    try:
        if args.record:
            record()
            return 0
        if args.setup_only:
            if args.workload not in WORKLOADS:
                parser.error("--setup-only needs one --workload")
            setup_only(args.workload, args.seed)
            return 0
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), malloc)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Terminated:
        print("error: terminated", file=sys.stderr)
        return 128 + signal.SIGTERM
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

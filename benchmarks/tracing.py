"""In-memory tracing for the benchmark: spans around coarse library calls,
summed counters around hot ones.

`Tracer.install()` rebinds every public function of the traced sabrkit
modules, in every sabrkit module that holds a reference to it, to a
wrapper. No file under src/ changes. Coarse functions (CLI commands, fits,
FD solves, MC simulations) become spans; everything else becomes a counter
that sums calls and inclusive time, so hot kernels pay no per-call record.

A span records its name, start, end, parent span, op id, the
getrusage(RUSAGE_SELF) deltas of minor faults, user time, system time and
involuntary context switches, the counter deltas seen while it was open,
and its self time: its duration minus its child spans and minus the
top-level counted calls made directly under it. Only getrusage is read:
nothing under /proc or /sys and no hardware counters.

The private `mc._block_payoffs`, which MC runs on worker threads, gets a
counter of its own, `mc.path_steps`: its count is the paths times steps
each call was asked to simulate, taken from the call's own arguments.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import statistics
import sys
import threading
import time

TRACED_MODULES = ("cli", "calibration", "core", "expansion", "hagan", "models", "fd", "mc")

# functions recorded as spans; every other public function is a counter
SPAN_FUNCTIONS = {
    "cli": ("main", "cmd_price", "cmd_residual", "cmd_fd", "cmd_mc", "cmd_calibrate"),
    "calibration": (
        "calibrate_panel", "fit_day", "read_quotes_csv", "write_results_csv",
        "write_quotes_csv", "synth_panel",
    ),
    "fd": (
        "solve_sequence", "solve", "compare", "cutoff_sensitivity",
        "residual_norm", "richardson_ratios",
    ),
    "mc": ("simulate_price",),
}

SUBCOMMANDS = ("price", "residual", "fd", "mc", "calibrate")
KERNELS = (
    "core.c_rel", "core.norm_ppf", "core.bs_implied_vol",
    "expansion.sigma_d", "expansion.price_sa2", "hagan.sigma_h",
)
RESIDUAL_MODELS = ("h", "d", "sa2", "bs")
FD_LEVELS = (0, 1, 2, 3)
RUSAGE_FIELDS = ("ru_minflt", "ru_utime", "ru_stime", "ru_nivcsw")
PATH_STEPS = "mc.path_steps"


def _rusage() -> tuple[float, ...]:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return tuple(getattr(ru, f) for f in RUSAGE_FIELDS)


def _span_attrs(name: str, args: tuple, kwargs: dict, result) -> dict:
    # facts about a span taken from its arguments and result
    if name == "calibration.fit_day":
        return {"n_skipped": result.n_skipped, "converged": result.converged}
    if name == "fd.solve":
        grid = result.grid
        return {
            "level": grid.level,
            "nodes": grid.x_nodes.size * grid.sigma_nodes.size,
            "steps": grid.n_time_steps,
        }
    if name == "fd.residual_norm":
        return {"model": getattr(args[0], "model", None)}
    if name == "mc.simulate_price":
        return {"price": result[0], "se": result[1]}
    return {}


class Tracer:
    """Spans and counters for one benchmark run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict[str, list[int]] = {}
        self.op: int | None = None
        self._stack: list[dict] = []
        self._depth = 0  # nesting of counted calls under the innermost span
        self._undo: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter_ns()

    # -- wrappers -----------------------------------------------------------

    def _counted(self, fn, key: str):
        rec = self.counters.setdefault(key, [0, 0])
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = tracer._depth
            tracer._depth = depth + 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                tracer._depth = depth
                rec[0] += 1
                rec[1] += dt
                if depth == 0 and tracer._stack:
                    tracer._stack[-1]["lib_ns"] += dt

        return wrapper

    def _model_factory(self, fn, key: str, callable_key: str):
        # price_fn_for_model / vol_fn_for_model: count the factory and the
        # callables it returns, tagged with their model name
        factory = self._counted(fn, key)

        @functools.wraps(fn)
        def wrapper(model, *args, **kwargs):
            inner = self._counted(factory(model, *args, **kwargs), callable_key)
            inner.model = model
            return inner

        return wrapper

    def _path_counter(self, fn, key: str):
        # sums paths x steps over the calls, from their own arguments; the
        # calls run on MC's worker threads, so the sums take a lock
        rec = self.counters.setdefault(key, [0, 0])
        sig = inspect.signature(fn)
        lock = threading.Lock()
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            a = sig.bind(*args, **kwargs).arguments
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                paths = 2 * a["n"] if a["antithetic"] else a["n"]
                with lock:
                    rec[0] += paths * a["n_steps"]
                    rec[1] += dt

        return wrapper

    def _spanned(self, fn, key: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(key)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, {"error": True})
                raise
            tracer._close(frame, _span_attrs(key, args, kwargs, result))
            return result

        return wrapper

    def _open(self, name: str) -> dict:
        frame = {
            "id": len(self.spans) + len(self._stack),
            "name": name,
            "op": self.op,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start_ns": time.perf_counter_ns() - self._t0,
            "lib_ns": 0,
            "child_ns": 0,
            "outer_depth": self._depth,
            "ru": _rusage(),
            "counts": {k: (r[0], r[1]) for k, r in self.counters.items()},
        }
        self._depth = 0
        self._stack.append(frame)
        return frame

    def _close(self, frame: dict, attrs: dict) -> None:
        end = time.perf_counter_ns() - self._t0
        ru = _rusage()
        self._stack.pop()
        self._depth = frame.pop("outer_depth")
        dur = end - frame["start_ns"]
        if self._stack and self._depth == 0:
            self._stack[-1]["child_ns"] += dur
        before = frame.pop("counts")
        counts = {}
        for k, (calls, ns) in self.counters.items():
            c0, n0 = before.get(k, (0, 0))
            if calls != c0:
                counts[k] = [calls - c0, ns - n0]
        r0 = frame.pop("ru")
        frame.update(
            end_ns=end,
            dur_ns=dur,
            self_ns=dur - frame.pop("child_ns") - frame["lib_ns"],
            rusage={f: b - a for f, a, b in zip(RUSAGE_FIELDS, r0, ru)},
            counts=counts,
            attrs=attrs,
        )
        self.spans.append(frame)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Rebind the traced functions in every loaded sabrkit module."""
        pkg = [m for n, m in sys.modules.items() if n == "sabrkit" or n.startswith("sabrkit.")]
        for short in TRACED_MODULES:
            mod = sys.modules[f"sabrkit.{short}"]
            names = set(getattr(mod, "__all__", ())) | set(SPAN_FUNCTIONS.get(short, ()))
            for name in sorted(names):
                fn = getattr(mod, name, None)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                key = f"{short}.{name}"
                if name in SPAN_FUNCTIONS.get(short, ()):
                    wrapped = self._spanned(fn, key)
                elif short == "models" and name.endswith("_fn_for_model"):
                    wrapped = self._model_factory(fn, key, f"models.{name[:-len('_for_model')]}")
                else:
                    wrapped = self._counted(fn, key)
                self._rebind(pkg, fn, wrapped)
        fn = sys.modules["sabrkit.mc"]._block_payoffs
        self._rebind(pkg, fn, self._path_counter(fn, PATH_STEPS))

    def _rebind(self, pkg: list, fn, wrapped) -> None:
        for m in pkg:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, attr, wrapped)
                    self._undo.append((m, attr, fn))

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._undo):
            setattr(m, attr, fn)
        self._undo.clear()

    def snapshot(self) -> dict[str, tuple[int, int]]:
        return {k: (r[0], r[1]) for k, r in self.counters.items()}

    def write(self, path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {**extra, "spans": self.spans,
                 "counters": {k: {"calls": c, "ns": n} for k, (c, n) in self.counters.items()}},
                fh,
            )


def counter_delta(after: dict, before: dict) -> dict[str, tuple[int, int]]:
    """Per-counter (calls, ns) difference between two snapshots."""
    out = {}
    for k, (calls, ns) in after.items():
        c0, n0 = before.get(k, (0, 0))
        out[k] = (calls - c0, ns - n0)
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def pass_metrics(spans: list[dict], counts: dict[str, tuple[int, int]], ops: list[dict]) -> dict:
    """Per-layer metrics of one pass from its spans, counter deltas and ops.

    Layers a workload does not use read 0.
    """
    by: dict[str, list[dict]] = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)
    parent_name = {s["id"]: s["name"] for s in spans}
    dur = lambda ss: sum(s["dur_ns"] for s in ss) / 1e9  # noqa: E731
    m: dict[str, float] = {}

    cmd_spans = []
    for sub in SUBCOMMANDS:
        ss = by.get(f"cli.cmd_{sub}", [])
        cmd_spans += ss
        m[f"cli.cmd_s.{sub}"] = dur(ss)
    cli_spans = by.get("cli.main", []) + cmd_spans
    m["cli.self_s"] = sum(s["self_ns"] for s in cli_spans) / 1e9

    fits = by.get("calibration.fit_day", [])
    evals = sum(s["counts"].get("calibration.objective_value", (0, 0))[0] for s in fits)
    obj_calls, obj_ns = counts.get("calibration.objective_value", (0, 0))
    reads = by.get("calibration.read_quotes_csv", [])
    m["calibration.fit_s"] = statistics.median(s["dur_ns"] for s in fits) / 1e9 if fits else 0.0
    m["calibration.obj_evals_per_fit"] = _ratio(evals, len(fits))
    m["calibration.obj_eval_ms"] = _ratio(obj_ns / 1e6, obj_calls)
    m["calibration.optimizer_frac"] = _ratio(
        sum(s["self_ns"] for s in fits), sum(s["dur_ns"] for s in fits)
    )
    m["calibration.read_quotes_ms"] = (
        statistics.median(s["dur_ns"] for s in reads) / 1e6 if reads else 0.0
    )
    m["calibration.skipped_quotes"] = sum(s["attrs"].get("n_skipped", 0) for s in fits)
    m["calibration.nonconverged"] = sum(not s["attrs"].get("converged", True) for s in fits)

    for key in KERNELS:
        calls, ns = counts.get(key, (0, 0))
        m[f"{key}.calls"] = calls
        m[f"{key}.us"] = ns / 1e3

    residuals = by.get("fd.residual_norm", [])
    price_calls = sum(s["counts"].get("models.price_fn", (0, 0))[0] for s in residuals)
    m["models.calls_per_residual"] = _ratio(price_calls, len(residuals))
    for model in RESIDUAL_MODELS:
        m[f"fd.residual_s.{model}"] = dur(s for s in residuals if s["attrs"].get("model") == model)

    # failed calls carry no attrs; refinement solves only, not cut-off ones
    solves = [
        s for s in by.get("fd.solve", [])
        if "level" in s["attrs"] and parent_name.get(s["parent"]) == "fd.solve_sequence"
    ]
    for k in FD_LEVELS:
        ss = [s for s in solves if s["attrs"].get("level") == k]
        steps = sum(s["attrs"]["steps"] for s in ss)
        node_steps = sum(s["attrs"]["steps"] * s["attrs"]["nodes"] for s in ss)
        user = sum(s["rusage"]["ru_utime"] for s in ss)
        system = sum(s["rusage"]["ru_stime"] for s in ss)
        m[f"fd.solve_s.L{k}"] = dur(ss)
        m[f"fd.steps.L{k}"] = steps
        m[f"fd.ns_per_node_step.L{k}"] = _ratio(sum(s["dur_ns"] for s in ss), node_steps)
        m[f"fd.minflt_per_step.L{k}"] = _ratio(sum(s["rusage"]["ru_minflt"] for s in ss), steps)
        m[f"fd.sys_frac.L{k}"] = _ratio(system, user + system)
    m["fd.compare_s"] = dur(by.get("fd.compare", []))
    m["fd.cutoff_s"] = dur(by.get("fd.cutoff_sensitivity", []))

    sims = [s for s in by.get("mc.simulate_price", []) if "se" in s["attrs"]]
    path_steps = sum(s["counts"].get(PATH_STEPS, (0, 0))[0] for s in sims)
    cpu = sum(s["rusage"]["ru_utime"] + s["rusage"]["ru_stime"] for s in sims)
    m["mc.simulate_s"] = statistics.median(s["dur_ns"] for s in sims) / 1e9 if sims else 0.0
    m["mc.path_steps"] = _ratio(path_steps, len(sims))
    m["mc.ns_per_path_step"] = _ratio(sum(s["dur_ns"] for s in sims), path_steps)
    m["mc.cpu_per_wall"] = _ratio(cpu, dur(sims))
    m["mc.se"] = statistics.fmean(s["attrs"]["se"] for s in sims) if sims else 0.0

    # per-preset FD facts come from the checked CLI output of each op
    for op in ops:
        for key, value in op.get("facts", {}).items():
            if key.startswith("fd."):
                m[key] = value
    top_steps = {}
    for s in solves:
        label = next((op["label"] for op in ops if op["id"] == s["op"]), None)
        if label is not None and s["attrs"]["level"] >= top_steps.get(label, (-1, 0))[0]:
            top_steps[label] = (s["attrs"]["level"], s["attrs"]["steps"])
    for label, (_, steps) in top_steps.items():
        m[f"fd.steps.{label}"] = steps
    return m

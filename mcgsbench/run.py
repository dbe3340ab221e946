"""Benchmark of the mcgs engine: time to proof, search throughput, match latency.

Usage, from the root of a checkout:

    python3 mcgsbench/run.py --workload nim-solve --seed 1 --seconds 25 --trace 0

`--trace 0` prints the end-to-end metrics, measured with the package
untouched. `--trace 1` alternates plain and traced repetitions and prints the
per-layer metrics (call counts and self-time shares per layer) plus the
tracing overhead. The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`; the line before it
holds the run's metadata, sample counts and behaviour fingerprint.

The package is imported from the checkout's own `src/`; when that is missing
the benchmark exits with status 2 and prints no result. A run whose checks
fail prints its result with `"correct": false` and exits with status 1.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from reference import ScaledTimer, SpeedProbe
from tracer import Tracer, wrapper_cost_ns
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 9  # the median drops the first set-up's cold imports
MIN_CYCLES = 2  # timed repetitions in plain mode, so the fingerprint repeats when timed
MAX_MESSAGES = 20


def _no_pause() -> None:
    pass


class SourceMissing(RuntimeError):
    """The checkout holds no importable mcgs package under src/."""


def fresh_import():
    """Import mcgs from this checkout's src/, executing every module anew."""
    if not (SRC / "mcgs" / "__init__.py").is_file():
        raise SourceMissing(f"no mcgs package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "mcgs" or n.startswith("mcgs.")]:
        del sys.modules[name]
    mcgs = importlib.import_module("mcgs")
    if Path(mcgs.__file__).resolve().parent != SRC / "mcgs":
        raise SourceMissing(f"mcgs imported from {mcgs.__file__}, not from {SRC}")
    return mcgs


def percentile(values: list[float], pct: int) -> float:
    """Interpolated percentile, as statistics.quantiles(method="inclusive") gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "cpu": cpu, "nproc": nproc}


class Bench:
    """One run of one workload: set-up, repetitions, checks, metrics."""

    def __init__(self, workload, seed: int, seconds: float) -> None:
        self.workload = workload
        self.probe: SpeedProbe | None = None  # set while end-to-end times are taken
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed: set[int] = set()  # repetition numbers
        self.messages: list[str] = []
        self.fingerprint: dict | None = None
        self.kept: list = []  # (repetition number, Rep) awaiting the oracle
        self.samples: dict = {}

    def _fail(self, number: int, message: str) -> None:
        self.failed.add(number)
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(f"repetition {number}: {message}")

    def setup(self) -> float:
        """Import and build the inputs SETUP_REPS times; return the median seconds."""
        samples = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            mcgs = fresh_import()
            inputs = self.workload.setup(mcgs, self.seed)
            samples.append(time.perf_counter() - t0)
        self.mcgs = mcgs
        self.inputs = inputs
        return statistics.median(samples)

    def rep(self, tracer: Tracer | None = None, warmup: bool = False):
        """Run one repetition; return (wall s, scaled wall s, Rep, trace summary), or None.

        Only the workload's `run` is timed. With a speed probe the Rep's
        per-search latencies are scaled in place; without one the scaled
        time is the raw one. An exception, a failed check, or
        a fingerprint other than the first timed repetition's fails the
        repetition. The warm-up may run a smaller input, so its fingerprint
        is not compared.
        """
        workload, mcgs = self.workload, self.mcgs
        inputs = workload.warmup_inputs(self.inputs) if warmup else self.inputs
        self.attempted += 1
        number = self.attempted
        trace = None
        gc.collect()
        try:
            if tracer is not None:
                tracer.clear()
                tracer.install(mcgs)
                if hasattr(inputs, "evaluator"):  # built in set-up, not by play_match
                    tracer.instrument_env(inputs.env)
                    tracer.instrument_evaluator(inputs.evaluator)
            try:
                if self.probe is None:
                    t0 = time.perf_counter()
                    raw = workload.run(mcgs, inputs, _no_pause)
                    wall = scaled = time.perf_counter() - t0
                else:
                    timer = ScaledTimer(self.probe)
                    raw = workload.run(mcgs, inputs, timer.pause)
                    wall, scaled = timer.stop()
            finally:
                if tracer is not None:
                    trace = tracer.summary()
                    tracer.restore()
            result = workload.summarize(mcgs, inputs, raw)
            if self.probe is not None:
                scales = timer.item_scales(len(result.search_ms))
                result.search_ms = [ms * k for ms, k in zip(result.search_ms, scales)]
        except Exception as exc:  # a crashing engine is a failed operation
            self._fail(number, f"{type(exc).__name__}: {exc}")
            return None
        if not warmup:
            if self.fingerprint is None:
                self.fingerprint = result.fingerprint
            elif result.fingerprint != self.fingerprint:
                result.errors.append(
                    f"fingerprint {result.fingerprint} != {self.fingerprint}")
        for error in result.errors:
            self._fail(number, error)
        self.kept.append((number, result))
        return wall, scaled, result, trace

    def repeat(self, plan, seconds: float, min_cycles: int) -> None:
        """Run the steps of `plan` in turn, cycle after cycle.

        After `min_cycles` cycles, a cycle starts only while it is expected
        to end inside the window.
        """
        deadline = time.perf_counter() + seconds
        cycles: list[float] = []
        while True:
            t0 = time.perf_counter()
            for step in plan:
                step()
            cycles.append(time.perf_counter() - t0)
            if len(cycles) >= min_cycles and (
                    time.perf_counter() + statistics.median(cycles) > deadline):
                return

    def verify(self) -> None:
        """Check every repetition against the workload's oracle, after all timing."""
        oracle = self.workload.oracle(self.mcgs, self.inputs)
        for number, result in self.kept:
            for error in self.workload.verify(result, oracle):
                self._fail(number, error)

    def plain(self) -> dict:
        """End-to-end metrics, measured with the package untouched.

        Times are scaled by the reference search timed around them (see
        reference.py); the report line keeps the raw ones.
        """
        self.probe = SpeedProbe()
        timer = ScaledTimer(self.probe)
        setup_s = self.setup()
        setup_raw, setup_scaled = timer.stop()
        self.rep(warmup=True)  # untimed: the first repetition in a process runs slower
        walls, scaled, reps = [], [], []

        def step():
            out = self.rep()
            if out is not None:
                walls.append(out[0])
                scaled.append(out[1])
                reps.append(out[2])

        self.repeat([step], self.seconds, MIN_CYCLES)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        search_ms = [ms for r in reps for ms in r.search_ms]
        self.samples = {
            "setups": SETUP_REPS,
            "repetitions": len(walls),
            "searches": len(search_ms),
            "raw_setup_s": setup_s,
            "raw_wall_s": walls,
            "probe_s": self.probe.samples,
        }
        if not walls:
            return {}
        rates = [r.simulations / (sum(r.search_ms) / 1000.0) for r in reps]
        return {
            "wall_s": (statistics.median(scaled), "s"),
            "sims_per_s": (statistics.median(rates), "1/s"),
            "search_ms_p50": (percentile(search_ms, 50), "ms"),
            "search_ms_p90": (percentile(search_ms, 90), "ms"),
            "setup_s": (setup_s * setup_scaled / setup_raw, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    def traced(self) -> dict:
        """Per-layer metrics from traced repetitions, alternated with plain ones."""
        self.setup()
        self.rep(warmup=True)
        wrapper_ns = wrapper_cost_ns()
        tracer = Tracer()
        plain_walls, traced = [], []

        def plain_step():
            out = self.rep()
            if out is not None:
                plain_walls.append(out[0])

        def traced_step():
            out = self.rep(tracer)
            if out is not None:
                traced.append((out[0], out[2], out[3]))

        # One cycle suffices: the plain repetition sets the fingerprint the
        # traced one must reproduce.
        self.repeat([plain_step, traced_step], self.seconds, 1)
        self.samples = {
            "plain_repetitions": len(plain_walls),
            "traced_repetitions": len(traced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if not plain_walls or not traced:
            return {}
        return layer_metrics(traced, statistics.median(plain_walls), wrapper_ns)


def layer_metrics(traced: list, plain_wall: float, wrapper_ns: float) -> dict:
    """Per-layer metrics from traced repetitions: (wall, Rep, trace summary) each.

    Counts are per repetition; every traced repetition has the same ones, as
    its fingerprint shows. Self-time shares pool all traced repetitions.
    """
    traced_wall = sum(wall for wall, _, _ in traced)
    self_s: dict[str, float] = {}
    for _, _, trace in traced:
        for name, seconds in trace["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + seconds
    _, rep, trace = traced[-1]
    calls = trace["calls"]

    def share(prefix: str) -> tuple[float, str]:
        total = sum(s for n, s in self_s.items()
                    if n == prefix or n.startswith(prefix + "."))
        return total / traced_wall, "frac"

    def count(prefix: str) -> tuple[int, str]:
        return sum(c for n, c in calls.items()
                   if n == prefix or n.startswith(prefix + ".")), "count"

    def ratio(part: float, whole: float) -> tuple[float, str]:
        return (part / whole if whole else 0.0), "frac"

    lookups = calls.get("graph.lookup", 0)
    fills = trace["batch_fills"]
    plans = calls.get("explore.make_plan", 0)
    median_traced = statistics.median(wall for wall, _, _ in traced)
    return {
        "search.select.calls": count("search.select"),
        "search.select.self_frac": share("search.select"),
        "search.loop.self_frac": share("search.loop"),
        "search.backprop.calls": count("search.backprop"),
        "search.backprop.pairs": (trace["backprop_pairs"], "count"),
        "search.backprop.self_frac": share("search.backprop"),
        "search.expand.calls": count("search.expand"),
        "search.expand.self_frac": share("search.expand"),
        "search.resolve_child.calls": count("search.resolve_child"),
        "search.resolve_child.self_frac": share("search.resolve_child"),
        "search.eval_frac": ratio(rep.evaluations, rep.simulations),
        "search.early_stop_frac": ratio(rep.early_stops, rep.simulations),
        "search.terminal_frac": ratio(rep.terminals, rep.simulations),
        "envs.self_frac": share("envs"),
        "envs.apply.calls": count("envs.apply"),
        "envs.apply.self_frac": share("envs.apply"),
        "envs.terminal_value.calls": count("envs.terminal_value"),
        "envs.state_key.calls": count("envs.state_key"),
        "envs.legal_actions.calls": count("envs.legal_actions"),
        "evaluators.evaluate.calls": count("evaluators.evaluate"),
        "evaluators.evaluate.self_frac": share("evaluators.evaluate"),
        "evaluators.flushes": (len(fills), "count"),
        "evaluators.batch_fill": ratio(sum(fills), len(fills)),
        "graph.lookup.calls": (lookups, "count"),
        "graph.lookup.hit_frac": ratio(lookups - trace["nodes"], lookups),
        "graph.nodes": (trace["nodes"], "count"),
        "graph.self_frac": share("graph"),
        "solver.calls": count("solver"),
        "solver.self_frac": share("solver"),
        "solver.nodes_solved": (trace["nodes_solved"], "count"),
        "explore.plans": (plans, "count"),
        "explore.self_frac": share("explore"),
        "explore.branch_useful_frac": ratio(trace["branches_useful"], plans),
        "move_selection.calls": count("move_selection"),
        "move_selection.self_frac": share("move_selection"),
        "arena.advance.calls": count("arena.advance"),
        "arena.self_frac": share("arena"),
        "trace.overhead_frac": (median_traced / plain_wall - 1.0, "frac"),
        "trace.wrapper_ns": (wrapper_ns, "ns"),
        "trace.wrapper_frac": (trace["spans"] * wrapper_ns * 1e-9 / median_traced, "frac"),
    }


def run(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; return (result, report) as printed on the last two lines."""
    bench = Bench(workload, seed, seconds)
    metrics = bench.traced() if trace else bench.plain()
    bench.verify()
    failed = len(bench.failed)
    attempted = max(bench.attempted, 1)
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        **machine(),
        "samples": bench.samples,
        "failed_frac": failed / attempted,
        "failures": bench.messages,
        "fingerprint": bench.fingerprint,
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, report = run(WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace))
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

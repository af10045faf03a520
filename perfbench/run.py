#!/usr/bin/env python3
"""qhist benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs one workload (``cli-builtins``, ``ladder-interfering``,
``framework-reads`` or ``chsh-scan``, or ``all`` for each in its own
process) from the root of a source checkout; qhist is imported from
``src/``. Inputs come from the seed alone. Ops run in a closed loop with one
client on one thread, and every op's output is checked against an
independent computation outside the timed region.

``--trace 0`` reports the end-to-end metrics. Shared hosts slow every op
of a run by up to 2x for tens of seconds at a time, and contention only
ever adds time, so the latency figures are contention-filtered in the
manner of ``timeit``: each op counts with the 2nd percentile of the
latencies of its class (same work, fresh inputs) in the run, the speed the
code reaches when the host leaves it alone. ``items_per_s`` divides the
work by those latencies; the raw p50 and p90 are printed alongside.

``--trace 1`` alternates untraced ops with ops whose qhist functions are
wrapped by :mod:`tracing`, and reports the per-layer metrics from a fixed,
seed-determined list of traced ops; the spans go to ``perfbench/traces/``.

The last line of output is one JSON object: ``{"correct", "attempted",
"failed", "metrics"}``. Exit code 1 means an output failed verification, 2
that the checkout has no ``src/qhist``.
"""

import os

# One BLAS/OpenMP thread for this process and the processes it starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-builtins", "ladder-interfering", "framework-reads", "chsh-scan")
SETUP_ROUNDS = 11
FILTER_PERCENTILE = 2
FLOOR_SAMPLES = 5   # start-up floor samples on workloads other than cli-builtins
IMPORT_TIMER = ("import time, numpy; t = time.perf_counter(); import qhist; "
                "print(time.perf_counter() - t)")


@dataclass
class LoopResult:
    latencies: list = field(default_factory=list)   # seconds per op
    slots: list = field(default_factory=list)       # class of each op
    items: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def add(self, seconds: float, slot, items: int, error: str | None) -> None:
        self.latencies.append(seconds)
        self.slots.append(slot)
        self.items += items
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)

    def filtered(self) -> list:
        """Each op's latency replaced by the FILTER_PERCENTILE-th percentile
        of the latencies of its class in this run."""
        by_slot = defaultdict(list)
        for slot, seconds in zip(self.slots, self.latencies):
            by_slot[slot].append(seconds)
        low = {slot: percentile(v, FILTER_PERCENTILE) for slot, v in by_slot.items()}
        return [low[slot] for slot in self.slots]


def percentile(values: list, q: int) -> float:
    """q-th percentile, interpolating between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def attempt(wl, case, result: LoopResult, tracer=None):
    """Run and time one op, then check it; returns the op's output."""
    start = perf_counter()
    output, error = None, None
    try:
        if tracer is None:
            output = wl.run(case)
        else:
            with tracer.span(wl.name):
                output = wl.run(case)
    except Exception as exc:  # a raising op is a failed op, not a crash
        error = f"raised {type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    if error is None:
        try:
            wl.check(case, output)
        except Exception as exc:  # the verifier's own crash also fails the op
            error = f"{type(exc).__name__}: {exc}"
    result.add(elapsed, wl.slot(case), wl.items(case), error)
    return output


def closed_loop(wl, cases, seconds: float | None = None, count: int | None = None,
                on_output=None) -> LoopResult:
    """Ops back to back until the deadline passes or ``count`` ops ran."""
    result = LoopResult()
    deadline = perf_counter() + seconds if seconds is not None else None
    for done, case in enumerate(cases):
        if count is not None and done >= count:
            break
        if deadline is not None and perf_counter() >= deadline:
            break
        output = attempt(wl, case, result)
        if on_output is not None and output is not None:
            on_output(output)
    return result


FLOOR_COMMANDS = {
    "python": [sys.executable, "-c", "pass"],
    "numpy": [sys.executable, "-c", "import numpy"],
    "qhist_cli": [sys.executable, "-c", "import qhist.cli"],
}


def sample_floors(env: dict, times: dict) -> None:
    """One fresh-interpreter sample of each start-up floor, in seconds."""
    from workloads import run_child

    for key, cmd in FLOOR_COMMANDS.items():
        _, code, elapsed, _ = run_child(cmd, env)
        if code != 0:
            raise RuntimeError(f"{' '.join(cmd)} exited with {code}")
        times.setdefault(key, []).append(elapsed)


def measure_setup(wl, env: dict, rounds: int) -> list:
    """Per round, seconds of (import qhist in a fresh interpreter that has
    already imported numpy) + (the workload's qhist set-up calls)."""
    from workloads import run_child

    times = []
    for _ in range(rounds):
        out, code, _, _ = run_child([sys.executable, "-c", IMPORT_TIMER], env)
        if code != 0:
            raise RuntimeError("import qhist failed in a fresh interpreter")
        start = perf_counter()
        wl.setup()
        times.append(float(out) + perf_counter() - start)
    return times


def git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def make_workload(name: str, seed: int):
    import workloads

    if name == "cli-builtins":
        return workloads.CliBuiltins(ROOT)
    if name == "ladder-interfering":
        return workloads.LadderInterfering()
    if name == "framework-reads":
        return workloads.FrameworkReads(seed)
    return workloads.ChshScan()


def end_to_end(loop: LoopResult, setup_s: float, peak_rss_kib: int) -> dict:
    filtered = loop.filtered()
    ms = [t * 1e3 for t in filtered]
    return {
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (percentile(ms, 90), "ms"),
        "items_per_s": (loop.items / sum(filtered), "1/s"),
        "peak_rss_mb": (peak_rss_kib / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(tracer, n_ops: int, floor: dict, cli_main_ms: float,
              overhead: float) -> dict:
    totals = tracer.layer_totals()

    def calls(name):
        return (totals.get(name, (0, 0))[0], "count")

    def self_ms(name):
        return (totals.get(name, (0, 0))[1] / 1e6 / n_ops, "ms")

    chsh_calls, chsh_self_ns = totals.get("bell.chsh", (0, 0))
    checks = totals.get("histories.check_consistency", (0, 0))[0]
    certified = tracer.child_calls("linalg.as_projector", "scenario.build_scenario")
    distinct = tracer.distinct_events()
    return {
        "startup.python_ms": (floor["python"] * 1e3, "ms"),
        "startup.numpy_import_ms": ((floor["numpy"] - floor["python"]) * 1e3, "ms"),
        "cli.qhist_import_ms": ((floor["qhist_cli"] - floor["numpy"]) * 1e3, "ms"),
        "cli.main_ms": (cli_main_ms, "ms"),
        "scenario.parse_scenario.self_ms": self_ms("scenario.parse_scenario"),
        "scenario.build_scenario.self_ms": self_ms("scenario.build_scenario"),
        "scenario.build_scenario.calls": calls("scenario.build_scenario"),
        "linalg.as_projector.calls": calls("linalg.as_projector"),
        "scenario.build.distinct_events": (distinct, "count"),
        "scenario.build.cert_useful_ratio": (distinct / certified if certified else 0.0,
                                             "ratio"),
        "dynamics.propagator.calls": calls("dynamics.propagator"),
        "dynamics.propagator.self_ms": self_ms("dynamics.propagator"),
        "linalg.unitary_exp.calls": calls("linalg.unitary_exp"),
        "histories.check_consistency.calls": calls("histories.check_consistency"),
        "histories.check_consistency.self_ms": self_ms("histories.check_consistency"),
        "histories.pairs": (tracer.pairs, "count"),
        "histories.violating_pairs": (tracer.violating_pairs, "count"),
        "histories.checks_per_family": (checks / len(tracer.families) if tracer.families
                                        else 0.0, "ratio"),
        "histories.history_probability.calls": calls("histories.history_probability"),
        "histories.history_probability.self_ms": self_ms("histories.history_probability"),
        "frameworks.query.calls": calls("frameworks.query"),
        "frameworks.query.self_ms": self_ms("frameworks.query"),
        "frameworks.refine.calls": calls("frameworks.refine"),
        "frameworks.refine.self_ms": self_ms("frameworks.refine"),
        "report.run_scenario.self_ms": self_ms("report.run_scenario"),
        "report.render_report_machine.self_ms": self_ms("report.render_report_machine"),
        "report.bytes": (tracer.report_bytes, "bytes"),
        "bell.chsh.calls": (chsh_calls, "count"),
        "bell.chsh.self_us": (chsh_self_ns / 1e3 / chsh_calls if chsh_calls else 0.0, "us"),
        "bell.correlation.calls": calls("bell.correlation"),
        "spin.angle_between.calls": calls("spin.angle_between"),
        "bell.check_factorization.self_ms": self_ms("bell.check_factorization"),
        "trace.overhead_frac": (overhead, "ratio"),
    }


def traced_run(wl, args, env: dict, loops: list) -> dict:
    """Each case runs untraced and traced back to back, in alternating
    order, so both sides see the same machine, for ``--seconds`` and at
    least TRACE_OPS pairs. Only the first TRACE_OPS traced ops (after the
    workload's set-up, also traced) are recorded; that fixed,
    seed-determined list gives exact counts. On cli-builtins every
    pair also samples the start-up floors and runs one cold process, and the
    traced side is ``cli.main`` in this process."""
    import workloads
    from tracing import Tracer

    recorder = Tracer()
    with recorder.patched(), recorder.span("setup"):
        wl.setup()
    is_cli = wl.name == "cli-builtins"
    target = workloads.CliInProcess(wl) if is_cli else wl
    cases = wl.cases(random.Random(f"{args.seed}:{wl.name}:trace"))
    cold, plain, traced = LoopResult(), LoopResult(), LoopResult()
    floor_times: dict = {}
    deadline = perf_counter() + args.seconds
    i = 0
    while i < wl.TRACE_OPS or perf_counter() < deadline:
        if is_cli or i < FLOOR_SAMPLES:
            sample_floors(env, floor_times)
        case = next(cases)
        if is_cli:
            attempt(wl, case, cold)
        tracer = recorder if i < wl.TRACE_OPS else Tracer()
        # both sides run the same case; which goes first alternates
        for side in ((plain, traced) if i % 2 == 0 else (traced, plain)):
            if side is plain:
                attempt(target, case, plain)
            else:
                with tracer.patched():
                    attempt(target, case, traced, tracer)
        i += 1
    loops += [cold, plain, traced]
    traces = HERE / "traces"
    traces.mkdir(exist_ok=True)
    recorder.write(traces / f"{wl.name}-seed{args.seed}.jsonl")
    floor = {k: statistics.median(v) for k, v in floor_times.items()}
    plain_ms = statistics.median(plain.latencies) * 1e3
    overhead = statistics.median(traced.latencies) * 1e3 / plain_ms - 1.0
    return per_layer(recorder, wl.TRACE_OPS, floor, plain_ms if is_cli else 0.0, overhead)


def run_one(args) -> int:
    load_start = os.getloadavg()
    import numpy

    import selftest
    import workloads

    env = workloads.child_env(ROOT)
    wl = make_workload(args.workload, args.seed)
    problems = selftest.uncaught()
    # set-up rounds go before the loop and, on --trace 0, after it as well,
    # so their median does not rest on a single moment of a shared host
    setup_times = measure_setup(wl, env, SETUP_ROUNDS - SETUP_ROUNDS // 2)
    # warm-up: fill caches and finish lazy imports before timing
    loops = [closed_loop(wl, wl.cases(random.Random(f"{args.seed}:{wl.name}:warmup")),
                         count=2)]
    if args.trace:
        metrics = traced_run(wl, args, env, loops)
    else:
        rss = [0]

        def child_rss(output):
            rss[0] = max(rss[0], output.rss_kib)

        is_cli = args.workload == "cli-builtins"
        loop = closed_loop(wl, wl.cases(random.Random(f"{args.seed}:{wl.name}")),
                           seconds=args.seconds, on_output=child_rss if is_cli else None)
        loops.append(loop)
        peak = rss[0] if is_cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup_times += measure_setup(wl, env, SETUP_ROUNDS // 2)
        metrics = end_to_end(loop, statistics.median(setup_times), peak)

    attempted = sum(len(loop.latencies) for loop in loops)
    failed = sum(loop.failed for loop in loops)
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
    }
    print("# stamp " + json.dumps(stamp))
    for problem in problems:
        print(f"# verifier self-test: {problem}")
    for loop in loops:
        for error in loop.errors:
            print(f"# failed op: {error}")
    n = wl.TRACE_OPS if args.trace else len(loops[-1].latencies)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit} (n={n})")
    if not args.trace:
        raw = [t * 1e3 for t in loops[-1].latencies]
        print(f"raw_op_ms_p50 = {statistics.median(raw):.6g} ms, raw_op_ms_p90 = "
              f"{percentile(raw, 90):.6g} ms (n={n}, unfiltered)")
        if n < 100:
            print("# op_ms_p90 rests on fewer than 100 ops and is not a valid p90")
    print(f"# items_per_s counts {wl.item}")
    print(f"fail_frac = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; prints their output and a combined
    result whose metric names carry the workload as a prefix."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        print(f"## {name}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"## {name} printed no result (exit {proc.returncode})")
            return proc.returncode or 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qhist" / "__init__.py").is_file():
        print(f"error: no qhist sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

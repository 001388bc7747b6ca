"""Closed-loop benchmark of the spectral-bounds CLI: one client, one process.

    python3 perfbench/run.py --workload fem-fine --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ./src. Ops are
CLI invocations run in-process through ``spectral_bounds.cli.dispatch``,
back to back. A run is a fixed list of whole rounds, sized from --seconds
and the measured seconds per round, so it is the same op list for a seed
whatever the speed of the machine or the program. After the timed region
every op's output is certified. The last stdout line is the
result object; the line before it is the full record (environment, op
counts, extra figures), which is also written under .bench_out/.

--trace 0 reports the end-to-end metrics. --trace 1 sizes its op list the
same way from a share of --seconds, runs it untraced, traced and untraced
again, and reports the per-layer metrics of the traced pass; on cli-mix it
adds a traced single-worker pass as the base of cli.suite_speedup.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("fem-fine", "cli-mix", "pq-descent")
# Median seconds per round (the record's round_s) over 25 s runs on a 2-core
# x86_64 VM in a slow phase: cli-mix 1.95-2.05 (seeds 1-3), pq-descent
# 2.70-3.29 (seeds 11-15), fem-fine 3.48-3.67 (seeds 1-3) with a rhombus
# chiti op in each round, less the 0.30-0.36 s that op took alone; see
# perfbench/README.md, "Measured costs". They turn --seconds into a fixed
# round count, so the clock never decides how many ops run.
ROUND_SECONDS = {"fem-fine": 3.2, "cli-mix": 2.0, "pq-descent": 2.8}
SETUP_REPEATS = 7
TAIL_BEYOND = 10
WARMUP = ["bound", "--domain", "square"]
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); "
    "import spectral_bounds.cli as cli; "
    f"sys.exit(cli.dispatch({WARMUP!r}))"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_info() -> dict:
    """BLAS libraries loaded by numpy and scipy with their thread counts."""
    import ctypes
    import numpy
    import scipy

    info = {"library": numpy.show_config(mode="dicts")["Build Dependencies"]
            ["blas"].get("openblas configuration", "unknown"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "threads": {}}
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"][lib.name] = fn()
                    break
    return info


def environment(args, ops_done) -> dict:
    import numpy
    import scipy

    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas_info(), "machine": platform.machine(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "ops": ops_done}


def setup_once() -> float:
    """Wall time of a fresh interpreter importing the CLI and running one
    warm-up `bound --domain square`, as every CLI invocation does."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or json.loads(proc.stdout)["domain"] != "rectangle_1x1":
        raise RuntimeError(f"set-up run failed: {proc.stderr.strip()}")
    return elapsed


def setup_slots(rounds: int) -> Counter:
    """How many set-up samples to take before each round (key = rounds:
    after the last): SETUP_REPEATS, spread evenly from start to end."""
    return Counter(round(i * rounds / (SETUP_REPEATS - 1))
                   for i in range(SETUP_REPEATS))


class Runner:
    """Runs ops through dispatch, recording latency, exit code and output."""

    def __init__(self, cli):
        self.cli = cli
        self.records = []  # (op, seconds, code, stdout)

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        code = self.cli.dispatch(op.argv, out=out, err=err)
        self.records.append((op, time.perf_counter() - start, code, out.getvalue()))

    def run_list(self, ops) -> float:
        start = time.perf_counter()
        for op in ops:
            self.run(op)
        return time.perf_counter() - start


def certify_records(records) -> tuple[int, list[str]]:
    failures = []
    for op, _elapsed, code, text in records:
        try:
            reason = f"exit {code}" if code != 0 else op.check(text)
        except (ValueError, KeyError, IndexError, TypeError) as ex:
            reason = f"unreadable output: {ex!r}"
        if reason:
            failures.append(f"{' '.join(op.argv)}: {reason}")
    return len(failures), failures


def fixed_rounds(workload: str, seed: int, seconds: float) -> list:
    """The first round(seconds / ROUND_SECONDS) rounds of the seed's stream."""
    import workloads

    if workload == "fem-fine":
        rounds = workloads.fem_fine(seed)
    elif workload == "cli-mix":
        rounds = workloads.cli_mix(seed, OUT / "suites")
    else:
        rounds = workloads.pq_descent(seed)
    count = max(1, round(seconds / ROUND_SECONDS[workload]))
    return [next(rounds) for _ in range(count)]


def reset(cli, psi_cache) -> None:
    """Return the process to the state right after set-up: cold psi cache
    refilled by the warm-up call only."""
    psi_cache.cache_clear()
    cli.dispatch(WARMUP, out=io.StringIO())


def end_to_end(args, cli) -> tuple[dict, dict, list]:
    rounds = fixed_rounds(args.workload, args.seed, args.seconds)
    # set-up samples sit between rounds, so that their median sees the same
    # stretch of machine time as the ops, not one burst before them
    slots = setup_slots(len(rounds))
    setups = []
    runner = Runner(cli)
    walls, rates = [], []
    for index, ops in enumerate(rounds):
        setups += [setup_once() for _ in range(slots[index])]
        walls.append(runner.run_list(ops))
        rates.append(len(ops) / walls[-1])
    setups += [setup_once() for _ in range(slots[len(rounds)])]
    setup_s = statistics.median(setups)
    latencies = sorted(r[1] for r in runner.records)
    n = len(latencies)
    tail_index = max(0, n - 1 - TAIL_BEYOND)
    metrics = {
        "ops_per_s": (statistics.median(rates), "ops/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (latencies[tail_index], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"op_tail_percentile": 100.0 * (tail_index + 1) / n,
             "rounds": len(rates),
             "round_s": statistics.median(walls),
             "lines": sum(r[0].lines for r in runner.records)}
    return metrics, extra, runner.records


def traced(args, cli, psi_cache) -> tuple[dict, dict, list]:
    import tracer as tracing

    suites = args.workload == "cli-mix"
    passes = 4 if suites else 3
    ops = [op for ops_of_round in fixed_rounds(args.workload, args.seed,
                                               args.seconds / passes)
           for op in ops_of_round]
    runners = []

    def one_pass(traced_pass: bool):
        """Run the op list from the post-set-up state; spans if traced."""
        reset(cli, psi_cache)
        runner = Runner(cli)
        tracer = tracing.Tracer()
        cache_before = psi_cache.cache_info()
        if traced_pass:
            tracer.install()
        try:
            wall = runner.run_list(ops)
        finally:
            tracer.uninstall()
        runners.append(runner)
        cache = psi_cache.cache_info()
        return wall, tracer.spans, (cache.hits - cache_before.hits,
                                    cache.misses - cache_before.misses)

    # untraced passes on both sides of the traced one, so that drift in
    # machine speed does not land in the overhead
    before, _, _ = one_pass(False)
    traced_wall, spans, (hits, misses) = one_pass(True)
    after, _, _ = one_pass(False)
    plain_wall = (before + after) / 2.0
    op_seconds = sum(r[1] for r in runners[1].records)
    metrics, accounting = tracing.summarize(spans, op_seconds)
    metrics["special.psi_hits"] = (hits, "count")
    metrics["special.psi_misses"] = (misses, "count")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    extra = {"untraced_ops_per_s": len(ops) / plain_wall,
             "traced_ops_per_s": len(ops) / traced_wall,
             "trace": accounting}

    speedup = 1.0
    if suites:
        # the same suites on one worker: their summed line time is the
        # serial base that the nproc-worker suite wall is compared with
        os.environ["SPECTRAL_BOUNDS_THREADS"] = "1"
        try:
            _, serial, _ = one_pass(True)
        finally:
            os.environ["SPECTRAL_BOUNDS_THREADS"] = str(nproc())
        line_time = sum(s.t1 - s.t0 for s in serial
                        if s.name == "cli.dispatch" and s.parent is not None)
        suite_wall = sum(s.t1 - s.t0 for s in spans if s.name == "cli.run_suite")
        speedup = line_time / suite_wall
    metrics["cli.suite_speedup"] = (speedup, "ratio")
    write_spans(args, spans)
    return metrics, extra, [r for runner in runners for r in runner.records]


def write_spans(args, spans) -> None:
    index = {id(s): i for i, s in enumerate(spans)}
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({"id": i, "parent": index.get(id(s.parent)),
                                 "name": s.name, "t0": s.t0, "t1": s.t1,
                                 "error": s.error, "attrs": s.attrs}) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spectral_bounds" / "__init__.py").is_file():
        print(f"error: no spectral_bounds package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    os.environ["SPECTRAL_BOUNDS_THREADS"] = str(nproc())
    import spectral_bounds.cli as cli
    from spectral_bounds import special

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: spectral_bounds imported from {cli.__file__}", file=sys.stderr)
        return 2
    cli.dispatch(WARMUP, out=io.StringIO())
    if args.trace:
        metrics, extra, records = traced(args, cli, special.psi_profile)
    else:
        metrics, extra, records = end_to_end(args, cli)
    failed, reasons = certify_records(records)
    attempted = len(records)
    extra["fail_frac"] = failed / attempted
    extra["failures"] = reasons[:20]
    kinds = {}
    for op, *_ in records:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = {"environment": environment(args, kinds), "extra": extra, **result}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

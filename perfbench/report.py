"""Print every end-to-end and per-layer metric of every workload, with units.

    python3 perfbench/report.py [--seed 1] [--seconds 30]

Runs the benchmark command of BENCHMARK.json once untraced and once traced
per workload, from the root of a checkout, and prints one table per mode
plus fail_frac, the tail percentile, the traced pass's time accounting
and the environment of each run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, *BENCH["command"][1:], "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} --trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-2])  # the full record


def table(title: str, specs, records: dict) -> None:
    names = list(records)
    print(f"\n{title}")
    print(f"{'metric':38s} {'unit':6s} " + " ".join(f"{n:>14s}" for n in names))
    for spec in specs:
        values = [records[n]["metrics"][spec["name"]]["value"] for n in names]
        print(f"{spec['name']:38s} {spec['unit']:6s} "
              + " ".join(f"{v:14.6g}" for v in values))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    args = parser.parse_args()
    workloads = [w["name"] for w in BENCH["workloads"]]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        records = {w: run(w, args.seed, args.seconds, trace) for w in workloads}
        table(f"{key} (seed {args.seed}, {args.seconds:g} s)", BENCH[key], records)
        for w, record in records.items():
            extra = record["extra"]
            print(f"  {w}: correct {record['correct']}, fail_frac "
                  f"{extra['fail_frac']:.4f} ({record['failed']}/{record['attempted']})"
                  + (f", op_tail_s at p{extra['op_tail_percentile']:.1f}"
                     if "op_tail_percentile" in extra else "")
                  + "".join(f"\n    failed: {f}" for f in extra["failures"]))
            if "trace" in extra:
                print("    time accounting: " + ", ".join(
                    f"{k} {v:.6g}" for k, v in extra["trace"].items()))
    env = records[workloads[0]]["environment"]
    print("\nenvironment:", json.dumps({k: v for k, v in env.items()
                                        if k not in ("workload", "ops")}))


if __name__ == "__main__":
    main()

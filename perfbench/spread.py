"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload decay-scan --seeds 1-10 --out spread.json

For each metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median,
next to the bound declared in BENCHMARK.json.  Runs are sequential and
untraced, each with ``run_seconds`` from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", help="write every run's result and the summary here")
    args = parser.parse_args(argv)

    runs = []
    for seed in seed_list(args.seeds):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            return 1
        env = json.loads(lines[-2].removeprefix("env "))
        runs.append({"seed": seed, "env": env, "result": json.loads(lines[-1])})
        metrics = runs[-1]["result"]["metrics"]
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in metrics.items()
        ), flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for name, entry in runs[0]["result"]["metrics"].items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / median if median else None
        summary[name] = {"unit": entry["unit"], "median": median, "q1": q1, "q3": q3,
                         "spread": spread, "bound": bounds[name]}
        print(f"{name:<18} median {median:<12.6g} spread {spread:8.4f}  bound {bounds[name]}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": spec["run_seconds"],
             "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

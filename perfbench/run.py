"""qshsim benchmark: one workload, one seed, one closed-loop caller.

Usage (from the repository root)::

    python3 perfbench/run.py --workload phase-map --seed 1 --seconds 30 --trace 0

The benchmark imports qshsim from ``src/`` of the checkout it sits in and
drives it only through ``config.normalize`` and ``runner.run``.  It repeats
units of work (see ``workloads.py``) while the next one, taken to last as
long as the last one, is expected to end within ``--seconds`` (always at
least one unit), checks every output, and prints
as its last stdout line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it records the environment.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median,
over fresh interpreters started between the replay rounds of every unit, of
the time from process start to the first task call (import qshsim, normalize
the first config).  ``wall_s`` is the median unit's timed section (cold runs
and cache-hit replays), and ``points_per_s`` the median unit's operations
over the time of its cold runs alone.  ``--trace 1``
alternates untraced and traced units and reports the per-layer metrics of
``tracing.PER_LAYER`` per traced unit, with the tracing overhead.  Scratch
output goes to ``.perfbench/`` in the checkout; each run's record and, for
traced runs, its spans stay in ``.perfbench/results/``.

Exit codes: 0 when every check passed, 1 when a check failed, 2 when the
qshsim sources are missing.  BLAS thread variables are recorded, never set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: end-to-end metrics of an untraced run, with their units
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("points_per_s", "points/s"),
    ("success_fraction", "ratio"),
    ("peak_rss_mb", "MiB"),
)

# Time to the first task call runs in a fresh interpreter each time, so that
# import costs count as a user pays them.
_SETUP_CHILD = (
    "import json, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from qshsim import config, runner\n"
    "config.normalize(json.loads(sys.argv[2]))\n"
    "print(repr(time.time()))\n"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("phase-map", "decay-scan", "task-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(first_config: dict) -> float:
    start = time.time()
    child = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC), json.dumps(first_config)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(child.stdout.strip().splitlines()[-1]) - start


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() or None


def environment(args, workload, qshsim):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": workload.inputs,
        "threads": workload.threads,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "qshsim": qshsim.__version__,
        "commit": git_commit(),
    }


def run_units(args, workload, config, runner, work: Path, tracer, setup: list):
    """Closed loop of units; with a tracer, untraced and traced units alternate.

    Without a tracer, ``workload.setup_samples`` set-up samples are taken in
    each unit, after evenly spaced replay rounds.
    """
    import workloads

    stride = max(1, workload.replay_rounds // workload.setup_samples)

    def between_rounds(r):
        if r % stride == stride - 1 and r < stride * workload.setup_samples:
            setup.append(measure_setup(workload.tasks[0].config))

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        unit_start = time.perf_counter()
        use_tracer = tracer is not None and len(plain) > len(traced)
        unit_dir = work / f"unit{len(plain) + len(traced)}"
        if use_tracer:
            tracer.install()
        try:
            result = workloads.run_unit(
                workload, config, runner, unit_dir,
                None if tracer is not None else between_rounds,
            )
        finally:
            if use_tracer:
                tracer.uninstall()
            shutil.rmtree(unit_dir, ignore_errors=True)
        (traced if use_tracer else plain).append(result)
        now = time.perf_counter()
        expected_end = (now - start) + (now - unit_start)
        if (tracer is None or traced) and expected_end > args.seconds:
            return plain, traced


def end_to_end(units, setup) -> dict:
    attempted = sum(u.attempted for u in units)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(u.wall_s for u in units),
        "points_per_s": statistics.median(u.points / u.cold_s for u in units),
        "success_fraction": (attempted - sum(u.failed for u in units)) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qshsim" / "__init__.py").is_file():
        print(f"perfbench: qshsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qshsim
    from qshsim import config, runner

    if Path(qshsim.__file__).resolve().parent != SRC / "qshsim":
        print(f"perfbench: imported qshsim from {qshsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    env = environment(args, workload, qshsim)
    scratch = ROOT / ".perfbench"
    work = scratch / f"work-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    setup = []
    try:
        plain, traced = run_units(args, workload, config, runner, work, tracer, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = plain + traced
    if args.trace:
        measured = {
            "traced": statistics.median(u.wall_s for u in traced),
            "untraced": statistics.median(u.wall_s for u in plain),
            "replay": statistics.median(u.replay_s for u in traced),
        }
        metrics = tracing.per_layer_metrics(
            tracer.spans, tracer.counts, len(traced), workload.threads, measured
        )
        declared = tracing.PER_LAYER
    else:
        metrics = end_to_end(units, setup)
        declared = END_TO_END
    problems = [p for u in units for p in u.problems]
    result = {
        "correct": not problems,
        "attempted": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in declared
        },
    }

    results = scratch / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    record = {
        "env": env,
        "result": result,
        "setup_s": setup,
        "units": [
            {"traced": is_traced, "cold_s": u.cold_s,
             "replay_s": u.replay_s, "attempted": u.attempted,
             "failed": u.failed}
            for is_traced, group in ((False, plain), (True, traced))
            for u in group
        ],
        "problems": problems,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        with open(results / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span._asdict()) + "\n")
        for name, unit in declared:
            print(f"{name:<40} {metrics[name]:>16.6g} {unit}")
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

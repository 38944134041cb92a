"""The benchmark workloads: seeded inputs, one unit of work and its checks.

A workload is one closed-loop caller in one process.  A unit of work runs
every task of the workload cold (fresh cache directory) through
``config.normalize`` and ``runner.run``, then replays each task from the
cache ``replay_rounds`` times into fresh output directories.  Only the
``runner.run`` calls are timed; checks and clean-up are not.

Why these workloads (each one stresses different layers):

* ``phase-map``: topology, spectra and model do nearly all the work, and
  dynamics and circuit do none.  It is the only workload that runs the
  thread pool (``threads`` = the number of usable cores), so pool and BLAS
  threading changes show here.
* ``decay-scan``: dynamics does nearly all the work (RK4 on a 73x73 density
  matrix) and there is no band solve; it runs single-threaded, as the plain
  baseline, and is where a phase-map optimisation must show no change.
* ``task-mix``: circuit, edgestates, the dense/sparse split of
  ``spectra.eig_hermitian`` (one lattice on each side of dim 2000) and the
  runner's I/O carry the work; the phase classifier does none.  Replays use
  the runner's cache the other way round (reads beside writes).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

REFERENCE_FILE = Path(__file__).with_name("phase_map_reference.json")

#: phase-map window and resolution (the minimum the topology guard allows)
PHASE_RESOLUTION = (16, 16)
BETA_SPAN = 0.25
LAMBDA_SPAN = 2.0
#: the seed shifts the window origin by k/8 of a grid step, k in 0..3 per axis
SHIFT_STEPS = 4
#: light solver settings, as in the CLI phase-diagram test
PHASE_SOLVER = {"bulk_grid": [64, 64], "ny_ribbon": 24, "kx_points": 101}

#: decay scan: 0.5 us of lab time (T = 9.42 t0) on the 6x6 corner protocol
DECAY_T_US = 0.5
DECAY_GAMMA_MAX = 1.0 / 300.0
T0_MHZ = 3.0  # reference device: t0 / 2pi = 3 MHz

#: task-mix parameters, drawn inside the topological region
MIX_BETA_MAX = 0.05
MIX_LAMBDA_MAX = 0.5
BANDS_GRID = (64, 64)
RIBBON_NY, RIBBON_KX = 42, 102
EDGE_SIDES = (24, 36)  # dims 1152 (dense path) and 2592 (shift-invert path)


@dataclass
class Task:
    label: str
    config: dict
    #: operations the cold run stands for (phase points, decay rates, 1)
    points: int
    #: (output dir, manifest) -> (failed operations, check problems)
    check: Callable


@dataclass
class Workload:
    name: str
    tasks: list
    threads: int
    #: cache-hit rounds per unit, so that its replays take 0.5-1 s
    replay_rounds: int
    #: set-up samples taken between the replay rounds of each untraced unit
    setup_samples: int
    inputs: dict = field(default_factory=dict)


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def phase_shift(seed: int) -> tuple:
    rng = random.Random(seed)
    return rng.randrange(SHIFT_STEPS), rng.randrange(SHIFT_STEPS)


def load_reference(shift) -> str:
    maps = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))["maps"]
    return maps[f"{shift[0]},{shift[1]}"]


def phase_map(seed: int, shift=None) -> Workload:
    """The seeded phase map; ``shift`` overrides the seeded window shift."""
    shift = phase_shift(seed) if shift is None else shift
    nb, nl = PHASE_RESOLUTION
    b0 = shift[0] * BETA_SPAN / (nb - 1) / 8.0
    l0 = shift[1] * LAMBDA_SPAN / (nl - 1) / 8.0
    beta_range, lambda_range = (b0, b0 + BETA_SPAN), (l0, l0 + LAMBDA_SPAN)
    betas = np.linspace(*beta_range, PHASE_RESOLUTION[0]).tolist()
    lams = np.linspace(*lambda_range, PHASE_RESOLUTION[1]).tolist()
    threads = usable_cores()

    def check(out_dir, manifest):
        rows = checks.read_csv(out_dir / "phase_map.csv")
        bad, problems = checks.check_phase_map(rows, betas, lams, load_reference(shift))
        errors = {i for i, r in enumerate(rows) if r["phase"] == "error"}
        return len(bad | errors), problems

    config = {
        "alpha": "1/3",
        "threads": threads,
        "phase_diagram": {
            "beta_range": list(beta_range),
            "lambda_range": list(lambda_range),
            "resolution": list(PHASE_RESOLUTION),
            **PHASE_SOLVER,
        },
    }
    task = Task("phase_diagram", config, len(betas) * len(lams), check)
    return Workload("phase-map", [task], threads=threads,
                    replay_rounds=1000, setup_samples=24,
                    inputs={"shift_eighths": shift, "beta_range": beta_range,
                            "lambda_range": lambda_range})


def decay_scan(seed: int) -> Workload:
    rng = random.Random(seed)
    gammas = sorted(rng.uniform(0.0, DECAY_GAMMA_MAX) for _ in range(3))
    t_final = 2.0 * math.pi * T0_MHZ * DECAY_T_US

    def check(out_dir, manifest):
        rows = checks.read_csv(out_dir / "decay_scan.csv")
        bad, problems = checks.check_decay_scan(rows, gammas, t_final)
        return len(bad), problems

    config = {
        "alpha": "1/3",
        "nx": 6,
        "ny": 6,
        "threads": 1,
        "lindblad": {"gammas": gammas, "t_us": DECAY_T_US},
    }
    task = Task("lindblad", config, len(gammas), check)
    return Workload("decay-scan", [task], threads=1,
                    replay_rounds=1000, setup_samples=24,
                    inputs={"gammas": gammas})


def task_mix(seed: int) -> Workload:
    rng = random.Random(seed)
    model = {"alpha": "1/3", "beta": rng.uniform(0.0, MIX_BETA_MAX),
             "lambda": rng.uniform(0.0, MIX_LAMBDA_MAX)}

    def one(problems):
        return (1 if problems else 0), problems

    def bands(out_dir, manifest):
        rows = checks.read_csv(out_dir / "bands.csv")
        return one(checks.check_bands(rows, manifest["meta"], BANDS_GRID, 12))

    def ribbon(out_dir, manifest):
        return one(checks.check_ribbon(
            checks.read_csv(out_dir / "bands.csv"),
            checks.read_csv(out_dir / "localization.csv"),
            RIBBON_KX, 2 * RIBBON_NY,
        ))

    def edge(side):
        def check(out_dir, manifest):
            return one(checks.check_edge_state(
                checks.read_csv(out_dir / "density_000.csv"),
                checks.read_csv(out_dir / "states.csv"), side, side,
            ))
        return check

    def tones(out_dir, manifest):
        return one(checks.check_tones(checks.read_csv(out_dir / "tones.csv"), manifest["meta"]))

    def rwa(out_dir, manifest):
        return one(checks.check_rwa(checks.read_csv(out_dir / "rwa_check.csv")))

    tasks = [
        Task("bands", {**model, "bands": {"grid": list(BANDS_GRID)}}, 1, bands),
        Task("ribbon", {**model, "ribbon": {"ny": RIBBON_NY, "kx_points": RIBBON_KX}},
             1, ribbon),
        *(
            Task(f"edge_states_{s}", {**model, "nx": s, "ny": s, "edge_states": {"count": 1}},
                 1, edge(s))
            for s in EDGE_SIDES
        ),
        Task("tones", {**model, "tones": {}}, 1, tones),
        Task("rwa_check", {**model, "rwa_check": {}}, 1, rwa),
    ]
    return Workload("task-mix", tasks, threads=1, replay_rounds=100, setup_samples=4,
                    inputs=model)


WORKLOADS = {"phase-map": phase_map, "decay-scan": decay_scan, "task-mix": task_mix}


@dataclass
class UnitResult:
    cold_s: float
    points: int
    #: total time of the unit's cache-hit runs
    replay_s: float
    attempted: int
    failed: int
    problems: list

    @property
    def wall_s(self) -> float:
        """The timed section of the unit: cold runs plus replays."""
        return self.cold_s + self.replay_s


def _digests(out_dir: Path, manifest) -> dict:
    return {
        o["name"]: hashlib.sha256((out_dir / o["name"]).read_bytes()).hexdigest()
        for o in manifest["outputs"]
    }


def run_unit(workload: Workload, config, runner, unit_dir: Path,
             between_rounds=None) -> UnitResult:
    """Run every task cold, replay each from the cache, then check the outputs.

    The replays of one task are one operation, failed if any of its rounds
    raised or differed from the cold output, so that the replays do not
    outweigh the cold operations in the failed fraction.  ``between_rounds``
    is called, untimed, with the round index after each replay round; the run
    uses it to spread set-up measurements over the unit.
    """
    os.environ["QSH_CACHE_DIR"] = str(unit_dir / "cache")
    cfgs = [config.normalize(task.config) for task in workload.tasks]
    attempted = failed = 0
    problems = []
    cold_s = 0.0
    done = []
    for task, cfg in zip(workload.tasks, cfgs):
        out_dir = unit_dir / "cold" / task.label
        cfg.out_dir = str(out_dir)
        attempted += task.points
        start = time.perf_counter()
        try:
            manifest = runner.run(cfg)
        except Exception as exc:  # a task that raised is a failed operation
            cold_s += time.perf_counter() - start
            failed += task.points
            problems.append(f"{task.label}: {type(exc).__name__}: {exc}")
            continue
        cold_s += time.perf_counter() - start
        done.append((task, cfg, out_dir, manifest, _digests(out_dir, manifest)))

    replay_s = 0.0
    replay_problems = {}  # first problem of each task's replays
    for r in range(workload.replay_rounds):
        for task, cfg, _, _, cold_digests in done:
            out_dir = unit_dir / f"replay{r}" / task.label
            cfg.out_dir = str(out_dir)
            start = time.perf_counter()
            try:
                manifest = runner.run(cfg)
            except Exception as exc:
                replay_s += time.perf_counter() - start
                replay_problems.setdefault(task.label, f"{type(exc).__name__}: {exc}")
                continue
            replay_s += time.perf_counter() - start
            found = checks.check_replay(
                cold_digests, _digests(out_dir, manifest), manifest["cached"]
            )
            if found:
                replay_problems.setdefault(task.label, f"round {r}: {found[0]}")
        shutil.rmtree(unit_dir / f"replay{r}", ignore_errors=True)
        if between_rounds is not None:
            between_rounds(r)
    if workload.replay_rounds:
        attempted += len(done)
        failed += len(replay_problems)
        problems += [f"{label} replay: {p}" for label, p in replay_problems.items()]

    for task, _, out_dir, manifest, _ in done:
        bad, found = task.check(out_dir, manifest)
        failed += bad
        problems += [f"{task.label}: {p}" for p in found]
    return UnitResult(
        cold_s=cold_s,
        points=sum(task.points for task in workload.tasks),
        replay_s=replay_s,
        attempted=attempted,
        failed=failed,
        problems=problems,
    )

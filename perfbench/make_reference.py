"""Regenerate ``phase_map_reference.json``: the phase map of every seeded window.

Run from the repository root, on the commit whose maps become the reference::

    python3 perfbench/make_reference.py

It computes the 16 shifted windows of the phase-map workload one after the
other, each with the workload's own config, so it takes 16 phase-map runs.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qshsim import config, runner  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    work = ROOT / ".perfbench" / f"reference-{os.getpid()}"
    maps = {}
    try:
        for shift in itertools.product(range(workloads.SHIFT_STEPS), repeat=2):
            task = workloads.phase_map(0, shift=shift).tasks[0]
            out_dir = work / f"{shift[0]}-{shift[1]}"
            os.environ["QSH_CACHE_DIR"] = str(out_dir / "cache")
            cfg = config.normalize(task.config)
            cfg.out_dir = str(out_dir)
            runner.run(cfg)
            rows = checks.read_csv(out_dir / "phase_map.csv")
            maps[f"{shift[0]},{shift[1]}"] = "".join(
                checks.PHASE_CODES[r["phase"]] for r in rows
            )
            print(shift, maps[f"{shift[0]},{shift[1]}"], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    doc = {
        "about": "phase codes (T topological, M metal, V trivial, E error) of each "
        "seeded phase-map window, beta-major, keyed by the window shift in "
        "eighths of a grid step",
        "maps": maps,
    }
    workloads.REFERENCE_FILE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

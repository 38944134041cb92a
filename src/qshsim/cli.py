"""Command-line interface: one subcommand per task.

Exit codes: 0 success, 2 configuration error, 3 computation error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .config import TASKS, THREADS, parse_config
from .errors import ConfigError, QshError
from .runner import run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qshsim",
        description="Quantum spin Hall lattice simulator: bands, topology, "
        "edge states, drive tones and open-system dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for task in TASKS:
        cmd = task.replace("_", "-")
        sp = sub.add_parser(cmd, help=f"run the {task} task")
        sp.add_argument("--config", required=True, help="JSON run configuration")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument(
            "--threads",
            type=int,
            default=None,
            help="phase-diagram worker threads; BLAS runs one thread per "
            "worker in every task, so the outputs do not depend on it",
        )
        sp.add_argument(
            "--force", action="store_true", help="recompute even on a cache hit"
        )
        sp.add_argument("--format", choices=("csv", "json"), default=None)
        sp.set_defaults(task=task)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if cfg.task != args.task:
            raise ConfigError(
                f"config task {cfg.task!r} does not match subcommand {args.task!r}"
            )
        if args.out is not None:
            cfg.out_dir = args.out
        if args.threads is not None:
            cfg.threads = THREADS.check(args.threads, None, "--threads")
        if args.format is not None:
            cfg.fmt = args.format
            cfg.normalized["format"] = args.format
        manifest = run(cfg, force=args.force)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QshError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 3
    summary = {
        "task": manifest["task"],
        "cached": manifest["cached"],
        "outputs": [o["name"] for o in manifest["outputs"]],
        "timing_s": manifest["timing_s"],
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Run configuration: JSON parsing, validation, defaults and canonical hashing.

A config carries the model parameters plus exactly one task block.  The flux
parameter is accepted only as a rational string ("1/3"), never as a float.
Two layouts are recognized::

    {"alpha": "1/3", "beta": 0, "lambda": 0, "task": "bands", "grid": [64, 64]}
    {"alpha": "1/3", "bands": {"grid": [64, 64]}}

At the top level ``ny`` is the lattice height, so a ribbon's own ``ny`` goes
in its block; the minimal layout of a ribbon with a top-level ``ny`` is
rejected as ambiguous.

Canonical serialization (sorted keys, fixed separators) of the normalized
config, together with the package version, defines the cache key, so
identical configs hash identically and a new version never replays old bytes.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .circuit import T0_MHZ
from .errors import ConfigError
from .model import ModelParams
from .spectra import BULK_MIN_GRID, RIBBON_MIN_KX
from .topology import PHASE_MIN_RESOLUTION

log = logging.getLogger("qshsim")

TASKS = (
    "bands",
    "ribbon",
    "phase_diagram",
    "edge_states",
    "tones",
    "rwa_check",
    "lindblad",
)

MODEL_KEYS = ("alpha", "beta", "lambda", "nx", "ny", "t0")
COMMON_KEYS = ("task", "output", "threads", "seed", "model") + MODEL_KEYS

#: shared physics defaults
DEFAULTS = {
    "e_f": 1.5,
    "gap_threshold": 0.05,
    "ring_depth": 2,
    "t0_mhz": T0_MHZ,
}

TASK_DEFAULTS = {
    "bands": {"grid": [32, 32]},
    "ribbon": {"ny": 42, "kx_points": 102},
    "phase_diagram": {
        "beta_range": [0.0, 0.25],
        "lambda_range": [0.0, 2.0],
        "resolution": [16, 16],
        "window": [1.0, 2.0],
    },
    "edge_states": {"count": 1},
    "tones": {"units": "t0"},
    "rwa_check": {},
    "lindblad": {"gammas": [0.0, 1.0 / 600.0, 1.0 / 300.0], "t_us": 2.0},
}

#: task parameters without a default value (``lindblad.dt`` is deprecated)
TASK_OPTIONAL = {
    "bands": ("window",),
    "phase_diagram": ("bulk_grid", "ny_ribbon", "kx_points"),
    "rwa_check": ("t_final", "dt"),
    "lindblad": ("dt",),
}
OUTPUT_KEYS = ("format", "directory")


def _reject_unknown(block: dict, allowed, where: str) -> None:
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}"
        )


@dataclass
class RunConfig:
    model: ModelParams
    task: str
    task_params: dict
    out_dir: str = "qshsim-out"
    fmt: str = "csv"
    threads: int = 1
    normalized: dict = field(default_factory=dict)

    def canonical_json(self) -> str:
        return json.dumps(self.normalized, sort_keys=True, separators=(",", ":"))

    def cache_key(self) -> str:
        text = f"qshsim {__version__}\n{self.canonical_json()}"
        return hashlib.sha256(text.encode()).hexdigest()


def _parse_alpha(value) -> Fraction:
    if not isinstance(value, str):
        raise ConfigError(
            f"field 'alpha': must be a rational string like '1/3', got {value!r}"
        )
    try:
        frac = Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"field 'alpha': cannot parse {value!r} as p/q") from exc
    if "/" in value:
        p_str, q_str = value.split("/", 1)
        if (int(p_str), int(q_str)) != (frac.numerator, frac.denominator):
            log.warning(
                "alpha %s not in lowest terms; normalized to %s", value, frac
            )
    return frac


def _object(data: dict, key: str) -> dict:
    """The JSON object under ``key`` (empty when absent)."""
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"field {key!r}: must be an object")
    return value


def _find_task(data: dict):
    block_tasks = [t for t in TASKS if isinstance(data.get(t), dict)]
    top_level = {k: v for k, v in data.items() if k not in COMMON_KEYS + TASKS}
    named = data.get("task")
    if named is not None:
        if named not in TASKS:
            raise ConfigError(f"field 'task': unknown task {named!r}")
        extra = [t for t in block_tasks if t != named]
        if extra:
            raise ConfigError(
                f"config names task {named!r} but also carries block(s) {extra}"
            )
        params = dict(_object(data, named))
        if not params:
            # minimal layout: task parameters live at the top level
            if named == "ribbon" and "ny" in data:
                raise ConfigError(
                    "field 'ny': ambiguous in the minimal ribbon layout, where it "
                    "is the lattice height; give the ribbon rows as "
                    '{"ribbon": {"ny": ...}}'
                )
            return named, top_level
    elif len(block_tasks) == 1:
        named, params = block_tasks[0], dict(data[block_tasks[0]])
    elif not block_tasks:
        raise ConfigError("config contains no task (expected exactly one)")
    else:
        raise ConfigError(
            f"config contains {len(block_tasks)} task blocks: {block_tasks}"
        )
    _reject_unknown(top_level, COMMON_KEYS + TASKS, "the config root")
    return named, params


def _is_finite(value) -> bool:
    """A JSON number, not a bool, with a finite float value."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _check_rwa_times(params: dict) -> None:
    """``rwa_check.t_final`` must be finite and >= 0, ``rwa_check.dt`` > 0.

    A ``null`` dt means the automatic step, as when the key is left out.
    """
    for key, positive in (("t_final", False), ("dt", True)):
        if key not in params or (key == "dt" and params[key] is None):
            continue
        value = params[key]
        if not (_is_finite(value) and (value > 0 if positive else value >= 0)):
            bound = "> 0" if positive else ">= 0"
            raise ConfigError(
                f"field 'rwa_check.{key}': must be a finite number {bound}, "
                f"got {value!r}"
            )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_phase_solver(params: dict, model: ModelParams) -> None:
    """``phase_diagram`` grid, window and solver settings the classifier accepts.

    ``resolution`` is two integers >= ``PHASE_MIN_RESOLUTION``, ``bulk_grid``
    two integers >= ``BULK_MIN_GRID``, ``beta_range`` and ``lambda_range``
    two finite numbers, ``window`` two finite numbers lo < hi, ``ny_ribbon``
    an integer of at least two magnetic cells (2*lcm(q, 2) rows) and
    ``kx_points`` an integer >= ``RIBBON_MIN_KX``, the bounds the topology
    and spectra modules enforce.
    """
    pairs = {
        "resolution": (
            lambda n: _is_int(n) and n >= PHASE_MIN_RESOLUTION,
            f"two integers >= {PHASE_MIN_RESOLUTION}",
        ),
        "bulk_grid": (
            lambda n: _is_int(n) and n >= BULK_MIN_GRID,
            f"two integers >= {BULK_MIN_GRID}",
        ),
        "beta_range": (_is_finite, "two finite numbers"),
        "lambda_range": (_is_finite, "two finite numbers"),
        "window": (_is_finite, "two finite numbers lo < hi"),
    }
    for key, (valid, rule) in pairs.items():
        if key not in params:
            continue
        value = params[key]
        if not (
            isinstance(value, (list, tuple)) and len(value) == 2
            and all(valid(v) for v in value)
            and (key != "window" or value[0] < value[1])
        ):
            raise ConfigError(
                f"field 'phase_diagram.{key}': must be {rule}, got {value!r}"
            )
    bounds = {"ny_ribbon": 2 * model.magnetic_height, "kx_points": RIBBON_MIN_KX}
    for key, least in bounds.items():
        value = params.get(key, least)
        if not (_is_int(value) and value >= least):
            raise ConfigError(
                f"field 'phase_diagram.{key}': must be an integer >= {least}, "
                f"got {value!r}"
            )


def _task_keys(task: str) -> tuple:
    return tuple(TASK_DEFAULTS[task]) + tuple(DEFAULTS) + TASK_OPTIONAL.get(task, ())


def _model_from(data: dict) -> ModelParams:
    src = dict(_object(data, "model"))
    _reject_unknown(src, MODEL_KEYS, "block 'model'")
    for key in MODEL_KEYS:
        if key in data:
            src.setdefault(key, data[key])
    if "alpha" not in src:
        raise ConfigError("field 'alpha': required (rational string, e.g. '1/3')")
    alpha = _parse_alpha(src["alpha"])
    try:
        return ModelParams(
            alpha=alpha,
            beta=float(src.get("beta", 0.0)),
            lam=float(src.get("lambda", 0.0)),
            nx=int(src.get("nx", 6)),
            ny=int(src.get("ny", 6)),
            t0=float(src.get("t0", 1.0)),
        )
    except Exception as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from exc


def normalize(data: dict) -> RunConfig:
    """Validate a raw config dict and fill defaults."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    task, params = _find_task(data)
    _reject_unknown(params, _task_keys(task), f"task {task!r}")
    model = _model_from(data)
    merged = dict(TASK_DEFAULTS.get(task, {}))
    merged.update(params)
    if task == "rwa_check":
        _check_rwa_times(merged)
    if task == "phase_diagram":
        _check_phase_solver(merged, model)
    if task == "lindblad" and "dt" in merged:
        # the master equation is propagated exactly; there is no time step
        log.warning("lindblad.dt is deprecated and ignored by exact propagation")
        del merged["dt"]
    for key, val in DEFAULTS.items():
        merged.setdefault(key, val)

    output = _object(data, "output")
    _reject_unknown(output, OUTPUT_KEYS, "block 'output'")
    fmt = output.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"field 'output.format': must be csv or json, got {fmt!r}")
    threads = data.get("threads", 1)
    if isinstance(threads, bool) or not isinstance(threads, int) or threads < 1:
        raise ConfigError(f"field 'threads': must be an integer >= 1, got {threads!r}")

    normalized = {
        "model": {
            "alpha": f"{model.p}/{model.q}",
            "beta": model.beta,
            "lambda": model.lam,
            "nx": model.nx,
            "ny": model.ny,
            "t0": model.t0,
        },
        "task": task,
        "params": merged,
        "format": fmt,
    }
    return RunConfig(
        model=model,
        task=task,
        task_params=merged,
        out_dir=output.get("directory", "qshsim-out"),
        fmt=fmt,
        threads=threads,
        normalized=normalized,
    )


def parse_config(path: str) -> RunConfig:
    """Load and validate a JSON run configuration from disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return normalize(data)

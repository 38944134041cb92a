"""Run configuration: JSON parsing, validation, defaults and canonical hashing.

A config carries the model parameters plus exactly one task block.  The flux
parameter is accepted only as a rational string ("1/3"), never as a float.
Two layouts are recognized::

    {"alpha": "1/3", "beta": 0, "lambda": 0, "task": "bands", "grid": [64, 64]}
    {"alpha": "1/3", "bands": {"grid": [64, 64]}}

At the top level ``ny`` is the lattice height, so a ribbon's own ``ny`` goes
in its block; the minimal layout of a ribbon with a top-level ``ny`` is
rejected as ambiguous.

Every other key is described once, by a :class:`Param` in the tables below:
``normalize`` checks each given value against it, raising ``ConfigError`` on
a bad one, and fills the defaults.  A task accepts only the keys it reads.

Canonical serialization (sorted keys, fixed separators) of the normalized
config, together with the package version, defines the config hash, so
identical configs hash identically; the runner keys its cache on that hash
and on the package's source, so other code never replays old bytes.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .circuit import T0_MHZ
from .edgestates import DEFAULT_RING_DEPTH
from .errors import ConfigError
from .model import LATTICE_MIN_SIDE, ModelParams
from .spectra import BULK_MIN_GRID, GAP_THRESHOLD, RIBBON_MIN_KX
from .topology import (
    BULK_GRID, DEFAULT_FERMI_ENERGY, DEFAULT_WINDOW, KX_POINTS, NY_RIBBON,
    PHASE_MIN_RESOLUTION,
)

log = logging.getLogger("qshsim")

#: the default of a model key: ModelParams fills it when the key is left out
ABSENT = object()


def _is_finite(value) -> bool:
    """A JSON number, not a bool, with a finite float value."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


_SIGN = {"": lambda v: True, ">= 0": lambda v: v >= 0, "> 0": lambda v: v > 0}
_NOUN = {"number": ("a finite number", "finite numbers"),
         "integer": ("an integer", "integers"), "text": ("a string", "strings")}
_COUNT = {"pair": "two", "ordered pair": "two", "list": "a list of one or more"}


@dataclass(frozen=True)
class Param:
    """The values one config key takes, and its value when left out.

    ``kind`` is "number" (finite, and ``sign`` "", ">= 0" or "> 0"),
    "integer" (from ``least`` to ``most``, each a number, a function of the
    model or None for no bound) or "text" (one of ``choices``, if any).
    ``shape`` is "one", "pair", "ordered pair" (lo < hi) or "list" (one or
    more values); ``nullable`` also admits null.  Numbers come out as floats
    and sequences as lists, so equal values hash equally.
    """

    kind: str
    default: object = ABSENT
    shape: str = "one"
    sign: str = ""
    least: object = None
    most: object = None
    choices: tuple = ()
    nullable: bool = False

    def _valid(self, v, least, most) -> bool:
        if self.kind == "number":
            return _is_finite(v) and _SIGN[self.sign](v)
        if self.kind == "integer":
            return (isinstance(v, int) and not isinstance(v, bool)
                    and (least is None or v >= least) and (most is None or v <= most))
        return isinstance(v, str) and (not self.choices or v in self.choices)

    def _rule(self, least, most) -> str:
        one, many = _NOUN[self.kind]
        rule = one if self.shape == "one" else f"{_COUNT[self.shape]} {many}"
        if self.sign:
            rule += f" {self.sign}"
        if least is not None:
            rule += f" from {least} to {most}" if most is not None else f" >= {least}"
        if self.choices:
            rule = "one of " + ", ".join(map(repr, self.choices))
        if self.shape == "ordered pair":
            rule += " lo < hi"
        return "null or " + rule if self.nullable else rule

    def check(self, value, model, name: str):
        """``value`` in canonical form; ConfigError naming ``name`` if it is bad."""
        if value is None and self.nullable:
            return None
        least, most = (b(model) if callable(b) else b for b in (self.least, self.most))
        items = [value] if self.shape == "one" else value
        if not (
            isinstance(items, (list, tuple))
            and (len(items) == 2 if "pair" in self.shape else len(items) > 0)
            and all(self._valid(v, least, most) for v in items)
            and (self.shape != "ordered pair" or items[0] < items[1])
        ):
            raise ConfigError(
                f"field {name!r}: must be {self._rule(least, most)}, got {value!r}"
            )
        items = [float(v) for v in items] if self.kind == "number" else list(items)
        return items[0] if self.shape == "one" else items


def _ribbon_rows(model: ModelParams) -> int:
    """Two magnetic cells: the fewest rows a ribbon accepts."""
    return 2 * model.magnetic_height


_WINDOW = Param("number", list(DEFAULT_WINDOW), shape="ordered pair")
_GAP_THRESHOLD = Param("number", GAP_THRESHOLD, sign="> 0")


#: every key of every task: its values, bounds and default
TASK_PARAMS = {
    "bands": {
        "grid": Param("integer", [32, 32], shape="pair", least=BULK_MIN_GRID),
        "window": _WINDOW,
        "gap_threshold": _GAP_THRESHOLD,
    },
    "ribbon": {
        "ny": Param("integer", 42, least=_ribbon_rows),
        "kx_points": Param("integer", 102, least=RIBBON_MIN_KX),
    },
    "phase_diagram": {
        "beta_range": Param("number", [0.0, 0.25], shape="pair"),
        "lambda_range": Param("number", [0.0, 2.0], shape="pair"),
        "resolution": Param(
            "integer", [16, 16], shape="pair", least=PHASE_MIN_RESOLUTION
        ),
        "window": _WINDOW,
        "gap_threshold": _GAP_THRESHOLD,
        "bulk_grid": Param("integer", list(BULK_GRID), shape="pair", least=BULK_MIN_GRID),
        "ny_ribbon": Param("integer", NY_RIBBON, least=_ribbon_rows),
        "kx_points": Param("integer", KX_POINTS, least=RIBBON_MIN_KX),
    },
    "edge_states": {
        "e_f": Param("number", DEFAULT_FERMI_ENERGY),
        # at most every eigenpair of the open lattice
        "count": Param("integer", 1, least=1, most=lambda m: 2 * m.nx * m.ny),
        # the ring must leave an interior: depth < min(nx, ny) / 2
        "ring_depth": Param(
            "integer", DEFAULT_RING_DEPTH, least=1,
            most=lambda m: (min(m.nx, m.ny) - 1) // 2,
        ),
    },
    "tones": {
        "units": Param("text", "t0", choices=("t0", "MHz")),
        "t0_mhz": Param("number", T0_MHZ, sign="> 0"),
    },
    "rwa_check": {
        "t_final": Param("number", math.pi / 2.0, sign=">= 0"),
        # null: the automatic step
        "dt": Param("number", None, sign="> 0", nullable=True),
    },
    "lindblad": {
        "gammas": Param(
            "number", [0.0, 1.0 / 600.0, 1.0 / 300.0], shape="list", sign=">= 0"
        ),
        "t_us": Param("number", 2.0, sign=">= 0"),
    },
}
TASKS = tuple(TASK_PARAMS)

#: model keys; ``alpha`` is parsed as p/q, and ModelParams fills the defaults
MODEL_PARAMS = {
    "alpha": Param("text"),
    "beta": Param("number"),
    "lambda": Param("number"),
    "nx": Param("integer", least=LATTICE_MIN_SIDE),
    "ny": Param("integer", least=LATTICE_MIN_SIDE),
    "t0": Param("number", sign="> 0"),
}
MODEL_KEYS = tuple(MODEL_PARAMS)
OUTPUT_PARAMS = {
    "format": Param("text", "csv", choices=("csv", "json")),
    "directory": Param("text", "qshsim-out"),
}
THREADS = Param("integer", 1, least=1)
COMMON_KEYS = ("task", "output", "threads", "model") + MODEL_KEYS


def _reject_unknown(block: dict, allowed, where: str) -> None:
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}"
        )


def _checked(table: dict, given: dict, model, prefix: str, where: str) -> dict:
    """The keys of ``table``: given values checked, then defaults filled."""
    _reject_unknown(given, table, where)
    values = {}
    for key, param in table.items():
        value = given.get(key, param.default)
        if value is not ABSENT:
            values[key] = param.check(value, model, prefix + key)
    return values


@dataclass
class RunConfig:
    model: ModelParams
    task: str
    task_params: dict
    out_dir: str
    fmt: str
    threads: int
    normalized: dict

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


def _model_from(data: dict) -> ModelParams:
    src = dict(_object(data, "model"))
    for key in MODEL_KEYS:
        if key in data:
            if key in src:
                raise ConfigError(
                    f"field {key!r}: given both at the top level and in block "
                    "'model'; give it once"
                )
            src[key] = data[key]
    if "alpha" not in src:
        raise ConfigError("field 'alpha': required (rational string, e.g. '1/3')")
    alpha = _parse_alpha(src["alpha"])
    values = _checked(MODEL_PARAMS, src, None, "", "block 'model'")
    del values["alpha"]
    if "lambda" in values:
        values["lam"] = values.pop("lambda")
    return ModelParams(alpha=alpha, **values)


def normalize(data: dict) -> RunConfig:
    """Check a raw config dict against the tables and fill the defaults."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    task, given = _find_task(data)
    model = _model_from(data)
    # Load here what the run will import, so that no timed run pays an import.
    if task == "lindblad":
        from .dynamics import MAX_SITES

        if model.nx * model.ny > MAX_SITES:
            raise ConfigError(
                f"fields 'nx', 'ny': the lindblad lattice holds at most {MAX_SITES} "
                f"sites (8x8), got {model.nx}x{model.ny}"
            )
    elif task == "edge_states":
        import scipy.sparse.linalg  # noqa: F401  the eigensolve of the run
    params = _checked(TASK_PARAMS[task], given, model, f"{task}.", f"task {task!r}")
    output = _checked(OUTPUT_PARAMS, _object(data, "output"), None, "output.",
                      "block 'output'")
    normalized = {
        "model": {"alpha": f"{model.p}/{model.q}", "beta": model.beta,
                  "lambda": model.lam, "nx": model.nx, "ny": model.ny, "t0": model.t0},
        "task": task,
        "params": params,
        "format": output["format"],
    }
    threads = THREADS.check(data.get("threads", THREADS.default), None, "threads")
    return RunConfig(
        model=model, task=task, task_params=params, out_dir=output["directory"],
        fmt=output["format"], threads=threads, normalized=normalized,
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

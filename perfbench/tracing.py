"""Span tracer that wraps qshsim's public functions from outside the package.

``Tracer.install()`` swaps each traced function for a wrapper in every
``qshsim`` module namespace that holds it, so names bound by
``from .topology import bulk_gap_at`` are patched as well as the defining
module; ``uninstall()`` puts the originals back.  Nothing under ``src/``
changes.

A span records its name, start, end, parent span, thread id and the type of
the exception it raised, if any.  Spans stay in memory until the run ends.
``ThreadPoolExecutor`` workers do not inherit the caller's stack, so a span
opened on a thread with no open span takes the innermost span open on the
installing (main) thread as parent: the call that started the pool.  A
span's self time is its duration minus the union of its children's
intervals, so overlapping worker spans are not subtracted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import statistics
import sys
import threading
import time
from collections import defaultdict, namedtuple

LAYERS = ("model", "spectra", "topology", "edgestates", "circuit", "dynamics", "runner")

Span = namedtuple("Span", "sid parent name start end thread error")


def _count_stack(tracer, bound, result):
    """Every stack a model builder returns is eigendecomposed by its caller."""
    n = math.prod(result.shape[:-2])
    dim = result.shape[-1]
    tracer.add("spectra.matrices", n)
    tracer.add("spectra.matrices.dim_cubed", n * dim**3)


def _count_eig(tracer, bound, result):
    dim = bound["h"].dim if hasattr(bound["h"], "dim") else bound["h"].shape[0]
    tracer.add("spectra.matrices", 1)
    tracer.add("spectra.matrices.dim_cubed", dim**3)


def _count_cf4(tracer, bound, result):
    """CF4 steps of one full_evolve: a dt pass and a dt/2 pass over [0, T]."""
    t_final, dt = bound["t_final"], bound["dt"]
    freqs = [tone.freq for plan in bound["plans"] for tone in plan.tones]
    if dt is None:
        dt = (2.0 * math.pi / max(freqs)) / 40.0 if max(freqs, default=0) > 0 else t_final
    for h in (dt, dt / 2.0):
        tracer.add("circuit.cf4_steps", max(1, math.ceil(t_final / h)))


def _count_rk4(tracer, bound, result):
    tracer.add("dynamics.rk4_steps", max(1, math.ceil(bound["t_final"] / bound["dt"])))


def _count_bytes(tracer, bound, result):
    tracer.add("runner.write_table.bytes", bound["path"].stat().st_size)


def _count_cache(tracer, bound, result):
    tracer.add("runner.cache_hits" if result["cached"] else "runner.cache_misses", 1)


#: (module, attribute, span name, counting hook) of every traced function
TRACED = (
    ("model", "bloch_stack", "model.bloch_stack", _count_stack),
    ("model", "spin_bloch_stack", "model.spin_bloch_stack", _count_stack),
    ("model", "ribbon_stack", "model.ribbon_stack", _count_stack),
    ("model", "open_hamiltonian", "model.open_hamiltonian", None),
    ("spectra", "bulk_bands", "spectra.bulk_bands", None),
    ("spectra", "ribbon_bands", "spectra.ribbon_bands", None),
    ("spectra", "eig_hermitian", "spectra.eig_hermitian", _count_eig),
    ("spectra", "gap_in_window", "spectra.gap_in_window", None),
    ("topology", "phase_diagram", "topology.phase_diagram", None),
    ("topology", "classify_point", "topology.classify_point", None),
    ("topology", "z2_invariant", "topology.z2_invariant", None),
    ("topology", "bulk_gap_at", "topology.bulk_gap_at", None),
    ("edgestates", "edge_eigenstates", "edgestates.edge_eigenstates", None),
    ("edgestates", "site_density", "edgestates.site_density", None),
    ("edgestates", "edge_weight", "edgestates.edge_weight", None),
    ("circuit", "plaquette_plans", "circuit.plaquette_plans", None),
    ("circuit", "full_evolve", "circuit.full_evolve", _count_cf4),
    ("circuit", "effective_hamiltonian", "circuit.effective_hamiltonian", None),
    ("dynamics", "decay_scan", "dynamics.decay_scan", None),
    ("dynamics", "lindblad_evolve", "dynamics.lindblad_evolve", _count_rk4),
    ("runner", "run", "runner.run", _count_cache),
    ("runner", "write_table", "runner.write_table", _count_bytes),
    ("runner", "_sha256_file", "runner.sha256", None),
    ("config", "normalize", "config.normalize", None),
)

#: functions reported with ``.calls`` and ``.self_s``; eig_hermitian is split
#: by the path it took (a sparse solve calls ARPACK's eigsh)
REPORTED = (
    "model.bloch_stack", "model.ribbon_stack", "model.open_hamiltonian",
    "spectra.bulk_bands", "spectra.ribbon_bands", "spectra.eig_hermitian.dense",
    "spectra.eig_hermitian.sparse", "spectra.gap_in_window",
    "topology.phase_diagram", "topology.classify_point", "topology.z2_invariant",
    "edgestates.edge_eigenstates", "edgestates.site_density", "edgestates.edge_weight",
    "circuit.plaquette_plans", "circuit.full_evolve", "circuit.effective_hamiltonian",
    "dynamics.decay_scan", "dynamics.lindblad_evolve",
    "runner.run", "runner.write_table",
)
ERROR_TYPES = ("DegeneracyError", "GaplessError", "ResolutionError", "LinAlgError")
TASKS = ("bands", "ribbon", "phase_diagram", "edge_states", "tones", "rwa_check", "lindblad")
COUNTS = (
    "spectra.matrices", "spectra.matrices.dim_cubed", "circuit.cf4_steps",
    "dynamics.rk4_steps", "runner.write_table.bytes", "runner.cache_hits",
    "runner.cache_misses",
)

#: every per-layer metric a traced run prints, with its unit, in print order
PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(f"{fn}.{kind}", unit) for fn in REPORTED for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [(name, "bytes" if name.endswith("bytes") else "count") for name in COUNTS]
    + [("topology.classify_point.p50_s", "s"), ("topology.classify_point.p95_s", "s")]
    + [(f"topology.errors.{t}", "count") for t in ERROR_TYPES + ("other",)]
    + [("topology.pool_efficiency", "ratio")]
    + [(f"runner.task.{t}.s", "s") for t in TASKS]
    + [("runner.replay_s", "s"), ("runner.sha256_s", "s"), ("config.normalize.s", "s")]
    + [("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
       ("trace.spans", "count")]
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stacks = {}
        self._main = threading.get_ident()
        self._patches = []

    def add(self, name: str, value) -> None:
        with self._lock:
            self.counts[name] += value

    def _wrap(self, name, fn, hook):
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ident = threading.get_ident()
            stack = self._stacks.setdefault(ident, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main and ident != self._main else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                stack.pop()
                self.spans.append(
                    Span(sid, parent, name, start, time.perf_counter(), ident, type(exc).__name__)
                )
                raise
            stack.pop()
            self.spans.append(Span(sid, parent, name, start, time.perf_counter(), ident, None))
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        return traced

    def _patch(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "qshsim" or mod_name.startswith("qshsim."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function, the runner's task table and ARPACK's eigsh."""
        for mod_name, attr, name, hook in TRACED:
            original = getattr(importlib.import_module(f"qshsim.{mod_name}"), attr)
            self._patch(original, self._wrap(name, original, hook))
        spectra = sys.modules["qshsim.spectra"]
        eigsh = spectra.spla.eigsh
        self._patches.append((spectra.spla, "eigsh", eigsh))
        spectra.spla.eigsh = self._wrap("spectra.eigsh", eigsh, None)
        table = sys.modules["qshsim.runner"]._TASK_FN
        for task, fn in list(table.items()):
            self._patches.append((table, task, fn))
            table[task] = self._wrap(f"runner.task.{task}", fn, None)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()


def _union_length(intervals) -> float:
    total, end = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    return {
        s.sid: (s.end - s.start)
        - _union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[s.sid]
            if c.end > s.start and c.start < s.end
        )
        for s in spans
    }


def _quantile(values, q: int) -> float:
    """The q-th percentile (q in 1..99), or the single value, or 0."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer_metrics(spans, counts, units: int, threads: int, measured: dict) -> dict:
    """Every PER_LAYER metric, per traced unit of work.

    ``measured`` holds the median traced and untraced unit times and the
    median traced unit's replay time.  Counts and times are totals divided by
    ``units``; the classify_point percentiles and the pool efficiency are
    taken over all samples.
    """
    own = self_times(spans)
    # eigsh only marks the sparse path: its time is eig_hermitian's own time
    sparse = {s.parent for s in spans if s.name == "spectra.eigsh"}
    for s in spans:
        if s.name == "spectra.eigsh":
            own[s.parent] += own[s.sid]
    out = defaultdict(float)
    for s in spans:
        name = s.name
        if name == "spectra.eigsh":
            continue
        if name == "spectra.eig_hermitian":
            name += ".sparse" if s.sid in sparse else ".dense"
        layer = "runner" if name.startswith("config.") else name.split(".")[0]
        out[f"{layer}.self_s"] += own[s.sid]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own[s.sid]
        out[f"{name}.incl_s"] += s.end - s.start
        if name == "topology.classify_point" and s.error:
            kind = s.error if s.error in ERROR_TYPES else "other"
            out[f"topology.errors.{kind}"] += 1
    for name, value in counts.items():
        out[name] += value
    metrics = {name: out.get(name, 0.0) / units for name, _ in PER_LAYER}
    for task in TASKS:
        metrics[f"runner.task.{task}.s"] = out[f"runner.task.{task}.incl_s"] / units
    metrics["runner.sha256_s"] = out["runner.sha256.incl_s"] / units
    metrics["config.normalize.s"] = out["config.normalize.incl_s"] / units
    classify = [s.end - s.start for s in spans if s.name == "topology.classify_point"]
    metrics["topology.classify_point.p50_s"] = _quantile(classify, 50)
    metrics["topology.classify_point.p95_s"] = _quantile(classify, 95)
    pool_wall = out["topology.phase_diagram.incl_s"] * threads
    metrics["topology.pool_efficiency"] = sum(classify) / pool_wall if pool_wall else 0.0
    metrics["runner.replay_s"] = measured["replay"]
    metrics["trace.wall_s"] = measured["traced"]
    metrics["trace.untraced_wall_s"] = measured["untraced"]
    metrics["trace.overhead_s"] = measured["traced"] - measured["untraced"]
    metrics["trace.spans"] = len(spans) / units
    return metrics

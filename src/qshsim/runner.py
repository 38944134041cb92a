"""Task execution, artifact output, caching and the run manifest.

Data files are byte-deterministic: fixed column order, fixed row order and
floats printed with 12 significant digits.  Results are cached under a
SHA-256 of the config hash, the package's source files and the numpy and
scipy versions (QSH_CACHE_DIR overrides the location); a cache hit replays
the stored bytes.  One run at a time per output directory, enforced with an
exclusive ``flock`` on a lock file that the kernel releases when the run
exits.
"""

from __future__ import annotations

import fcntl
import functools
import hashlib
import json
import logging
import os
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import RunConfig
from .errors import QshError
from . import circuit, edgestates, model, spectra, topology

MANIFEST_NAME = "run_manifest.json"
LOCK_NAME = ".qshsim.lock"

log = logging.getLogger("qshsim")


def _csv_column(col) -> tuple:
    """(%-conversion, cells) of one column.

    Floats get 12 significant digits.  A column of text holds str, int and
    None (``nu`` is None on metal rows): None is an empty cell, and every
    other value is written as it is.
    """
    arr = np.asarray(col)
    if arr.dtype.kind == "f":
        return "%.12g", arr.tolist()
    if arr.dtype.kind in "iu":
        return "%d", arr.tolist()
    return "%s", ["" if v is None else v for v in col]


def _json_column(col) -> list:
    """The values of one column: floats to 12 significant digits, None as
    null, every other value as it is."""
    arr = np.asarray(col)
    if arr.dtype.kind == "f":
        return [float("%.12g" % v) for v in arr.tolist()]
    if arr.dtype.kind in "iu":
        return arr.tolist()
    return list(col)


def write_table(path: Path, header, rows, fmt: str) -> bytes:
    """Write one table as CSV or as a JSON record list (both deterministic).

    ``rows`` holds the table by column: one sequence per header field, all
    of one length.  Returns the bytes written.
    """
    if fmt == "csv":
        convs, cells = zip(*map(_csv_column, rows))
        line = ",".join(convs)
        text = "\n".join([",".join(header)] + [line % r for r in zip(*cells)]) + "\n"
    else:
        cells = [_json_column(col) for col in rows]
        records = [dict(zip(header, r)) for r in zip(*cells)]
        text = json.dumps(records, sort_keys=True, indent=1) + "\n"
    data = text.encode("utf-8")
    path.write_bytes(data)
    return data


def _ext(fmt: str) -> str:
    return "csv" if fmt == "csv" else "json"


# ---------------------------------------------------------------------------
# task implementations: each returns {filename: (header, columns)} plus
# metadata, one column per header field
# ---------------------------------------------------------------------------

def _grid_columns(*axes) -> list:
    """The coordinate columns of every point of the grid ``axes``, last fastest."""
    return [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]


def _task_bands(cfg: RunConfig):
    p = cfg.task_params
    bands = spectra.bulk_bands(cfg.model, p["grid"])
    cols = _grid_columns(bands.kx, bands.ky, np.arange(bands.nbands))
    cols.append(bands.energies.ravel())
    report = spectra.gap_in_window(bands, p["window"], p["gap_threshold"])
    meta = {"is_gapped": report.is_gapped, "gap": report.gap, "window": report.window}
    return {"bands": (("kx", "ky", "band_index", "E_t0"), cols)}, meta


def _task_ribbon(cfg: RunConfig):
    ny = cfg.task_params["ny"]
    bands = spectra.ribbon_bands(cfg.model, ny, cfg.task_params["kx_points"])
    kx, b = _grid_columns(bands.kx, np.arange(bands.nbands))
    loc = bands.localization.reshape(-1, 2)
    return {
        "bands": (("kx", "band_index", "E_t0"), [kx, b, bands.energies.ravel()]),
        "localization": (
            ("kx", "band_index", "edge_bottom", "edge_top"), [kx, b, loc[:, 0], loc[:, 1]]
        ),
    }, {"ny": ny}


def _task_phase_diagram(cfg: RunConfig):
    # every task key is a keyword of phase_diagram or classify_point
    pmap = topology.phase_diagram(
        cfg.model.alpha, threads=cfg.threads, **cfg.task_params
    )
    points = [pt for row in pmap.points for pt in row]
    betas, lams = _grid_columns(np.asarray(pmap.beta_grid), np.asarray(pmap.lambda_grid))
    errors = []
    settled = []
    for beta, lam, pt in zip(betas.tolist(), lams.tolist(), points):
        if pt.error:
            errors.append({"beta": beta, "lambda": lam, "error": pt.error})
        if pt.route:
            settled.append({"beta": beta, "lambda": lam, "route": pt.route, "phase": pt.phase})
    meta = {
        "point_errors": errors,
        "bulk_fallback": settled,
        "blas_pinned": pmap.blas_pinned,
    }
    cols = [betas, lams, [pt.phase for pt in points], [pt.nu for pt in points]]
    return {"phase_map": (("beta", "lambda", "phase", "nu"), cols)}, meta


def _task_edge_states(cfg: RunConfig):
    p = cfg.task_params
    e_f, ring = p["e_f"], p["ring_depth"]
    states = edgestates.edge_eigenstates(cfg.model, e_f, p["count"])
    tables = {}
    weights = []
    # sites n-major: n runs over the rows, m along each row
    n, m = _grid_columns(np.arange(1, cfg.model.ny + 1), np.arange(1, cfg.model.nx + 1))
    for idx, (_, vec) in enumerate(states):
        dmap = edgestates.site_density(vec, cfg.model.nx, cfg.model.ny)
        density = dmap.density.T.ravel()
        tables[f"density_{idx:03d}"] = (("m", "n", "density"), [m, n, density])
        weights.append(edgestates.edge_weight(dmap, ring))
    tables["states"] = (
        ("state_index", "E_t0", "edge_weight"),
        [np.arange(len(states)), [energy for energy, _ in states], weights],
    )
    return tables, {"e_f": e_f, "ring_depth": ring}


def _task_tones(cfg: RunConfig):
    p = cfg.task_params
    units = p["units"]
    scale = 1.0 if units == "t0" else p["t0_mhz"]
    plans = circuit.plaquette_plans(cfg.model.alpha, cfg.model.beta)
    tones = [(plan.bond, tone) for plan in plans for tone in plan.tones]
    cols = [
        [f"{b.direction}:{b.from_cell}->{b.to_cell}" for b, _ in tones],
        ["-".join(t.channel) for _, t in tones],
        np.array([t.freq for _, t in tones], dtype=float) * scale,
        np.array([t.amplitude for _, t in tones], dtype=float) * scale,
        np.array([t.phase for _, t in tones], dtype=float),
        np.array([t.sign for _, t in tones], dtype=int),
    ]
    header = (
        "bond",
        "channel",
        f"freq_{units}",
        f"amplitude_{units}",
        "phase_rad",
        "sign",
    )
    min_freq, min_sep = circuit.addressing_margin(plans)
    meta = {
        "units": units,
        "min_tone_freq_t0": float(min_freq),
        "min_per_bond_separation_t0": float(min_sep),
    }
    return {"tones": (header, cols)}, meta


def _task_rwa_check(cfg: RunConfig):
    p = cfg.task_params
    t_final, dt = p["t_final"], p["dt"]
    cells = [circuit.DEVICE_CELLS[0], circuit.DEVICE_CELLS[1]]
    target = model.ModelParams(cfg.model.alpha, cfg.model.beta)
    plan = circuit.tone_plan(
        circuit.Bond(1, 0, "x"), cells, model.x_hop_block(target, 0)
    )
    u_full = circuit.full_evolve(cells, [plan], t_final, dt=dt)
    h_eff = circuit.effective_hamiltonian(cells, [plan])
    u_eff = circuit.effective_propagator(h_eff, t_final)
    fidelity = circuit.rwa_fidelity(u_full, u_eff, cells, t_final)

    detuned = circuit.TonePlan(
        circuit.Bond(1, 0, "x"),
        [circuit.Tone(freq=550.0, amplitude=4.0, phase=0.0, sign=1, channel=("up", "up"))],
    )
    u_det = circuit.full_evolve(cells, [detuned], t_final, dt=dt)
    u_rot = circuit.rotating_frame_propagator(u_det, cells, t_final)
    drift = float(np.max(np.abs(np.abs(np.diag(u_rot)) ** 2 - 1.0)))
    cols = [[t_final], [fidelity], [drift]]
    return {
        "rwa_check": (("T_t0", "fidelity", "detuned_population_change"), cols)
    }, {"fidelity": fidelity, "detuned_population_change": drift}


def _task_lindblad(cfg: RunConfig):
    from . import dynamics  # loads scipy.sparse, which no other task needs

    p = cfg.task_params
    rows_out = dynamics.decay_scan(p["gammas"], params=cfg.model, t_us=p["t_us"])
    cols = [
        np.array([getattr(r, f) for r in rows_out], dtype=float)
        for f in ("gamma_t0", "gamma_khz", "p1", "p2", "p3")
    ]
    meta = {
        "frame": "rotating (static effective Hamiltonian, secular dissipators)",
        "method": "chebyshev",
        "T_t0": dynamics.duration_from_us(p["t_us"]),
        "t_us": p["t_us"],
        "t0_mhz": dynamics.T0_MHZ,
        "diagnostics": [
            {
                "gamma_t0": r.gamma_t0,
                "degree": r.degree,
                "substeps": r.substeps,
                "trace_defect": r.trace_defect,
                "min_eigenvalue": r.min_eigenvalue,
            }
            for r in rows_out
        ],
    }
    return {
        "decay_scan": (("gamma_t0", "gamma_kHz_over_2pi", "P1", "P2", "P3"), cols)
    }, meta


_TASK_FN = {
    "bands": _task_bands,
    "ribbon": _task_ribbon,
    "phase_diagram": _task_phase_diagram,
    "edge_states": _task_edge_states,
    "tones": _task_tones,
    "rwa_check": _task_rwa_check,
    "lindblad": _task_lindblad,
}


def _sha256_file(path: Path) -> tuple:
    """(bytes, SHA-256 hex digest) of a file, read once."""
    data = path.read_bytes()
    return data, hashlib.sha256(data).hexdigest()


@functools.cache
def _source_digest() -> str:
    """SHA-256 of the package's own ``*.py`` files, names and bytes."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.name} {len(data)}\n".encode())
        digest.update(data)
    return digest.hexdigest()


def _cache_dir(cfg: RunConfig) -> Path:
    """The cache entry of ``cfg``: keyed on the config hash, the package's
    source and the numpy and scipy versions, so other code never replays."""
    root = os.environ.get("QSH_CACHE_DIR")
    base = Path(root) if root else Path(cfg.out_dir) / ".cache"
    key = f"{cfg.cache_key()}\n{_source_digest()}\n{np.__version__}\n{scipy.__version__}"
    return base / hashlib.sha256(key.encode()).hexdigest()


def _read_cache(cache: Path):
    """({name: (bytes, sha256)}, meta) of a complete, intact cache entry.

    None when the entry is missing, has no manifest (a run stopped before
    publishing it), has a manifest of the wrong shape (no files, or a name
    that is not a plain file name of the entry), holds a file that cannot be
    read, or holds a file whose hash differs from the one recorded when it
    was published.
    """
    try:
        stored = json.loads((cache / MANIFEST_NAME).read_text())
        digests = stored.get("sha256") if isinstance(stored, dict) else None
        if not isinstance(digests, dict) or not digests or any(
            name in ("", ".", "..") or os.sep in name for name in digests
        ):
            log.warning("cache manifest in %s has the wrong shape; recomputing", cache)
            return None
        files = {}
        for name, digest in sorted(digests.items()):
            files[name] = _sha256_file(cache / name)
            if files[name][1] != digest:
                log.warning("cached %s fails its hash; recomputing", cache / name)
                return None
    except (FileNotFoundError, ValueError, KeyError):
        return None
    except OSError as exc:
        log.warning("cannot read the cache entry %s (%s); recomputing", cache, exc)
        return None
    return files, stored["meta"]


def _publish_cache(cache: Path, files: dict, meta) -> None:
    """Write a cache entry next to its place, then rename it into place.

    A run stopped part way leaves only a temporary directory behind, never a
    partial entry under the cache key.
    """
    cache.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f".{cache.name}.", dir=cache.parent))
    for name, (data, _) in files.items():
        (tmp / name).write_bytes(data)
    (tmp / MANIFEST_NAME).write_text(
        json.dumps(
            {"meta": meta, "sha256": {n: d for n, (_, d) in files.items()}},
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    shutil.rmtree(cache, ignore_errors=True)  # a stale or unreadable entry
    try:
        os.rename(tmp, cache)
    except OSError:  # another run published the same key first
        shutil.rmtree(tmp, ignore_errors=True)


class _Lock:
    """An exclusive ``flock`` on ``<out>/.qshsim.lock`` for the length of a run.

    The kernel releases the lock when its holder closes the file or exits,
    however it exits, so no file contents can block a run.  The empty file
    stays: after an unlink a run holding the old inode and one that opened a
    new file could both hold "the" lock.  Runs on different hosts sharing a
    network file system may not exclude each other.
    """

    def __init__(self, out_dir: Path):
        self.path = out_dir / LOCK_NAME

    def __enter__(self):
        try:
            self.fd = os.open(self.path, os.O_RDONLY | os.O_CREAT, 0o666)
        except OSError as exc:
            raise QshError(
                f"cannot open the lock file {self.path}: {exc.strerror}"
            ) from None
        try:
            fcntl.flock(self.fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(self.fd)
            raise QshError(
                f"output directory is locked by another run: {self.path}"
            ) from None
        return self

    def __exit__(self, *exc):
        os.close(self.fd)
        return False


def run(cfg: RunConfig, force: bool = False) -> dict:
    """Execute the configured task; returns the manifest dict.

    A cache hit replays the stored bytes after checking each against the
    SHA-256 recorded with it; an entry that fails the check is recomputed.
    """
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache = _cache_dir(cfg)
    started = time.perf_counter()

    with _Lock(out_dir):
        hit = None if force else _read_cache(cache)
        cached = hit is not None
        if cached:
            files, meta = hit
            for name, (data, _) in files.items():
                (out_dir / name).write_bytes(data)
        else:
            fn = _TASK_FN[cfg.task]
            tables, meta = fn(cfg)
            files = {}
            for stem, (header, columns) in sorted(tables.items()):
                name = f"{stem}.{_ext(cfg.fmt)}"
                data = write_table(out_dir / name, header, columns, cfg.fmt)
                files[name] = (data, hashlib.sha256(data).hexdigest())

        outputs = [
            {"name": name, "sha256": digest, "bytes": len(data)}
            for name, (data, digest) in files.items()
        ]
        manifest = {
            "task": cfg.task,
            "config_hash": cfg.cache_key(),
            "config": cfg.normalized,
            "cached": cached,
            "versions": {
                "qshsim": __version__,
                "source": _source_digest(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
            "timing_s": round(time.perf_counter() - started, 3),
            "outputs": outputs,
            "meta": meta,
        }
        (out_dir / MANIFEST_NAME).write_text(
            json.dumps(manifest, sort_keys=True, indent=1) + "\n", encoding="utf-8"
        )
        if not cached:
            _publish_cache(cache, files, meta)
    return manifest

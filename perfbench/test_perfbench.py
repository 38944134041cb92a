"""Tests of the benchmark itself: every output check rejects a corrupted
output, the tracer patches imported names and attributes worker spans, and
the declared metrics match what the runs print.  No test runs a workload."""

import itertools
import json
import math
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CODE_PHASE = {code: phase for phase, code in checks.PHASE_CODES.items()}


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def phase_rows(shift=(0, 0)):
    wl = workloads.phase_map(0, shift=shift)
    betas = np.linspace(*wl.inputs["beta_range"], 16).tolist()
    lams = np.linspace(*wl.inputs["lambda_range"], 16).tolist()
    ref = workloads.load_reference(shift)
    rows = [
        {"beta": f"{betas[i]:.12g}", "lambda": f"{lams[j]:.12g}",
         "phase": CODE_PHASE[ref[16 * i + j]],
         "nu": checks.NU_OF_PHASE[CODE_PHASE[ref[16 * i + j]]]}
        for i in range(16) for j in range(16)
    ]
    return rows, betas, lams, ref


def first_index(ref, code):
    return next(i for i, c in enumerate(ref) if c == code)


def test_every_reference_map_passes_the_spot_checks():
    for shift in itertools.product(range(workloads.SHIFT_STEPS), repeat=2):
        rows, betas, lams, ref = phase_rows(shift)
        assert checks.check_phase_map(rows, betas, lams, ref) == (set(), [])


def test_phase_map_rejects_flipped_point():
    rows, betas, lams, ref = phase_rows()
    idx = first_index(ref, "T")
    rows[idx].update(phase="metal", nu="")
    bad, problems = checks.check_phase_map(rows, betas, lams, ref)
    assert idx in bad and problems


def test_phase_map_rejects_wrong_nu_and_off_grid():
    rows, betas, lams, ref = phase_rows()
    rows[first_index(ref, "M")]["nu"] = "1"
    rows[200]["lambda"] = str(float(rows[200]["lambda"]) + 1e-6)
    bad, _ = checks.check_phase_map(rows, betas, lams, ref)
    assert {first_index(ref, "M"), 200} <= bad


def test_phase_map_error_points_are_exempt_but_spot_checks_hold():
    rows, betas, lams, ref = phase_rows()
    rows[100].update(phase="error", nu="")
    assert checks.check_phase_map(rows, betas, lams, ref) == (set(), [])
    # a lowest-beta point at lambda <= 1 turned metal in map and reference
    rows[0].update(phase="metal", nu="")
    ref = "M" + ref[1:]
    bad, problems = checks.check_phase_map(rows, betas, lams, ref)
    assert bad == {0} and "not topological" in problems[0]


def test_phase_map_rejects_missing_rows():
    rows, betas, lams, ref = phase_rows()
    bad, _ = checks.check_phase_map(rows[:-1], betas, lams, ref)
    assert len(bad) == 256


def decay_rows(gammas, t_final):
    return [
        {"gamma_t0": repr(g), "P1": "0.6", "P2": "0.1", "P3": repr(math.exp(-g * t_final))}
        for g in gammas
    ]


def test_decay_scan_checks():
    gammas, t_final = [0.0, 0.001, 0.003], 9.42
    rows = decay_rows(gammas, t_final)
    assert checks.check_decay_scan(rows, gammas, t_final) == (set(), [])

    off = decay_rows(gammas, t_final)
    off[1]["P3"] = repr(float(off[1]["P3"]) * (1 + 2e-3))
    assert checks.check_decay_scan(off, gammas, t_final)[0] == {1}

    inner = decay_rows(gammas, t_final)
    inner[2].update(P1="0.1", P2="0.6")
    assert checks.check_decay_scan(inner, gammas, t_final)[0] == {2}

    flat = [0.002, 0.002 + 1e-7]
    rising = decay_rows(flat, t_final)
    rising[1]["P3"] = repr(float(rising[0]["P3"]) * (1 + 1e-4))
    assert checks.check_decay_scan(rising, flat, t_final)[0] == {1}


def band_rows(energies):
    return [{"E_t0": repr(e)} for e in energies]


def test_bands_check():
    meta = {"is_gapped": True, "gap": [1.2, 1.8]}
    good = band_rows([0.5, 1.1, 2.0, 2.5] * 4)
    assert checks.check_bands(good, meta, (2, 2), 4) == []
    assert checks.check_bands(band_rows([0.5, 1.5, 2.0, 2.5] * 4), meta, (2, 2), 4)
    # a gap edge printed with 12 digits is not a level inside the gap
    edge = band_rows([0.5, 1.1, float(f"{1.8 - 4e-13:.12g}"), 2.5] * 4)
    assert checks.check_bands(edge, {"is_gapped": True, "gap": [1.2, 1.8 - 4e-13]}, (2, 2), 4) == []
    assert checks.check_bands(good, {"is_gapped": False, "gap": None}, (2, 2), 4)
    assert checks.check_bands(good[:-1], meta, (2, 2), 4)


def test_ribbon_check():
    bands = [{"E_t0": "0"}] * 4
    loc = [{"edge_bottom": "0.5", "edge_top": "0.25"}] * 4
    assert checks.check_ribbon(bands, loc, 2, 2) == []
    assert checks.check_ribbon(bands, loc[:3], 2, 2)
    bad = loc[:3] + [{"edge_bottom": "0.9", "edge_top": "0.2"}]
    assert checks.check_ribbon(bands, bad, 2, 2)


def test_edge_state_check():
    density = [{"density": "0.0625"}] * 16
    states = [{"edge_weight": "0.9"}]
    assert checks.check_edge_state(density, states, 4, 4) == []
    assert checks.check_edge_state(density[:-1], states, 4, 4)
    assert checks.check_edge_state(density, [{"edge_weight": "0.3"}], 4, 4)


def test_tones_check():
    meta = {"min_tone_freq_t0": 50.0, "min_per_bond_separation_t0": 100.0}
    assert checks.check_tones([{}] * 12, meta) == []
    assert checks.check_tones([{}] * 11, meta)
    assert checks.check_tones([{}] * 12, {**meta, "min_per_bond_separation_t0": 5.0})


def test_rwa_check():
    assert checks.check_rwa([{"fidelity": "0.999", "detuned_population_change": "0.001"}]) == []
    assert checks.check_rwa([{"fidelity": "0.98", "detuned_population_change": "0.001"}])
    assert checks.check_rwa([{"fidelity": "0.999", "detuned_population_change": "0.02"}])


def test_replay_check():
    cold = {"a.csv": "00", "b.csv": "11"}
    assert checks.check_replay(cold, dict(cold), True) == []
    assert checks.check_replay(cold, {"a.csv": "00", "b.csv": "12"}, True)
    assert checks.check_replay(cold, {"a.csv": "00"}, True)
    assert checks.check_replay(cold, dict(cold), False)


def test_self_time_subtracts_union_of_children():
    Span = tracing.Span
    spans = [
        Span(1, None, "p", 0.0, 10.0, 1, None),
        Span(2, 1, "c", 1.0, 4.0, 2, None),
        Span(3, 1, "c", 3.0, 6.0, 3, None),
        Span(4, 3, "g", 3.5, 4.5, 3, None),
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(5.0)
    assert own[3] == pytest.approx(2.0)


def test_worker_spans_take_the_pool_caller_as_parent():
    tracer = tracing.Tracer()
    leaf = tracer._wrap("leaf", lambda x: threading.get_ident(), None)

    def start_pool():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, range(4)))

    tracer._wrap("caller", start_pool, None)()
    caller = next(s for s in tracer.spans if s.name == "caller")
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 4 and all(s.parent == caller.sid for s in leaves)


def test_install_patches_imported_names_and_restores_them():
    from qshsim import edgestates, model, spectra, topology

    original = topology.bulk_gap_at
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert edgestates.bulk_gap_at is topology.bulk_gap_at is not original
        spectra.bulk_bands(model.ModelParams(alpha="1/3"), (16, 16))
    finally:
        tracer.uninstall()
    assert edgestates.bulk_gap_at is topology.bulk_gap_at is original
    names = {s.name: s for s in tracer.spans}
    assert names["model.bloch_stack"].parent == names["spectra.bulk_bands"].sid
    assert tracer.counts["spectra.matrices"] == 16 * 16
    metrics = tracing.per_layer_metrics(
        tracer.spans, tracer.counts, 1, 1, {"traced": 1.0, "untraced": 1.0, "replay": 0.001}
    )
    assert set(metrics) == {name for name, _ in tracing.PER_LAYER}
    assert metrics["spectra.bulk_bands.calls"] == 1


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "task-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0 and out.stdout == ""

"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines and runtimes.
"""

import hashlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from qshsim.circuit import (
    DEVICE_CELLS,
    Bond,
    Tone,
    TonePlan,
    addressing_margin,
    effective_hamiltonian,
    effective_propagator,
    full_evolve,
    plaquette_plans,
    rotating_frame_propagator,
    rwa_fidelity,
    tone_plan,
)
from qshsim.config import normalize
from qshsim.dynamics import decay_scan, duration_from_us
from qshsim.edgestates import edge_eigenstates, edge_weight, site_density
from qshsim.model import (
    SPIN_DOWN,
    SPIN_UP,
    ModelParams,
    apply_time_reversal,
    time_reversal_check,
    x_hop_block,
)
from qshsim.runner import run
from qshsim.topology import (
    PHASE_METAL,
    PHASE_TOPOLOGICAL,
    chern_fhs,
    classify_point,
    hofstadter_band_groups,
    spin_chern,
    z2_invariant,
)

A13 = Fraction(1, 3)


class criterion:
    """Times a criterion block and prints one PASS/FAIL line."""

    def __init__(self, label):
        self.label = label

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[{self.label}] {verdict} ({elapsed:.1f}s)")
        return False


def test_criterion_1_time_reversal_suite():
    with criterion("criterion 1: time-reversal suite") as c:
        rng = np.random.default_rng(2026)
        for _ in range(20):
            beta = float(rng.uniform(0.0, 0.5))
            lam = float(rng.uniform(0.0, 2.0))
            p = ModelParams(alpha=A13, beta=beta, lam=lam, nx=6, ny=6)
            assert time_reversal_check(p, "open") < 1e-12
            assert time_reversal_check(p, "bloch", 16) < 1e-12
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        assert np.allclose(apply_time_reversal(apply_time_reversal(v)), -v)
        assert time.time() - c.start < 10.0


def test_criterion_2_chern_oracle():
    with criterion("criterion 2: flux-lattice Chern oracle") as c:
        p = ModelParams(alpha=A13)
        groups = hofstadter_band_groups(p)
        for grid in ((24, 24), (48, 48)):
            up = [chern_fhs(p, g, grid, spin=SPIN_UP) for g in groups]
            dn = [chern_fhs(p, g, grid, spin=SPIN_DOWN) for g in groups]
            assert up == [1, -2, 1]
            assert dn == [-1, 2, -1]
        assert time.time() - c.start < 30.0


def test_criterion_3_reference_phase_points():
    with criterion("criterion 3: reference phase points") as c:
        window = (1.0, 2.0)
        for beta, lam, expected, nu in (
            (0.0, 0.0, PHASE_TOPOLOGICAL, 1),
            (0.0, 1.0, PHASE_TOPOLOGICAL, 1),
            (0.1, 1.0, PHASE_METAL, None),
        ):
            t0 = time.time()
            pt = classify_point(
                ModelParams(alpha=A13, beta=beta, lam=lam), window
            )
            assert pt.phase == expected
            assert pt.nu == nu
            assert time.time() - t0 < 60.0


def test_criterion_4_z2_spin_chern_consistency():
    with criterion("criterion 4: Z2 / spin-Chern consistency sweep") as c:
        for lam in np.linspace(0.0, 1.0, 9):
            p = ModelParams(alpha=A13, lam=float(lam))
            nu = z2_invariant(p, 1.5)
            c_up, c_down = spin_chern(p, 1.5)
            assert c_up == -c_down
            assert nu == abs(c_up) % 2
            assert nu == 1  # no transition along the beta = 0 line
        assert time.time() - c.start < 300.0


def test_criterion_5a_edge_localization():
    with criterion("criterion 5a: edge localization (ring depth 2 >= 0.6)") as c:
        for nx in (6, 42):
            t0 = time.time()
            p = ModelParams(alpha=A13, nx=nx, ny=nx)
            energy, state = edge_eigenstates(p, 1.5, count=1)[0]
            w = edge_weight(site_density(state, nx, nx), 2)
            assert w >= 0.6
            assert time.time() - t0 < 60.0  # interior-solver budget


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated threshold is geometrically unattainable: on a 6x6 lattice the "
        "depth-2 ring covers 32 of 36 sites, so every window state at the "
        "metallic point keeps ring-2 weight >= 0.86 (uniform density scores "
        "0.889) while the topological midgap state reaches 0.99 - the gap is "
        "~0.03, never >= 0.25. Ring depth 1 does separate the phases (0.93 vs "
        "0.73); see tests/test_edgestates.py."
    ),
)
def test_criterion_5b_ring2_discrimination_on_6x6():
    with criterion("criterion 5b: 6x6 ring-2 discrimination >= 0.25") as c:
        topo = ModelParams(alpha=A13, nx=6, ny=6)
        metal = ModelParams(alpha=A13, beta=0.1, lam=1.0, nx=6, ny=6)
        _, v_t = edge_eigenstates(topo, 1.5, count=1)[0]
        _, v_m = edge_eigenstates(metal, 1.5, count=1)[0]
        w_t = edge_weight(site_density(v_t, 6, 6), 2)
        w_m = edge_weight(site_density(v_m, 6, 6), 2)
        assert w_t - w_m >= 0.25


def test_criterion_6_addressing_margins():
    with criterion("criterion 6: addressing margins") as c:
        plans = plaquette_plans(A13, 0.1)
        min_freq, min_sep = addressing_margin(plans)
        assert min_freq == 50 and isinstance(min_freq, int)
        assert min_sep == 100 and isinstance(min_sep, int)
        assert min_freq >= 20 and min_sep >= 20
        assert time.time() - c.start < 1.0


def test_criterion_7_rwa_validation():
    with criterion("criterion 7: rotating-wave validation") as c:
        cells = [DEVICE_CELLS[0], DEVICE_CELLS[1]]
        plan = tone_plan(Bond(1, 0, "x"), cells, x_hop_block(ModelParams(A13), 0))
        T = math.pi / 2.0
        u_full = full_evolve(cells, [plan], T)
        u_eff = effective_propagator(effective_hamiltonian(cells, [plan]), T)
        assert rwa_fidelity(u_full, u_eff, cells, T) >= 0.99

        detuned = TonePlan(
            Bond(1, 0, "x"),
            [Tone(freq=550.0, amplitude=4.0, phase=0.0, sign=1, channel=("up", "up"))],
        )
        u_det = full_evolve(cells, [detuned], T)
        u_rot = rotating_frame_propagator(u_det, cells, T)
        assert np.max(np.abs(np.abs(np.diag(u_rot)) ** 2 - 1.0)) < 0.01
        assert time.time() - c.start < 120.0


def test_criterion_8_lindblad_decay_law():
    with criterion("criterion 8: detection-protocol decay law") as c:
        gammas = [0.0, 1.0 / 600.0, 1.0 / 300.0]
        rows = decay_scan(gammas)
        T = duration_from_us(2.0)
        p3s = []
        for row in rows:
            expected = math.exp(-row.gamma_t0 * T)
            assert abs(row.p3 - expected) <= 1e-3 * expected
            assert row.p1 > row.p2  # edge-dominated transport
            p3s.append(row.p3)
        assert all(a >= b for a, b in zip(p3s, p3s[1:]))
        # rates in physical units: 0, 5 kHz, 10 kHz over 2*pi
        assert [round(r.gamma_khz, 6) for r in rows] == [0.0, 5.0, 10.0]
        # budget stated for a 10-point scan; scale the 3-point share
        assert time.time() - c.start < 300.0 * 0.5


def test_criterion_9_byte_determinism(tmp_path, monkeypatch):
    with criterion("criterion 9: byte-determinism of outputs") as c:
        digests = []
        for tag in ("a", "b"):
            # separate cache roots force genuine recomputation
            monkeypatch.setenv("QSH_CACHE_DIR", str(tmp_path / f"cache_{tag}"))
            cfg = normalize({"alpha": "1/3", "task": "bands", "grid": [24, 24]})
            cfg.out_dir = str(tmp_path / f"out_{tag}")
            run(cfg)
            digests.append(
                hashlib.sha256(
                    (tmp_path / f"out_{tag}" / "bands.csv").read_bytes()
                ).hexdigest()
            )
        assert digests[0] == digests[1]

        # cached replay also reproduces the bytes
        cfg = normalize({"alpha": "1/3", "task": "bands", "grid": [24, 24]})
        cfg.out_dir = str(tmp_path / "out_c")
        manifest = run(cfg)
        assert manifest["cached"]
        digest = hashlib.sha256(
            (tmp_path / "out_c" / "bands.csv").read_bytes()
        ).hexdigest()
        assert digest == digests[0]

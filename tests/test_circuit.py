"""Drive-tone planning, waveform synthesis and rotating-wave validation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qshsim import circuit
from qshsim.circuit import (
    DEVICE_CELLS,
    Bond,
    CellParams,
    Tone,
    TonePlan,
    addressing_margin,
    dressed_energies,
    dressed_transform,
    effective_hamiltonian,
    effective_propagator,
    free_hamiltonian,
    full_evolve,
    plan_effective_block,
    plaquette_plans,
    rotating_frame_propagator,
    rwa_fidelity,
    tone_plan,
    waveform,
    _bond_operator,
    _propagate,
)
from qshsim.errors import DegeneracyError, ParameterError, StepSizeError
from qshsim.model import ModelParams, x_hop_block, y_hop_block

A13 = Fraction(1, 3)
TWO_CELLS = [DEVICE_CELLS[0], DEVICE_CELLS[1]]


def x_target(alpha, n):
    return x_hop_block(ModelParams(alpha), n)


def y_target(beta):
    return y_hop_block(ModelParams(A13, beta))


def sublattice_of(m: int, n: int) -> int:
    """Four-color sublattice id of site (m, n): 1,2 alternate along x; 3,4 above."""
    return 1 + (m % 2) + 2 * (n % 2)


def test_dressed_energies_device_values():
    d1 = dressed_energies(DEVICE_CELLS[0])
    assert (d1.e_up, d1.e_down) == (2950, 2450)
    d4 = dressed_energies(DEVICE_CELLS[3])
    assert (d4.e_up, d4.e_down) == (3100, 2700)
    tiny = dressed_energies(CellParams(omega=2700, g=1e-9))
    assert math.isclose(tiny.e_up, tiny.e_down, rel_tol=1e-9)


def test_cell_validation():
    with pytest.raises(ParameterError):
        CellParams(omega=100, g=50)  # omega/g < 5
    with pytest.raises(ParameterError):
        CellParams(omega=100, g=0)


def test_sublattice_layout():
    assert [sublattice_of(m, n) for n in (0, 1) for m in (0, 1)] == [1, 2, 3, 4]


def test_tone_plan_x_bond():
    plan = tone_plan(Bond(1, 0, "x"), DEVICE_CELLS, x_target(A13, 1))
    channels = {t.channel: t for t in plan.tones}
    assert set(channels) == {("up", "up"), ("down", "down")}
    uu = channels[("up", "up")]
    assert uu.freq == 200  # |2950 - 3150|
    assert uu.sign == 1  # E_up rises from cell index 0 to cell index 1
    # the flux phase 2*pi*alpha*n is recoverable from the stored waveform phase
    assert math.isclose((math.pi - uu.phase) % (2 * math.pi), 2 * math.pi / 3)
    dd = channels[("down", "down")]
    assert math.isclose((math.pi - dd.phase) % (2 * math.pi), 2 * math.pi - 2 * math.pi / 3)
    assert all(math.isclose(t.amplitude, 4.0) for t in plan.tones)


def test_tone_plan_y_bond_no_mixing():
    plan = tone_plan(Bond(2, 0, "y"), DEVICE_CELLS, y_target(0.0))
    assert len(plan.tones) == 2  # spin-flip channels vanish at beta = 0
    assert {t.channel for t in plan.tones} == {("up", "up"), ("down", "down")}
    for t in plan.tones:
        assert math.isclose(abs(t.phase), math.pi)  # the -t0 sign


def test_tone_plan_y_bond_with_mixing():
    plan = tone_plan(Bond(2, 0, "y"), DEVICE_CELLS, y_target(0.1))
    freqs = sorted(t.freq for t in plan.tones)
    assert freqs == [50, 150, 350, 450]
    for t in plan.tones:
        if t.channel[0] == t.channel[1]:
            assert math.isclose(t.amplitude, 4.0 * math.cos(0.2 * math.pi))
            assert math.isclose(abs(t.phase), math.pi)
        else:
            assert math.isclose(t.amplitude, 4.0 * math.sin(0.2 * math.pi))
            # -pi/2 is pi/2 + pi modulo 2*pi
            assert math.isclose(t.phase, -math.pi / 2.0)


def test_tone_plan_round_trip_exact():
    for target in (x_target(A13, 2), y_target(0.1), y_target(0.0)):
        plan = tone_plan(Bond(2, 0, "y"), DEVICE_CELLS, target)
        assert np.allclose(plan_effective_block(plan), target, atol=1e-14)


@settings(max_examples=20, deadline=None)
@given(
    re=st.lists(st.floats(-0.9, 0.9), min_size=4, max_size=4),
    im=st.lists(st.floats(-0.9, 0.9), min_size=4, max_size=4),
)
def test_tone_plan_round_trip_random_targets(re, im):
    target = (np.array(re) + 1j * np.array(im)).reshape(2, 2)
    target[np.abs(target) > 1.0] = 0.5
    plan = tone_plan(Bond(2, 0, "y"), DEVICE_CELLS, target)
    built = plan_effective_block(plan)
    mask = np.abs(target) >= 1e-12
    assert np.allclose(built[mask], target[mask], atol=1e-12)
    assert np.all(built[~mask] == 0)


def test_tone_plan_collision_and_regime_errors():
    same = [CellParams(omega=2700, g=250), CellParams(omega=2700, g=250)]
    with pytest.raises(DegeneracyError):
        tone_plan(Bond(1, 0, "x"), same, y_target(0.1))
    with pytest.raises(ParameterError):
        tone_plan(Bond(1, 0, "x"), DEVICE_CELLS, -1.5 * np.eye(2))


def test_plaquette_tones_periodic_in_flux_period():
    # the flux phase 2*pi*alpha*n has period q in n: rows n and n + q carry
    # the same x hop blocks, so their tone plans are identical to the bit
    for alpha, beta in [(A13, 0.1), (Fraction(2, 5), 0.0), (Fraction(3, 7), 0.2)]:
        target = ModelParams(alpha, beta)
        q = Fraction(alpha).denominator
        for n in range(4):
            a, b = (
                tone_plan(Bond(1, 0, "x"), DEVICE_CELLS, x_hop_block(target, row))
                for row in (n, n + q)
            )
            assert repr(a.tones) == repr(b.tones)


def test_addressing_margin_device_plaquette():
    plans = plaquette_plans(A13, 0.1)
    min_freq, min_sep = addressing_margin(plans)
    assert min_freq == 50 and isinstance(min_freq, int)
    assert min_sep == 100 and isinstance(min_sep, int)
    assert min_freq >= 20 and min_sep >= 20  # selective-addressing criterion


def test_addressing_margin_degenerate_bond_reported():
    plan = TonePlan(
        Bond(1, 0, "y"),
        [
            Tone(freq=500, amplitude=4.0, phase=0.0, sign=1, channel=("up", "down")),
            Tone(freq=500, amplitude=4.0, phase=0.0, sign=-1, channel=("down", "up")),
        ],
    )
    assert addressing_margin([plan]) == (500, 0)
    with pytest.raises(ParameterError):
        addressing_margin([])


def test_waveform_values():
    tones = [Tone(10.0 * (i + 1), 4.0, 0.0, 1, ("up", "up")) for i in range(4)]
    plan = TonePlan(Bond(1, 0, "x"), tones)
    assert math.isclose(waveform(plan, 0.0), 16.0)

    single = TonePlan(
        Bond(1, 0, "x"), [Tone(200.0, 4.0, 0.3, 1, ("up", "up"))]
    )
    period = 2 * math.pi / 200.0
    ts = np.linspace(0.0, 5 * period, 7)
    assert np.allclose(waveform(single, ts), waveform(single, ts + period), atol=1e-9)

    ts = np.linspace(0.0, 50.0, 200001)
    assert abs(np.mean(waveform(single, ts))) < 1e-3


def test_full_evolve_free_case():
    cells = TWO_CELLS
    t = 0.37
    u = full_evolve(cells, [], t, dt=0.01)
    expected = np.zeros((5, 5), dtype=complex)
    expected[0, 0] = 1.0
    h0 = free_hamiltonian(cells)
    vals, vecs = np.linalg.eigh(h0)
    expected = (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T
    assert np.allclose(u, expected, atol=1e-8)


def test_full_evolve_unitary_and_excitation_conserving():
    plan = tone_plan(Bond(1, 0, "x"), TWO_CELLS, x_target(A13, 0))
    u = full_evolve(TWO_CELLS, [plan], math.pi / 2.0, dt=None)
    assert np.max(np.abs(u.conj().T @ u - np.eye(5))) < 1e-8
    assert np.max(np.abs(u[0, 1:])) < 1e-10  # vacuum block decoupled
    assert np.max(np.abs(u[1:, 0])) < 1e-10


def test_full_evolve_rabi_transfer():
    # resonant tones on one x bond swap the dressed excitation in T = pi/(2 t)
    plan = tone_plan(Bond(1, 0, "x"), TWO_CELLS, x_target(A13, 0))
    T = math.pi / 2.0
    u = full_evolve(TWO_CELLS, [plan], T, dt=None)
    u_rot = rotating_frame_propagator(u, TWO_CELLS, T)
    assert abs(u_rot[2, 0]) ** 2 > 0.995  # |up>_0 -> |up>_1
    assert abs(u_rot[3, 1]) ** 2 > 0.995  # |down>_0 -> |down>_1


def test_full_evolve_step_guards(monkeypatch):
    plan = tone_plan(Bond(1, 0, "x"), TWO_CELLS, x_target(A13, 0))
    with pytest.raises(ParameterError):
        full_evolve(TWO_CELLS, [plan], 0.5, dt=0.01)  # above the 1/40 bound
    monkeypatch.setattr(circuit, "STEP_CHECK_TOL", 1e-12)
    with pytest.raises(StepSizeError):
        full_evolve(TWO_CELLS, [plan], 0.5, dt=None)
    with pytest.raises(ParameterError):
        full_evolve([DEVICE_CELLS[0]], [], 0.1, dt=None)


@pytest.mark.parametrize(
    "t_final, dt",
    [
        (0.5, 0.0),
        (0.0, 0.0),
        (0.5, -0.1),
        (0.5, math.nan),
        (0.5, math.inf),
        (math.nan, None),
        (math.inf, None),
        (-0.5, None),
    ],
)
def test_full_evolve_rejects_bad_times(t_final, dt):
    plan = tone_plan(Bond(1, 0, "x"), TWO_CELLS, x_target(A13, 0))
    for plans in ([plan], []):
        with pytest.raises(ParameterError, match="finite"):
            full_evolve(TWO_CELLS, plans, t_final, dt=dt)


def test_full_evolve_zero_duration_is_identity():
    plan = tone_plan(Bond(1, 0, "x"), TWO_CELLS, x_target(A13, 0))
    eye = np.eye(free_hamiltonian(TWO_CELLS).shape[0])
    for plans, dt in (([plan], None), ([], None), ([], 0.01)):
        assert np.array_equal(full_evolve(TWO_CELLS, plans, 0.0, dt=dt), eye)


def test_effective_coupling_matches_rabi_period():
    # amplitude convention: one tone of amplitude 4t realizes coupling t;
    # measured via the transfer population at a fixed evolution time
    t_target = 0.5
    plan = tone_plan(Bond(1, 0, "x"), TWO_CELLS, -t_target * np.eye(2))
    T = 1.0
    u = full_evolve(TWO_CELLS, [plan], T, dt=None)
    u_rot = rotating_frame_propagator(u, TWO_CELLS, T)
    p = abs(u_rot[2, 0]) ** 2
    t_measured = math.asin(min(1.0, math.sqrt(p))) / T
    assert abs(t_measured - t_target) / t_target < 0.02


def test_rwa_fidelity_two_cell():
    plan = tone_plan(Bond(1, 0, "x"), TWO_CELLS, x_target(A13, 0))
    T = math.pi / 2.0
    u_full = full_evolve(TWO_CELLS, [plan], T, dt=None)
    u_eff = effective_propagator(effective_hamiltonian(TWO_CELLS, [plan]), T)
    assert rwa_fidelity(u_full, u_eff, TWO_CELLS, T) >= 0.99


def test_rwa_fidelity_identity_at_zero_time():
    plan = tone_plan(Bond(1, 0, "x"), TWO_CELLS, x_target(A13, 0))
    u_full = full_evolve(TWO_CELLS, [plan], 0.0, dt=None)
    u_eff = effective_propagator(effective_hamiltonian(TWO_CELLS, [plan]), 0.0)
    assert rwa_fidelity(u_full, u_eff, TWO_CELLS, 0.0) > 1 - 1e-12


def test_rwa_fidelity_dimension_guard():
    plan = tone_plan(Bond(1, 0, "x"), TWO_CELLS, x_target(A13, 0))
    u_full = full_evolve(TWO_CELLS, [plan], 0.1, dt=None)
    with pytest.raises(ParameterError):
        rwa_fidelity(u_full, np.eye(6), TWO_CELLS, 0.1)


def test_detuned_drive_leaves_populations_unchanged():
    # a tone 150 away from every transition of the bond barely moves anything
    detuned = TonePlan(
        Bond(1, 0, "x"),
        [Tone(freq=550.0, amplitude=4.0, phase=0.0, sign=1, channel=("up", "up"))],
    )
    T = math.pi / 2.0
    u = full_evolve(TWO_CELLS, [detuned], T, dt=None)
    u_rot = rotating_frame_propagator(u, TWO_CELLS, T)
    drift = np.max(np.abs(np.abs(np.diag(u_rot)) ** 2 - 1.0))
    assert drift < 0.01


def test_four_cell_plaquette_evolution():
    plans = plaquette_plans(A13, 0.1)
    T = 0.4
    u = full_evolve(DEVICE_CELLS, plans, T, dt=None)
    dim = 1 + 2 * 4
    assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-8
    assert np.max(np.abs(u[0, 1:])) < 1e-10
    u_eff = effective_propagator(effective_hamiltonian(DEVICE_CELLS, plans), T)
    assert rwa_fidelity(u, u_eff, DEVICE_CELLS, T) >= 0.99


def test_dressed_transform_is_orthogonal():
    w = dressed_transform(3)
    assert np.allclose(w.T @ w, np.eye(7), atol=1e-14)


def _propagate_step_loop(cells, plans, t_final, dt):
    """Reference CF4 propagator: one step at a time, two ``eigh`` per step."""
    c1, c2 = 0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0
    a1, a2 = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0, (3.0 + 2.0 * math.sqrt(3.0)) / 12.0
    h0 = free_hamiltonian(cells)
    bonds = [_bond_operator(len(cells), plan.bond) for plan in plans]

    def h_at(t):
        h = h0.astype(complex)
        for op, plan in zip(bonds, plans):
            j = 0.0
            for tone in plan.tones:
                j += tone.amplitude * math.cos(tone.freq * t + tone.sign * tone.phase)
            h += j * op
        return h

    def expm(h, scale):
        vals, vecs = np.linalg.eigh(h)
        return (vecs * np.exp(-1j * scale * vals)) @ vecs.conj().T

    steps = max(1, int(math.ceil(t_final / dt)))
    step = t_final / steps
    u = np.eye(h0.shape[0], dtype=complex)
    for k in range(steps):
        t = k * step
        h1, h2 = h_at(t + c1 * step), h_at(t + c2 * step)
        u = expm(a1 * h1 + a2 * h2, step) @ expm(a2 * h1 + a1 * h2, step) @ u
    return u


def _fine_dt(plans):
    """The dt/2 pass of full_evolve's default step for these plans."""
    max_freq = max(tone.freq for plan in plans for tone in plan.tones)
    return (2.0 * math.pi / max_freq) / 80.0


RWA_PLAN = [tone_plan(Bond(1, 0, "x"), TWO_CELLS, x_target(A13, 0))]
DETUNED_PLAN = [
    TonePlan(Bond(1, 0, "x"), [Tone(550.0, 4.0, 0.0, 1, ("up", "up"))])
]
PLAQUETTE_PLANS = plaquette_plans(A13, 0.1)
#: a tone off the whole-number grid: the drive has no exact common period
OFF_GRID_PLAN = [
    TonePlan(Bond(1, 0, "x"), [Tone(550.5, 4.0, 0.0, 1, ("up", "up"))])
]


@pytest.mark.parametrize(
    "cells, plans, t_final, dt",
    [
        # the rwa_check task: resonant x-bond tones and the 550 t0 detuned tone
        (TWO_CELLS, RWA_PLAN, math.pi / 2.0, _fine_dt(RWA_PLAN)),
        (TWO_CELLS, DETUNED_PLAN, math.pi / 2.0, _fine_dt(DETUNED_PLAN)),
        (DEVICE_CELLS, PLAQUETTE_PLANS, 0.4, _fine_dt(PLAQUETTE_PLANS)),
        # an odd step count past a chunk boundary leaves odd reduction passes
        (TWO_CELLS, RWA_PLAN, (circuit.CF4_CHUNK + 7) * 1e-4, 1e-4),
        (DEVICE_CELLS, PLAQUETTE_PLANS, 3e-4, 3e-4),  # a single step
        (TWO_CELLS, [], 0.37, 0.01),
    ],
    ids=["rwa", "detuned", "plaquette", "odd-steps", "one-step", "free"],
)
def test_batched_propagator_matches_step_loop(cells, plans, t_final, dt):
    u = _propagate(cells, plans, t_final, dt)
    reference = _propagate_step_loop(cells, plans, t_final, dt)
    assert u.shape == reference.shape
    assert np.max(np.abs(u - reference)) <= 1e-12


def test_drive_period_from_whole_number_frequencies():
    assert circuit._drive_period(RWA_PLAN) == 2 * math.pi / 200  # tones 200, 400
    assert circuit._drive_period(DETUNED_PLAN) == 2 * math.pi / 550
    assert circuit._drive_period(PLAQUETTE_PLANS) == 2 * math.pi / 50
    assert circuit._drive_period(OFF_GRID_PLAN) is None
    assert circuit._drive_period([]) is None
    static = [TonePlan(Bond(1, 0, "x"), [Tone(0, 4.0, 0.0, 1, ("up", "up"))])]
    assert circuit._drive_period(static) is None  # gcd 0: no period to compose


#: largest max-norm difference accepted between a composed propagator and
#: the whole interval stepped at the same dt
COMPOSED_TOL = 1e-11


@pytest.mark.parametrize(
    "cells, plans, t_final",
    [
        (TWO_CELLS, RWA_PLAN, math.pi / 2.0),  # N = 49 and tau just under T
        (TWO_CELLS, DETUNED_PLAN, math.pi / 2.0),  # N = 137 and tau = T / 2
        (DEVICE_CELLS, PLAQUETTE_PLANS, 0.4),
    ],
    ids=["rwa", "detuned", "plaquette"],
)
def test_composed_propagator_matches_whole_interval(cells, plans, t_final):
    u = full_evolve(cells, plans, t_final, dt=None)
    reference = _propagate(cells, plans, t_final, _fine_dt(plans))
    assert np.max(np.abs(u - reference)) <= COMPOSED_TOL


def _record_intervals(monkeypatch):
    """Wrap circuit._propagate; the returned list collects each t_final."""
    calls = []
    propagate = circuit._propagate

    def recording(cells, plans, t_final, dt):
        calls.append(t_final)
        return propagate(cells, plans, t_final, dt)

    monkeypatch.setattr(circuit, "_propagate", recording)
    return calls


@pytest.mark.parametrize(
    "periods, extra, stepped",
    [
        (3, 0.0, "period"),  # tau = 0: no remainder pass
        (3, 1e-9, "period+tau"),  # N*T just below t_final
        (0, 0.5, "whole"),  # t_final < T
    ],
    ids=["tau-zero", "tau-tiny", "below-one-period"],
)
def test_composition_edge_cases(monkeypatch, periods, extra, stepped):
    period = circuit._drive_period(RWA_PLAN)
    t_final = periods * period + extra * period
    calls = _record_intervals(monkeypatch)
    u = full_evolve(TWO_CELLS, RWA_PLAN, t_final, dt=None)
    expected = {
        "period": [period],
        "period+tau": [period, t_final - periods * period],
        "whole": [t_final],
    }[stepped]
    assert calls == expected * 2  # the dt pass, then the dt/2 pass
    reference = _propagate(TWO_CELLS, RWA_PLAN, t_final, _fine_dt(RWA_PLAN))
    assert np.max(np.abs(u - reference)) <= COMPOSED_TOL
    if stepped == "whole":
        assert np.array_equal(u, reference)


def test_aperiodic_drive_steps_the_whole_interval(monkeypatch):
    t_final = math.pi / 2.0
    calls = _record_intervals(monkeypatch)
    u = full_evolve(TWO_CELLS, OFF_GRID_PLAN, t_final, dt=None)
    assert calls == [t_final, t_final]
    reference = _propagate(TWO_CELLS, OFF_GRID_PLAN, t_final, _fine_dt(OFF_GRID_PLAN))
    assert np.array_equal(u, reference)


def test_step_check_compares_whole_interval(monkeypatch):
    # the dt and dt/2 defect of the resonant plan over pi/2 is about 50 times
    # its one-period defect; the check must see the whole-interval value
    t_final = math.pi / 2.0
    dt = 2.0 * _fine_dt(RWA_PLAN)
    period = circuit._drive_period(RWA_PLAN)
    defect = np.max(np.abs(
        _propagate(TWO_CELLS, RWA_PLAN, t_final, dt)
        - _propagate(TWO_CELLS, RWA_PLAN, t_final, dt / 2.0)
    ))
    one_period = np.max(np.abs(
        _propagate(TWO_CELLS, RWA_PLAN, period, dt)
        - _propagate(TWO_CELLS, RWA_PLAN, period, dt / 2.0)
    ))
    assert one_period < defect / 10.0
    monkeypatch.setattr(circuit, "STEP_CHECK_TOL", defect / 2.0)
    with pytest.raises(StepSizeError):
        full_evolve(TWO_CELLS, RWA_PLAN, t_final, dt=None)
    monkeypatch.setattr(circuit, "STEP_CHECK_TOL", defect * 2.0)
    full_evolve(TWO_CELLS, RWA_PLAN, t_final, dt=None)


def test_user_step_at_the_resolution_bound():
    bound = 2.0 * _fine_dt(RWA_PLAN)  # 1/40 of the fastest tone period
    t_final = math.pi / 2.0
    u = full_evolve(TWO_CELLS, RWA_PLAN, t_final, dt=bound * (1 - 1e-9))
    assert np.max(np.abs(u.conj().T @ u - np.eye(5))) < 1e-12
    with pytest.raises(ParameterError, match="resolution bound"):
        full_evolve(TWO_CELLS, RWA_PLAN, t_final, dt=bound * (1 + 1e-9))

"""Dressed-state cells, drive-tone planning and rotating-wave validation.

Each lattice cell is a resonator-qubit pair; its single-excitation eigenstates
|up> = (|0e> + |1g>)/sqrt(2) and |down> = (|0e> - |1g>)/sqrt(2) at energies
omega +/- g serve as the pseudo-spin.  A time-dependent photon coupling
J(t) = sum_tones A*cos(w*t + s*phi) between neighboring cells, with one tone
per spin channel resonant with the corresponding dressed transition, realizes
an effective static hopping matrix between the pseudo-spins.

Tone bookkeeping.  The photon hop operator has dressed matrix elements
sigma_eta*sigma_eta'/2 with sigma_up=+1, sigma_down=-1, and the resonant part
of A*cos(w*t + s*phi) contributes (A/4)*exp(-i*phi) to the channel, so a tone
realizes the effective element

    t_eff = (A/4) * sigma_eta * sigma_eta' * exp(-i*phi).

``tone_plan`` inverts this: A = 4*|target|, phi = -arg(target), plus pi on
spin-flip channels to cancel the sign of the |down> photon component.  The
stored phase is therefore exactly the waveform phase of Eq. J(t) above; the
round trip tone -> effective element is exact.

Full evolution.  :func:`full_evolve` steps the lab-frame Schroedinger
equation with a commutator-free 4th-order integrator.  When every tone
frequency is a whole number the drive is periodic with T = 2*pi/gcd, so the
propagator over one period is stepped once and raised to a power, and only
the remainder past the last whole period is stepped on its own.

Energies and frequencies are in units of t0 throughout; exports can convert
with t0/(2*pi) = 3 MHz.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DegeneracyError, ParameterError, StepSizeError
from .model import ModelParams, x_hop_block, y_hop_block

SPIN_LABELS = ("up", "down")
#: +1 for the |up>, -1 for the |down> photon component <0g|a|eta>
SPIN_PHOTON_SIGN = {"up": 1.0, "down": -1.0}

#: t0 / (2 pi) of the reference device, MHz
T0_MHZ = 3.0


@dataclass(frozen=True)
class CellParams:
    """One resonator-qubit cell: bare frequency and coupling in units of t0."""

    omega: float
    g: float

    def __post_init__(self):
        if self.g <= 0:
            raise ParameterError("cell coupling g must be positive")
        if self.omega / self.g < 5:
            raise ParameterError(
                f"dispersive hierarchy violated: omega/g = {self.omega / self.g:.2f} < 5"
            )


#: reference device cells (omega, g in units of t0) of sublattices 1..4, in order
DEVICE_CELLS = (
    CellParams(omega=2700, g=250),
    CellParams(omega=3000, g=150),
    CellParams(omega=2650, g=150),
    CellParams(omega=2900, g=200),
)


@dataclass(frozen=True)
class DressedSpectrum:
    """Single-excitation dressed energies of a cell: E_up - E_down = 2g."""

    e_up: float
    e_down: float


def dressed_energies(cell: CellParams) -> DressedSpectrum:
    return DressedSpectrum(e_up=cell.omega + cell.g, e_down=cell.omega - cell.g)


@dataclass(frozen=True)
class Bond:
    """Directed coupler bond; ``to_cell``/``from_cell`` index into a cell list."""

    to_cell: int
    from_cell: int
    direction: str  # "x" or "y"

    def __post_init__(self):
        if self.direction not in ("x", "y"):
            raise ParameterError("bond direction must be 'x' or 'y'")


@dataclass(frozen=True)
class Tone:
    freq: float
    amplitude: float
    phase: float
    sign: int
    channel: Tuple[str, str]  # (to_spin, from_spin)


@dataclass
class TonePlan:
    bond: Bond
    tones: List[Tone]


def _wrap_phase(phi: float) -> float:
    return (phi + math.pi) % (2.0 * math.pi) - math.pi


def tone_plan(
    bond: Bond, cells: Sequence[CellParams], target: np.ndarray
) -> TonePlan:
    """Tones realizing a 2x2 target hopping block on one bond.

    ``target[a, b]`` is the effective element (units of t0) coupling from-spin
    ``b`` to to-spin ``a`` with SPIN_LABELS ordering.  One tone per nonzero
    channel; channels below 1e-12 are dropped.  Raises DegeneracyError when two
    channels of the bond share a transition frequency (or a channel frequency
    vanishes), since selective addressing is then impossible.
    """
    target = np.asarray(target, dtype=complex)
    if target.shape != (2, 2):
        raise ParameterError("target hop block must be 2x2")
    to_e = dressed_energies(cells[bond.to_cell])
    from_e = dressed_energies(cells[bond.from_cell])
    levels_to = {"up": to_e.e_up, "down": to_e.e_down}
    levels_from = {"up": from_e.e_up, "down": from_e.e_down}

    tones = []
    freqs = {}
    for a, sa in enumerate(SPIN_LABELS):
        for b, sb in enumerate(SPIN_LABELS):
            t_ch = target[a, b]
            if abs(t_ch) < 1e-12:
                continue
            if abs(t_ch) > 1.0 + 1e-9:
                raise ParameterError(
                    f"|target element| {abs(t_ch):.3f} exceeds t0; outside the "
                    "effective-model regime"
                )
            delta = levels_to[sa] - levels_from[sb]
            freq = abs(delta)
            channel = (sa, sb)
            for other_channel, other_freq in freqs.items():
                if abs(freq - other_freq) < 1e-9:
                    raise DegeneracyError(
                        f"tone collision on bond {bond}: channels "
                        f"{other_channel} and {channel} share frequency {freq}"
                    )
            if freq < 1e-9:
                raise DegeneracyError(
                    f"vanishing transition frequency for channel {channel} on bond {bond}"
                )
            freqs[channel] = freq
            sign = 1 if delta > 0 else -1
            flip = 0.0 if sa == sb else math.pi
            phase = _wrap_phase(-cmath.phase(t_ch) + flip)
            tones.append(
                Tone(
                    freq=freq,
                    amplitude=4.0 * abs(t_ch),
                    phase=phase,
                    sign=sign,
                    channel=channel,
                )
            )
    return TonePlan(bond=bond, tones=tones)


def plan_effective_block(plan: TonePlan) -> np.ndarray:
    """Invert a tone plan back to its effective 2x2 hopping block (exact)."""
    block = np.zeros((2, 2), dtype=complex)
    for tone in plan.tones:
        a = SPIN_LABELS.index(tone.channel[0])
        b = SPIN_LABELS.index(tone.channel[1])
        sgn = SPIN_PHOTON_SIGN[tone.channel[0]] * SPIN_PHOTON_SIGN[tone.channel[1]]
        block[a, b] = 0.25 * tone.amplitude * sgn * cmath.exp(-1j * tone.phase)
    return block


def waveform(plan: TonePlan, t) -> np.ndarray:
    """Coupler waveform J(t) = sum over tones of A*cos(freq*t + sign*phase)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for tone in plan.tones:
        out = out + tone.amplitude * np.cos(tone.freq * t + tone.sign * tone.phase)
    return out if out.shape else float(out)


def addressing_margin(plans: Sequence[TonePlan]) -> Tuple[float, float]:
    """(min tone frequency, min within-bond tone separation) over the plans."""
    if not plans:
        raise ParameterError("need at least one tone plan")
    min_freq = min(tone.freq for plan in plans for tone in plan.tones)
    min_sep = None
    for plan in plans:
        fs = [tone.freq for tone in plan.tones]
        for i in range(len(fs)):
            for j in range(i + 1, len(fs)):
                sep = abs(fs[i] - fs[j])
                min_sep = sep if min_sep is None else min(min_sep, sep)
    if min_sep is None:
        min_sep = min_freq  # single-tone bonds: no pair to separate
    return min_freq, min_sep


# ---------------------------------------------------------------------------
# full time-dependent evolution on the bare <=1-excitation space
# ---------------------------------------------------------------------------

#: per-cell bare basis within the <=1-excitation space: |0g>, |1g>, |0e>
def _bare_dim(n_cells: int) -> int:
    return 1 + 2 * n_cells


def _photon_index(cell: int) -> int:
    return 1 + 2 * cell  # |1g> of that cell


def _qubit_index(cell: int) -> int:
    return 2 + 2 * cell  # |0e> of that cell


def free_hamiltonian(cells: Sequence[CellParams]) -> np.ndarray:
    """Sum of cell Hamiltonians on the bare <=1-excitation basis (vacuum at 0)."""
    dim = _bare_dim(len(cells))
    h = np.zeros((dim, dim))
    for i, c in enumerate(cells):
        p, q = _photon_index(i), _qubit_index(i)
        h[p, p] = c.omega
        h[q, q] = c.omega
        h[p, q] = h[q, p] = c.g
    return h


def _bond_operator(n_cells: int, bond: Bond) -> np.ndarray:
    """Photon hop a^dag_to a_from + h.c. restricted to <=1 excitation."""
    dim = _bare_dim(n_cells)
    b = np.zeros((dim, dim))
    pi, pj = _photon_index(bond.to_cell), _photon_index(bond.from_cell)
    b[pi, pj] = b[pj, pi] = 1.0
    return b


# commutator-free 4th-order Magnus coefficients (two Gauss nodes)
_CF4_C1 = 0.5 - math.sqrt(3.0) / 6.0
_CF4_C2 = 0.5 + math.sqrt(3.0) / 6.0
_CF4_A1 = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0
_CF4_A2 = (3.0 + 2.0 * math.sqrt(3.0)) / 12.0


#: most CF4 steps :func:`_propagate` exponentiates and multiplies at once
CF4_CHUNK = 512
#: largest max-norm difference accepted between the dt and dt/2 propagators
#: of :func:`full_evolve`
STEP_CHECK_TOL = 1e-6


def _expm_hermitian(h: np.ndarray, scale: float) -> np.ndarray:
    """exp(-1j*scale*h) for Hermitian h, or a stack of them, via eigendecomposition.

    Exactly unitary by construction.
    """
    vals, vecs = np.linalg.eigh(h)
    phases = np.exp(-1j * scale * vals)[..., None, :]
    return (vecs * phases) @ np.swapaxes(vecs.conj(), -1, -2)


def _ordered_product(u: np.ndarray) -> np.ndarray:
    """u[-1] @ ... @ u[1] @ u[0] of a stack, by pairwise batched products.

    Each pass multiplies neighbours (later @ earlier) and carries an odd last
    factor over unchanged, so the time order is kept.
    """
    while len(u) > 1:
        even = len(u) - len(u) % 2
        u = np.concatenate([u[1:even:2] @ u[0:even:2], u[even:]])
    return u[0]


def _propagate(cells, plans, t_final, dt) -> np.ndarray:
    """CF4 propagator over [0, t_final] in ceil(t_final/dt) equal steps.

    Steps are handled ``CF4_CHUNK`` at a time: the Hamiltonians at both Gauss
    nodes of every step form one stack, the two exponentials of each step
    come from one batched ``eigh``, and the chunk's step unitaries are
    combined by :func:`_ordered_product`.
    """
    n = len(cells)
    h0 = free_hamiltonian(cells)
    bonds = [_bond_operator(n, plan.bond) for plan in plans]
    dim = h0.shape[0]
    steps = max(1, int(math.ceil(t_final / dt)))
    step = t_final / steps
    nodes = np.array([_CF4_C1, _CF4_C2]) * step
    u = np.eye(dim, dtype=complex)
    for first in range(0, steps, CF4_CHUNK):
        starts = np.arange(first, min(first + CF4_CHUNK, steps)) * step
        times = starts[:, None] + nodes  # (m, 2): the two Gauss nodes per step
        h = np.broadcast_to(h0, times.shape + h0.shape).astype(complex)
        for plan, op in zip(plans, bonds):
            h += waveform(plan, times)[..., None, None] * op
        h1, h2 = h[:, 0], h[:, 1]
        # per step: the exponent of the right (earlier) factor, then the left
        h_cf4 = np.stack(
            [_CF4_A2 * h1 + _CF4_A1 * h2, _CF4_A1 * h1 + _CF4_A2 * h2], axis=1
        )
        half = _expm_hermitian(h_cf4, step).reshape(-1, dim, dim)
        u = _ordered_product(half) @ u
    return u


def _drive_period(plans: Sequence[TonePlan]) -> Optional[float]:
    """Period 2*pi/g of the drive, g the gcd of the tone frequencies.

    Only whole-number frequencies (ints or integral floats) have an exact
    common period; for any other plan, or one without tones, None.
    """
    freqs = [tone.freq for plan in plans for tone in plan.tones]
    if not freqs or not all(float(f).is_integer() for f in freqs):
        return None
    g = math.gcd(*(int(f) for f in freqs))
    return 2.0 * math.pi / g if g else None


def _periodic_propagate(cells, plans, t_final, dt, period) -> np.ndarray:
    """CF4 propagator over [0, t_final], composed from whole drive periods.

    H(t + T) = H(t), so U(N*T + tau) = U(tau) @ U(T)^N (Floquet): one period
    and the remainder tau are stepped by :func:`_propagate`, and the power
    takes log2(N) products.  Without a period shorter than ``t_final`` the
    whole interval is stepped.
    """
    if period is None or period >= t_final:
        return _propagate(cells, plans, t_final, dt)
    periods = int(t_final / period)
    # t_final / period may round up to a whole number: tau is then 0, not -ulp
    tau = max(0.0, t_final - periods * period)
    u = np.linalg.matrix_power(_propagate(cells, plans, period, dt), periods)
    if tau > 0:
        u = _propagate(cells, plans, tau, dt) @ u
    return u


def full_evolve(
    cells: Sequence[CellParams],
    plans: Sequence[TonePlan],
    t_final: float,
    dt: Optional[float],
) -> np.ndarray:
    """Time-ordered propagator of the driven lattice on the bare basis.

    Commutator-free 4th-order integrator with a built-in step-halving
    acceptance check: the dt and dt/2 propagators over the whole interval
    must agree to ``STEP_CHECK_TOL`` in max norm or StepSizeError is raised.
    A drive with whole-number tone frequencies is periodic; each propagator
    is then composed from one stepped period raised to a power and the
    stepped remainder (:func:`_periodic_propagate`).  The returned
    propagator is the dt/2 result and is unitary to machine precision by
    construction; at ``t_final = 0`` it is the identity.  ``t_final`` must be
    finite and nonnegative; ``dt`` finite and positive, or None for 1/40 of
    the fastest tone period (one step without tones).
    """
    if not 2 <= len(cells) <= 4:
        raise ParameterError("full evolution supports plaquettes of 2 to 4 cells")
    if not math.isfinite(t_final) or t_final < 0:
        raise ParameterError(f"t_final must be finite and nonnegative, got {t_final}")
    if dt is not None and not (math.isfinite(dt) and dt > 0):
        raise ParameterError(f"dt must be finite and positive, got {dt}")
    max_freq = max(
        (tone.freq for plan in plans for tone in plan.tones), default=0.0
    )
    bound = (2.0 * math.pi / max_freq) / 40.0 if max_freq > 0 else t_final
    if dt is None:
        dt = bound
    elif max_freq > 0 and dt > bound * (1 + 1e-12):
        raise ParameterError(
            f"dt={dt:.3e} exceeds the resolution bound {bound:.3e} "
            "(1/40 of the fastest tone period)"
        )
    if t_final == 0:
        return np.eye(_bare_dim(len(cells)), dtype=complex)
    period = _drive_period(plans)
    u_coarse = _periodic_propagate(cells, plans, t_final, dt, period)
    u_fine = _periodic_propagate(cells, plans, t_final, dt / 2.0, period)
    defect = float(np.max(np.abs(u_coarse - u_fine)))
    if defect > STEP_CHECK_TOL:
        raise StepSizeError(
            f"step-halving check failed: propagators differ by {defect:.2e} "
            f"(tolerance {STEP_CHECK_TOL:.1e}); reduce dt"
        )
    return u_fine


# ---------------------------------------------------------------------------
# effective model and rotating-wave fidelity
# ---------------------------------------------------------------------------

def dressed_transform(n_cells: int) -> np.ndarray:
    """Bare -> dressed basis change on the <=1-excitation space.

    Column j holds the bare components of dressed state j; per cell the
    ordering is (|up>, |down>) over the bare pair (|1g>, |0e>).
    """
    dim = _bare_dim(n_cells)
    w = np.zeros((dim, dim))
    w[0, 0] = 1.0
    r = 1.0 / math.sqrt(2.0)
    for i in range(n_cells):
        p, q = _photon_index(i), _qubit_index(i)
        w[p, p] = r   # <1g|up>
        w[q, p] = r   # <0e|up>
        w[p, q] = -r  # <1g|down>
        w[q, q] = r   # <0e|down>
    return w


def effective_hamiltonian(
    cells: Sequence[CellParams], plans: Sequence[TonePlan]
) -> np.ndarray:
    """Static rotating-frame Hamiltonian on the single-excitation dressed space.

    Dimension 2*n_cells (vacuum dropped; it is stationary).  Hopping blocks
    come from the tone plans via the exact round trip.
    """
    n = len(cells)
    h = np.zeros((2 * n, 2 * n), dtype=complex)
    for plan in plans:
        block = plan_effective_block(plan)
        a, b = plan.bond.to_cell, plan.bond.from_cell
        h[2 * a : 2 * a + 2, 2 * b : 2 * b + 2] += block
        h[2 * b : 2 * b + 2, 2 * a : 2 * a + 2] += block.conj().T
    return h


def effective_propagator(h_eff: np.ndarray, t_final: float) -> np.ndarray:
    return _expm_hermitian(np.asarray(h_eff, dtype=complex), t_final)


def rotating_frame_propagator(
    u_full: np.ndarray, cells: Sequence[CellParams], t_final: float
) -> np.ndarray:
    """Conjugate a bare-basis propagator into the dressed rotating frame.

    Returns the single-excitation dressed block of exp(+i*H0*T) U W, i.e. the
    interaction-picture propagator expressed in dressed coordinates.
    """
    n = len(cells)
    if u_full.shape[0] != _bare_dim(n):
        raise ParameterError("propagator dimension does not match the cell list")
    h0 = free_hamiltonian(cells)
    rewind = _expm_hermitian(h0, -t_final)  # exp(+i*H0*T)
    w = dressed_transform(n)
    u_rot = w.T @ rewind @ u_full @ w
    return u_rot[1:, 1:]


def rwa_fidelity(
    u_full: np.ndarray,
    u_eff: np.ndarray,
    cells: Sequence[CellParams],
    t_final: float,
) -> float:
    """Overlap fidelity |tr(U_eff^dag U_rot)|/dim on the dressed excitation block."""
    u_rot = rotating_frame_propagator(u_full, cells, t_final)
    u_eff = np.asarray(u_eff, dtype=complex)
    if u_eff.shape != u_rot.shape:
        raise ParameterError(
            f"propagator dimensions differ: effective {u_eff.shape}, "
            f"full (reduced) {u_rot.shape}"
        )
    dim = u_rot.shape[0]
    return float(abs(np.trace(u_eff.conj().T @ u_rot)) / dim)


def plaquette_plans(alpha, beta: float) -> List[TonePlan]:
    """Tone plans for one plaquette of the ``DEVICE_CELLS`` (rows 0 and 1).

    Cell list order matches the sublattice layout: index 0 at (0, 0),
    1 at (1, 0), 2 at (0, 1), 3 at (1, 1).  Bonds: two x bonds and two
    y bonds, open (no wrap), with the target model's hop blocks at t0 = 1.
    """
    target = ModelParams(alpha, beta)
    return [
        tone_plan(Bond(1, 0, "x"), DEVICE_CELLS, x_hop_block(target, 0)),
        tone_plan(Bond(3, 2, "x"), DEVICE_CELLS, x_hop_block(target, 1)),
        tone_plan(Bond(2, 0, "y"), DEVICE_CELLS, y_hop_block(target)),
        tone_plan(Bond(3, 1, "y"), DEVICE_CELLS, y_hop_block(target)),
    ]

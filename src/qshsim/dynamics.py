"""Lindblad dynamics of the edge-detection protocol in the dressed subspace.

State space: the global vacuum plus one dressed excitation (up or down) on
any site, dim = 1 + 2*nx*ny.  Site ordering matches the real-space model, so
the open-lattice Hamiltonian acts directly as the excited block.

Per site three jump channels act at a common rate gamma:

* photon loss      a|up> = +|0g>/sqrt(2), a|down> = -|0g>/sqrt(2);
* qubit loss       sigma^-|up> = sigma^-|down> = +|0g>/sqrt(2);
* qubit dephasing  sigma^z restricted to the subspace: -1 on the vacuum and
  on other sites' excitations, and a spin flip |up> <-> |down> on the site.

Because every dressed excitation carries mean photon and qubit occupation
1/2 and dephasing conserves excitation, the total excited population decays
exactly as exp(-gamma*t).  Every jump operator carries a factor sqrt(gamma),
so the Liouvillian is linear in the rate: L(gamma) = L_H + gamma*D, with L_H
the Hamiltonian part and D the dissipator at unit rate.  Both are sparse and
built once per scan, L_H + gamma*D then costs one sparse sum per rate.  The
master equation is time independent, so it is solved exactly: the
exponential of L is applied to vec(rho) with
``scipy.sparse.linalg.expm_multiply`` (Al-Mohy & Higham, SIAM J. Sci.
Comput. 33, 488 (2011)); the decay law above is a test of that propagation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from .circuit import T0_MHZ
from .errors import ParameterError
from .model import ModelParams, open_hamiltonian

TRACE_TOL = 1e-8
#: most lattice sites the master equation accepts (8x8)
MAX_SITES = 64
HERM_TOL = 1e-10
POSITIVITY_TOL = -1e-8


def duration_from_us(t_us: float) -> float:
    """Convert microseconds to dimensionless time t0*T (t0 = 2*pi * T0_MHZ)."""
    if not math.isfinite(t_us) or t_us < 0:
        raise ParameterError(f"duration must be finite and nonnegative, got {t_us} us")
    return 2.0 * math.pi * T0_MHZ * t_us


def gamma_to_khz(gamma_t0: float) -> float:
    """Decay rate in units of t0 -> gamma/(2*pi) in kHz."""
    return gamma_t0 * T0_MHZ * 1e3


@dataclass(frozen=True)
class SubspaceBasis:
    """Vacuum + one dressed excitation per site and spin; dim = 1 + 2*nx*ny."""

    nx: int
    ny: int

    @property
    def dim(self) -> int:
        return 1 + 2 * self.nx * self.ny

    def state_index(self, m: int, n: int, spin: int) -> int:
        """Index of |spin>_(m,n); (m, n) are 0-based, spin 0=up, 1=down."""
        if not (0 <= m < self.nx and 0 <= n < self.ny):
            raise ParameterError(f"site ({m},{n}) outside {self.nx}x{self.ny}")
        return 1 + 2 * (n * self.nx + m) + spin

    def site_pairs(self) -> np.ndarray:
        """(nx*ny, 2) indices of each site's (up, down) states, in index order."""
        return np.array([
            [self.state_index(m, n, 0), self.state_index(m, n, 1)]
            for n in range(self.ny)
            for m in range(self.nx)
        ])


@dataclass(frozen=True)
class LindbladSpec:
    """Common rate and channel switches for the three decoherence channels."""

    gamma: float
    photon_loss: bool = True
    transmon_loss: bool = True
    dephasing: bool = True

    def __post_init__(self):
        if not math.isfinite(self.gamma) or self.gamma < 0:
            raise ParameterError(
                f"decay rate gamma must be finite and nonnegative, got {self.gamma}"
            )


def embed_excited_hamiltonian(h, basis: SubspaceBasis) -> np.ndarray:
    """Excited-block Hamiltonian -> full subspace matrix (vacuum row/col zero)."""
    # np.asarray of a sparse matrix is a 0-d object array
    h = h.toarray() if sp.issparse(h) else np.asarray(h)
    nexc = basis.dim - 1
    if h.shape == (basis.dim, basis.dim):
        return h.astype(complex)
    if h.shape != (nexc, nexc):
        raise ParameterError(
            f"Hamiltonian shape {h.shape} matches neither the excited block "
            f"({nexc}) nor the full subspace ({basis.dim})"
        )
    full = np.zeros((basis.dim, basis.dim), dtype=complex)
    full[1:, 1:] = h
    return full


def validate_density_matrix(rho: np.ndarray):
    """Enforce finiteness / Hermiticity / unit trace / positivity tolerances."""
    if not np.all(np.isfinite(rho)):
        raise ParameterError("density matrix has non-finite entries")
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > HERM_TOL:
        raise ParameterError(f"density matrix not Hermitian: defect {herm:.2e}")
    tr = float(rho.trace().real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ParameterError(f"density matrix trace {tr} deviates from 1")
    evmin = float(np.linalg.eigvalsh(rho).min())
    if evmin < POSITIVITY_TOL:
        raise ParameterError(f"density matrix has eigenvalue {evmin:.2e}")


def hamiltonian_liouvillian(h_full) -> sp.csr_matrix:
    """Sparse L_H with ``L_H @ rho.ravel() == (-i(H rho - rho H)).ravel()``.

    Vectorized row-major: vec(A X B) = (A kron B^T) vec(X).
    """
    h = sp.csr_matrix(h_full)
    eye = sp.identity(h.shape[0], format="csr")
    return (sp.kron(-1j * h, eye) + sp.kron(eye, 1j * h.T)).tocsr()


#: J^dag J of the unit-rate photon-loss and qubit-loss jumps on one site's
#: (up, down) pair; J kron J^* maps that pair's coherences onto the vacuum
#: population with the same four entries.
_PHOTON_LOSS_BLOCK = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])
_QUBIT_LOSS_BLOCK = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])


def unit_dissipator(
    basis: SubspaceBasis,
    photon_loss: bool = True,
    transmon_loss: bool = True,
    dephasing: bool = True,
) -> sp.csr_matrix:
    """Dissipator D of the switched-on channels at unit rate.

    The dissipator at rate gamma is gamma * D.
    D = sum_k J_k kron J_k^* - (K kron I + I kron K^T)/2 with
    K = sum_k J_k^dag J_k, in the vectorization of
    :func:`hamiltonian_liouvillian`, assembled in one COO pass from closed
    forms.  The dephasing jump of site s is J_s = -I + B_s, with B_s the
    all-ones block on the site's (up, down) pair, so J_s^dag J_s = I and
    sum_s J_s kron J_s = N I kron I - I kron B - B kron I + sum_s B_s kron B_s
    (B = sum_s B_s); the N I kron I cancels against -(K kron I + I kron K)/2.
    With M = K_loss/2 + [dephasing] B, real symmetric with the same 2x2
    block on every site,
    D = sum_loss J kron J + [dephasing] sum_s B_s kron B_s - M kron I - I kron M.
    """
    n = basis.dim
    loss = np.zeros((2, 2))
    if photon_loss:
        loss += _PHOTON_LOSS_BLOCK
    if transmon_loss:
        loss += _QUBIT_LOSS_BLOCK
    block = 0.5 * loss + (1.0 if dephasing else 0.0)
    pairs = basis.site_pairs()
    a = np.repeat(pairs, 2, axis=1).ravel()  # row a and column b of every
    b = np.tile(pairs, 2).ravel()  # entry (a, b) of a site block
    every = np.arange(n)[:, None]
    blocks = np.tile(block.ravel(), len(pairs))
    rows = [a * n + every, every * n + a, np.zeros_like(a)]
    cols = [b * n + every, every * n + b, a * n + b]
    vals = [
        np.broadcast_to(-blocks, (n, a.size)),
        np.broadcast_to(-blocks, (n, a.size)),
        np.tile(loss.ravel(), len(pairs)),
    ]
    if dephasing:
        # B_s kron B_s: rows (a, a') and columns (b, b') inside one site
        rows.append(a[:, None] * n + a.reshape(-1, 4).repeat(4, axis=0))
        cols.append(b[:, None] * n + b.reshape(-1, 4).repeat(4, axis=0))
        vals.append(np.ones((a.size, 4)))
    d = sp.coo_matrix(
        (
            np.concatenate([v.ravel() for v in vals]),
            (
                np.concatenate([r.ravel() for r in rows]),
                np.concatenate([c.ravel() for c in cols]),
            ),
        ),
        shape=(n * n, n * n),
    ).tocsr()
    d.eliminate_zeros()
    return d


#: Al-Mohy & Higham (2011), eq. (3.13): for one vector, m_max = 55 and
#: p_max = 8, expm_multiply takes its exact-1-norm branch while
#: ||A - tr(A)/n I||_1 <= 2*2*8*11 * theta_55 / 55 = 63.36.  Beyond it scipy
#: estimates norms with ``onenormest``, which draws from the global
#: ``np.random`` and is not reproducible.
_EXACT_NORM_BOUND = 63.36


def _chunk_count(step: sp.csr_matrix) -> int:
    """Equal chunks of ``step`` that each stay on the exact-1-norm branch."""
    n = step.shape[0]
    shifted = step - (step.diagonal().sum() / n) * sp.identity(n, format="csr")
    norm = float(abs(shifted).sum(axis=0).max())
    return max(1, math.ceil(norm / (0.9 * _EXACT_NORM_BOUND)))


class Trajectory(NamedTuple):
    """Snapshots of one :func:`_propagate` run."""

    times: np.ndarray
    rhos: np.ndarray
    #: expm_multiply calls made over the whole run
    chunks: int


def _propagate(
    lv: sp.csr_matrix, rho0: np.ndarray, t_final: float, sample_count: int
) -> Trajectory:
    """rho(t) = exp(L t) rho0 at ``sample_count`` equally spaced times.

    Each sampling interval is split into the chunks of :func:`_chunk_count`;
    every snapshot after t=0 is validated.
    """
    times = np.linspace(0.0, t_final, max(2, sample_count))
    step = lv * (t_final / (len(times) - 1))
    chunks = _chunk_count(step)
    step = step / chunks
    vec = rho0.ravel()
    rhos = [rho0]
    for _ in times[1:]:
        for _ in range(chunks):
            vec = expm_multiply(step, vec)
        rho = vec.reshape(rho0.shape)
        validate_density_matrix(rho)
        rhos.append(rho)
    return Trajectory(times, np.array(rhos), chunks * (len(times) - 1))


def lindblad_evolve(
    rho0: np.ndarray,
    h_eff,
    spec: LindbladSpec,
    basis: SubspaceBasis,
    t_final: float,
    dt: float = 0.0025,
    sample_count: int = 20,
) -> Trajectory:
    """Exact propagation of the master equation: rho(t) = exp(L t) rho0.

    Returns ``(times, rhos, chunks)`` with ``sample_count`` equally spaced
    snapshots including t=0 and t_final; density-matrix invariants are
    validated at every snapshot.  ``dt`` is deprecated and ignored: the
    propagation has no time step.
    """
    if not math.isfinite(t_final) or t_final < 0:
        raise ParameterError(f"t_final must be finite and nonnegative, got {t_final}")
    rho0 = np.asarray(rho0, dtype=complex)
    validate_density_matrix(rho0)
    lh = hamiltonian_liouvillian(embed_excited_hamiltonian(h_eff, basis))
    d = unit_dissipator(
        basis, spec.photon_loss, spec.transmon_loss, spec.dephasing
    )
    return _propagate(lh + spec.gamma * d, rho0, t_final, sample_count)


def edge_site_mask(nx: int, ny: int) -> np.ndarray:
    """Boolean (nx, ny) perimeter mask (ring depth 1)."""
    mask = np.zeros((nx, ny), dtype=bool)
    mask[0, :] = mask[-1, :] = True
    mask[:, 0] = mask[:, -1] = True
    return mask


def populations(rho: np.ndarray, basis: SubspaceBasis) -> Tuple[float, float, float]:
    """(edge, inner, total) excited populations; total also equals 1 - <G|rho|G>."""
    diag = np.diag(rho).real
    mask = edge_site_mask(basis.nx, basis.ny)
    p_edge = p_inner = 0.0
    for n in range(basis.ny):
        for m in range(basis.nx):
            w = (
                diag[basis.state_index(m, n, 0)]
                + diag[basis.state_index(m, n, 1)]
            )
            if mask[m, n]:
                p_edge += w
            else:
                p_inner += w
    return float(p_edge), float(p_inner), float(p_edge + p_inner)


@dataclass
class DecayScanRow:
    gamma_t0: float
    gamma_khz: float
    p1: float
    p2: float
    p3: float
    #: solver diagnostics of the final state (not part of the output table)
    chunks: int
    trace_defect: float
    min_eigenvalue: float


def corner_up_state(basis: SubspaceBasis) -> np.ndarray:
    """Pure |up> excitation on site (1,1) (the lattice corner)."""
    rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    i = basis.state_index(0, 0, 0)
    rho[i, i] = 1.0
    return rho


def decay_scan(
    gammas: Sequence[float], params: ModelParams, t_us: float
) -> List[DecayScanRow]:
    """Final edge/inner/total populations after ``t_us`` for each decay rate.

    Protocol: the open ``params`` lattice, initial |up> excitation at the
    (1,1) corner site, all three channels on.  L_H and the unit dissipator D
    are built once per scan; each rate propagates L_H + gamma*D.
    """
    specs = [LindbladSpec(gamma=float(g)) for g in gammas]
    t_final = duration_from_us(t_us)
    if params.nx * params.ny > MAX_SITES:
        raise ParameterError(f"master-equation lattice capped at {MAX_SITES} sites (8x8)")
    basis = SubspaceBasis(params.nx, params.ny)
    lh = hamiltonian_liouvillian(
        embed_excited_hamiltonian(open_hamiltonian(params), basis)
    )
    d = unit_dissipator(basis)
    rho0 = corner_up_state(basis)
    rows = []
    for spec in specs:
        _, rhos, chunks = _propagate(lh + spec.gamma * d, rho0, t_final, 2)
        rho = rhos[-1]
        p1, p2, p3 = populations(rho, basis)
        rows.append(
            DecayScanRow(
                gamma_t0=spec.gamma,
                gamma_khz=gamma_to_khz(spec.gamma),
                p1=p1,
                p2=p2,
                p3=p3,
                chunks=chunks,
                trace_defect=abs(float(rho.trace().real) - 1.0),
                min_eigenvalue=float(np.linalg.eigvalsh(rho).min()),
            )
        )
    return rows

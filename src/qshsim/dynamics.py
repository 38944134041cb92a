"""Lindblad dynamics of the edge-detection protocol in the dressed subspace.

State space: the global vacuum plus one dressed excitation (up or down) on
any site, dim = 1 + 2*nx*ny.  Site ordering matches the real-space model, so
the open-lattice Hamiltonian acts directly as the excited block.

Per site three jump channels act, always together and at one common rate
gamma:

* photon loss      a|up> = +|0g>/sqrt(2), a|down> = -|0g>/sqrt(2);
* qubit loss       sigma^-|up> = sigma^-|down> = +|0g>/sqrt(2);
* qubit dephasing  sigma^z restricted to the subspace: -1 on the vacuum and
  on other sites' excitations, and a spin flip |up> <-> |down> on the site.

Summed over the sites, the loss jumps' J^dag J is the identity on the
excited states, and dephasing conserves excitation.  A state without
coherence between the vacuum and the excitations keeps none, so the
2*nx*ny excited block evolves on its own:

    rho_exc(t) = exp(t L) rho_exc(0),   L = L_H + gamma*(D_phi - I),

with L_H the Hamiltonian part and D_phi the dephasing dissipator at unit
rate; the vacuum population is 1 - tr rho_exc.  The -gamma*I is the loss,
so tr rho_exc decays exactly as exp(-gamma*t), and every snapshot is
checked against that.  L_H and D_phi are sparse and built once per scan.
exp(t L) is applied to vec(rho_exc) as a Chebyshev series in L (Tal-Ezer &
Kosloff, J. Chem. Phys. 81, 3967 (1984); for open systems Huisinga, Pesce,
Kosloff & Saalfrank, J. Chem. Phys. 110, 5538 (1999)).  Its degree comes
from a truncation bound on an ellipse that holds the numerical range of L,
through the Crouzeix-Palencia theorem (see :func:`_series_plan`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

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
        return np.arange(1, self.dim).reshape(-1, 2)


def _checked_rate(gamma: float) -> float:
    """The decay rate as a float; ParameterError unless finite and nonnegative."""
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma < 0:
        raise ParameterError(
            f"decay rate gamma must be finite and nonnegative, got {gamma}"
        )
    return gamma


def validate_density_matrix(rho: np.ndarray) -> Tuple[float, float]:
    """Enforce finiteness / Hermiticity / unit trace / positivity tolerances.

    Returns the trace defect |tr rho - 1| and the smallest eigenvalue.
    """
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
    return abs(tr - 1.0), evmin


def hamiltonian_liouvillian(h) -> sp.csr_matrix:
    """Sparse L_H with ``L_H @ rho.ravel() == (-i(H rho - rho H)).ravel()``.

    Vectorized row-major: vec(A X B) = (A kron B^T) vec(X).
    """
    h = sp.csr_matrix(h)
    eye = sp.identity(h.shape[0], format="csr")
    return (sp.kron(-1j * h, eye) + sp.kron(eye, 1j * h.T)).tocsr()


def dephasing_dissipator(basis: SubspaceBasis) -> sp.csr_matrix:
    """D_phi, the dephasing dissipator at unit rate on the excited block.

    D_phi = sum_s B_s kron B_s - B kron I - I kron B, in the vectorization
    of :func:`hamiltonian_liouvillian`, with B_s the all-ones block on site
    s's (up, down) pair and B = sum_s B_s.  On the excited block the
    dephasing jump of site s is J_s = -I + B_s, so J_s^dag J_s = I (B_s^2 =
    2 B_s) and sum_s J_s kron J_s^* = N I kron I - I kron B - B kron I +
    sum_s B_s kron B_s, whose N I kron I cancels against
    -(K kron I + I kron K^T)/2, K = N I.
    """
    n = basis.dim - 1
    eye = sp.identity(n, format="csr")
    b = sp.kron(sp.identity(n // 2), np.ones((2, 2)), format="csr")
    # B_s kron B_s: ones at rows (a, a') and columns (c, c') inside site s,
    # indexed on the excited block, which drops the vacuum
    pairs = basis.site_pairs() - 1
    inside = (pairs[:, :, None] * n + pairs[:, None, :]).reshape(-1, 4)
    rows = np.repeat(inside, 4, axis=1).ravel()
    cols = np.tile(inside, 4).ravel()
    same_site = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n * n, n * n))
    return (same_site - sp.kron(b, eye) - sp.kron(eye, b)).tocsr()


#: bound on one sub-step's truncation error, relative to the norm of vec(rho)
SERIES_TOL = 2.0 ** -53
#: most tau*b per sub-step: no series term exceeds 2 e^STEP_EXPONENT on E_rho
STEP_EXPONENT = 16.0


def _bessel_j(x: float, n: int) -> np.ndarray:
    """J_0(x) ... J_n(x) for x > 0 by Miller's backward recurrence.

    Normalized by J_0 + 2 (J_2 + J_4 + ...) = 1 and started far enough
    above max(n, x) that the start leaves no trace in double precision.
    """
    start = 2 * ((int(max(n, x)) + 16 + int(math.sqrt(160.0 * max(n, x, 1.0)))) // 2)
    out = np.zeros(n + 1)
    j_above, j = 0.0, 1e-300
    norm = 0.0
    for k in range(start, 0, -1):
        j_above, j = j, (2.0 * k / x) * j - j_above  # j is now J_(k-1)
        if abs(j) > 1e250:  # rescale everything gathered so far
            j, j_above, norm = j * 1e-250, j_above * 1e-250, norm * 1e-250
            out *= 1e-250
        if k - 1 <= n:
            out[k - 1] = j
        if (k - 1) % 2 == 0 and k > 1:
            norm += 2.0 * j
    return out / (norm + j)


class _Series(NamedTuple):
    """Chebyshev series of one sub-step: exp(h L) v ~ sum_k coef_k T_k(X) v."""

    #: X = (L - centre) / (i scale)
    centre: float
    scale: float
    substeps: int
    #: J_0(tau) and 2 i^k J_k(tau), tau = scale * h, times e^(centre h)
    coef: np.ndarray

    @property
    def degree(self) -> int:
        return len(self.coef) - 1


def _series_plan(spread: float, gamma: float, interval: float) -> _Series:
    """The sub-steps and the series of exp(L * interval),
    L = L_H + gamma*(D_phi - I).

    Numerical range.  L_H is skew-Hermitian with eigenvalues i(E_a - E_b),
    so its numerical range is within i[-w, w], w = ``spread`` = E_max - E_min
    of the excited-block Hamiltonian.  D_phi is real symmetric with
    spectrum in [-4, 0]: B kron I, I kron B and every B_s kron B_s commute
    (B_s B = B_s^2 = 2 B_s), so each product of eigenvectors of B, with
    eigenvalues b, b' in {0, 2}, is an eigenvector of D_phi with eigenvalue
    -b - b' in {0, -2, -4} when they lie on different sites and
    -b - b' + b b' in {0, -2} on one site.  So with the centre c = -3 gamma,
    L - c = L_H + gamma*(D_phi + 2I) is L_H plus a Hermitian part with
    spectrum in [-2 gamma, 2 gamma].  Numerical ranges add, so that of
    L - c lies within delta = 2 gamma of i[-w, w].

    Ellipse.  X = (L - c) / (i s), s = w (delta when w = 0), has its
    numerical range within eps = delta / s of [-1, 1].  Every point of the
    Bernstein ellipse E_rho (foci +-1, semi-axes a = 1 + eps and
    b = sqrt(a^2 - 1), rho = a + b) is at least a - 1 = eps from [-1, 1]
    (its distances to the foci sum to 2a), so E_rho encloses that range.

    Truncation.  On a sub-step h, exp(h L) = e^(c h) exp(i tau X),
    tau = s h, and exp(i tau x) = J_0(tau) + 2 sum_k i^k J_k(tau) T_k(x)
    (Jacobi-Anger).  By Crouzeix & Palencia (SIAM J. Matrix Anal. Appl. 38,
    649 (2017)) ||g(X)|| <= (1 + sqrt 2) max |g| over the numerical range
    for every analytic g, and |T_k| <= rho^k on E_rho, so the series cut
    after degree N errs by at most

        (1 + sqrt 2) e^(c h) sum_(k > N) 2 |J_k(tau)| rho^k  ||v||,

    with |J_k| <= 1 and, for k >= tau, Kapteyn's inequality
    |J_k(k z)| <= (z e^sqrt(1 - z^2) / (1 + sqrt(1 - z^2)))^k (DLMF
    10.14.5).  The log of the k-th bound term has the slope
    ln(tau rho / (k (1 + sqrt(1 - tau^2 / k^2)))), falling in k and below
    ln(1/2) beyond k = 2 tau rho, so the tail past the last term summed, at
    k = 2 tau rho + 64, is at most that term.  The degree is the smallest N
    whose bound is <= SERIES_TOL.

    Sub-steps.  max |exp(i tau z)| on E_rho is e^(tau b), so by Cauchy's
    estimate |J_k(tau)| <= e^(tau b) rho^-k and no term of the series
    exceeds 2 (1 + sqrt 2) e^(tau b) ||v||: rounding grows with e^(tau b).
    The interval is split into the fewest equal sub-steps with
    tau b <= STEP_EXPONENT; at gamma = 0, b = 0 and one series spans it.
    """
    radius = 2.0 * gamma
    centre = -3.0 * gamma
    scale = spread if spread > 0 else (radius or 1.0)
    a = 1.0 + radius / scale
    b = math.sqrt(a * a - 1.0)
    rho = a + b
    if interval == 0:
        return _Series(centre, scale, 1, np.ones(1, dtype=complex))
    substeps = max(1, math.ceil(scale * interval * b / STEP_EXPONENT))
    h = interval / substeps
    tau = scale * h
    shrink = math.exp(centre * h)
    kmax = int(2.0 * tau * rho) + 64
    k = np.arange(1, kmax + 1, dtype=float)
    # tau / k underflows to 0 for a subnormal tau, and log(0) would follow;
    # each bound term grows with z, so the floor keeps the bound valid
    z = np.clip(tau / k, np.finfo(float).tiny, 1.0)
    root = np.sqrt(1.0 - z * z)
    log_bound = k * (np.log(z) + root - np.log1p(root)) + k * math.log(rho)
    terms = 2.0 * np.exp(log_bound)
    # tails[i]: the bound on sum_(k > i) with the last term standing for the rest
    tails = np.cumsum(terms[::-1])[::-1] + terms[-1]
    limit = SERIES_TOL / ((1.0 + math.sqrt(2.0)) * shrink)
    degree = int(np.argmax(tails <= limit))
    # degree 0 means tau < 1e-16, where J_0(tau) = 1 in double precision
    coef = _bessel_j(tau, degree) if degree else np.ones(1)
    coef = coef * (1j ** np.arange(degree + 1) * shrink)
    coef[1:] *= 2.0
    return _Series(centre, scale, substeps, coef)


class Trajectory(NamedTuple):
    """Snapshots of one :func:`_propagate` run."""

    times: np.ndarray
    rhos: np.ndarray
    #: Chebyshev degree and sub-steps per sampling interval
    degree: int
    substeps: int
    #: of the last snapshot: |tr rho_exc - e^(-gamma t) tr rho_exc(0)| and
    #: the smallest eigenvalue
    final_checks: Tuple[float, float]


def _apply_series(x2: sp.csr_matrix, series: _Series, vec: np.ndarray) -> np.ndarray:
    """sum_k coef_k T_k(X) vec by the three-term recurrence; ``x2`` is 2X."""
    coef = series.coef
    out = coef[0] * vec
    if len(coef) == 1:
        return out
    prev, cur = vec, 0.5 * (x2 @ vec)
    out += coef[1] * cur
    for c in coef[2:]:
        nxt = x2 @ cur
        nxt -= prev
        out += c * nxt
        prev, cur = cur, nxt
    return out


def _spread(h: sp.csr_matrix) -> float:
    """E_max - E_min of a Hermitian excited-block Hamiltonian."""
    energies = np.linalg.eigvalsh(h.toarray())
    return float(energies[-1] - energies[0])


def _propagate(
    lh: sp.csr_matrix,
    d: sp.csr_matrix,
    gamma: float,
    spread: float,
    rho0: np.ndarray,
    t_final: float,
    sample_count: int,
) -> Trajectory:
    """rho(t) from a subspace rho0 without vacuum coherence, at
    ``sample_count`` equally spaced times.

    The excited block propagates as exp(L t), L = lh + gamma*(d - I), and
    the vacuum population is 1 - tr rho_exc.  ``spread`` is E_max - E_min
    of the excited-block Hamiltonian behind ``lh``.  Each sampling interval
    takes the sub-steps and series of :func:`_series_plan`.  Every snapshot
    after t=0 must keep tr rho_exc = e^(-gamma t) tr rho_exc(0) within
    TRACE_TOL, which the series meets only if it propagates the loss right,
    and is validated as a density matrix.
    """
    times = np.linspace(0.0, t_final, max(2, sample_count))
    series = _series_plan(spread, gamma, t_final / (len(times) - 1))
    eye = sp.identity(lh.shape[0], format="csr")
    lv = lh + gamma * (d - eye)
    x2 = (lv - series.centre * eye) * (-2j / series.scale)
    exc0 = rho0[1:, 1:]
    trace0 = float(exc0.trace().real)
    vec = exc0.ravel()
    rhos = [rho0]
    for t in times[1:]:
        for _ in range(series.substeps):
            vec = _apply_series(x2, series, vec)
        exc = vec.reshape(exc0.shape)
        trace = float(exc.trace().real)
        expected = math.exp(-gamma * t) * trace0
        defect = abs(trace - expected)
        if defect > TRACE_TOL:
            raise ParameterError(
                f"excited-state trace {trace} deviates from "
                f"e^(-gamma t) tr rho0 = {expected}"
            )
        rho = np.zeros_like(rho0)
        rho[0, 0] = 1.0 - trace
        rho[1:, 1:] = exc
        checks = (defect, validate_density_matrix(rho)[1])
        rhos.append(rho)
    return Trajectory(times, np.array(rhos), series.degree, series.substeps, checks)


def lindblad_evolve(
    rho0: np.ndarray,
    h_eff,
    gamma: float,
    basis: SubspaceBasis,
    t_final: float,
    dt: float = 0.0025,
    sample_count: int = 20,
) -> Trajectory:
    """Exact propagation of the master equation: rho(t) = exp(L t) rho0.

    ``rho0`` is a subspace density matrix without coherence between the
    vacuum and the excited states, ``h_eff`` the excited-block Hamiltonian,
    dense or sparse.  All three channels act at the rate ``gamma``.
    Returns the :class:`Trajectory` of ``sample_count`` equally spaced
    subspace snapshots including t=0 and t_final (see :func:`_propagate`
    for the checks at every snapshot).  ``dt`` is deprecated and ignored:
    the propagation has no time step.
    """
    gamma = _checked_rate(gamma)
    if not math.isfinite(t_final) or t_final < 0:
        raise ParameterError(f"t_final must be finite and nonnegative, got {t_final}")
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (basis.dim, basis.dim):
        raise ParameterError(f"rho0 shape {rho0.shape} is not ({basis.dim}, {basis.dim})")
    validate_density_matrix(rho0)
    if np.any(rho0[0, 1:]) or np.any(rho0[1:, 0]):
        raise ParameterError("rho0 has coherence between the vacuum and the excited states")
    h = sp.csr_matrix(h_eff)
    nexc = basis.dim - 1
    if h.shape != (nexc, nexc):
        raise ParameterError(
            f"Hamiltonian shape {h.shape} is not the excited block ({nexc}, {nexc})"
        )
    return _propagate(
        hamiltonian_liouvillian(h), dephasing_dissipator(basis), gamma, _spread(h),
        rho0, t_final, sample_count,
    )


def edge_site_mask(nx: int, ny: int) -> np.ndarray:
    """Boolean (nx, ny) perimeter mask (ring depth 1)."""
    mask = np.zeros((nx, ny), dtype=bool)
    mask[0, :] = mask[-1, :] = True
    mask[:, 0] = mask[:, -1] = True
    return mask


def populations(rho: np.ndarray, basis: SubspaceBasis) -> Tuple[float, float, float]:
    """(edge, inner, total) excited populations; total also equals 1 - <G|rho|G>."""
    diag = np.diag(rho).real
    up, down = basis.site_pairs().T
    w = diag[up] + diag[down]  # per site, n-major as the transposed mask
    edge = edge_site_mask(basis.nx, basis.ny).T.ravel()
    # Python sum adds in index order, as a loop over the sites would
    p_edge, p_inner = sum(w[edge].tolist(), 0.0), sum(w[~edge].tolist(), 0.0)
    return p_edge, p_inner, p_edge + p_inner


@dataclass
class DecayScanRow:
    gamma_t0: float
    gamma_khz: float
    p1: float
    p2: float
    p3: float
    #: solver diagnostics (not part of the output table): Chebyshev degree,
    #: sub-steps, and the checks of the final state
    degree: int
    substeps: int
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
    (1,1) corner site, all three channels on.  L_H and D_phi are built once
    per scan; each rate propagates L_H + gamma*(D_phi - I).
    """
    rates = [_checked_rate(g) for g in gammas]
    t_final = duration_from_us(t_us)
    if params.nx * params.ny > MAX_SITES:
        raise ParameterError(f"master-equation lattice capped at {MAX_SITES} sites (8x8)")
    basis = SubspaceBasis(params.nx, params.ny)
    h = open_hamiltonian(params)
    lh = hamiltonian_liouvillian(h)
    spread = _spread(h)
    d = dephasing_dissipator(basis)
    rho0 = corner_up_state(basis)
    rows = []
    for gamma in rates:
        run = _propagate(lh, d, gamma, spread, rho0, t_final, 2)
        p1, p2, p3 = populations(run.rhos[-1], basis)
        rows.append(
            DecayScanRow(
                gamma_t0=gamma,
                gamma_khz=gamma_to_khz(gamma),
                p1=p1,
                p2=p2,
                p3=p3,
                degree=run.degree,
                substeps=run.substeps,
                trace_defect=run.final_checks[0],
                min_eigenvalue=run.final_checks[1],
            )
        )
    return rows

"""Lindblad evolution: jump operators, decay laws, populations."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply
from scipy.special import jv

from qshsim import dynamics
from qshsim.dynamics import (
    SubspaceBasis,
    corner_up_state,
    decay_scan,
    dephasing_dissipator,
    duration_from_us,
    edge_site_mask,
    gamma_to_khz,
    hamiltonian_liouvillian,
    lindblad_evolve,
    populations,
    validate_density_matrix,
)
from qshsim.errors import ParameterError
from qshsim.model import ModelParams, open_hamiltonian

A13 = Fraction(1, 3)
#: the detection protocol's 6x6 lattice at flux 1/3
PROTOCOL = ModelParams(alpha=A13, nx=6, ny=6)


def subspace_jump_operators(basis, gamma):
    """Explicit sparse jump operators (already scaled by sqrt(gamma)): photon
    loss, qubit loss and dephasing of each site in turn."""
    dim = basis.dim
    root = math.sqrt(gamma)
    r = 1.0 / math.sqrt(2.0)

    def csr(rows, cols, vals):
        op = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
        op.eliminate_zeros()
        return op

    ops = []
    for iu, idn in basis.site_pairs():
        ops.append(csr([0, 0], [iu, idn], [root * r, root * -r]))
        ops.append(csr([0, 0], [iu, idn], [root * r, root * r]))
        # -1 off the site, the spin flip |up> <-> |down> on it
        rest = np.setdiff1d(np.arange(dim), [iu, idn])
        ops.append(csr(
            np.concatenate([rest, [iu, idn]]),
            np.concatenate([rest, [idn, iu]]),
            np.concatenate([np.full(rest.size, -root), [root, root]]),
        ))
    return ops


def embed_excited_hamiltonian(h, basis):
    """Excited-block Hamiltonian -> full subspace matrix (vacuum row/col zero)."""
    full = np.zeros((basis.dim, basis.dim), dtype=complex)
    full[1:, 1:] = h.toarray() if sp.issparse(h) else h
    return full


#: sum of J^dag J of the unit-rate photon-loss and qubit-loss jumps on one
#: site's (up, down) pair; their J kron J^* map that pair's coherences onto
#: the vacuum population with the same four entries.
_LOSS_BLOCK = (
    0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    + 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
)


def unit_dissipator(basis):
    """Dissipator D of the three channels at unit rate on the full subspace,
    vacuum included: the oracle of the excited-block propagation.

    D = sum_k J_k kron J_k^* - (K kron I + I kron K^T)/2 with
    K = sum_k J_k^dag J_k, in the vectorization of
    :func:`hamiltonian_liouvillian`, assembled in one COO pass from closed
    forms.  The dephasing jump of site s is J_s = -I + B_s, with B_s the
    all-ones block on the site's (up, down) pair, so J_s^dag J_s = I and
    sum_s J_s kron J_s = N I kron I - I kron B - B kron I + sum_s B_s kron B_s
    (B = sum_s B_s); the N I kron I cancels against -(K kron I + I kron K)/2.
    With M = K_loss/2 + B, real symmetric with the same 2x2 block on every
    site, D = sum_loss J kron J + sum_s B_s kron B_s - M kron I - I kron M.
    """
    n = basis.dim
    block = 0.5 * _LOSS_BLOCK + 1.0
    pairs = basis.site_pairs()
    a = np.repeat(pairs, 2, axis=1).ravel()  # row a and column b of every
    b = np.tile(pairs, 2).ravel()  # entry (a, b) of a site block
    every = np.arange(n)[:, None]
    blocks = np.tile(block.ravel(), len(pairs))
    # the last terms are B_s kron B_s: rows (a, a') and columns (b, b')
    # inside one site
    rows = [a * n + every, every * n + a, np.zeros_like(a),
            a[:, None] * n + a.reshape(-1, 4).repeat(4, axis=0)]
    cols = [b * n + every, every * n + b, a * n + b,
            b[:, None] * n + b.reshape(-1, 4).repeat(4, axis=0)]
    vals = [
        np.broadcast_to(-blocks, (n, a.size)),
        np.broadcast_to(-blocks, (n, a.size)),
        np.tile(_LOSS_BLOCK.ravel(), len(pairs)),
        np.ones((a.size, 4)),
    ]
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


def _lindblad_rhs_reference(rho, h_full, jump_ops):
    """Direct textbook right-hand side; oracle for the Liouvillian."""
    out = -1j * (h_full @ rho - rho @ h_full)
    for op in jump_ops:
        od = op.conj().T
        out += op @ rho @ od - 0.5 * (od @ op @ rho + rho @ od @ op)
    return out


def test_subspace_dimension():
    assert SubspaceBasis(6, 6).dim == 73
    basis = SubspaceBasis(2, 3)
    idx = {basis.state_index(m, n, s) for n in range(3) for m in range(2) for s in (0, 1)}
    assert idx == set(range(1, basis.dim))


def test_time_conversions():
    assert math.isclose(duration_from_us(2.0), 12 * math.pi)
    assert math.isclose(gamma_to_khz(1.0 / 600.0), 5.0)
    assert math.isclose(gamma_to_khz(1.0 / 300.0), 10.0)


def test_jump_operator_examples():
    basis = SubspaceBasis(1, 1)
    ops = subspace_jump_operators(basis, 1.0)
    photon, transmon, dephase = ops
    up = np.zeros(3)
    up[1] = 1.0
    down = np.zeros(3)
    down[2] = 1.0
    r = 1 / math.sqrt(2)
    assert np.allclose(photon @ up, [r, 0, 0])
    assert np.allclose(photon @ down, [-r, 0, 0])
    assert np.allclose(transmon @ up, [r, 0, 0])
    assert np.allclose(transmon @ down, [r, 0, 0])
    assert np.allclose(dephase @ up, down)  # within-cell spin flip
    assert np.allclose(dephase @ down, up)
    vac = np.array([1.0, 0, 0])
    assert np.allclose(dephase @ vac, -vac)

    zeros = subspace_jump_operators(basis, 0.0)
    assert all(op.nnz == 0 for op in zeros)

    # on two sites, site 1's dephasing is -sqrt(gamma) on the vacuum and site 2
    two = SubspaceBasis(2, 1)
    dephase = subspace_jump_operators(two, 4.0)[2]
    expected = -2.0 * np.eye(5)
    expected[1:3, 1:3] = [[0.0, 2.0], [2.0, 0.0]]
    assert np.array_equal(dephase.toarray(), expected)


def test_liouvillian_matches_reference():
    basis = SubspaceBasis(2, 2)
    h = embed_excited_hamiltonian(
        open_hamiltonian(ModelParams(alpha=A13, beta=0.1, nx=2, ny=2)), basis
    )
    rng = np.random.default_rng(3)
    x = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    rho = x @ x.conj().T
    rho /= rho.trace()
    lh = hamiltonian_liouvillian(h)
    d = unit_dissipator(basis)
    # the excited block of the right-hand side depends on rho's excited block
    lh_exc = hamiltonian_liouvillian(h[1:, 1:])
    d_exc = dephasing_dissipator(basis) - sp.identity(64)
    for gamma in (0.0, 1.0 / 600.0, 0.37, 1.0):
        ops = subspace_jump_operators(basis, gamma)
        ref = _lindblad_rhs_reference(rho, h, [op.toarray() for op in ops])
        fast = ((lh + gamma * d) @ rho.ravel()).reshape(rho.shape)
        assert np.max(np.abs(fast - ref)) < 1e-12
        block = ((lh_exc + gamma * d_exc) @ rho[1:, 1:].ravel()).reshape(8, 8)
        assert np.max(np.abs(block - ref[1:, 1:])) < 1e-12


#: Al-Mohy & Higham (2011), eq. (3.13): for one vector expm_multiply takes
#: its exact-1-norm branch while ||A - tr(A)/n I||_1 <= 63.36.  Beyond it
#: scipy estimates norms with ``onenormest``, which draws random numbers.
_EXACT_NORM_BOUND = 63.36


def _expm_oracle(lv, vec, t):
    """exp(t L) vec by ``expm_multiply`` in equal chunks that each stay on
    the exact-1-norm branch, so the oracle is deterministic."""
    step = lv * t
    n = step.shape[0]
    shifted = step - (step.diagonal().sum() / n) * sp.identity(n, format="csr")
    norm = float(abs(shifted).sum(axis=0).max())
    chunks = max(1, math.ceil(norm / (0.9 * _EXACT_NORM_BOUND)))
    for _ in range(chunks):
        vec = expm_multiply(step / chunks, vec)
    return vec


def _spread(h_full):
    energies = np.linalg.eigvalsh(h_full)
    return energies[-1] - energies[0]


def _textbook_liouvillian(h_full, jump_ops):
    """L from the jump operators, one Kronecker term per operator."""
    h = sp.csr_matrix(h_full)
    eye = sp.identity(h.shape[0], format="csr")
    loss = sum((j.conj().T @ j for j in jump_ops), sp.csr_matrix(h.shape))
    left, right = -1j * h - 0.5 * loss, 1j * h - 0.5 * loss
    drift = sp.kron(left, eye) + sp.kron(eye, right.T)
    return sum((sp.kron(j, j.conj()) for j in jump_ops), drift).tocsr()


@pytest.mark.parametrize("nx, ny", [(6, 6), (3, 5), (8, 8)])
def test_decay_scan_matches_per_rate_oracle(nx, ny):
    params = ModelParams(alpha=A13, beta=0.1, lam=0.2, nx=nx, ny=ny)
    gammas = [0.0, 1.0 / 600.0, 1.0 / 300.0]
    t = duration_from_us(0.5)
    rows = decay_scan(gammas, params=params, t_us=0.5)
    basis = SubspaceBasis(nx, ny)
    h = embed_excited_hamiltonian(open_hamiltonian(params), basis)
    for gamma, row in zip(gammas, rows):
        ops = subspace_jump_operators(basis, gamma)
        vec = _expm_oracle(_textbook_liouvillian(h, ops), corner_up_state(basis).ravel(), t)
        expected = populations(vec.reshape(basis.dim, basis.dim), basis)
        # no series of exp(i tau x) converges below degree tau
        assert row.degree > _spread(h) * t / row.substeps
        assert row.gamma_t0 == gamma
        assert np.max(np.abs(np.subtract((row.p1, row.p2, row.p3), expected))) <= 1e-14


def test_single_cell_analytic_decay():
    basis = SubspaceBasis(1, 1)
    rho0 = np.zeros((3, 3), dtype=complex)
    rho0[1, 1] = 1.0
    g = 0.25
    ts, rhos = lindblad_evolve(rho0, np.zeros((2, 2)), g, basis, 8.0)[:2]
    for t, rho in zip(ts, rhos):
        _, _, p3 = populations(rho, basis)
        assert abs(p3 - math.exp(-g * t)) < 1e-10


def test_closed_system_matches_schroedinger():
    basis = SubspaceBasis(6, 6)
    h = open_hamiltonian(ModelParams(alpha=A13, nx=6, ny=6))
    rho0 = corner_up_state(basis)
    t = 2.0
    rhos = lindblad_evolve(rho0, h, 0.0, basis, t, sample_count=2).rhos
    purity = np.trace(rhos[-1] @ rhos[-1]).real
    assert abs(purity - 1.0) < 1e-8

    vals, vecs = np.linalg.eigh(h.toarray())
    psi0 = np.zeros(72, dtype=complex)
    psi0[0] = 1.0
    psi = (vecs * np.exp(-1j * vals * t)) @ (vecs.conj().T @ psi0)
    rho_exact = np.zeros((73, 73), dtype=complex)
    rho_exact[1:, 1:] = np.outer(psi, psi.conj())
    assert np.max(np.abs(rhos[-1] - rho_exact)) < 1e-8


def test_populations_examples():
    basis = SubspaceBasis(6, 6)
    rho = corner_up_state(basis)
    p1, p2, p3 = populations(rho, basis)
    assert (p1, p2, p3) == (1.0, 0.0, 1.0)  # the corner is an edge site

    vac = np.zeros((73, 73), dtype=complex)
    vac[0, 0] = 1.0
    assert populations(vac, basis) == (0.0, 0.0, 0.0)

    mask = edge_site_mask(6, 6)
    assert mask.sum() == 20 and (~mask).sum() == 16


def test_population_consistency_site_sum_vs_vacuum():
    basis = SubspaceBasis(2, 2)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    rho = x @ x.conj().T
    rho /= rho.trace()
    _, _, p3 = populations(rho, basis)
    assert abs(p3 - (1.0 - rho[0, 0].real)) < 1e-10


def test_validate_density_matrix():
    good = np.diag([0.5, 0.5, 0.0]).astype(complex)
    assert validate_density_matrix(good) == (0.0, 0.0)  # trace defect, min eig
    with pytest.raises(ParameterError):
        validate_density_matrix(np.diag([0.9, 0.3, 0.0]).astype(complex))
    bad = good.copy()
    bad[0, 1] = 0.2
    with pytest.raises(ParameterError):
        validate_density_matrix(bad)


def test_decay_law_and_monotonicity_small_lattice():
    basis = SubspaceBasis(2, 2)
    h = open_hamiltonian(ModelParams(alpha=A13, nx=2, ny=2))
    rho0 = corner_up_state(basis)
    t = 5.0
    p3s = []
    for g in (0.0, 0.02, 0.05, 0.1):
        rhos = lindblad_evolve(rho0, h, g, basis, t, sample_count=2).rhos
        _, _, p3 = populations(rhos[-1], basis)
        assert abs(p3 - math.exp(-g * t)) < 1e-3 * max(math.exp(-g * t), 1e-9)
        p3s.append(p3)
    assert all(a >= b for a, b in zip(p3s, p3s[1:]))  # non-increasing in gamma


def test_trace_and_positivity_along_trajectory():
    basis = SubspaceBasis(2, 2)
    h = open_hamiltonian(ModelParams(alpha=A13, beta=0.1, nx=2, ny=2))
    run = lindblad_evolve(corner_up_state(basis), h, 0.08, basis, 8.0, sample_count=9)
    for rho in run.rhos:
        assert abs(np.trace(rho).real - 1.0) < 1e-8
        assert np.linalg.eigvalsh(rho).min() >= -1e-8
    # the checks of the last snapshot: the excited-state trace against the
    # decay law, and the smallest eigenvalue as its validation computed it
    rho = run.rhos[-1]
    assert run.final_checks == (
        abs(float(rho[1:, 1:].trace().real) - math.exp(-0.08 * 8.0)),
        float(np.linalg.eigvalsh(rho).min()),
    )


def _evolve_corner(gamma):
    """The corner excitation of a 1x1 lattice evolved to t = 1 at rate ``gamma``."""
    basis = SubspaceBasis(1, 1)
    return lindblad_evolve(corner_up_state(basis), np.zeros((2, 2)), gamma, basis, 1.0)


def test_step_guards():
    with pytest.raises(ParameterError, match="finite and nonnegative"):
        _evolve_corner(-0.1)
    with pytest.raises(ParameterError, match="finite and nonnegative"):
        decay_scan([-1.0], PROTOCOL, t_us=2.0)


@pytest.mark.parametrize("gamma", [math.nan, math.inf])
def test_non_finite_gamma_rejected(gamma):
    with pytest.raises(ParameterError, match="finite"):
        _evolve_corner(gamma)
    with pytest.raises(ParameterError, match="finite"):
        decay_scan([0.0, gamma], PROTOCOL, t_us=2.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_non_finite_or_negative_duration_rejected(t):
    basis = SubspaceBasis(1, 1)
    with pytest.raises(ParameterError, match="finite and nonnegative"):
        duration_from_us(t)
    with pytest.raises(ParameterError, match="finite and nonnegative"):
        decay_scan([0.0], PROTOCOL, t_us=t)
    with pytest.raises(ParameterError, match="finite and nonnegative"):
        lindblad_evolve(corner_up_state(basis), np.zeros((2, 2)), 0.0, basis, t)


@pytest.mark.parametrize("on_diagonal", [False, True])
def test_non_finite_density_matrix_rejected(on_diagonal):
    # One NaN in an otherwise valid state: the Hermiticity, trace and
    # positivity comparisons all read False on NaN, so only the explicit
    # finiteness check can catch it.
    rho = np.diag([0.5, 0.25, 0.25]).astype(complex)
    if on_diagonal:
        rho[1, 1] = np.nan
    else:
        rho[0, 1] = rho[1, 0] = np.nan
    with pytest.raises(ParameterError, match="non-finite"):
        validate_density_matrix(rho)


def test_snapshot_validation_raises():
    basis = SubspaceBasis(2, 2)
    h = open_hamiltonian(ModelParams(alpha=A13, nx=2, ny=2)).toarray()
    broken = h.copy()
    broken[0, 1] += 0.5  # not Hermitian: rho(t) leaves the Hermitian matrices
    with pytest.raises(ParameterError, match="not Hermitian"):
        lindblad_evolve(corner_up_state(basis), broken, 0.0, basis, 1.0, sample_count=3)
    with pytest.raises(ParameterError, match="trace"):
        lindblad_evolve(2.0 * corner_up_state(basis), h, 0.0, basis, 1.0)
    # the Hamiltonian is the excited block alone, never the full subspace
    with pytest.raises(ParameterError, match="excited block"):
        lindblad_evolve(corner_up_state(basis), np.eye(basis.dim), 0.0, basis, 1.0)
    with pytest.raises(ParameterError, match="rho0 shape"):
        lindblad_evolve(np.eye(3) / 3, h, 0.0, basis, 1.0)


def test_vacuum_coherence_rejected():
    # the excited block evolves on its own only without vacuum coherence
    basis = SubspaceBasis(1, 1)
    rho0 = np.zeros((3, 3), dtype=complex)
    rho0[:2, :2] = 0.5  # (|0> + |up>)(<0| + <up|) / 2
    validate_density_matrix(rho0)
    with pytest.raises(ParameterError, match="coherence between the vacuum"):
        lindblad_evolve(rho0, np.zeros((2, 2)), 0.1, basis, 1.0)


def test_trace_check_can_fail(monkeypatch):
    # series coefficients 0.1 % off: the excited-state trace misses the
    # decay law at every rate, and the scan must say so
    bessel = dynamics._bessel_j
    monkeypatch.setattr(dynamics, "_bessel_j", lambda x, n: 1.001 * bessel(x, n))
    for gamma in (0.0, 1.0 / 300.0):
        with pytest.raises(ParameterError, match="trace"):
            decay_scan([gamma], PROTOCOL, t_us=2.0)


def test_decay_scan_bit_identical_under_global_rng():
    # nothing in the propagation may draw from (or advance) the global
    # np.random state, as scipy's onenormest would
    gammas = [0.0, 1.0 / 300.0]
    t = duration_from_us(2.0)
    results = []
    for seed in (0, 7, 2024):
        np.random.seed(seed)
        before = np.random.get_state()
        rows = decay_scan(gammas, PROTOCOL, t_us=2.0)
        after = np.random.get_state()
        assert before[0] == after[0] and before[2:] == after[2:]
        assert np.array_equal(before[1], after[1])
        assert all(r.degree >= 1 and r.substeps >= 1 for r in rows)
        for r in rows:
            assert abs(r.p3 - math.exp(-r.gamma_t0 * t)) <= 1e-12
        results.append([(r.p1, r.p2, r.p3) for r in rows])
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("side", [3, 6])
@pytest.mark.parametrize("gamma", [0.05, 0.3, 1.0, 3.0])
def test_large_rates_meet_decay_law_and_oracle(side, gamma):
    params = ModelParams(alpha=A13, beta=0.1, lam=0.2, nx=side, ny=side)
    basis = SubspaceBasis(side, side)
    t = duration_from_us(2.0)
    row = decay_scan([gamma], params, t_us=2.0)[0]
    assert abs(row.p3 - math.exp(-gamma * t)) <= 1e-12 * math.exp(-gamma * t)
    h = open_hamiltonian(params)
    rho0 = corner_up_state(basis)
    run = lindblad_evolve(rho0, h, gamma, basis, t, sample_count=2)
    lv = hamiltonian_liouvillian(embed_excited_hamiltonian(h, basis))
    lv = lv + gamma * unit_dissipator(basis)
    expected = _expm_oracle(lv, rho0.ravel(), t).reshape(rho0.shape)
    assert np.max(np.abs(run.rhos[-1] - expected)) <= 1e-12
    assert populations(run.rhos[-1], basis) == (row.p1, row.p2, row.p3)


def test_zero_duration_returns_the_initial_state():
    basis = SubspaceBasis(6, 6)
    rho0 = corner_up_state(basis)
    run = lindblad_evolve(rho0, open_hamiltonian(PROTOCOL), 1.0, basis, 0.0, sample_count=3)
    assert all(np.array_equal(rho, rho0) for rho in run.rhos)
    rows = decay_scan([0.0, 1.0 / 300.0, 3.0], PROTOCOL, t_us=0.0)
    assert [(r.p1, r.p2, r.p3) for r in rows] == [(1.0, 0.0, 1.0)] * 3


def test_closed_system_at_two_microseconds_matches_eigh():
    params = ModelParams(alpha=A13, beta=0.1, lam=0.5, nx=6, ny=6)
    basis = SubspaceBasis(6, 6)
    h = open_hamiltonian(params).toarray()
    t = duration_from_us(2.0)
    rho0 = corner_up_state(basis)
    run = lindblad_evolve(rho0, h, 0.0, basis, t, sample_count=2)
    vals, vecs = np.linalg.eigh(embed_excited_hamiltonian(h, basis))
    u = (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T
    assert run.substeps == 1
    assert np.max(np.abs(run.rhos[-1] - u @ rho0 @ u.conj().T)) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(
    nx=st.integers(2, 4),
    ny=st.integers(2, 4),
    beta=st.floats(0.0, 0.25),
    lam=st.floats(0.0, 2.0),
    gamma=st.floats(0.0, 3.0),
    t=st.floats(0.0, 40.0),
)
def test_propagator_matches_dense_expm(nx, ny, beta, lam, gamma, t):
    params = ModelParams(alpha=A13, beta=beta, lam=lam, nx=nx, ny=ny)
    basis = SubspaceBasis(nx, ny)
    h = open_hamiltonian(params)
    rho0 = corner_up_state(basis)
    run = lindblad_evolve(rho0, h, gamma, basis, t, sample_count=2)
    lv = hamiltonian_liouvillian(embed_excited_hamiltonian(h, basis))
    lv = lv + gamma * unit_dissipator(basis)
    # not _expm_oracle: on the 2x2 lattice at beta = lam = gamma = 0 its
    # Taylor terms grow 100x past the result and their rounding alone reaches
    # 1e-13 (t = 9.75); chunks small enough to avoid that pile up as much
    # rounding at gamma t ~ 100.  Pade with squaring stays ~3x below the bound
    expected = (expm(t * lv.toarray()) @ rho0.ravel()).reshape(rho0.shape)
    # the truncation bound per sub-step, with room for rounding in both
    bound = run.substeps * dynamics.SERIES_TOL + 1e-13
    assert np.linalg.norm(run.rhos[-1] - expected) <= bound


@pytest.mark.parametrize("x", [1e-3, 0.5, 7.3, 48.0, 192.0, 600.0])
def test_bessel_values_match_scipy(x):
    # the recurrence's rounding grows with the number of its steps, ~x
    n = int(1.5 * x) + 60
    err = np.max(np.abs(dynamics._bessel_j(x, n) - jv(np.arange(n + 1), x)))
    assert err <= 1e-14 * max(1.0, x / 200.0)


@pytest.mark.parametrize("nx, ny", [(1, 1), (2, 2), (2, 3)])
def test_dephasing_dissipator_is_the_excited_block(nx, ny):
    # on the excited block the full unit dissipator is D_phi - I: the loss
    # jumps' J^dag J sum to the identity there, and their feed leaves it
    basis = SubspaceBasis(nx, ny)
    states = np.arange(1, basis.dim)
    exc = (states[:, None] * basis.dim + states).ravel()  # entries of vec(rho)
    full = unit_dissipator(basis).toarray()[np.ix_(exc, exc)]
    d_phi = dephasing_dissipator(basis).toarray()
    assert np.array_equal(full, d_phi - np.eye(len(d_phi)))
    # D_phi real symmetric with spectrum in [-4, 0], as _series_plan's radius
    # 2 gamma about the centre -3 gamma assumes
    assert d_phi.dtype.kind == "f" and np.array_equal(d_phi, d_phi.T)
    spectrum = np.linalg.eigvalsh(d_phi)
    assert spectrum[0] >= -4.0 - 1e-12 and spectrum[-1] <= 1e-12


def test_decay_scan_lattice_guard():
    with pytest.raises(ParameterError):
        decay_scan([0.0], params=ModelParams(alpha=A13, nx=9, ny=9), t_us=2.0)


def test_lab_frame_cross_check():
    """Bare-operator master equation in the lab frame vs the reduced model.

    The oracle integrates the driven plaquette with bare jump operators
    (photon loss, qubit loss, qubit dephasing) in the exact interaction
    picture of the free Hamiltonian; the reduced rotating-frame model with
    dressed jump operators must reproduce the site populations up to
    rotating-wave and secular corrections.
    """
    from qshsim.circuit import (
        DEVICE_CELLS,
        _bond_operator,
        dressed_transform,
        free_hamiltonian,
        plaquette_plans,
    )

    cells = DEVICE_CELLS
    n, dim = 4, 9
    beta, gamma, t_final = 0.1, 0.05, 0.5
    plans = plaquette_plans(A13, beta)

    h0 = free_hamiltonian(cells)
    e0, v0 = np.linalg.eigh(h0)
    bonds = [_bond_operator(n, p.bond) for p in plans]
    tone_data = [
        [(t.amplitude, t.freq, t.sign * t.phase) for t in p.tones] for p in plans
    ]
    jumps = []
    for i in range(n):
        pg, qe = 1 + 2 * i, 2 + 2 * i
        a = np.zeros((dim, dim))
        a[0, pg] = 1.0
        sm = np.zeros((dim, dim))
        sm[0, qe] = 1.0
        sz = -np.eye(dim)
        sz[qe, qe] = 1.0
        jumps.extend([a, sm, sz])
    jumps = [math.sqrt(gamma) * j for j in jumps]

    def rot(t):
        return (v0 * np.exp(1j * e0 * t)) @ v0.conj().T

    def rhs(t, rho):
        r = rot(t)
        rd = r.conj().T
        h_i = np.zeros((dim, dim), dtype=complex)
        for op, tones in zip(bonds, tone_data):
            j = sum(a * math.cos(w * t + ph) for a, w, ph in tones)
            h_i += j * (r @ op @ rd)
        out = -1j * (h_i @ rho - rho @ h_i)
        for g_op in jumps:
            gi = r @ g_op @ rd
            gid = gi.conj().T
            out += gi @ rho @ gid - 0.5 * (gid @ gi @ rho + rho @ gid @ gi)
        return out

    w = dressed_transform(n)
    rho_d0 = np.zeros((dim, dim), dtype=complex)
    rho_d0[1, 1] = 1.0
    rho = w @ rho_d0 @ w.T
    fmax = max(t.freq for p in plans for t in p.tones)
    dt = min(0.05 / (2 * max(c.g for c in cells)), (2 * math.pi / fmax) / 60.0)
    steps = int(math.ceil(t_final / dt))
    dt = t_final / steps
    for k in range(steps):
        t = k * dt
        k1 = rhs(t, rho)
        k2 = rhs(t + dt / 2, rho + dt / 2 * k1)
        k3 = rhs(t + dt / 2, rho + dt / 2 * k2)
        k4 = rhs(t + dt, rho + dt * k3)
        rho = rho + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    def site_pops(r):
        d = np.diag(r).real
        return np.array([d[1 + 2 * i] + d[2 + 2 * i] for i in range(n)])

    pops_lab = site_pops(rho)

    basis = SubspaceBasis(2, 2)
    params = ModelParams(alpha=A13, beta=beta, nx=2, ny=2)
    run = lindblad_evolve(
        rho_d0, open_hamiltonian(params), gamma, basis, t_final, sample_count=2
    )
    pops_rot = site_pops(run.rhos[-1])

    assert abs(pops_lab.sum() - pops_rot.sum()) < 1e-6  # both follow e^{-gamma t}
    assert np.max(np.abs(pops_lab - pops_rot)) < 0.02


def test_underflowing_interval_returns_the_initial_state():
    # t = 5e-324 in one interval: tau / k underflows, the series has degree 0
    basis = SubspaceBasis(2, 2)
    rho0 = corner_up_state(basis)
    h = open_hamiltonian(ModelParams(alpha=A13, nx=2, ny=2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for gamma in (0.0, 1.0):
            run = lindblad_evolve(rho0, h, gamma, basis, 5e-324, sample_count=2)
            assert run.degree == 0
            assert all(np.array_equal(rho, rho0) for rho in run.rhos)
